"""Page fetching for the crawler scenario (paper Section 4.2).

The paper sketches asynchronous iteration driving a Web crawler: "given a
table of thousands of URLs, a query over that table could be used to fetch
the HTML for each URL".  :class:`FetchService` plays the Web server side:
it renders a page's HTML from the corpus document, charges latency, and
exposes the outgoing links (for the next crawl round).
"""

import asyncio

from repro.web.cache import ResultCache
from repro.web.client import run_blocking


class FetchResult:
    """Outcome of fetching one URL."""

    __slots__ = ("url", "status", "length", "title", "date", "links")

    def __init__(self, url, status, length, title, date, links):
        self.url = url
        self.status = status
        self.length = length
        self.title = title
        self.date = date
        self.links = links

    def __repr__(self):
        return "FetchResult({} -> {})".format(self.url, self.status)


def render_html(doc):
    """Synthesize the HTML of a corpus document."""
    body = " ".join(doc.tokens)
    anchors = "\n".join('<a href="http://{0}">{0}</a>'.format(u) for u in doc.links)
    return (
        "<html><head><title>{title}</title></head>\n"
        "<body>\n<p>{body}</p>\n{anchors}\n</body></html>\n"
    ).format(title=doc.title(), body=body, anchors=anchors)


def _cache_key(url):
    return ResultCache.key("fetch", "fetch", url)


class FetchService:
    """Fetch pages of the simulated Web with latency and optional caching."""

    def __init__(self, corpus, latency=None, cache=None):
        self.corpus = corpus
        self.latency = latency
        self.cache = cache
        self.requests_sent = 0

    def probe(self, url):
        """The cached :class:`FetchResult` for *url*, or ``None``: no I/O.

        Status-aware: serves fresh *and* stale entries.  Fetch results
        are plain values (a 404 is a :class:`FetchResult`, not an
        exception), so there is no failure-replay path here — the TTL
        policy alone decides how long a page stays cached.  The only
        cache read of a fetch; :meth:`fetch_async` only writes.
        """
        if self.cache is None:
            return None
        found = self.cache.lookup(_cache_key(url))
        return found.value if found.hit else None

    def fetch(self, url):
        """:meth:`fetch_async` sent through the shared pump and waited for."""
        return run_blocking(
            ("fetch", url),
            "fetch",
            lambda attempt: self.fetch_async(url),
            lambda: self.probe(url),
        )

    async def fetch_async(self, url):
        delay = self._delay(url)
        self.requests_sent += 1
        if delay > 0:
            await asyncio.sleep(delay)
        result = self._resolve(url)
        if self.cache is not None:
            self.cache.put(_cache_key(url), result)
        return result

    def _delay(self, url):
        if self.latency is None:
            return 0.0
        # Fetch latency is keyed per-URL: every URL is a distinct host.
        return self.latency.delay("fetch:{}".format(url), url)

    def _resolve(self, url):
        doc = self.corpus.lookup_url(url)
        if doc is None:
            return FetchResult(url, 404, 0, None, None, [])
        html = render_html(doc)
        return FetchResult(url, 200, len(html), doc.title(), doc.date, list(doc.links))

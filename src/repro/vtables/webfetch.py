"""``WebFetch`` and ``WebLinks``: page retrieval as virtual tables.

Paper Section 4.2 sketches asynchronous iteration powering a Web crawler.
These tables make that concrete:

- ``WebFetch(Url, Status, Bytes, Title, Date)`` — exactly one row per
  URL (missing pages get status 404).
- ``WebLinks(Url, LinkUrl, LinkRank)`` — one row per outgoing link of the
  fetched page: the crawler's frontier expansion, and a second natural
  source of tuple cancellation/proliferation (0 or many links).

Unlike the search tables, their single input column is ``Url`` — there is
no SearchExp/Ti machinery — so they also exercise the framework's
generality beyond search engines.
"""

from repro.relational.schema import Column
from repro.relational.types import DataType
from repro.util.errors import VirtualTableError
from repro.vtables.base import (
    ExternalCall,
    VTableInstance,
    VirtualTableDef,
    cache_probe,
)

URL_PARAM = "Url"


class WebFetchDef(VirtualTableDef):
    uses_search_terms = False

    def __init__(self, name, fetch_service):
        super().__init__(name)
        self.fetch_service = fetch_service

    def input_names(self, n):
        return [URL_PARAM]

    def instantiate(self, qualifier, n, template=None, rank_limit=None):
        if template is not None or rank_limit is not None:
            raise VirtualTableError("WebFetch takes only a Url binding")
        return WebFetchInstance(self, qualifier)


class WebFetchInstance(VTableInstance):
    def __init__(self, definition, qualifier):
        super().__init__(
            definition,
            qualifier,
            {},
            input_params=[URL_PARAM],
            result_fields={
                "Status": "status",
                "Bytes": "bytes",
                "Title": "title",
                "Date": "date",
            },
        )

    def columns(self):
        return [
            Column(URL_PARAM, DataType.STR),
            Column("Status", DataType.INT),
            Column("Bytes", DataType.INT),
            Column("Title", DataType.STR),
            Column("Date", DataType.DATE),
        ]

    def make_call(self, bindings):
        url = bindings[URL_PARAM]
        service = self.definition.fetch_service
        return ExternalCall(
            key=("fetch", url),
            destination="fetch",
            factory=lambda attempt: _fetch_async(service, url),
            probe=cache_probe(service, _fetch_rows, url),
        )


def _fetch_rows(result):
    return [
        {
            "status": result.status,
            "bytes": result.length,
            "title": result.title,
            "date": result.date,
        }
    ]


async def _fetch_async(service, url):
    return _fetch_rows(await service.fetch_async(url))


class WebLinksDef(VirtualTableDef):
    uses_search_terms = False

    def __init__(self, name, fetch_service):
        super().__init__(name)
        self.fetch_service = fetch_service

    def input_names(self, n):
        return [URL_PARAM]

    def instantiate(self, qualifier, n, template=None, rank_limit=None):
        if template is not None or rank_limit is not None:
            raise VirtualTableError("WebLinks takes only a Url binding")
        return WebLinksInstance(self, qualifier)


class WebLinksInstance(VTableInstance):
    def __init__(self, definition, qualifier):
        super().__init__(
            definition,
            qualifier,
            {},
            input_params=[URL_PARAM],
            result_fields={"LinkUrl": "link_url", "LinkRank": "link_rank"},
        )

    def columns(self):
        return [
            Column(URL_PARAM, DataType.STR),
            Column("LinkUrl", DataType.STR),
            Column("LinkRank", DataType.INT),
        ]

    def make_call(self, bindings):
        url = bindings[URL_PARAM]
        service = self.definition.fetch_service
        return ExternalCall(
            key=("links", url),
            destination="fetch",
            factory=lambda attempt: _links_async(service, url),
            probe=cache_probe(service, _link_rows, url),
        )


def _link_rows(result):
    return [
        {"link_url": link, "link_rank": rank}
        for rank, link in enumerate(result.links, start=1)
    ]


async def _links_async(service, url):
    return _link_rows(await service.fetch_async(url))

"""Synthetic Web corpus: deterministic page generation.

Pages are rendered from the calibrated recipes of
:mod:`repro.web.calibration`: background filler words around the required
entity/keyword mentions, with NEAR chains kept inside the proximity window
and everything driven by seeded, order-independent randomness.  Each page
gets a URL, a date, an authority score (the "link popularity" signal the
Google-style ranker uses), and outgoing links (for the crawler scenario).
"""

import datetime

from repro.util.errors import ReproError
from repro.util.rng import derive_rng
from repro.web.calibration import STATE_CODES, build_recipes, stable_shuffle
from repro.web.index import InvertedIndex
from repro.web.tokenizer import phrase_tokens

# Filler vocabulary.  Deliberately disjoint from every entity/keyword token
# so background text never perturbs calibrated hit counts;
# :func:`_check_vocabulary` enforces this at build time.
BACKGROUND_VOCABULARY = (
    "a an of to in on for at from this that these those is are was were be "
    "been has have had will can may also more most other some such only its "
    "it as or if but not all each about into over under between during "
    "after before page web site home contact links news archive report "
    "study guide online free index data info email welcome update notes "
    "travel hotel visit events photos maps forum club school library center "
    "office county river valley park trail forest garden bridge museum "
    "gallery theater market street road avenue plaza tower harbor airport "
    "station hospital college university institute department program "
    "project research science course student teacher family community "
    "business company service product store shop price sale order account "
    "member login version release internet network server driver sports "
    "art books video audio radio media press journal letter article review "
    "summary detail section chapter figure table list item value number "
    "result question answer topic subject title author editor publisher "
    "copyright reserved rights terms policy privacy help faq support"
).split()


class Document:
    """One synthetic Web page."""

    __slots__ = ("doc_id", "url", "date", "tokens", "authority", "kind", "primary", "links")

    def __init__(self, doc_id, url, date, tokens, authority, kind, primary):
        self.doc_id = doc_id
        self.url = url
        self.date = date  # ISO 'YYYY-MM-DD'
        self.tokens = tokens
        self.authority = authority
        self.kind = kind
        self.primary = primary
        self.links = []  # URLs, filled in after all documents exist

    def text(self):
        return " ".join(self.tokens)

    def title(self):
        if self.primary:
            return "{} - {}".format(self.primary, self.url)
        return self.url

    def __repr__(self):
        return "Document({}, {})".format(self.doc_id, self.url)


class CorpusConfig:
    """Knobs for corpus generation.

    ``count_scale`` divides the Web-scale state/capital targets into page
    counts; ``near_scale`` divides the NEAR co-occurrence targets.  The
    default seed is fixed so every build of the default corpus is
    bit-identical.
    """

    def __init__(
        self,
        seed=2000,
        count_scale=6000.0,
        near_scale=16.0,
        background_docs=1200,
        max_links_per_page=5,
    ):
        self.seed = seed
        self.count_scale = count_scale
        self.near_scale = near_scale
        self.background_docs = background_docs
        self.max_links_per_page = max_links_per_page

    @classmethod
    def small(cls, seed=2000):
        """A tiny corpus for fast unit tests (orderings not calibrated)."""
        return cls(
            seed=seed, count_scale=120000.0, near_scale=160.0, background_docs=60
        )


class Corpus:
    """The generated pages plus their inverted index."""

    def __init__(self, documents, config):
        self.documents = documents
        self.config = config
        self.by_url = {doc.url: doc for doc in documents}
        if len(self.by_url) != len(documents):
            raise ReproError("duplicate URLs in generated corpus")
        self.index = InvertedIndex()
        for doc in documents:
            self.index.add_document(doc.doc_id, doc.tokens)

    def __len__(self):
        return len(self.documents)

    def document(self, doc_id):
        return self.documents[doc_id]

    def lookup_url(self, url):
        return self.by_url.get(url)


def build_corpus(config=None):
    """Generate the corpus for *config* (default :class:`CorpusConfig`)."""
    config = config or CorpusConfig()
    recipes = build_recipes(config)
    _check_vocabulary(recipes)
    recipes = stable_shuffle(recipes, config.seed, "recipe-order")
    documents = []
    for doc_id, recipe in enumerate(recipes):
        rng = derive_rng(config.seed, "doc", doc_id)
        tokens = _render_tokens(recipe, rng)
        url = _make_url(recipe, rng, doc_id)
        date = _make_date(rng)
        authority = _make_authority(recipe, rng)
        documents.append(
            Document(doc_id, url, date, tokens, authority, recipe.kind, recipe.primary)
        )
    _assign_links(documents, config)
    return Corpus(documents, config)


# -- rendering -----------------------------------------------------------------


def _filler(rng, count):
    return rng.choices(BACKGROUND_VOCABULARY, k=count)


def _render_tokens(recipe, rng):
    tokens = _filler(rng, rng.randint(4, 9))
    for i, mention in enumerate(recipe.mentions):
        if i > 0:
            # NEAR chains stay inside the proximity window (10 words);
            # anything else is pushed well outside it.
            gap = rng.randint(1, 4) if recipe.near_chain else rng.randint(14, 20)
            tokens += _filler(rng, gap)
        tokens += phrase_tokens(mention)
    tokens += _filler(rng, rng.randint(4, 9))
    # Occasional repeat mentions of the primary entity give the term-
    # frequency ranker something to distinguish pages by.
    if recipe.primary is not None:
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            tokens += phrase_tokens(recipe.primary)
            tokens += _filler(rng, rng.randint(2, 6))
    return tokens


_URL_PATTERNS = (
    "www.{slug}{n}.com/index.html",
    "www.{slug}{n}.com/{word}.html",
    "{slug}{n}.org/{word}/",
    "www.geopages.com/{slug}{n}/",
    "members.webring.net/{slug}{n}.html",
    "www.{word}{n}.net/{slug}.html",
)


def _make_url(recipe, rng, doc_id):
    if recipe.official:
        if recipe.kind == "state":
            return "www.state.{}.us/welcome.html".format(STATE_CODES[recipe.primary])
        if recipe.kind == "sig":
            return "www.acm.org/{}/index.html".format(_slug(recipe.primary))
        if recipe.kind == "movie":
            return "www.moviedb.com/title/{}/".format(_slug(recipe.primary))
    slug = _slug(recipe.primary) if recipe.primary else rng.choice(BACKGROUND_VOCABULARY)
    pattern = rng.choice(_URL_PATTERNS)
    return pattern.format(slug=slug, n=doc_id, word=rng.choice(BACKGROUND_VOCABULARY))


def _slug(phrase):
    return "".join(phrase_tokens(phrase))


_EPOCH = datetime.date(1996, 1, 1)
_DATE_SPAN_DAYS = 1369  # through 1999-09-30


def _make_date(rng):
    return (_EPOCH + datetime.timedelta(days=rng.randint(0, _DATE_SPAN_DAYS))).isoformat()


def _make_authority(recipe, rng):
    if recipe.official:
        return 0.95 + 0.05 * rng.random()
    return rng.random() ** 3


def _assign_links(documents, config):
    if len(documents) < 2:
        return
    for doc in documents:
        rng = derive_rng(config.seed, "links", doc.doc_id)
        fanout = rng.randint(0, config.max_links_per_page)
        targets = set()
        for _ in range(fanout):
            target = rng.randrange(len(documents))
            if target != doc.doc_id:
                targets.add(target)
        doc.links = sorted(documents[t].url for t in targets)


def _check_vocabulary(recipes):
    """Assert background words never collide with mention tokens."""
    mention_tokens = set()
    for recipe in recipes:
        for mention in recipe.mentions:
            mention_tokens.update(phrase_tokens(mention))
    collisions = mention_tokens & set(BACKGROUND_VOCABULARY)
    if collisions:
        raise ReproError(
            "background vocabulary collides with mentions: {}".format(
                sorted(collisions)
            )
        )

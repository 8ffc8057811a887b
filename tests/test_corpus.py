"""Corpus generation: determinism, calibration plumbing, hygiene."""

import pytest

from repro.util.errors import ReproError
from repro.web.calibration import (
    DocRecipe,
    _MentionTally,
    build_recipes,
    stable_shuffle,
    template_keyword_targets,
)
from repro.web.corpus import (
    BACKGROUND_VOCABULARY,
    Corpus,
    CorpusConfig,
    build_corpus,
)
from repro.web.tokenizer import phrase_tokens, tokenize


class TestTokenizer:
    def test_lowercases(self):
        assert tokenize("New York") == ["new", "york"]

    def test_strips_punctuation(self):
        assert tokenize("hello, world! (42)") == ["hello", "world", "42"]

    def test_phrase_tokens(self):
        assert phrase_tokens("four corners") == ["four", "corners"]


class TestMentionTally:
    def test_counts_exact_phrase(self):
        tally = _MentionTally()
        tally.add_recipe(DocRecipe("state", "Utah", ["Utah"]))
        assert tally.pages_matching("Utah") == 1
        assert tally.pages_matching("Ohio") == 0

    def test_counts_subphrase_containment(self):
        tally = _MentionTally()
        tally.add_recipe(DocRecipe("state", "West Virginia", ["West Virginia"]))
        tally.add_recipe(DocRecipe("capital", "Oklahoma City", ["Oklahoma City"]))
        assert tally.pages_matching("Virginia") == 1
        assert tally.pages_matching("Oklahoma") == 1
        assert tally.pages_matching("West Virginia") == 1

    def test_duplicate_mention_counts_once_per_page(self):
        tally = _MentionTally()
        tally.add_recipe(DocRecipe("state", "Utah", ["Utah", "Utah"]))
        assert tally.pages_matching("Utah") == 1


class TestRecipes:
    def test_template_keyword_targets_deterministic(self):
        assert template_keyword_targets(7) == template_keyword_targets(7)
        assert template_keyword_targets(7) != template_keyword_targets(8)

    def test_recipes_deterministic(self):
        config = CorpusConfig.small()
        a = [repr(r) for r in build_recipes(config)]
        b = [repr(r) for r in build_recipes(config)]
        assert a == b

    def test_stable_shuffle_is_permutation(self):
        items = list(range(100))
        shuffled = stable_shuffle(items, 1, "x")
        assert sorted(shuffled) == items
        assert shuffled != items
        assert stable_shuffle(items, 1, "x") == shuffled


class TestCorpusBuild:
    def test_small_corpus_builds(self, small_web):
        corpus = small_web.corpus
        assert len(corpus) > 100
        assert sum(len(d.tokens) for d in corpus.documents) > 1000

    def test_urls_unique(self, small_web):
        urls = [d.url for d in small_web.corpus.documents]
        assert len(urls) == len(set(urls))

    def test_determinism_across_builds(self):
        config = CorpusConfig.small()
        a = build_corpus(config)
        b = build_corpus(config)
        assert [d.url for d in a.documents] == [d.url for d in b.documents]
        assert [d.tokens for d in a.documents[:20]] == [
            d.tokens for d in b.documents[:20]
        ]

    def test_seed_changes_corpus(self):
        a = build_corpus(CorpusConfig.small(seed=1))
        b = build_corpus(CorpusConfig.small(seed=2))
        assert [d.url for d in a.documents] != [d.url for d in b.documents]

    def test_dates_in_range(self, small_web):
        for doc in small_web.corpus.documents[:200]:
            assert "1996-01-01" <= doc.date <= "1999-10-01"

    def test_authority_in_unit_interval(self, small_web):
        for doc in small_web.corpus.documents:
            assert 0.0 <= doc.authority <= 1.0

    def test_official_state_pages_exist(self, web):
        assert web.corpus.lookup_url("www.state.wy.us/welcome.html") is not None
        assert web.corpus.lookup_url("www.state.ca.us/welcome.html") is not None

    def test_links_point_to_real_pages(self, small_web):
        corpus = small_web.corpus
        for doc in corpus.documents[:100]:
            for link in doc.links:
                assert corpus.lookup_url(link) is not None

    def test_lookup_unknown_url(self, small_web):
        assert small_web.corpus.lookup_url("www.nosuchpage.com/") is None

    def test_background_vocabulary_disjoint_from_mentions(self):
        # Enforced at build time; duplicate corpora would raise.
        recipes = build_recipes(CorpusConfig.small())
        mention_tokens = set()
        for recipe in recipes:
            for mention in recipe.mentions:
                mention_tokens.update(phrase_tokens(mention))
        assert not mention_tokens & set(BACKGROUND_VOCABULARY)

    def test_duplicate_urls_rejected(self, small_web):
        docs = small_web.corpus.documents[:2]
        clones = [docs[0], docs[0]]
        with pytest.raises(ReproError, match="duplicate URLs"):
            Corpus(clones, small_web.config)

    def test_near_chain_docs_respect_window(self, web):
        """Every four-corners co-occurrence page must actually match NEAR."""
        from repro.web.searchexpr import parse_search_expression

        expr = parse_search_expression('"Colorado" near "four corners"')
        count = web.corpus.index.count(expr)
        assert count == 109  # round(1745 / 16)

"""DSQ: phrase/term correlation and triple discovery."""

import pytest

from repro.dsq import DsqSession
from repro.util.errors import ReproError


@pytest.fixture()
def session(engine):
    s = DsqSession(engine)
    s.register_domain("States", "Name")
    s.register_domain("Movies", "Title")
    return s


class TestDomains:
    def test_register_returns_label(self, engine):
        s = DsqSession(engine)
        assert s.register_domain("States", "Name") == "States.Name"

    def test_custom_label(self, engine):
        s = DsqSession(engine)
        assert s.register_domain("States", "Capital", label="caps") == "caps"

    def test_non_string_column_rejected(self, engine):
        s = DsqSession(engine)
        with pytest.raises(ReproError, match="string columns"):
            s.register_domain("States", "Population")


class TestCorrelation:
    def test_scuba_states(self, session):
        corr = session.correlate("scuba diving", "States", "Name")
        top = [t for t, _ in corr.nonzero()[:3]]
        assert top == ["Florida", "California", "Hawaii"]

    def test_scuba_movies(self, session):
        corr = session.correlate("scuba diving", "Movies", "Title")
        assert corr.nonzero()[0][0] == "Deep Blue Reef"

    def test_counts_descending(self, session):
        corr = session.correlate("scuba diving", "States", "Name")
        counts = [c for _, c in corr.ranking]
        assert counts == sorted(counts, reverse=True)

    def test_phrase_with_quote_escaped(self, session):
        corr = session.correlate("o'neill", "States", "Name")
        assert all(c == 0 for _, c in corr.ranking)

    def test_correlate_all_covers_domains(self, session):
        correlations = session.correlate_all("scuba diving")
        assert set(correlations) == {"States.Name", "Movies.Title"}

    def test_top_helper(self, session):
        corr = session.correlate("scuba diving", "States", "Name")
        assert len(corr.top(3)) == 3


class TestTriples:
    def test_underwater_thriller_in_florida(self, session):
        report = session.explain(
            "scuba diving", triple_domains=["Movies.Title", "States.Name"]
        )
        assert report.triples, "expected at least one triple"
        best = report.triples[0]
        assert best[0] == "Deep Blue Reef"
        assert best[1] == "Florida"
        assert best[2] > 0

    def test_temp_tables_cleaned_up(self, session, engine):
        before = set(engine.database.table_names())
        session.explain("scuba diving", triple_domains=["Movies.Title", "States.Name"])
        assert set(engine.database.table_names()) == before

    def test_no_triples_for_uncorrelated_phrase(self, session):
        report = session.explain(
            "zzyzzxqq", triple_domains=["Movies.Title", "States.Name"]
        )
        assert report.triples == []

    def test_summary_renders(self, session):
        report = session.explain("scuba diving")
        text = report.summary()
        assert "scuba diving" in text
        assert "Florida" in text


class TestRelatedTerms:
    def test_related_finds_coscripted_movie(self, session):
        # Triple pages mention Florida near "Deep Blue Reef".
        correlations = session.correlate_all("Florida")
        movies = correlations["Movies.Title"].nonzero()
        assert movies and movies[0][0] == "Deep Blue Reef"

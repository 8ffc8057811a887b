"""Virtual tables: instances, schemas, calls, EVScan."""

import pytest

from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import RequestPump, drive
from repro.relational.placeholder import Placeholder, is_placeholder
from repro.relational.types import DataType
from repro.util.errors import BindingError, VirtualTableError
from repro.vtables import EVScan, WebCountDef, WebFetchDef, WebLinksDef, WebPagesDef
from repro.vtables.webpages import DEFAULT_MAX_RANK
from repro.web.client import SearchClient


def run_call(call):
    """One attempt of *call*, outside any pump."""
    return drive(call.execute_async())


@pytest.fixture()
def context():
    """A blocking scan's context, over a pump the test owns."""
    pump = RequestPump()
    yield AsyncContext(pump, dedup=False)
    pump.shutdown()


@pytest.fixture()
def av_client(web):
    return SearchClient(web.engine("AV"))


@pytest.fixture()
def google_client(web):
    return SearchClient(web.engine("Google"))


class TestWebCountInstance:
    def test_schema_shape(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=2)
        assert inst.schema.names() == ["SearchExp", "T1", "T2", "Count"]
        assert inst.schema[3].type is DataType.INT
        assert all(c.qualifier == "WC" for c in inst.schema)

    def test_default_template_uses_near(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=3)
        assert inst.template == "%1 near %2 near %3"

    def test_default_template_without_near(self, google_client):
        inst = WebCountDef("WebCount", google_client).instantiate("WC", n=2)
        assert inst.template == "%1 %2"

    def test_custom_template(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", 2, template="%2 near %1")
        assert inst.template == "%2 near %1"

    def test_n_zero_rejected(self, av_client):
        with pytest.raises(VirtualTableError):
            WebCountDef("WebCount", av_client).instantiate("WC", n=0)

    def test_rank_limit_rejected(self, av_client):
        with pytest.raises(VirtualTableError, match="Rank"):
            WebCountDef("WebCount", av_client).instantiate("WC", 1, rank_limit=5)

    def test_dependent_params(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=2)
        inst.fixed_bindings["T2"] = "Knuth"
        assert inst.dependent_params == ["T1"]

    def test_resolve_bindings_missing(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=2)
        with pytest.raises(BindingError, match="unbound"):
            inst.resolve_bindings({"T1": "SIGMOD"})

    def test_resolve_bindings_unknown_param(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        with pytest.raises(BindingError, match="no input column"):
            inst.resolve_bindings({"T9": "x"})

    def test_null_binding_rejected(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        with pytest.raises(VirtualTableError, match="unusable"):
            inst.resolve_bindings({"T1": None})

    def test_placeholder_binding_rejected(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        with pytest.raises(VirtualTableError, match="unusable"):
            inst.resolve_bindings({"T1": Placeholder(1, "count")})

    def test_call_result_row(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        bindings = inst.resolve_bindings({"T1": "Wyoming"})
        call = inst.make_call(bindings)
        rows = run_call(call)
        assert len(rows) == 1  # WebCount always returns exactly one row
        assert rows[0]["count"] == av_client.engine.count('"Wyoming"')
        assert call.destination == "AV"

    def test_placeholder_row(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        bindings = inst.resolve_bindings({"T1": "Utah"})
        row = inst.placeholder_row(bindings, call_id=99)
        assert row[0] == "%1"
        assert row[1] == "Utah"
        assert row[2] == Placeholder(99, "count")

    def test_complete_rows_echo_inputs(self, av_client):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=2)
        inst.fixed_bindings["T2"] = "Knuth"
        bindings = inst.resolve_bindings({"T1": "SIGACT"})
        rows = inst.complete_rows(bindings, [{"count": 30}])
        assert rows == [("%1 near %2", "SIGACT", "Knuth", 30)]


class TestWebPagesInstance:
    def test_schema_shape(self, av_client):
        inst = WebPagesDef("WebPages", av_client).instantiate("WP", n=1)
        assert inst.schema.names() == ["SearchExp", "T1", "URL", "Rank", "Date"]

    def test_default_rank_guard(self, av_client):
        inst = WebPagesDef("WebPages", av_client).instantiate("WP", n=1)
        assert inst.rank_limit == DEFAULT_MAX_RANK  # the paper's Rank < 20

    def test_explicit_rank_limit(self, av_client):
        inst = WebPagesDef("WebPages", av_client).instantiate("WP", 1, rank_limit=3)
        bindings = inst.resolve_bindings({"T1": "California"})
        rows = run_call(inst.make_call(bindings))
        assert len(rows) == 3
        assert [r["rank"] for r in rows] == [1, 2, 3]

    def test_zero_results_possible(self, av_client):
        inst = WebPagesDef("WebPages", av_client).instantiate("WP", 1, rank_limit=3)
        bindings = inst.resolve_bindings({"T1": "zzyzzxqq"})
        assert run_call(inst.make_call(bindings)) == []

    def test_negative_rank_limit_rejected(self, av_client):
        with pytest.raises(VirtualTableError):
            WebPagesDef("WebPages", av_client).instantiate("WP", 1, rank_limit=-1)

    def test_placeholder_row_has_three_placeholders(self, av_client):
        inst = WebPagesDef("WebPages", av_client).instantiate("WP", n=1)
        row = inst.placeholder_row(inst.resolve_bindings({"T1": "Utah"}), 5)
        placeholders = [v for v in row if is_placeholder(v)]
        assert {p.field for p in placeholders} == {"url", "rank", "date"}
        assert all(p.call_id == 5 for p in placeholders)

    def test_describe_mentions_rank(self, av_client):
        inst = WebPagesDef("WebPages", av_client).instantiate("WP", 1, rank_limit=5)
        assert "Rank <= 5" in inst.describe()


class TestWebFetchTables:
    def test_fetch_instance(self, small_web):
        service = small_web.fetch_service()
        inst = WebFetchDef("WebFetch", service).instantiate("F", 0)
        url = small_web.corpus.documents[0].url
        rows = run_call(inst.make_call(inst.resolve_bindings({"Url": url})))
        assert len(rows) == 1
        assert rows[0]["status"] == 200

    def test_fetch_404_still_one_row(self, small_web):
        service = small_web.fetch_service()
        inst = WebFetchDef("WebFetch", service).instantiate("F", 0)
        rows = run_call(inst.make_call(inst.resolve_bindings({"Url": "nowhere/x"})))
        assert rows[0]["status"] == 404

    def test_links_rows(self, small_web):
        service = small_web.fetch_service()
        doc = next(d for d in small_web.corpus.documents if len(d.links) >= 2)
        inst = WebLinksDef("WebLinks", service).instantiate("L", 0)
        rows = run_call(inst.make_call(inst.resolve_bindings({"Url": doc.url})))
        assert [r["link_url"] for r in rows] == doc.links
        assert [r["link_rank"] for r in rows] == list(range(1, len(doc.links) + 1))

    def test_template_rejected(self, small_web):
        service = small_web.fetch_service()
        with pytest.raises(VirtualTableError):
            WebFetchDef("WebFetch", service).instantiate("F", 0, template="%1")


class TestEVScan:
    def test_scan_rows(self, av_client, context):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        scan = EVScan(inst, context)
        scan.open({"T1": "Wyoming"})
        row = scan.next()
        assert row[1] == "Wyoming"
        assert isinstance(row[2], int)  # n=1: [SearchExp, T1, Count]
        assert scan.next() is None
        scan.close()

    def test_reopen_with_new_bindings(self, av_client, context):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        scan = EVScan(inst, context)
        scan.open({"T1": "Utah"})
        utah = scan.next()[2]
        scan.close()
        scan.open({"T1": "California"})
        california = scan.next()[2]
        scan.close()
        assert california > utah
        assert scan.calls_registered == 2

    def test_next_before_open(self, av_client, context):
        from repro.util.errors import ExecutionError

        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=1)
        with pytest.raises(ExecutionError):
            EVScan(inst, context).next()

    def test_label(self, av_client, context):
        inst = WebCountDef("WebCount", av_client).instantiate("WC", n=2)
        inst.fixed_bindings["T2"] = "Knuth"
        assert "Knuth" in EVScan(inst, context).label()

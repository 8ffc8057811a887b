"""``WebPages(SearchExp, T1, ..., Tn, URL, Rank, Date)`` (paper Section 3).

Rows are the engine's ranked hits for the instantiated search expression.
Retrieving *all* URLs would be "extremely expensive", so every instance
carries a rank limit; when the query has no ``Rank`` restriction the
paper's default selection predicate ``Rank < 20`` applies.
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
from repro.vtables.webcount import SEARCH_EXP, term_names
from repro.web.searchexpr import default_template, instantiate_template

#: The paper's default "Rank < 20" guard, expressed as a max row count.
DEFAULT_MAX_RANK = 19


class WebPagesDef(VirtualTableDef):
    """Catalog entry for one engine's WebPages table."""

    def __init__(self, name, client):
        super().__init__(name)
        self.client = client

    def input_names(self, n):
        return [SEARCH_EXP] + term_names(n)

    def instantiate(self, qualifier, n, template=None, rank_limit=None):
        if template is None:
            template = default_template(n, self.client.engine.supports_near)
        if rank_limit is None:
            rank_limit = DEFAULT_MAX_RANK
        return WebPagesInstance(self, qualifier, n, template, rank_limit)


class WebPagesInstance(VTableInstance):
    def __init__(self, definition, qualifier, n, template, rank_limit):
        if n < 1:
            raise VirtualTableError(
                "WebPages needs at least one bound term column (T1)"
            )
        if rank_limit < 0:
            raise VirtualTableError("rank limit cannot be negative")
        self.n = n
        self.template = template
        self.rank_limit = rank_limit
        self._terms = term_names(n)
        super().__init__(
            definition,
            qualifier,
            {SEARCH_EXP: template},
            input_params=[SEARCH_EXP] + self._terms,
            result_fields={"URL": "url", "Rank": "rank", "Date": "date"},
        )

    def columns(self):
        cols = [Column(SEARCH_EXP, DataType.STR)]
        cols += [Column(t, DataType.STR) for t in self._terms]
        cols += [
            Column("URL", DataType.STR),
            Column("Rank", DataType.INT),
            Column("Date", DataType.DATE),
        ]
        return cols

    def describe(self):
        return "{} (Rank <= {})".format(self.qualifier, self.rank_limit)

    def make_call(self, bindings):
        terms = [bindings[t] for t in self._terms]
        expr_text = instantiate_template(bindings[SEARCH_EXP], terms)
        client = self.definition.client
        limit = self.rank_limit
        return ExternalCall(
            key=("search", client.name, expr_text, limit),
            destination=client.name,
            factory=lambda attempt: _search_async(client, expr_text, limit, attempt),
            probe=cache_probe(client, _hit_rows, "search", expr_text, limit),
        )


def _hit_rows(hits):
    return [{"url": h.url, "rank": h.rank, "date": h.date} for h in hits]


async def _search_async(client, expr_text, limit, attempt):
    return _hit_rows(await client.search_async(expr_text, limit, attempt=attempt))

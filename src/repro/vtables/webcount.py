"""``WebCount(SearchExp, T1, ..., Tn, Count)`` (paper Section 3).

"For each possible Web search expression, it contains the total number of
URLs returned by a search engine for that expression."  One row per
binding, always — tuple cancellation never applies to WebCount.
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
from repro.web.searchexpr import default_template, instantiate_template

SEARCH_EXP = "SearchExp"


def term_names(n):
    return ["T{}".format(i) for i in range(1, n + 1)]


class WebCountDef(VirtualTableDef):
    """Catalog entry for one engine's WebCount table."""

    def __init__(self, name, client):
        super().__init__(name)
        self.client = client

    def input_names(self, n):
        return [SEARCH_EXP] + term_names(n)

    def instantiate(self, qualifier, n, template=None, rank_limit=None):
        if rank_limit is not None:
            raise VirtualTableError("WebCount has no Rank column to restrict")
        if template is None:
            template = default_template(n, self.client.engine.supports_near)
        return WebCountInstance(self, qualifier, n, template)


class WebCountInstance(VTableInstance):
    def __init__(self, definition, qualifier, n, template):
        if n < 1:
            raise VirtualTableError(
                "WebCount needs at least one bound term column (T1)"
            )
        self.n = n
        self.template = template
        self._terms = term_names(n)
        super().__init__(
            definition,
            qualifier,
            {SEARCH_EXP: template},
            input_params=[SEARCH_EXP] + self._terms,
            result_fields={"Count": "count"},
        )

    def columns(self):
        cols = [Column(SEARCH_EXP, DataType.STR)]
        cols += [Column(t, DataType.STR) for t in self._terms]
        cols.append(Column("Count", DataType.INT))
        return cols

    def make_call(self, bindings):
        terms = [bindings[t] for t in self._terms]
        expr_text = instantiate_template(bindings[SEARCH_EXP], terms)
        client = self.definition.client
        return ExternalCall(
            key=("count", client.name, expr_text),
            destination=client.name,
            factory=lambda attempt: _count_async(client, expr_text, attempt),
            probe=cache_probe(client, _count_rows, "count", expr_text),
        )


def _count_rows(count):
    return [{"count": count}]


async def _count_async(client, expr_text, attempt):
    return _count_rows(await client.count_async(expr_text, attempt=attempt))

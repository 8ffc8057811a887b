"""DSQ sessions: correlate a Web phrase with database terms."""

import itertools

from repro.relational.types import DataType
from repro.util.errors import ReproError


def _quote(value):
    return value.replace("'", "''")


class Correlation:
    """Ranked co-occurrence of one phrase with one term domain."""

    def __init__(self, phrase, domain, ranking):
        self.phrase = phrase
        self.domain = domain  # e.g. "States.Name"
        self.ranking = ranking  # list of (term, count), best first

    def top(self, k):
        return self.ranking[:k]

    def nonzero(self):
        return [(term, count) for term, count in self.ranking if count > 0]

    def __repr__(self):
        return "Correlation({!r} ~ {}: {} terms)".format(
            self.phrase, self.domain, len(self.ranking)
        )


class DsqReport:
    """Everything DSQ found for one phrase."""

    def __init__(self, phrase, correlations, triples):
        self.phrase = phrase
        self.correlations = correlations  # domain -> Correlation
        self.triples = triples  # list of (term_a, term_b, count)

    def summary(self):
        lines = ["DSQ report for {!r}".format(self.phrase)]
        for domain, correlation in self.correlations.items():
            top = ", ".join(
                "{} ({})".format(t, c) for t, c in correlation.nonzero()[:5]
            )
            lines.append("  {}: {}".format(domain, top or "(no co-occurrences)"))
        if self.triples:
            lines.append("  triples:")
            for a, b, count in self.triples[:5]:
                lines.append("    <{}, {}, {!r}> ({})".format(a, b, self.phrase, count))
        return "\n".join(lines)


class DsqSession:
    """Database-supported exploration of Web search phrases.

    *domains* maps a label to ``(table, column)`` pairs whose values are
    candidate correlation terms; by default every string column of every
    table is eligible via :meth:`register_domain`.
    """

    def __init__(self, wsq_engine, mode="async"):
        self.engine = wsq_engine
        self.mode = mode
        self.domains = {}  # label -> (table, column)
        self._temp_counter = itertools.count()

    def register_domain(self, table, column, label=None):
        """Declare ``table.column`` as a source of correlation terms."""
        label = label or "{}.{}".format(table, column)
        schema = self.engine.database.table(table).schema
        index = schema.resolve(column)
        if schema[index].type is not DataType.STR:
            raise ReproError(
                "DSQ domains must be string columns; {}.{} is {}".format(
                    table, column, schema[index].type.value
                )
            )
        self.domains[label] = (table, column)
        return label

    # -- correlation ----------------------------------------------------------

    def correlate(self, phrase, table, column, label=None):
        """Rank the values of ``table.column`` by co-occurrence with *phrase*.

        Implemented as a WSQ query — a dependent join against WebCount
        with ``T2`` bound to the phrase — so all the per-term searches run
        concurrently under asynchronous iteration.
        """
        sql = (
            "Select {col} As Term, Count From {table}, WebCount "
            "Where {col} = T1 and T2 = '{phrase}' "
            "Order By Count Desc, Term"
        ).format(col=column, table=table, phrase=_quote(phrase))
        result = self.engine.execute(sql, mode=self.mode)
        return Correlation(phrase, label or "{}.{}".format(table, column), result.rows)

    def correlate_all(self, phrase):
        """Correlate *phrase* against every registered domain."""
        return {
            label: self.correlate(phrase, table, column, label)
            for label, (table, column) in sorted(self.domains.items())
        }

    # -- triples --------------------------------------------------------------------

    def triples(self, phrase, corr_a, corr_b, top_k=5):
        """Find ``(a, b, phrase)`` triples from two correlations' heads.

        Takes the top-*top_k* nonzero terms of each correlation, loads
        them into temporary tables, and runs one three-term NEAR query per
        pair — again a single WSQ query, so the |A|x|B| searches are
        concurrent.
        """
        top_a = [t for t, _ in corr_a.nonzero()[:top_k]]
        top_b = [t for t, _ in corr_b.nonzero()[:top_k]]
        if not top_a or not top_b:
            return []
        table_a = self._temp_table(top_a)
        table_b = self._temp_table(top_b)
        try:
            sql = (
                "Select A.Term, B.Term, Count "
                "From {ta} A, {tb} B, WebCount "
                "Where A.Term = T1 and B.Term = T2 and T3 = '{phrase}' "
                "Order By Count Desc, A.Term, B.Term"
            ).format(ta=table_a, tb=table_b, phrase=_quote(phrase))
            result = self.engine.execute(sql, mode=self.mode)
            return [row for row in result.rows if row[2] > 0]
        finally:
            self.engine.database.drop_table(table_a)
            self.engine.database.drop_table(table_b)

    # -- the full story ------------------------------------------------------------------

    def explain(self, phrase, triple_domains=None, top_k=5):
        """Build a full :class:`DsqReport` for *phrase*.

        *triple_domains*: optional pair of domain labels to chase triples
        across (defaults to the first two registered domains).
        """
        correlations = self.correlate_all(phrase)
        triples = []
        labels = triple_domains or sorted(self.domains)[:2]
        if len(labels) >= 2 and all(label in correlations for label in labels):
            triples = self.triples(
                phrase, correlations[labels[0]], correlations[labels[1]], top_k
            )
        return DsqReport(phrase, correlations, triples)

    def _temp_table(self, terms):
        name = "__dsq_tmp_{}".format(next(self._temp_counter))
        self.engine.database.create_table_from_rows(
            name, [("Term", DataType.STR)], [(t,) for t in terms]
        )
        return name

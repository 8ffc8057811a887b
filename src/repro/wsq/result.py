"""Query results and console rendering."""


class QueryResult:
    """Materialized result: column names plus row tuples."""

    def __init__(self, columns, rows, elapsed=None):
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]
        self.elapsed = elapsed

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def column(self, name):
        """All values of one column, by (case-insensitive) name."""
        lowered = [c.lower() for c in self.columns]
        try:
            index = lowered.index(name.lower())
        except ValueError:
            raise KeyError(name)
        return [row[index] for row in self.rows]

    def __repr__(self):
        return "QueryResult({} rows)".format(len(self.rows))


def format_table(result, max_rows=None, max_width=48):
    """ASCII-render a :class:`QueryResult` (used by the REPL and examples)."""
    rows = result.rows if max_rows is None else result.rows[:max_rows]
    rendered = [
        [_cell(value, max_width) for value in row] for row in rows
    ]
    headers = [str(c) for c in result.columns]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "+".join("-" * (w + 2) for w in widths)
    out = [line]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(line)
    for row in rendered:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    out.append(line)
    if max_rows is not None and len(result.rows) > max_rows:
        out.append("... ({} more rows)".format(len(result.rows) - max_rows))
    return "\n".join(out)


def _cell(value, max_width):
    text = "NULL" if value is None else str(value)
    if len(text) > max_width:
        return text[: max_width - 3] + "..."
    return text

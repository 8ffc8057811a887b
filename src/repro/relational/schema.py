"""Columns and schemas.

A :class:`Schema` is an ordered list of :class:`Column` objects.  Columns
carry an optional *qualifier* — the table alias they came from — so that
name resolution can disambiguate ``AV.URL`` from ``G.URL`` after joins, as in
the paper's Query 6.
"""

from repro.util.errors import CatalogError, PlanError


class Column:
    """A named, typed column, optionally qualified by a table alias."""

    __slots__ = ("name", "type", "qualifier")

    def __init__(self, name, data_type, qualifier=None):
        self.name = name
        self.type = data_type
        self.qualifier = qualifier

    def qualified_name(self):
        if self.qualifier:
            return "{}.{}".format(self.qualifier, self.name)
        return self.name

    def matches(self, name, qualifier=None):
        """Does this column answer to *name* (and *qualifier*, if given)?"""
        if name.lower() != self.name.lower():
            return False
        if qualifier is None:
            return True
        return self.qualifier is not None and qualifier.lower() == self.qualifier.lower()

    def with_qualifier(self, qualifier):
        return Column(self.name, self.type, qualifier)

    def __repr__(self):
        return "Column({}:{})".format(self.qualified_name(), self.type.value)

    def __eq__(self, other):
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.type == other.type
            and self.qualifier == other.qualifier
        )

    def __hash__(self):
        return hash((self.name, self.type, self.qualifier))


class Schema:
    """An ordered, immutable collection of columns with name resolution."""

    __slots__ = ("columns",)

    def __init__(self, columns, allow_duplicates=False):
        # Query *output* schemas may repeat a name (the paper's Query 4
        # outputs two ``Count`` columns); relation schemas may not.
        self.columns = tuple(columns)
        if allow_duplicates:
            return
        seen = set()
        for col in self.columns:
            key = (col.qualifier, col.name.lower())
            if key in seen:
                raise CatalogError("duplicate column {}".format(col.qualified_name()))
            seen.add(key)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __getitem__(self, index):
        return self.columns[index]

    def __eq__(self, other):
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self):
        return "Schema({})".format(", ".join(c.qualified_name() for c in self.columns))

    def names(self):
        return [c.name for c in self.columns]

    def resolve(self, name, qualifier=None):
        """Return the index of the column answering to *name*.

        Raises :class:`PlanError` for unknown or ambiguous references.
        """
        matches = [
            i for i, c in enumerate(self.columns) if c.matches(name, qualifier)
        ]
        if not matches:
            target = "{}.{}".format(qualifier, name) if qualifier else name
            raise PlanError("unknown column {!r}".format(target))
        if len(matches) > 1:
            target = "{}.{}".format(qualifier, name) if qualifier else name
            raise PlanError(
                "ambiguous column {!r} (candidates: {})".format(
                    target,
                    ", ".join(self.columns[i].qualified_name() for i in matches),
                )
            )
        return matches[0]

    def maybe_resolve(self, name, qualifier=None):
        """Like :meth:`resolve` but returns ``None`` when not found/ambiguous."""
        try:
            return self.resolve(name, qualifier)
        except PlanError:
            return None

    def concat(self, other):
        """Schema of a join: this schema's columns followed by *other*'s."""
        return Schema(self.columns + tuple(other.columns))

    def project(self, indexes):
        return Schema(tuple(self.columns[i] for i in indexes))

    def with_qualifier(self, qualifier):
        """Re-qualify every column (used when a table gets a FROM alias)."""
        return Schema(tuple(c.with_qualifier(qualifier) for c in self.columns))

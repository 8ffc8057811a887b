"""ColumnBatch: the unit of vectorized (batch-at-a-time) execution.

The Volcano iterator contract (``open/next/close``) pays one Python
virtual-call round trip through the whole operator stack *per tuple*.
Batch-at-a-time execution amortizes that: every ``next_batch()`` call
moves up to ``batch_size`` tuples through one operator hop, and the
WSQ-specific payoff is that an :class:`~repro.asynciter.aevscan.AEVScan`
can register a whole batch of external calls with the request pump in a
single operator round trip.

A :class:`ColumnBatch` carries one vector per attribute, with INT/FLOAT
columns stored in typed ``array('q')``/``array('d')`` buffers when their
values allow it.  A typed array *proves* the column holds only clean
numbers (no NULLs, no placeholders), which is what lets the compiled
kernels in :mod:`repro.relational.expr` skip every per-value guard.

A batch is

- **schema-carrying**: ``batch.schema`` is the producing operator's
  output :class:`~repro.relational.schema.Schema`;
- **column-accessible**: ``batch.column(i)`` is one attribute across the
  (selected) rows;
- **selection-aware**: a *selection vector* (a list of indexes into the
  backing columns) lets a filter "delete" rows without copying the
  batch — iteration, ``len()``, and ``column()`` all respect it.
  :meth:`~ColumnBatch.narrow` composes selections *flat*: narrowing an
  already-narrowed batch materializes the composed vector once, so
  chained filters never stack indirections.

``from_rows()`` / ``to_rows()`` bridge to plain Python row tuples, so
placeholders, patching, and every row-level helper work unchanged on
batch contents.
"""

from array import array

from repro.relational.types import DataType

#: Rows per operator pull when no :class:`~repro.config.EngineConfig`
#: says otherwise (its ``batch_size`` default, and the class default of
#: operators in hand-built plans).
DEFAULT_BATCH_SIZE = 256


#: Schema types that get typed array storage when their values are clean.
_TYPECODES = {DataType.INT: "q", DataType.FLOAT: "d"}


def type_column(values, data_type):
    """Store *values* in the tightest container *data_type* allows.

    INT/FLOAT columns whose values are all clean numbers become typed
    ``array`` buffers (compact, C-speed iteration, and a structural proof
    of "no NULLs / no placeholders" the expression kernels exploit).
    Anything else — strings, NULLs, placeholders, type-lying rows — stays
    a plain list, which the guarded evaluation paths handle exactly.
    """
    code = _TYPECODES.get(data_type)
    if code is not None:
        try:
            return array(code, values)
        except (TypeError, ValueError, OverflowError):
            pass
    if isinstance(values, (list, array)):
        return values
    return list(values)


def _gather(column, selection):
    """*column* restricted to *selection*, preserving typed-array storage."""
    if isinstance(column, array):
        return array(column.typecode, [column[i] for i in selection])
    return [column[i] for i in selection]


class ColumnBatch:
    """Column-major batch: one vector per attribute plus a selection vector.

    ``data[i]`` holds attribute *i* across all backing rows — a typed
    ``array`` for clean INT/FLOAT columns, a plain list otherwise (see
    :func:`type_column`).  ``rowcount`` is the backing length;
    ``selection`` (when not ``None``) lists the logically present row
    positions, in order.  Operators that drop rows cheaply (Filter, join
    predicates) attach a selection instead of rebuilding the columns.

    The batch is read-only by convention: operators narrow (sharing the
    column buffers) or build new batches, never mutate vectors in place.
    """

    __slots__ = ("schema", "data", "rowcount", "selection")

    def __init__(self, schema, columns, rowcount, selection=None):
        self.schema = schema
        self.data = columns
        self.rowcount = rowcount
        self.selection = selection

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, schema, rows):
        """Pivot *rows* (tuples) into schema-typed columns."""
        if not isinstance(rows, list):
            rows = list(rows)
        count = len(rows)
        if schema is not None:
            types = [column.type for column in schema]
        elif rows:
            types = [None] * len(rows[0])
        else:
            types = []
        if count:
            columns = [
                type_column(values, data_type)
                for values, data_type in zip(zip(*rows), types)
            ]
        else:
            columns = [type_column((), data_type) for data_type in types]
        return cls(schema, columns, count)

    @classmethod
    def from_columns(cls, schema, columns, rowcount=None):
        """A dense batch over pre-built column vectors (no re-typing)."""
        columns = list(columns)
        if rowcount is None:
            rowcount = len(columns[0]) if columns else 0
        return cls(schema, columns, rowcount)

    def narrow(self, indexes):
        """A new batch sharing the column buffers, keeping only *indexes*.

        *indexes* are positions in this batch's logical order.  Narrowing
        an already-narrowed batch materializes the *composed* vector once
        (one flat list of base indexes), so repeated narrowing never
        builds chains of index lookups.
        """
        if self.selection is None:
            return ColumnBatch(self.schema, self.data, self.rowcount, list(indexes))
        base = self.selection
        return ColumnBatch(
            self.schema, self.data, self.rowcount, [base[i] for i in indexes]
        )

    # -- access -------------------------------------------------------------

    def __len__(self):
        if self.selection is not None:
            return len(self.selection)
        return self.rowcount

    def __bool__(self):
        return len(self) > 0

    def __iter__(self):
        return iter(self.to_rows())

    def to_rows(self):
        """The selected rows as a dense list of tuples."""
        data = self.data
        if not data:
            return [()] * len(self)
        if self.selection is None:
            return list(zip(*data))
        selection = self.selection
        return list(zip(*[_gather(column, selection) for column in data]))

    def column(self, index):
        """Attribute *index* across the selected rows.

        Dense batches return the backing vector itself (zero-copy — do
        not mutate); narrowed batches gather, preserving typed storage.
        """
        column = self.data[index]
        if self.selection is None:
            return column
        return _gather(column, self.selection)

    def __repr__(self):
        return "ColumnBatch({} rows, {} cols{})".format(
            len(self),
            len(self.data),
            ", selected" if self.selection is not None else "",
        )

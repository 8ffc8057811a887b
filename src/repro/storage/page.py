"""Column-major (PAX) pages.

A page keeps its rows column by column (Ailamaki et al., "Weaving
Relations for Cache Performance", VLDB 2001), so a scan reads a column
of a page with one C call.  Layout (integers ``uint16`` and arrays in
the host's byte order, which :data:`FORMAT` names):

    [rows][start, end of each region] | the regions, back to back | zeros

The regions are the deleted-row bitmap, then per column its NULL bitmap
and its values.  A bitmap has one bit per row (row *i* is bit ``i % 8``
of byte ``i // 8``).  The deleted bitmap is always there; a NULL bitmap
only where the column holds a NULL on this page (else its region is
empty).  INT and FLOAT values are packed ``int64``/``double`` arrays,
BOOL one byte a row, STR and DATE a ``uint16`` length array followed by
the rows' UTF-8 bytes; a NULL or a deleted row holds zero (length 0).

A row's slot is its position: deleting sets its bit and moves nothing,
so RIDs are stable.  A page does not describe its types: every reader
passes the schema's.
"""

import functools
import struct
import sys
from array import array
from itertools import accumulate, compress

from repro.relational.types import DataType, coerce_value
from repro.util.codegen import compile_function
from repro.util.errors import StorageError

#: What ``catalog.json`` records; a directory of any other format is refused.
FORMAT = "column-major-v1-" + sys.byteorder

#: Array typecode of each fixed-width type; STR and DATE are variable.
CODES = {DataType.INT: "q", DataType.FLOAT: "d", DataType.BOOL: "B"}
_WIDTH = {t: array(code).itemsize for t, code in CODES.items()}
_ZERO = {DataType.INT: 0, DataType.FLOAT: 0.0, DataType.BOOL: False}
_BITS = [bytes(b >> i & 1 for i in range(8)) for b in range(256)]
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@functools.lru_cache(maxsize=None)
def _layout(width):
    """The header of a *width*-column page: rows, then 1 + 2 * width regions."""
    return struct.Struct("=" + "H" * (3 + 4 * width))


def bits(bitmap, n):
    """One 0/1 byte per row from a bitmap of *n* rows."""
    return b"".join(map(_BITS.__getitem__, bitmap))[:n]


def widths(types):
    """Each column's value width in bytes, 0 for a STR/DATE column."""
    return tuple(_WIDTH.get(t, 0) for t in types)


@functools.lru_cache(maxsize=None)
def checker(widths):
    """``check(data) -> (rows, regions, live)`` for a page of columns
    *widths* (:func:`widths`), compiled once per *widths*.

    *regions* are the flat offsets: the deleted bitmap at 0-1, column
    *i*'s NULL bitmap at ``2 + 4i`` and its values at ``4 + 4i``; *live*
    is what :func:`live_rows` makes of the deleted bitmap.  Each region
    is checked to have the length the row count gives it (so none ends
    before it starts) and to end on the page.
    """
    checks = ["r[1] - r[0] == b"]
    for i, width in enumerate(widths):
        z = 2 + 4 * i
        checks.append("r[{}] - r[{}] in (0, b)".format(z + 1, z))
        checks.append("r[{}] - r[{}] {}".format(z + 3, z + 2, "== {} * n".format(width) if width else ">= 2 * n"))
    checks += ["r[{}] <= size".format(end) for end in range(1, 2 + 4 * len(widths), 2)]
    source = "\n".join([
        "def check(data):",
        "    size = len(data)",
        "    if size < {}:".format(_layout(len(widths)).size),
        '        raise StorageError("truncated page header: {} bytes".format(size))',
        "    n, *r = unpack(data)",
        "    b = (n + 7) // 8",
        "    if not ({}):".format(" and ".join(checks)),
        '        raise StorageError("regions {} do not fit {} rows in {} bytes".format(r, n, size))',
        "    return n, r, live_rows(data, r[0], r[1], n)",
    ]) + "\n"
    namespace = {"StorageError": StorageError, "unpack": _layout(len(widths)).unpack_from,
                 "live_rows": live_rows}
    return compile_function(source, "page_check", namespace, "check")


def live_rows(data, start, end, n):
    """One 0/1 byte per row, 1 where the row is live (``None``: none is
    deleted), from the deleted bitmap ``data[start:end]``."""
    dead = data[start:end]
    if not any(dead):
        return None
    if int.from_bytes(dead, "little") >> n:
        raise StorageError("deleted bitmap marks a row past the row count {}".format(n))
    return bits(dead, n).translate(_FLIP)


def live_slots(data):
    """The slots of a page's live rows, in order."""
    n, start = _deleted(data)
    live = live_rows(data, start, start + (n + 7) // 8, n)
    return list(range(n) if live is None else compress(range(n), live))


def string_bounds(data, n, start, stop):
    """``(lengths, offset of the first string)`` of a STR/DATE region; the
    lengths sum to the region, so no string reaches past it."""
    lengths = array("H", data[start:start + 2 * n])
    excess = stop - start - 2 * n - sum(lengths)
    if excess:
        raise StorageError("string region has {} {} bytes".format(
            abs(excess), "trailing" if excess > 0 else "missing"))
    return lengths, start + 2 * n


def _row(data, types, n, regions, slot, text=True):
    """The values at *slot*; strings decoded unless *text* is false."""
    row = []
    for i, data_type in enumerate(types):
        nulls, end, start, stop = regions[2 + 4 * i:6 + 4 * i]
        if nulls < end and data[nulls + slot // 8] >> slot % 8 & 1:
            row.append(None)
        elif data_type in CODES:
            width = _WIDTH[data_type]
            value = array(CODES[data_type], data[start + slot * width:start + (slot + 1) * width])[0]
            row.append(bool(value) if data_type is DataType.BOOL else value)
        else:
            lengths, offset = string_bounds(data, n, start, stop)
            offset += sum(lengths[:slot])
            raw = bytes(data[offset:offset + lengths[slot]])
            try:
                row.append(raw.decode() if text else raw)
            except UnicodeDecodeError as exc:
                raise StorageError("corrupt string: {}".format(exc))
    return tuple(row)


def read_row(data, types, slot):
    """The row at *slot* (``None`` if it was deleted)."""
    n, regions, live = checker(widths(types))(data)
    if not 0 <= slot < n:
        raise StorageError("slot {} out of range [0, {})".format(slot, n))
    if live is not None and not live[slot]:
        return None
    return _row(data, types, n, regions, slot)


def _deleted(data):
    """``(rows, start of the deleted bitmap)``, its extent checked."""
    n, start, end = _layout(0).unpack_from(data)
    if end - start != (n + 7) // 8 or end > len(data):
        raise StorageError("deleted bitmap {} does not fit {} rows".format((start, end), n))
    return n, start


def delete(data, slot):
    """Set *slot*'s deleted bit."""
    n, start = _deleted(data)
    if not 0 <= slot < n:
        raise StorageError("slot {} out of range [0, {})".format(slot, n))
    if data[start + slot // 8] >> slot % 8 & 1:
        raise StorageError("slot {} already deleted".format(slot))
    data[start + slot // 8] |= 1 << slot % 8


def _bitmap(positions, n):
    return sum(1 << slot for slot in positions).to_bytes((n + 7) // 8, "little")


class PageWriter:
    """The rows of one page while they change: :meth:`add` rows, then
    :meth:`write` the page once.

    Starts from the rows already on the page buffer it is given.  A
    deleted row is a *hole* of zeros, the first of which the next added
    row takes; re-encoding drops its old bytes.  Strings are held as
    UTF-8, so the page's size is known exactly after every row.
    """

    def __init__(self, types, data):
        self.types = types
        self.size = len(data)
        self.strings = [i for i, t in enumerate(types) if t not in CODES]
        self.ints = [i for i, t in enumerate(types) if t is DataType.INT]
        self.fixed = _layout(len(types)).size
        self.width = sum(w or 2 for w in widths(types))  # a string's is its length
        n, regions, live = checker(widths(types))(data)
        live = live or b"\1" * n
        blank = tuple(_ZERO.get(t, b"") for t in types)
        self.rows = [_row(data, types, n, regions, s, False) if live[s] else blank for s in range(n)]
        self.holes = [slot for slot in range(n) if not live[slot]]
        self.nulls = {i for row in self.rows if None in row for i, v in enumerate(row) if v is None}
        self.text = sum(len(row[i]) for row in self.rows for i in self.strings if row[i])

    def _need(self, n, nulls, text):
        return self.fixed + (1 + nulls) * ((n + 7) // 8) + n * self.width + text

    def add(self, row):
        """Place *row* in the first hole or after the last row: its slot,
        or ``None`` if this page has no room (an error if no page has)."""
        if len(row) != len(self.types):
            raise StorageError("row arity {} does not match schema arity {}".format(
                len(row), len(self.types)))
        row = list(map(coerce_value, row, self.types))
        text = 0
        for i in self.strings:
            if row[i] is not None:
                row[i] = row[i].encode()
                text += len(row[i])
        nulls = self.nulls
        if None in row:
            nulls = nulls.union(i for i, v in enumerate(row) if v is None)
        for i in self.ints:
            if row[i] is not None and not -(2**63) <= row[i] < 2**63:
                raise StorageError("INT value {} outside 64 bits".format(row[i]))
        n = len(self.rows) + (not self.holes)
        if self._need(n, len(nulls), self.text + text) > self.size:
            if self._need(1, row.count(None), text) > self.size:
                raise StorageError("row exceeds the capacity of an empty {}-byte page".format(self.size))
            return None
        self.nulls, self.text = nulls, self.text + text
        if self.holes:
            slot = self.holes.pop(0)
            self.rows[slot] = tuple(row)
            return slot
        self.rows.append(tuple(row))
        return n - 1

    def write(self, data):
        """Encode the rows into the page buffer *data*, zeros after them."""
        n = len(self.rows)
        chunks = [_bitmap(self.holes, n)]
        for data_type, column in zip(self.types, zip(*self.rows) if n else [()] * len(self.types)):
            if None in column:
                chunks.append(_bitmap(compress(range(n), [v is None for v in column]), n))
                zero = _ZERO.get(data_type, b"")
                column = [zero if v is None else v for v in column]
            else:
                chunks.append(b"")
            if data_type in CODES:
                chunks.append(array(CODES[data_type], column).tobytes())
            else:
                chunks.append(array("H", map(len, column)).tobytes() + b"".join(column))
        ends = list(accumulate(map(len, chunks), initial=self.fixed))
        offsets = [x for region in zip(ends, ends[1:]) for x in region]
        image = _layout(len(self.types)).pack(n, *offsets) + b"".join(chunks)
        data[:] = image + bytes(len(data) - len(image))

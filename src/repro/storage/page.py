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
BOOL one byte a row, STR and DATE a string region; a NULL or a deleted
row holds zero (the empty string).

A string region starts with a ``uint16`` entry count *m*.  With ``m =
0`` it is plain: a ``uint16`` length per row, then the rows' UTF-8
bytes.  Otherwise it is a dictionary: the page's *m* distinct strings,
sorted, as a ``uint16`` length each and then their bytes, followed by
one code per row into them (``uint8`` up to 256 entries, else
``uint16``).  The writer picks the smaller; a page without rows has an
empty region.

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
FORMAT = "column-major-v2-" + sys.byteorder

#: Array typecode of each fixed-width type; STR and DATE are variable.
CODES = {DataType.INT: "q", DataType.FLOAT: "d", DataType.BOOL: "B"}
_WIDTH = {t: array(code).itemsize for t, code in CODES.items()}
_ZERO = {DataType.INT: 0, DataType.FLOAT: 0.0, DataType.BOOL: False}
_BITS = [bytes(b >> i & 1 for i in range(8)) for b in range(256)]
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_COUNT = struct.Struct("=H")
_BELOW = [bytes(range(m)) for m in range(257)]  # the valid one-byte codes of m entries


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
        values = "r[{}] - r[{}]".format(z + 3, z + 2)
        checks.append("{} == {} * n".format(values, width) if width
                      else "({} >= 2 if n else {} == 0)".format(values, values))
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


def string_region(data, n, start, stop):
    """``(lengths, blob, codes)`` of the STR/DATE region ``data[start:stop]``
    of *n* rows.  Plain, *codes* is ``None``
    and *lengths* cut *blob* into one string per row; a dictionary,
    *lengths* cut it into the entries and *codes* name one per row.  The
    lengths sum to the blob and every code names an entry, so no string
    reaches past the region.  The region must hold its entry count
    (:func:`checker` sees to it) unless *n* is 0."""
    if not n:
        return array("H"), b"", None
    lengths, blob, end, codes = _string_bounds(data, n, start, stop)
    return lengths, bytes(data[blob:end]), codes


def _string_bounds(data, n, start, stop):
    """:func:`string_region` checked, with the blob left in *data*:
    ``(lengths, blob start, blob end, codes)``."""
    (m,) = _COUNT.unpack_from(data, start)
    width = 0 if not m else 1 if m <= 256 else 2
    blob, end = start + 2 + 2 * (m or n), stop - width * n
    if end < blob:
        raise StorageError("string region of {} bytes cannot hold {} lengths".format(
            stop - start, m or n))
    lengths = array("H", data[start + 2:blob])
    excess = end - blob - sum(lengths)
    if excess:
        raise StorageError("string region has {} {} bytes".format(
            abs(excess), "trailing" if excess > 0 else "missing"))
    if not m:
        return lengths, blob, end, None
    codes = data[end:stop]
    if codes.translate(None, _BELOW[m]) if width == 1 else max(array("H", codes)) >= m:
        raise StorageError("a string code past a dictionary of {} entries".format(m))
    return lengths, blob, end, array("B" if width == 1 else "H", codes)


def _columns(data, types, n, regions):
    """Every column of a checked page, strings as UTF-8 bytes, NULLs ``None``."""
    columns = []
    for i, data_type in enumerate(types):
        nulls, end, start, stop = regions[2 + 4 * i:6 + 4 * i]
        if data_type in CODES:
            column = array(CODES[data_type], data[start:stop])
            if data_type is DataType.BOOL:
                column = list(map(bool, column))
        else:
            lengths, blob, codes = string_region(data, n, start, stop)
            column = [blob[a:b] for a, b in zip(accumulate(lengths, initial=0), accumulate(lengths))]
            if codes is not None:
                column = list(map(column.__getitem__, codes))
        if nulls < end:
            column = [None if null else v for null, v in zip(bits(data[nulls:end], n), column)]
        columns.append(column)
    return columns


def read_row(data, types, slot):
    """The row at *slot* (``None`` if it was deleted).

    Checks what it reads, not the whole page: the header, the deleted
    bitmap and each column's regions.
    """
    layout = _layout(len(types))
    size = len(data)
    if size < layout.size:
        raise StorageError("truncated page header: {} bytes".format(size))
    n, *r = layout.unpack_from(data)
    if not 0 <= slot < n:
        raise StorageError("slot {} out of range [0, {})".format(slot, n))
    b = (n + 7) // 8
    if r[1] - r[0] != b or r[1] > size or n % 8 and data[r[1] - 1] >> n % 8:
        raise StorageError("deleted bitmap {} does not fit {} rows".format(tuple(r[:2]), n))
    if data[r[0] + slot // 8] >> slot % 8 & 1:
        return None
    row = []
    for i, data_type in enumerate(types):
        nulls, end, start, stop = r[2 + 4 * i:6 + 4 * i]
        width = _WIDTH.get(data_type)
        if (end - nulls not in (0, b) or max(end, stop) > size
                or not (stop - start == width * n if width else stop - start >= 2)):
            raise StorageError("column {} regions {} do not fit {} rows in {} bytes".format(
                i, (nulls, end, start, stop), n, size))
        if nulls < end and data[nulls + slot // 8] >> slot % 8 & 1:
            row.append(None)
        elif width:
            value = array(CODES[data_type], data[start + slot * width:start + (slot + 1) * width])[0]
            row.append(bool(value) if data_type is DataType.BOOL else value)
        else:
            lengths, blob, _, codes = _string_bounds(data, n, start, stop)
            entry = slot if codes is None else codes[slot]
            offset = blob + sum(lengths[:entry])
            try:
                row.append(str(data[offset:offset + lengths[entry]], "utf-8"))
            except UnicodeDecodeError as exc:
                raise StorageError("corrupt string: {}".format(exc))
    return tuple(row)


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


def _string_region(column):
    """The region of a STR/DATE *column* of UTF-8 bytes (NULLs as ``b""``)."""
    if not column:
        return b""
    strings = _Strings(column)
    plain, dictionary = strings.sizes(len(column))
    if dictionary < plain:
        words = sorted(strings.seen)
        codes = dict(zip(words, range(len(words))))
        codes = array("B" if len(words) <= 256 else "H", map(codes.__getitem__, column))
        entries = array("H", map(len, words)).tobytes()
        return _COUNT.pack(len(words)) + entries + b"".join(words) + codes.tobytes()
    return _COUNT.pack(0) + array("H", map(len, column)).tobytes() + b"".join(column)


class _Strings:
    """One string column's values (a NULL's is ``b""``), tallied: the
    distinct ones, their bytes and every row's, so that both forms of its
    region have an exact size."""

    __slots__ = ("seen", "entries", "total")

    def __init__(self, values):
        self.seen = set(values)
        self.entries, self.total = sum(map(len, self.seen)), sum(map(len, values))

    def add(self, value):
        self.total += len(value)
        if value not in self.seen:
            self.seen.add(value)
            self.entries += len(value)

    def sizes(self, n):
        """``(plain, dictionary)``: the bytes of its region of *n* > 0 rows in each form."""
        m = len(self.seen)
        return 2 + 2 * n + self.total, 2 + 2 * m + self.entries + n * (1 if m <= 256 else 2)


class PageWriter:
    """The rows of one page while they change: :meth:`add` rows, then
    :meth:`write` the page once.

    Starts from the rows already on the page buffer it is given.  A
    deleted row is a *hole* of zeros, the first of which the next added
    row takes; re-encoding drops its old bytes.  Strings are held as
    UTF-8 and tallied per column (:class:`_Strings`), so the page's size,
    each string region in its smaller form, is known exactly after every
    row.
    """

    def __init__(self, types, data):
        self.types = types
        self.size = len(data)
        self.strings = [i for i, t in enumerate(types) if t not in CODES]
        self.ints = [i for i, t in enumerate(types) if t is DataType.INT]
        self.fixed = _layout(len(types)).size
        self.width = sum(widths(types))
        n, regions, live = checker(widths(types))(data)
        live = live or b"\1" * n
        blank = tuple(_ZERO.get(t, b"") for t in types)
        rows = zip(*_columns(data, types, n, regions))
        self.rows = [row if alive else blank for row, alive in zip(rows, live)]
        self.holes = [slot for slot in range(n) if not live[slot]]
        self.nulls = {i for row in self.rows if None in row for i, v in enumerate(row) if v is None}
        self.text = sum(len(row[i]) for row in self.rows for i in self.strings if row[i])
        self.tallies = None  # made when the plain bound first does not fit

    def _need(self, n, nulls, text):
        return self.fixed + (1 + nulls) * ((n + 7) // 8) + n * self.width + text

    def _fits(self, nulls):
        """Whether the rows fit with each string region in its smaller
        form; asked once the plain regions do not fit, the last row placed
        just now.  The plain regions only grow as rows are appended, so
        once the tallies are made every later row is asked about here and
        tallied, until a hole is refilled or a row refused."""
        n, last = len(self.rows), self.rows[-1]
        if self.tallies is None:
            self.tallies = [_Strings([row[i] or b"" for row in self.rows]) for i in self.strings]
        else:
            for i, strings in zip(self.strings, self.tallies):
                strings.add(last[i] or b"")
        text = 0
        for strings in self.tallies:
            text += min(strings.sizes(n))
        return self._need(n, nulls, text) <= self.size

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
        if self.holes:
            slot = self.holes[0]
            old, self.rows[slot] = self.rows[slot], tuple(row)
            self.tallies = None
        else:
            slot = len(self.rows)
            self.rows.append(tuple(row))
        n, text = len(self.rows), self.text + text
        if self._need(n, len(nulls), (2 + 2 * n) * len(self.strings) + text) > self.size and not (
                self._fits(len(nulls))):
            if self.holes:
                self.rows[slot] = old
            else:
                self.rows.pop()
            self.tallies = None
            alone = sum(4 + len(row[i] or b"") for i in self.strings)
            if self._need(1, row.count(None), alone) > self.size:
                raise StorageError("row exceeds the capacity of an empty {}-byte page".format(self.size))
            return None
        self.nulls, self.text = nulls, text
        if self.holes:
            self.holes.pop(0)
        return slot

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
                chunks.append(_string_region(column))
        ends = list(accumulate(map(len, chunks), initial=self.fixed))
        offsets = [x for region in zip(ends, ends[1:]) for x in region]
        image = _layout(len(self.types)).pack(n, *offsets) + b"".join(chunks)
        data[:] = image + bytes(len(data) - len(image))

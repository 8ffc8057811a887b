"""Compiled page decoding: a stored page's rows, column by column.

:func:`page_decoder` generates, once per (column types, wanted columns,
selection text), a function over one column-major page
(:mod:`repro.storage.page`) that reads each column it needs with one C
call, tests the selection over those columns in one comprehension, and
gathers the wanted columns of the rows that pass.  Strings are decoded
only for the rows kept, a dictionary's entries once each.  Every region is checked against the page and
its row count first, so a damaged page raises
:class:`~repro.util.errors.StorageError` instead of returning rows.
"""

import functools
from array import array
from itertools import accumulate, compress

from repro.relational.batch import type_column
from repro.relational.expr import compile_row_test
from repro.relational.types import DataType
from repro.storage.page import CODES, bits, checker, string_region, widths
from repro.util.codegen import compile_function
from repro.util.errors import StorageError

#: The expression compiler's kind of each fixed-width type.
_KINDS = {DataType.INT: "num", DataType.FLOAT: "num", DataType.BOOL: "bool"}


def _nulls(column, bitmap, n):
    """*column* with ``None`` where the NULL *bitmap* of its *n* rows is set."""
    return [None if null else v for null, v in zip(bits(bitmap, n), column)]


def _strings(data, n, nulls, end, start, stop, keep):
    """A STR/DATE column (its NULL bitmap at ``nulls:end``, its values at
    ``start:stop``), decoded for the rows *keep* marks (all if ``None``).
    A dictionary's entries are decoded once each, unless fewer rows than
    entries are kept: then only the kept rows' are."""
    lengths, blob, codes = string_region(data, n, start, stop)
    flags = bits(data[nulls:end], n) if nulls < end else None
    starts, ends = accumulate(lengths, initial=0), accumulate(lengths)
    if keep is not None:
        flags = None if flags is None else compress(flags, keep)
    if codes is None:
        if keep is not None:
            starts, ends = compress(starts, keep), compress(ends, keep)
        column = _cut(blob, starts, ends)
    else:
        kept = codes if keep is None else list(compress(codes, keep))
        if len(kept) < len(lengths):
            bounds = list(starts)
            column = _cut(blob, map(bounds.__getitem__, kept), [bounds[c + 1] for c in kept])
        else:
            column = list(map(_cut(blob, starts, ends).__getitem__, kept))
    return column if flags is None else [None if null else v for null, v in zip(flags, column)]


def _cut(blob, starts, ends):
    """The strings ``blob[a:b]`` for *a*, *b* in *starts*, *ends*."""
    try:
        text = blob.decode()  # checks every string; ASCII slices as it is stored
        source = text if len(text) == len(blob) else blob
        column = [source[a:b] for a, b in zip(starts, ends)]
        if source is blob:
            column = list(map(bytes.decode, column))
    except UnicodeDecodeError as exc:
        raise StorageError("corrupt string: {}".format(exc))
    return column


def _gather(column, keep, data_type):
    """The rows *keep* marks of a decoded *column*: typed where no NULL was kept."""
    if keep is not None:
        if type(column) is array:
            return array(column.typecode, list(compress(column, keep)))
        column = list(compress(column, keep))
    return type_column(column, data_type) if type(column) is list else column


def page_decoder(types, columns, predicate=None):
    """Compile ``decode(data) -> [vector per schema position]``.

    *types* is the schema's tuple of :class:`DataType`; *columns* the
    sorted tuple of positions to decode (``None`` = all); *data* one
    page's buffer.  Each vector has one entry per kept row, in slot
    order: a wanted INT/FLOAT column is a typed ``array`` where no NULL
    was kept, any other wanted column a list, an unwanted position a
    NULL-filled list.

    *predicate* (a bound expression over the schema's positions) keeps
    only the live rows it is ``True`` on; it is tested over whole
    columns before any string is decoded.  It must be one
    :func:`~repro.relational.expr.compile_row_test` proves cannot raise
    over the fixed-width columns: for anything else there is no decoder
    (``None``), and a plan keeps its ``Filter``.

    The generated function is memoised per ``(types, columns, test
    text)``: a pure function of those, like a ``struct`` format.  The
    predicate's literals are its arguments, bound on the way out.
    """
    if predicate is None:
        return _decoder(types, columns, (), ("", ""), ())
    kinds = {i: _KINDS[t] for i, t in enumerate(types) if t in _KINDS}
    test = compile_row_test(predicate, kinds)
    if test is None:
        return None
    reads, tests, literals = test
    decode = _decoder(types, columns, reads, tests, tuple(literals))
    return functools.partial(decode, **literals) if literals else decode


@functools.lru_cache(maxsize=None)
def _decoder(types, columns, reads, tests, literals):
    """The decoder of *columns* that keeps a live row where its test (one
    of *tests*: without NULLs, with) over the columns *reads* and the
    arguments named *literals* holds; an empty test keeps every live row."""
    width = len(types)
    wanted = sorted(set(range(width) if columns is None else columns))
    if wanted and not 0 <= wanted[0] <= wanted[-1] < width:
        raise StorageError("decoder columns {} outside the schema".format(wanted))
    regions = [["r[{}]".format(2 + 4 * i + j) for j in range(4)] for i in range(width)]
    namespace = {
        "check": checker(widths(types)), "nulls": _nulls, "strings": _strings,
        "gather": _gather, "array": array, **{t.name: t for t in DataType},
    }
    lines = ["def decode(data{}):".format("".join(", " + name for name in literals)),
             "    n, r, keep = check(data)"]
    for i in sorted(set(reads).union(i for i in wanted if types[i] in CODES)):
        z, y, s, e = regions[i]
        code = CODES.get(types[i])
        if code is None:
            lines.append("    c{} = strings(data, n, {}, {}, {}, {}, None)".format(i, z, y, s, e))
            continue
        read = "list(map(bool, data[{}:{}]))" if code == "B" else "array(" + repr(code) + ", data[{}:{}])"
        lines.append("    c{} = {}".format(i, read.format(s, e)))
        lines.append("    if {1} < {2}: c{0} = nulls(c{0}, data[{1}:{2}], n)".format(i, z, y))
    if tests[0]:
        names = ["v{}".format(i) for i in reads]
        each = " for {} in {}".format(
            ", ".join(names) or "_",
            "zip({})".format(", ".join("c{}".format(i) for i in reads)) if len(reads) > 1
            else "c{}".format(reads[0]) if reads else "range(n)",
        )
        clean = " and ".join("{} == {}".format(*regions[i][:2]) for i in reads)
        lines += ["    if {}:".format(clean or "True"),
                  "        test = [{}{}]".format(tests[0], each),
                  "    else:",
                  "        test = [{}{}]".format(tests[1], each),
                  "    keep = test if keep is None else [live and t for live, t in zip(keep, test)]"]
    if len(wanted) < width:
        lines.append("    k = n if keep is None else keep.count(True)")
    vectors = [
        "[None] * k" if i not in wanted
        else "strings(data, n, {}, {}, {}, {}, keep)".format(*regions[i]) if types[i] not in CODES and i not in reads
        else "gather(c{}, keep, {})".format(i, types[i].name)
        for i in range(width)
    ]
    lines.append("    return [{}]".format(", ".join(vectors)))
    return compile_function("\n".join(lines) + "\n", "page_decoder", namespace, "decode")

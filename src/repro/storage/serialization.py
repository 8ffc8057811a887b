"""Typed record serialization.

Rows are encoded against their table schema:

- a NULL bitmap (one bit per column, little-endian bit order),
- INT as 8-byte signed little-endian,
- FLOAT as IEEE-754 double,
- BOOL as one byte,
- STR and DATE as a 4-byte length prefix followed by UTF-8 bytes.

The encoding is self-delimiting given the schema, so records can be packed
back-to-back inside slotted pages.

Decoding is *compiled*: :func:`page_decoder` generates, once per (column
types, wanted columns, selection text), a function that walks a whole
page's slot directory, tests each live record and appends the wanted
fields of those that pass straight into per-column vectors.  Every read
is bounded by the record's slot length, so a damaged record raises
:class:`~repro.util.errors.StorageError` instead of returning its
neighbour's bytes.
"""

import functools
import struct

from repro.relational.batch import type_column
from repro.relational.expr import compile_row_test
from repro.relational.types import DataType, coerce_value
from repro.storage.page import TOMBSTONE
from repro.util.codegen import compile_function
from repro.util.errors import StorageError

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_LEN = struct.Struct("<I")

#: struct code, width and expression-compiler kind of the fixed-width
#: types (STR/DATE are length-prefixed).
_FIXED = {
    DataType.INT: ("q", 8, "num"), DataType.FLOAT: ("d", 8, "num"), DataType.BOOL: ("?", 1, "bool"),
}


def null_bitmap_size(column_count):
    return (column_count + 7) // 8


def encode_record(row, schema):
    """Serialize *row* (a sequence of values) against *schema* to bytes."""
    if len(row) != len(schema):
        raise StorageError(
            "row arity {} does not match schema arity {}".format(len(row), len(schema))
        )
    bitmap = bytearray(null_bitmap_size(len(schema)))
    chunks = [bytes(bitmap)]  # patched afterwards
    for i, (value, column) in enumerate(zip(row, schema)):
        value = coerce_value(value, column.type)
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
            continue
        if column.type is DataType.INT:
            chunks.append(_INT.pack(value))
        elif column.type is DataType.FLOAT:
            chunks.append(_FLOAT.pack(value))
        elif column.type is DataType.BOOL:
            chunks.append(b"\x01" if value else b"\x00")
        else:  # STR, DATE
            raw = value.encode("utf-8")
            chunks.append(_LEN.pack(len(raw)))
            chunks.append(raw)
    chunks[0] = bytes(bitmap)
    return b"".join(chunks)


def decode_record(data, schema):
    """Deserialize bytes produced by :func:`encode_record` into a tuple."""
    decode = page_decoder(tuple(column.type for column in schema), None)
    return tuple(vector[0] for vector in decode(data, (0, len(data))))


def _damaged(consumed, end):
    """The error for a record whose fields end at *consumed*, not at *end*."""
    if consumed < end:
        return StorageError("record has {} trailing bytes".format(end - consumed))
    return StorageError(
        "truncated record: its fields need {} more bytes".format(consumed - end)
    )


def page_decoder(types, columns, predicate=None):
    """Compile ``decode(data, directory) -> [vector per schema position]``.

    *types* is the schema's tuple of :class:`DataType`; *columns* the
    sorted tuple of positions to decode (``None`` = all).  *directory* is
    a page's flat slot directory (:func:`repro.storage.page.read_directory`)
    over the buffer *data*.  Each vector has one entry per kept record, in
    slot order: a wanted INT/FLOAT column is a typed ``array`` where no
    NULL was kept, any other wanted column a list, an unwanted position a
    NULL-filled list.

    *predicate* (a bound expression over the schema's positions) keeps
    only the live records it is ``True`` on; the test runs inside the
    walk, before any string is decoded or any value appended.  It must be
    one :func:`~repro.relational.expr.compile_row_test` proves cannot
    raise over the fixed-width fields: for anything else there is no
    decoder (``None``), and a plan keeps its ``Filter``.

    The generated function is memoised per ``(types, columns, test
    text)``: a pure function of those, like a ``struct`` format.  The
    predicate's literals are its arguments, bound on the way out.
    """
    if predicate is None:
        return _decoder(types, columns, (), ("", ""), ())
    kinds = {i: _FIXED[t][2] for i, t in enumerate(types) if t in _FIXED}
    test = compile_row_test(predicate, kinds)
    if test is None:
        return None
    reads, tests, literals = test
    decode = _decoder(types, columns, reads, tests, tuple(literals))
    return functools.partial(decode, **literals) if literals else decode


@functools.lru_cache(maxsize=None)
def _decoder(types, columns, reads, tests, literals):
    """The decoder of *columns* that keeps a record where its test (one of
    *tests*: without NULLs, with) over the fields *reads* and the
    arguments named *literals* holds; an empty test keeps every record."""
    width = len(types)
    wanted = sorted(set(range(width) if columns is None else columns))
    if wanted and not 0 <= wanted[0] <= wanted[-1] < width:
        raise StorageError("decoder columns {} outside the schema".format(wanted))
    read = set(wanted).union(reads)  # decoded; only the wanted are kept
    namespace = {
        "StorageError": StorageError,
        "damaged": _damaged,
        "type_column": type_column,
        "INT": DataType.INT,
        "FLOAT": DataType.FLOAT,
    }
    lines = []

    def emit(depth, line, *args):
        lines.append("    " * depth + line.format(*args))

    def unpack(fmt):
        """The name of a bound ``unpack_from`` for little-endian *fmt*."""
        name = "unpack_" + fmt.replace("?", "b")
        namespace[name] = struct.Struct("<" + fmt).unpack_from
        return name

    def keep(depth, test, value):
        """The record passed its walk: test it, then (and only then)
        decode its strings and append; ``value(i)`` is field *i*."""
        if test:
            emit(depth, "if {}:", test)
        for i in wanted:
            emit(depth + bool(test), "a{}({})", i, value(i))
        if not wanted:
            emit(depth + bool(test), "n += 1")

    bitmap = null_bitmap_size(width)
    sizes = [_FIXED[t][1] if t in _FIXED else _LEN.size for t in types]
    strings = [i for i, t in enumerate(types) if t not in _FIXED]
    clean = bitmap + sum(sizes)  # the shortest record without a NULL

    emit(0, "def decode(data, directory{}):", "".join(", " + name for name in literals))
    for i in wanted:
        emit(1, "c{0} = []; a{0} = c{0}.append", i)
    emit(1, "n = 0")
    emit(1, "slots = iter(directory)")
    emit(1, "try:")
    emit(2, "for off, length in zip(slots, slots):")
    emit(3, "end = off + length")

    # No NULLs: each run of fixed-width fields, and the length prefix that
    # closes it, is one fused read at an offset fixed by the previous
    # string's end.  ``rest`` is the least the record still needs after a
    # string, so one comparison per string bounds every read that follows.
    emit(3, "if length {} {} and not {}:", ">=" if strings else "==", clean,
         "data[off]" if bitmap == 1 else "any(data[off:off + {}])".format(bitmap))
    base, skip, rest = "off", bitmap, clean - bitmap
    fmt, targets = "", []
    for i, data_type in enumerate(types):
        rest -= sizes[i]
        if data_type in _FIXED:
            if i in read:
                fmt += _FIXED[data_type][0]
                targets.append("v{}".format(i))
            else:
                fmt += "{}x".format(sizes[i])
            continue
        emit(4, "{}, = {}(data, {} + {})",
             ", ".join(targets + ["size"]), unpack(fmt + "I"), base, skip)
        emit(4, "p{} = {} + {}", i, base, skip + struct.calcsize("<" + fmt + "I"))
        emit(4, "q{0} = p{0} + size", i)
        emit(4, "if q{} + {} {} end:", i, rest, "!=" if i == strings[-1] else ">")
        emit(5, "raise damaged(q{} + {}, end)", i, rest)
        base, skip, fmt, targets = "q{}".format(i), 0, "", []
    if targets:  # a trailing pad reads nothing: drop it from the format
        emit(4, "{}, = {}(data, {} + {})",
             ", ".join(targets), unpack(fmt.rstrip("0123456789x")), base, skip)
    keep(4, tests[0], lambda i: ("data[p{0}:q{0}].decode()" if i in strings else "v{0}").format(i))

    # NULL-carrying (or short) records: the same walk, field by field.
    emit(3, "elif length or off != {}:", TOMBSTONE)
    emit(4, "if length < {}:", bitmap)
    emit(5, 'raise StorageError("truncated record: missing null bitmap")')
    emit(4, 'bits = int.from_bytes(data[off:off + {}], "little")', bitmap)
    emit(4, "p = off + {}", bitmap)
    for i, data_type in enumerate(types):
        if i in read and data_type in _FIXED:
            emit(4, "v{} = None", i)
        emit(4, "if not bits & {}:", 1 << i)
        emit(5, "if p + {} > end:", sizes[i])
        emit(6, "raise damaged(p + {}, end)", sizes[i])
        if data_type in _FIXED:
            if i in read:
                emit(5, "v{}, = {}(data, p)", i, unpack(_FIXED[data_type][0]))
            emit(5, "p += {}", sizes[i])
            continue
        emit(5, "size, = {}(data, p)", unpack("I"))
        emit(5, "p{} = p + 4", i)
        emit(5, "p = q{0} = p{0} + size", i)
        emit(5, "if p > end:")
        emit(6, "raise damaged(p, end)")
    emit(4, "if p != end:")
    emit(5, "raise damaged(p, end)")
    keep(4, tests[1], lambda i: (
        "None if bits & {0} else data[p{1}:q{1}].decode()".format(1 << i, i)
        if i in strings else "v{}".format(i)
    ))

    emit(1, "except UnicodeDecodeError as exc:")
    emit(2, 'raise StorageError("corrupt record: {{}}".format(exc))')
    if wanted:
        emit(1, "n = len(c{})", wanted[0])
    vectors = [
        "[None] * n" if i not in wanted
        else "type_column(c{}, {})".format(i, t.name) if t.is_numeric
        else "c{}".format(i)
        for i, t in enumerate(types)
    ]
    emit(1, "return [{}]", ", ".join(vectors))
    return compile_function("\n".join(lines) + "\n", "page_decoder", namespace, "decode")

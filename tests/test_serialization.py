"""The page codec: rows round-trip through a column-major page, and a
damaged page raises StorageError, never another exception or rows."""

import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage import page
from repro.storage.page import PageWriter
from repro.storage.serialization import _decoder, page_decoder
from repro.util import codegen
from repro.util.errors import StorageError, TypeMismatchError

SCHEMA = Schema(
    [
        Column("Name", DataType.STR),
        Column("Population", DataType.INT),
        Column("Share", DataType.FLOAT),
        Column("Founded", DataType.DATE),
        Column("Active", DataType.BOOL),
    ]
)


def _types(schema):
    return tuple(column.type for column in schema)


def image(types, rows, size=512, deleted=()):
    """A page of *size* bytes holding *rows*, the slots *deleted* deleted."""
    data = bytearray(size)
    writer = PageWriter(tuple(types), data)
    for row in rows:
        assert writer.add(row) is not None
    writer.write(data)
    for slot in deleted:
        page.delete(data, slot)
    return data


def used(data, types):
    """The page's bytes up to the end of its last region."""
    return bytes(data[:page.checker(page.widths(types))(data)[1][-1]])


def round_trip(row, schema):
    """*row* through a page, by the decoder and by a one-row read."""
    types = _types(schema)
    data = image(types, [row])
    decoded = list(zip(*page_decoder(types, None)(data)))
    assert decoded == [page.read_row(data, types, 0)]
    return decoded[0]


def poke(data, region, value):
    """Overwrite offset *region* of the page header (0: deleted bitmap start)."""
    struct.pack_into("=H", data, 2 + 2 * region, value)


class TestRoundTrip:
    def test_simple(self):
        row = ("California", 32667, 0.153, "1850-09-09", True)
        assert round_trip(row, SCHEMA) == row

    def test_nulls_everywhere(self):
        row = (None, None, None, None, None)
        assert round_trip(row, SCHEMA) == row

    def test_empty_string(self):
        row = ("", 0, 0.0, "", False)
        assert round_trip(row, SCHEMA) == row

    def test_unicode(self):
        row = ("Škofja Loka — 日本", 1, 1.0, "1999-01-01", False)
        assert round_trip(row, SCHEMA) == row

    def test_int_widened_in_float_column(self):
        row = ("x", 1, 2, "d", True)  # int in FLOAT column
        decoded = round_trip(row, SCHEMA)
        assert decoded[2] == 2.0 and isinstance(decoded[2], float)

    def test_negative_ints(self):
        schema = Schema([Column("A", DataType.INT)])
        row = (-(2**62),)
        assert round_trip(row, schema) == row


class TestErrors:
    def test_arity_mismatch(self):
        with pytest.raises(StorageError, match="arity"):
            PageWriter(_types(SCHEMA), bytearray(512)).add(("only-one",))

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            PageWriter(_types(SCHEMA), bytearray(512)).add((1, 1, 1.0, "d", True))
        with pytest.raises(StorageError, match="64 bits"):
            PageWriter((DataType.INT,), bytearray(512)).add((2**63,))

    def test_trailing_garbage_detected(self):
        # The string's length (after the plain region's entry count)
        # says 0 of its region's 1 byte.
        data = image(_types(SCHEMA), [("x", 1, 1.0, "d", True)])
        _, regions, _ = page.checker(page.widths(_types(SCHEMA)))(data)
        data[regions[4] + 2:regions[4] + 4] = b"\0\0"
        with pytest.raises(StorageError, match="trailing"):
            page_decoder(_types(SCHEMA), None)(data)
        with pytest.raises(StorageError, match="trailing"):
            page.read_row(data, _types(SCHEMA), 0)

    def test_truncated_bitmap(self):
        for data in (b"", b"\x01\x00"):  # no header at all, a row count alone
            with pytest.raises(StorageError, match="truncated"):
                page_decoder(_types(SCHEMA), None)(data)


_value_strategies = {
    DataType.INT: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    DataType.FLOAT: st.floats(allow_nan=False, allow_infinity=True),
    DataType.STR: st.text(max_size=60),
    DataType.DATE: st.text(max_size=10),
    DataType.BOOL: st.booleans(),
}


@st.composite
def schema_and_row(draw):
    types = draw(
        st.lists(st.sampled_from(list(_value_strategies)), min_size=1, max_size=12)
    )
    schema = Schema([Column("c{}".format(i), t) for i, t in enumerate(types)])
    row = tuple(
        draw(st.none() | _value_strategies[t]) for t in types
    )
    return schema, row


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(schema_and_row())
    def test_round_trip_property(self, payload):
        schema, row = payload
        decoded = round_trip(row, schema)
        expected = tuple(
            float(v)
            if v is not None and schema[i].type is DataType.FLOAT
            else v
            for i, v in enumerate(row)
        )
        assert decoded == expected


# -- damaged pages ------------------------------------------------------------------

_SAMPLE = {
    DataType.INT: -(2**40),
    DataType.FLOAT: 2.5,
    DataType.STR: "Škofja Loka",
    DataType.DATE: "1999-10-01",
    DataType.BOOL: True,
}

#: One single-column schema per type, plus two mixed ones.
_SWEEP_TYPES = [(t,) for t in DataType] + [
    (DataType.INT, DataType.STR, DataType.FLOAT, DataType.BOOL),
    (DataType.STR, DataType.DATE, DataType.INT),
]
_SWEEP_IDS = ["-".join(t.value for t in ts) for ts in _SWEEP_TYPES]


def _raises_everywhere(data, types):
    """Every decoder of *types* and every one-row read refuse *data*."""
    for subset in (None, (), (len(types) - 1,)):
        with pytest.raises(StorageError):
            page_decoder(tuple(types), subset)(data)
    with pytest.raises(StorageError):
        page.read_row(data, tuple(types), 0)


class TestDamagedRecords:
    """A damaged page raises StorageError through every decoder: never an
    IndexError or ``struct.error``, never a row."""

    @pytest.mark.parametrize("types", _SWEEP_TYPES, ids=_SWEEP_IDS)
    def test_truncation_at_every_byte(self, types):
        row = tuple(_SAMPLE[t] for t in types)
        whole = used(image(types, [row, row]), types)
        assert list(zip(*page_decoder(types, None)(whole))) == [row, row]
        for cut in range(len(whole)):
            _raises_everywhere(whole[:cut], types)

    def test_truncated_null_carrying_record(self):
        types = (DataType.INT, DataType.STR, DataType.FLOAT, DataType.BOOL)
        whole = used(image(types, [(1, None, 2.0, None), (None, "s", None, True)]), types)
        for cut in range(len(whole)):
            _raises_everywhere(whole[:cut], types)

    @pytest.mark.parametrize("types", _SWEEP_TYPES, ids=_SWEEP_IDS)
    def test_a_region_past_the_page_end(self, types):
        data = image(types, [tuple(_SAMPLE[t] for t in types)], size=256)
        for region in range(2 + 4 * len(types)):
            damaged = bytearray(data)
            poke(damaged, region, 257)
            _raises_everywhere(damaged, types)

    @pytest.mark.parametrize("claimed", [0, 3, 5, 2**31, 2**32 - 1])
    def test_corrupt_length_prefix(self, claimed):
        """String lengths that do not sum to their region (a length is
        16 bits: the larger claims are cut to its largest)."""
        types = (DataType.STR, DataType.INT)
        data = image(types, [("abcd", 7), ("ef", 8)])
        _, regions, _ = page.checker(page.widths(types))(data)
        data[regions[4] + 2:regions[4] + 4] = min(claimed, 0xFFFF).to_bytes(2, "little")
        for subset in (None, (0,)):
            with pytest.raises(StorageError):
                page_decoder(types, subset)(data)
        for slot in (0, 1):
            with pytest.raises(StorageError):
                page.read_row(data, types, slot)

    def _dictionary_page(self):
        """A STR column coded against the dictionary ``["ab", "c"]``:
        ``02 | 0200 0100 | "abc" | 00 01 00 00``."""
        types = (DataType.STR, DataType.INT)
        data = image(types, [("ab", 1), ("c", 2), ("ab", 3), ("ab", 4)])
        start = page.checker(page.widths(types))(data)[1][4]
        assert bytes(data[start:start + 13]) == bytes.fromhex("0200 0200 0100 616263 00010000")
        return types, data, start

    @pytest.mark.parametrize("code", [2, 0xFF])
    def test_a_code_past_the_dictionary(self, code):
        types, data, start = self._dictionary_page()
        data[start + 11] = code  # row 2's code
        for subset in (None, (0,)):
            with pytest.raises(StorageError, match="past a dictionary of 2"):
                page_decoder(types, subset)(data)
        for slot in (0, 2):
            with pytest.raises(StorageError, match="past a dictionary of 2"):
                page.read_row(data, types, slot)

    @pytest.mark.parametrize("length, damage", [(1, "trailing"), (3, "missing"), (0xFFFF, "missing")])
    def test_dictionary_lengths_that_do_not_sum_to_its_entries(self, length, damage):
        types, data, start = self._dictionary_page()
        data[start + 2:start + 4] = length.to_bytes(2, "little")  # "ab" was 2 bytes
        for subset in (None, (0,)):
            with pytest.raises(StorageError, match=damage):
                page_decoder(types, subset)(data)
        with pytest.raises(StorageError, match=damage):
            page.read_row(data, types, 1)

    @pytest.mark.parametrize("count", [3, 5, 300, 0xFFFF])
    def test_an_entry_count_the_region_cannot_hold(self, count):
        types, data, start = self._dictionary_page()
        data[start:start + 2] = count.to_bytes(2, "little")
        for subset in (None, (0,)):
            with pytest.raises(StorageError):
                page_decoder(types, subset)(data)
        with pytest.raises(StorageError):
            page.read_row(data, types, 0)

    def test_deleted_bitmap_longer_than_the_row_count(self):
        types = (DataType.INT,)
        data = image(types, [(1,), (2,)])
        longer = bytearray(data)
        poke(longer, 1, struct.unpack_from("=H", data, 4)[0] + 1)
        _raises_everywhere(longer, types)
        stray = bytearray(data)  # the right length, a bit set past the rows
        stray[struct.unpack_from("=H", data, 2)[0]] = 0b100
        _raises_everywhere(stray, types)

    def test_invalid_utf8_is_wrapped(self):
        types = (DataType.STR,)
        data = image(types, [("abcd",)])
        _, regions, _ = page.checker(page.widths(types))(data)
        data[regions[4] + 4] = 0xFF  # past the entry count and the length
        with pytest.raises(StorageError, match="corrupt"):
            page_decoder(types, None)(data)
        with pytest.raises(StorageError, match="corrupt"):
            page.read_row(data, types, 0)
        # ... and a string nobody reads is not decoded at all.
        assert page_decoder(types, ())(data) == [[None]]

    def test_columns_outside_the_schema_rejected(self):
        with pytest.raises(StorageError, match="outside"):
            page_decoder((DataType.INT,), (1,))


class TestPageDecoder:
    def test_the_on_disk_format_did_not_move(self):
        """A page this format's first commit wrote: five inserts, slot 3
        deleted; the STR column plain, the DATE column a dictionary
        (``02 | 0000 000a | 1999-10-01 | 01 00 00 01 01``).  The next
        change to the format must fail this test."""
        image = bytes.fromhex(
            "05002e002f002f00300030005800580059005900790079007a007a00a200a200a300a3"
            "00b800b800b900b900be00080201000000000000000000000000000000000000000000"
            "00800700000000000000ffffffffffffff7f02000008000000000006000600c3856c65"
            "73756e64646f6f6d6564e697a5e69cac12000000000000e03f00000000000000000000"
            "00000000f0ff000000000000f03f000000000000000002020000000a00313939392d31"
            "302d30310100000101120100000100"
        )
        types = (DataType.INT, DataType.STR, DataType.FLOAT, DataType.DATE, DataType.BOOL)
        vectors = page_decoder(types, None)(image)
        assert list(zip(*vectors)) == [
            (1, "Ålesund", 0.5, "1999-10-01", True),
            (None, None, None, None, None),
            (-(2**63), "", float("-inf"), "", False),
            (2**63 - 1, "日本", None, "1999-10-01", None),
        ]
        assert page.live_slots(image) == [0, 1, 2, 4]
        assert page.read_row(image, types, 3) is None
        assert page.read_row(image, types, 0) == (1, "Ålesund", 0.5, "1999-10-01", True)

    def test_typed_arrays_exactly_where_no_null_fell(self):
        types = (DataType.INT, DataType.FLOAT, DataType.STR)
        data = image(types, [(1, 1.0, "a"), (2, None, None), (3, 3.0, "c")])
        ints, floats, strings = page_decoder(types, None)(data)
        assert ints == array("q", [1, 2, 3])
        assert floats == [1.0, None, 3.0] and isinstance(floats, list)
        assert strings == ["a", None, "c"]
        # A NULL the selection drops leaves a typed array behind.
        kept = page_decoder(types, None, Comparison("<>", ColumnRef(0), Literal(2)))(data)
        assert kept[1] == array("d", [1.0, 3.0]) and kept[2] == ["a", "c"]

    def test_unread_positions_are_null_filled(self):
        types = (DataType.INT, DataType.STR, DataType.FLOAT)
        data = image(types, [(i, "s", i / 2) for i in range(4)])
        assert page_decoder(types, (2,))(data) == [
            [None] * 4, [None] * 4, array("d", [0.0, 0.5, 1.0, 1.5]),
        ]
        # No column at all still reports every live row.
        assert page_decoder(types, ())(data) == [[None] * 4] * 3
        page.delete(data, 1)
        assert page_decoder(types, ())(data) == [[None] * 3] * 3

    def test_compiled_once_per_column_set(self):
        # The memo is process-wide: thirteen columns is a schema no
        # generator in the suite draws (the storage oracle stops at twelve).
        # Its key is (types, columns, predicate text): a literal is an
        # argument of the compiled function, not part of its source.
        types = (DataType.BOOL, DataType.DATE, DataType.BOOL, DataType.INT) * 3 + (
            DataType.STR,
        )
        before = _decoder.cache_info().misses
        decoders = {page_decoder(types, cols) for cols in [None, (0, 3), (0, 3), None, ()]}
        assert len(decoders) == 3
        assert _decoder.cache_info().misses == before + 3
        code = len(codegen._CODE)
        selecting = {
            page_decoder(types, (0, 3), Comparison("=", ColumnRef(3), Literal(k))).func
            for k in range(1000)
        }
        assert len(selecting) == 1
        assert _decoder.cache_info().misses == before + 4
        assert len(codegen._CODE) == code + 1
        page_decoder(types, (0, 3), Comparison("<", ColumnRef(3), Literal(1)))
        assert _decoder.cache_info().misses == before + 5

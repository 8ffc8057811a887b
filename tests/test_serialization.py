"""Record codec round-trips, including property-based coverage."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage.page import SlottedPage, live_slots, read_directory
from repro.storage.serialization import _decoder, decode_record, encode_record, page_decoder
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


class TestRoundTrip:
    def test_simple(self):
        row = ("California", 32667, 0.153, "1850-09-09", True)
        assert decode_record(encode_record(row, SCHEMA), SCHEMA) == row

    def test_nulls_everywhere(self):
        row = (None, None, None, None, None)
        assert decode_record(encode_record(row, SCHEMA), SCHEMA) == row

    def test_empty_string(self):
        row = ("", 0, 0.0, "", False)
        assert decode_record(encode_record(row, SCHEMA), SCHEMA) == row

    def test_unicode(self):
        row = ("Škofja Loka — 日本", 1, 1.0, "1999-01-01", False)
        assert decode_record(encode_record(row, SCHEMA), SCHEMA) == row

    def test_int_widened_in_float_column(self):
        row = ("x", 1, 2, "d", True)  # int in FLOAT column
        decoded = decode_record(encode_record(row, SCHEMA), SCHEMA)
        assert decoded[2] == 2.0 and isinstance(decoded[2], float)

    def test_negative_ints(self):
        schema = Schema([Column("A", DataType.INT)])
        row = (-(2**62),)
        assert decode_record(encode_record(row, schema), schema) == row


class TestErrors:
    def test_arity_mismatch(self):
        with pytest.raises(StorageError):
            encode_record(("only-one",), SCHEMA)

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatchError):
            encode_record((1, 1, 1.0, "d", True), SCHEMA)

    def test_trailing_garbage_detected(self):
        data = encode_record(("x", 1, 1.0, "d", True), SCHEMA) + b"junk"
        with pytest.raises(StorageError, match="trailing"):
            decode_record(data, SCHEMA)

    def test_truncated_bitmap(self):
        with pytest.raises(StorageError):
            decode_record(b"", SCHEMA)


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
        decoded = decode_record(encode_record(row, schema), schema)
        expected = tuple(
            float(v)
            if v is not None and schema[i].type is DataType.FLOAT
            else v
            for i, v in enumerate(row)
        )
        assert decoded == expected


# -- the compiled page decoder ----------------------------------------------------

_SAMPLE = {
    DataType.INT: -(2**40),
    DataType.FLOAT: 2.5,
    DataType.STR: "Škofja Loka",
    DataType.DATE: "1999-10-01",
    DataType.BOOL: True,
}

#: One single-column schema per type, plus the issue's mixed record.
_SWEEP_TYPES = [(t,) for t in DataType] + [
    (DataType.INT, DataType.STR, DataType.FLOAT, DataType.BOOL),
    (DataType.STR, DataType.DATE, DataType.INT),
]


def _schema_of(types):
    return Schema([Column("c{}".format(i), t) for i, t in enumerate(types)])


def _page_with(records, size=512):
    """A slotted page holding *records*, first inserted at the page's end."""
    page = SlottedPage(bytearray(size))
    for record in records:
        page.insert(record)
    return page.data


class TestDamagedRecords:
    """A damaged record raises StorageError — never another exception,
    never its neighbour's bytes — through the record and the page path."""

    @pytest.mark.parametrize(
        "types", _SWEEP_TYPES, ids=["-".join(t.value for t in ts) for ts in _SWEEP_TYPES]
    )
    def test_truncation_at_every_byte(self, types):
        schema = _schema_of(types)
        row = tuple(_SAMPLE[t] for t in types)
        record = encode_record(row, schema)
        assert decode_record(record, schema) == row
        for subset in (None, (), (len(types) - 1,)):
            decode = page_decoder(tuple(types), subset)
            for cut in range(len(record)):
                with pytest.raises(StorageError):
                    decode_record(record[:cut], schema)
                # On a page the cut record's bytes run straight into its
                # neighbour's: an unbounded read would "succeed".
                data = _page_with([record, record[:cut]])
                with pytest.raises(StorageError):
                    decode(data, read_directory(data))

    def test_truncated_null_carrying_record(self):
        types = (DataType.INT, DataType.STR, DataType.FLOAT, DataType.BOOL)
        schema = _schema_of(types)
        record = encode_record((1, None, 2.0, None), schema)
        for cut in range(len(record)):
            with pytest.raises(StorageError):
                decode_record(record[:cut], schema)
            data = _page_with([record, record[:cut]])
            with pytest.raises(StorageError):
                page_decoder(types, None)(data, read_directory(data))

    @pytest.mark.parametrize("claimed", [0, 3, 5, 2**31, 2**32 - 1])
    def test_corrupt_length_prefix(self, claimed):
        schema = _schema_of((DataType.STR, DataType.INT))
        record = bytearray(encode_record(("abcd", 7), schema))
        record[1:5] = claimed.to_bytes(4, "little")
        with pytest.raises(StorageError):
            decode_record(bytes(record), schema)

    def test_invalid_utf8_is_wrapped(self):
        schema = _schema_of((DataType.STR,))
        record = bytearray(encode_record(("abcd",), schema))
        record[5] = 0xFF
        with pytest.raises(StorageError, match="corrupt record"):
            decode_record(bytes(record), schema)
        # ... and a string nobody reads is not decoded at all.
        data = _page_with([bytes(record)])
        assert page_decoder((DataType.STR,), ())(data, read_directory(data)) == [[None]]

    def test_columns_outside_the_schema_rejected(self):
        with pytest.raises(StorageError, match="outside"):
            page_decoder((DataType.INT,), (1,))


class TestPageDecoder:
    def test_page_image_written_by_the_parent_commit(self):
        """The on-disk format did not move: a 192-byte page the previous
        decoder's commit wrote (five inserts, slot 3 deleted)."""
        image = bytes.fromhex(
            "0500370094002c009300010079001a00ffff00003700210000000000000000000000"
            "00000000000000000000000000000000000000000014ffffffffffffff7f06000000"
            "e697a5e69cac0a000000323030302d30312d30310007000000000000000600000064"
            "6f6f6d6564000000000000f03f01000000780100000000000000008000000000000000"
            "000000f0ff00000000001f00010000000000000008000000c3856c6573756e640000"
            "00000000e03f0a000000313939392d31302d303101"
        )
        types = (DataType.INT, DataType.STR, DataType.FLOAT, DataType.DATE, DataType.BOOL)
        vectors = page_decoder(types, None)(image, read_directory(image))
        assert list(zip(*vectors)) == [
            (1, "Ålesund", 0.5, "1999-10-01", True),
            (None, None, None, None, None),
            (-(2**63), "", float("-inf"), "", False),
            (2**63 - 1, "日本", None, "2000-01-01", None),
        ]
        assert live_slots(read_directory(image)) == [0, 1, 2, 4]

    def test_typed_arrays_exactly_where_no_null_fell(self):
        types = (DataType.INT, DataType.FLOAT, DataType.STR)
        schema = _schema_of(types)
        data = _page_with(
            [encode_record(r, schema) for r in [(1, 1.0, "a"), (2, None, None), (3, 3.0, "c")]]
        )
        ints, floats, strings = page_decoder(types, None)(data, read_directory(data))
        assert ints == array("q", [1, 2, 3])
        assert floats == [1.0, None, 3.0] and isinstance(floats, list)
        assert strings == ["a", None, "c"]

    def test_unread_positions_are_null_filled(self):
        types = (DataType.INT, DataType.STR, DataType.FLOAT)
        schema = _schema_of(types)
        data = _page_with([encode_record((i, "s", i / 2), schema) for i in range(4)])
        directory = read_directory(data)
        assert page_decoder(types, (2,))(data, directory) == [
            [None] * 4, [None] * 4, array("d", [0.0, 0.5, 1.0, 1.5]),
        ]
        # No column at all still reports every live record.
        assert page_decoder(types, ())(data, directory) == [[None] * 4] * 3

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

"""Columns, schemas, and name resolution."""

import pytest

from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.util.errors import CatalogError, PlanError


def make_schema():
    return Schema(
        [
            Column("Name", DataType.STR, "States"),
            Column("Population", DataType.INT, "States"),
            Column("Capital", DataType.STR, "States"),
        ]
    )


class TestColumn:
    def test_qualified_name(self):
        assert Column("Name", DataType.STR, "S").qualified_name() == "S.Name"

    def test_unqualified_name(self):
        assert Column("Name", DataType.STR).qualified_name() == "Name"

    def test_matches_case_insensitive(self):
        col = Column("Name", DataType.STR, "States")
        assert col.matches("name")
        assert col.matches("NAME", "states")
        assert not col.matches("name", "sigs")
        assert not col.matches("nam")

    def test_with_qualifier(self):
        col = Column("Name", DataType.STR).with_qualifier("S")
        assert col.qualifier == "S"

    def test_equality_and_hash(self):
        a = Column("A", DataType.INT, "T")
        b = Column("A", DataType.INT, "T")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Column("A", DataType.STR, "T")


class TestSchema:
    def test_resolve_by_name(self):
        schema = make_schema()
        assert schema.resolve("Population") == 1

    def test_resolve_qualified(self):
        schema = make_schema()
        assert schema.resolve("Name", "States") == 0

    def test_resolve_unknown(self):
        with pytest.raises(PlanError, match="unknown column"):
            make_schema().resolve("Missing")

    def test_resolve_ambiguous(self):
        schema = Schema(
            [Column("URL", DataType.STR, "AV"), Column("URL", DataType.STR, "G")]
        )
        with pytest.raises(PlanError, match="ambiguous"):
            schema.resolve("URL")
        # Qualification disambiguates.
        assert schema.resolve("URL", "G") == 1

    def test_maybe_resolve(self):
        schema = make_schema()
        assert schema.maybe_resolve("Capital") == 2
        assert schema.maybe_resolve("Nope") is None

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Schema([Column("A", DataType.INT, "T"), Column("a", DataType.STR, "T")])

    def test_duplicates_allowed_for_output_schemas(self):
        schema = Schema(
            [Column("Count", DataType.INT), Column("Count", DataType.INT)],
            allow_duplicates=True,
        )
        assert len(schema) == 2

    def test_concat(self):
        left = make_schema()
        right = Schema([Column("Name", DataType.STR, "Sigs")])
        combined = left.concat(right)
        assert len(combined) == 4
        assert combined.resolve("Name", "Sigs") == 3
        with pytest.raises(PlanError, match="ambiguous"):
            combined.resolve("Name")

    def test_project(self):
        schema = make_schema().project([2, 0])
        assert schema.names() == ["Capital", "Name"]

    def test_with_qualifier(self):
        schema = make_schema().with_qualifier("S")
        assert [c.qualified_name() for c in schema] == [
            "S.Name", "S.Population", "S.Capital",
        ]

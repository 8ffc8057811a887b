"""Create the paper's stored tables inside a Database."""

from repro.datasets.csfields import CS_FIELDS
from repro.datasets.movies import MOVIES
from repro.datasets.sigs import SIGS
from repro.datasets.states import STATES
from repro.relational.types import DataType


def load_states_table(db, name="States"):
    """``States(Name, Population, Capital)`` — population in thousands."""
    return db.create_table_from_rows(
        name,
        [("Name", DataType.STR), ("Population", DataType.INT), ("Capital", DataType.STR)],
        [(s.name, s.population, s.capital) for s in STATES],
    )


def load_sigs_table(db, name="Sigs"):
    """``Sigs(Name)`` — the 37 ACM Special Interest Groups."""
    return db.create_table_from_rows(
        name, [("Name", DataType.STR)], [(s.name,) for s in SIGS]
    )


def load_csfields_table(db, name="CSFields"):
    """``CSFields(Name)`` — computer-science fields."""
    return db.create_table_from_rows(
        name, [("Name", DataType.STR)], [(f.name,) for f in CS_FIELDS]
    )


def load_movies_table(db, name="Movies"):
    """``Movies(Title)`` — the DSQ movie relation."""
    return db.create_table_from_rows(
        name, [("Title", DataType.STR)], [(m.title,) for m in MOVIES]
    )


def load_all(db):
    """Create each dataset table *db* lacks; returns the database for chaining.

    A table already there under a dataset's name, a user's own
    included, is left as it is.
    """
    for name, load in (
        ("States", load_states_table),
        ("Sigs", load_sigs_table),
        ("CSFields", load_csfields_table),
        ("Movies", load_movies_table),
    ):
        if not db.has_table(name):
            load(db)
    return db

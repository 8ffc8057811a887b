"""The system catalog: table names, schemas, and file locations.

In disk mode the catalog is a JSON document (``catalog.json``) in the
database directory, with one ``.dat`` heap file per table.  It records the
heap page format (:data:`repro.storage.page.FORMAT`): a directory written
in any other format is refused before a page is read.  In memory mode
nothing is persisted, but the catalog enforces the same invariants (unique
table names, schema round-tripping).
"""

import json
import os

from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.storage.page import FORMAT
from repro.util.errors import CatalogError

CATALOG_FILE = "catalog.json"


def schema_to_json(schema):
    return [{"name": c.name, "type": c.type.value} for c in schema]


def schema_from_json(payload):
    try:
        columns = [Column(c["name"], DataType(c["type"])) for c in payload]
    except (KeyError, ValueError, TypeError) as exc:
        raise CatalogError("malformed schema payload: {}".format(exc))
    return Schema(columns)


class Catalog:
    """Mapping of table name (case-insensitive) to schema + data file."""

    def __init__(self, directory=None):
        self.directory = directory
        self._tables = {}  # lower-name -> {"name", "schema", "file"}
        self._indexes = {}  # lower-name -> {"name","table","column","file","root"}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._load()

    # -- queries ------------------------------------------------------------

    def has_table(self, name):
        return name.lower() in self._tables

    def table_names(self):
        return sorted(entry["name"] for entry in self._tables.values())

    def schema_of(self, name):
        return self._entry(name)["schema"]

    def file_of(self, name):
        entry = self._entry(name)
        if self.directory is None:
            return None
        return os.path.join(self.directory, entry["file"])

    # -- mutations ----------------------------------------------------------

    def register(self, name, schema):
        if self.has_table(name):
            raise CatalogError("table {!r} already exists".format(name))
        self._tables[name.lower()] = {
            "name": name,
            "schema": schema,
            "file": "{}.dat".format(name.lower()),
        }
        self._save()

    def unregister(self, name):
        entry = self._entry(name)
        del self._tables[name.lower()]
        for index_name in [
            e["name"] for e in self._indexes.values() if e["table"].lower() == name.lower()
        ]:
            self.unregister_index(index_name)
        self._save()
        if self.directory is not None:
            path = os.path.join(self.directory, entry["file"])
            if os.path.exists(path):
                os.remove(path)

    # -- indexes ---------------------------------------------------------------

    def register_index(self, name, table, column):
        if name.lower() in self._indexes:
            raise CatalogError("index {!r} already exists".format(name))
        self._entry(table)  # validates the table exists
        entry = {
            "name": name,
            "table": table,
            "column": column,
            "file": "{}.idx".format(name.lower()),
            "root": None,
        }
        self._indexes[name.lower()] = entry
        self._save()
        return entry

    def unregister_index(self, name):
        entry = self._indexes.pop(name.lower(), None)
        if entry is None:
            raise CatalogError("unknown index {!r}".format(name))
        self._save()
        if self.directory is not None:
            path = os.path.join(self.directory, entry["file"])
            if os.path.exists(path):
                os.remove(path)

    def set_index_root(self, name, root_page_id):
        entry = self._indexes.get(name.lower())
        if entry is None:
            raise CatalogError("unknown index {!r}".format(name))
        entry["root"] = root_page_id
        self._save()

    def index_names(self):
        return sorted(e["name"] for e in self._indexes.values())

    def index_entry(self, name):
        entry = self._indexes.get(name.lower())
        if entry is None:
            raise CatalogError("unknown index {!r}".format(name))
        return dict(entry)

    def index_file_of(self, name):
        entry = self._indexes.get(name.lower())
        if entry is None:
            raise CatalogError("unknown index {!r}".format(name))
        if self.directory is None:
            return None
        return os.path.join(self.directory, entry["file"])

    # -- persistence --------------------------------------------------------

    def _entry(self, name):
        entry = self._tables.get(name.lower())
        if entry is None:
            raise CatalogError("unknown table {!r}".format(name))
        return entry

    def _load(self):
        path = os.path.join(self.directory, CATALOG_FILE)
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
        found = payload.get("page_format", "slotted rows (unmarked)")
        if found != FORMAT:
            raise CatalogError("{} holds pages of format {!r}; this build reads {!r}".format(
                self.directory, found, FORMAT))
        for item in payload.get("tables", []):
            self._tables[item["name"].lower()] = {
                "name": item["name"],
                "schema": schema_from_json(item["schema"]),
                "file": item["file"],
            }
        for item in payload.get("indexes", []):
            self._indexes[item["name"].lower()] = dict(item)

    def _save(self):
        if self.directory is None:
            return
        payload = {
            "page_format": FORMAT,
            "tables": [
                {
                    "name": entry["name"],
                    "schema": schema_to_json(entry["schema"]),
                    "file": entry["file"],
                }
                for entry in self._tables.values()
            ],
            "indexes": [dict(e) for e in self._indexes.values()],
        }
        path = os.path.join(self.directory, CATALOG_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        os.replace(tmp, path)

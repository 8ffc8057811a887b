"""Virtual tables (paper Section 3).

A virtual table "looks like a table to the query processor but returns
dynamically-generated tuples".  This package provides:

- :class:`~repro.vtables.base.VirtualTableDef` /
  :class:`~repro.vtables.base.VTableInstance` — the definition/per-query
  instance split (the paper's tables are "an infinite family of infinitely
  large virtual tables": the column count is fixed per *query*, not per
  table).
- :class:`~repro.vtables.base.ExternalCall` — one external request: a
  key, a destination, and the attempt-generator factory a request pump runs.
- :mod:`repro.vtables.webcount` / :mod:`repro.vtables.webpages` — the
  paper's two tables over a search engine.
- :mod:`repro.vtables.webfetch` — ``WebFetch``/``WebLinks`` over the page
  store, for the Section 4.2 crawler scenario.
- :class:`~repro.vtables.evscan.EVScan` — the blocking external
  virtual-table scan (the sequential baseline): it registers its call
  like ``AEVScan`` and waits for it.
"""

from repro.vtables.base import ExternalCall, VTableInstance, VirtualTableDef
from repro.vtables.evscan import EVScan
from repro.vtables.webcount import WebCountDef
from repro.vtables.webfetch import WebFetchDef, WebLinksDef
from repro.vtables.webpages import DEFAULT_MAX_RANK, WebPagesDef

__all__ = [
    "DEFAULT_MAX_RANK",
    "EVScan",
    "ExternalCall",
    "VTableInstance",
    "VirtualTableDef",
    "WebCountDef",
    "WebFetchDef",
    "WebLinksDef",
    "WebPagesDef",
]

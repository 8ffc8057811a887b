"""WSQ: Web-Supported Database Queries — the user-facing engine.

:class:`~repro.wsq.engine.WsqEngine` wires the pieces of Figure 1
together: a local :class:`~repro.storage.database.Database`, search-engine
clients over the simulated Web, the virtual-table catalog
(``WebCount``/``WebPages`` per engine, plus ``WebFetch``/``WebLinks``),
the planner, and — for asynchronous mode — the request pump and the plan
rewriter.
"""

from repro.wsq.engine import QueryResult, WsqEngine
from repro.wsq.result import format_table

__all__ = ["QueryResult", "WsqEngine", "format_table"]

"""Asynchronous iteration (paper Section 4).

The technique has three runtime components plus a plan rewriter:

- :class:`~repro.asynciter.pump.RequestPump` — the "ReqPump", one per
  engine: an event-driven module (one timer heap with no thread of its
  own, driven by the query thread that waits on it — the paper cites the
  Flash web server's single-process event loop as the model) that issues
  many concurrent external calls, stores results keyed by call id,
  enforces global and per-destination concurrency limits, and queues
  excess calls.
- :class:`~repro.asynciter.context.AsyncContext` — per-query view of the
  pump: the "ReqPumpHash" result store plus the producer/consumer
  signalling between pump and ReqSync operators.
- :class:`~repro.asynciter.aevscan.AEVScan` — asynchronous EVScan: it
  registers a call and immediately returns one optimistic tuple whose
  unknown attributes are placeholders.
- :class:`~repro.asynciter.reqsync.ReqSync` — buffers incomplete tuples
  and patches, cancels (0 result rows), or proliferates (n > 1 rows) them
  as calls complete.
- :mod:`repro.asynciter.rewrite` — the Insertion / Percolation /
  Consolidation placement algorithm of Section 4.5, over the logical
  plan (:func:`~repro.asynciter.rewrite.rewrite_logical`).
"""

from repro.asynciter.aevscan import AEVScan
from repro.asynciter.context import AsyncContext
from repro.asynciter.pump import PumpLimits, RequestPump
from repro.asynciter.reqsync import ReqSync

__all__ = [
    "AEVScan",
    "AsyncContext",
    "PumpLimits",
    "ReqSync",
    "RequestPump",
]

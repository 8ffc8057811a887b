"""Deterministic fault injection for the simulated Web.

The paper treats search engines as reliable black boxes; real remote
search services are not.  :class:`FaultModel` decides — as a *stable
function of the request* — whether a request fails, how, and on which
attempt:

- **transient errors** (5xx, connection reset): keyed on
  ``(engine, expr, attempt)``, so a retry of the same request may
  succeed.  This is the common case real systems engineer for.
- **hard errors** (4xx-style): keyed on ``(engine, expr)`` only —
  attempt-independent, so retrying is provably useless and the retry
  policy must classify them as fatal.
- **hung requests**: the request neither answers nor errors for
  ``hang_seconds``; only a per-call timeout rescues the caller.
- **per-engine outage windows**: while an engine is in ``outages`` every
  request to it fails fast with :class:`EngineOutageError` — the
  scenario circuit breakers exist for.  ``begin_outage``/``end_outage``
  move an engine in and out of the window.

Determinism mirrors :class:`~repro.web.latency.UniformLatency`: the same
``(seed, engine, expr, attempt)`` always yields the same decision, so the
synchronous baseline and the asynchronous request pump see *identical*
fault schedules — preserving the Table 1 fair-comparison property even
under chaos.
"""

import threading

from repro.util.errors import (
    EngineOutageError,
    HardWebError,
    TransientWebError,
)
from repro.util.rng import stable_uniform

#: Fault kinds.
TRANSIENT = "transient"
HARD = "hard"
HANG = "hang"
OUTAGE = "outage"


class Fault:
    """One injected fault decision for a single request attempt."""

    __slots__ = ("kind", "error", "hang_seconds")

    def __init__(self, kind, error=None, hang_seconds=0.0):
        self.kind = kind
        self.error = error
        self.hang_seconds = hang_seconds

    def __repr__(self):
        if self.kind == HANG:
            return "Fault(hang {}s)".format(self.hang_seconds)
        return "Fault({}: {})".format(self.kind, self.error)


class FaultModel:
    """Seeded, per-request-stable fault schedule for the simulated Web.

    Rates are probabilities in ``[0, 1]``.  Checks are ordered outage →
    hard → transient → hang; at most one fault fires per attempt.  All
    decisions are pure functions of ``(seed, engine, expr, attempt)``
    plus the current outage set, so replaying a workload (sync or async,
    any interleaving) replays its faults.
    """

    def __init__(
        self,
        seed=0,
        transient_rate=0.0,
        hard_rate=0.0,
        hang_rate=0.0,
        hang_seconds=30.0,
        outages=(),
    ):
        for name, rate in (
            ("transient_rate", transient_rate),
            ("hard_rate", hard_rate),
            ("hang_rate", hang_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("{} must be in [0, 1]".format(name))
        if hang_seconds < 0:
            raise ValueError("hang_seconds cannot be negative")
        self.seed = seed
        self.transient_rate = transient_rate
        self.hard_rate = hard_rate
        self.hang_rate = hang_rate
        self.hang_seconds = hang_seconds
        self._outages = set(outages)
        self._lock = threading.Lock()
        # Injection counters.
        self.transient_injected = 0
        self.hard_injected = 0
        self.hangs_injected = 0
        self.outage_rejections = 0

    # -- outage windows ----------------------------------------------------------

    def begin_outage(self, engine_name):
        """Open an outage window: *engine_name* refuses every request."""
        with self._lock:
            self._outages.add(engine_name)

    def end_outage(self, engine_name):
        """Close the outage window: the engine answers again."""
        with self._lock:
            self._outages.discard(engine_name)

    def is_down(self, engine_name):
        with self._lock:
            return engine_name in self._outages

    # -- the schedule ------------------------------------------------------------

    def fault_for(self, engine_name, expr_text, attempt=0):
        """The fault (or None) for attempt *attempt* of this request.

        Calling this consumes nothing: it is a pure lookup plus counter
        bookkeeping, safe to call from any thread.
        """
        fault = self.peek(engine_name, expr_text, attempt)
        if fault is not None:
            with self._lock:
                if fault.kind == OUTAGE:
                    self.outage_rejections += 1
                elif fault.kind == HARD:
                    self.hard_injected += 1
                elif fault.kind == TRANSIENT:
                    self.transient_injected += 1
                else:
                    self.hangs_injected += 1
        return fault

    def peek(self, engine_name, expr_text, attempt=0):
        """Like :meth:`fault_for` but without touching the counters.

        Tests use this to *predict* the outcome of a faulted workload
        (e.g. the exact surviving row count under ``on_error="drop"``).
        """
        if self.is_down(engine_name):
            return Fault(
                OUTAGE,
                EngineOutageError(
                    "engine {!r} is down (connection refused)".format(engine_name)
                ),
            )
        if self.hard_rate > 0.0:
            u = stable_uniform("fault-hard", self.seed, engine_name, expr_text)
            if u < self.hard_rate:
                return Fault(
                    HARD,
                    HardWebError(
                        "simulated hard failure from {!r} for {!r}".format(
                            engine_name, expr_text
                        )
                    ),
                )
        if self.transient_rate > 0.0:
            u = stable_uniform(
                "fault-transient", self.seed, engine_name, expr_text, attempt
            )
            if u < self.transient_rate:
                return Fault(
                    TRANSIENT,
                    TransientWebError(
                        "simulated transient failure from {!r} for {!r} "
                        "(attempt {})".format(engine_name, expr_text, attempt + 1)
                    ),
                )
        if self.hang_rate > 0.0:
            u = stable_uniform(
                "fault-hang", self.seed, engine_name, expr_text, attempt
            )
            if u < self.hang_rate:
                return Fault(HANG, hang_seconds=self.hang_seconds)
        return None

    def final_outcome(self, engine_name, expr_text, max_attempts):
        """Would this request eventually succeed within *max_attempts*?

        Returns ``"ok"`` when some attempt is fault-free (or hangs are
        the only obstacle and a retry clears them), or the kind of the
        blocking fault otherwise.  Retry classification note: hard
        faults block immediately (fatal), transient faults and hangs
        block only if every attempt draws one.
        """
        last = None
        for attempt in range(max_attempts):
            fault = self.peek(engine_name, expr_text, attempt)
            if fault is None:
                return "ok"
            if fault.kind in (HARD, OUTAGE):
                return fault.kind
            last = fault.kind
        return last

    # -- reporting ---------------------------------------------------------------

    def snapshot(self):
        with self._lock:
            return {
                "transient_injected": self.transient_injected,
                "hard_injected": self.hard_injected,
                "hangs_injected": self.hangs_injected,
                "outage_rejections": self.outage_rejections,
                "outages": sorted(self._outages),
            }

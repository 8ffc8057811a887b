"""Resilience for external calls: retries, timeouts, circuit breaking.

The paper's asynchronous iteration multiplies the number of in-flight
external calls per query — which is exactly where partial failure
surfaces in a real DB-IR federation.  This module provides the policy
objects the :class:`~repro.asynciter.pump.RequestPump` applies around
every external call.  Sequential and asynchronous plans run their calls
through the same pump loop, so both classify, retry, and give up on the
*same* requests in the same way.

Components:

- :class:`RetryPolicy` — bounded attempts, exponential backoff with
  *deterministic* jitter (keyed on the request, like every other random
  stream in this repo), and a retryable-vs-fatal error classification.
- :class:`CircuitBreaker` — a per-destination closed/open/half-open
  state machine: after ``failure_threshold`` consecutive failures the
  destination is failed fast (no queue slot, no network wait) until
  :data:`RECOVERY_SECONDS` elapse on the owning pump's clock, then one
  half-open probe decides between closing and re-opening.
- :class:`ResiliencePolicy` — bundle of the above plus the per-call
  timeout the pump races against each attempt on its timer heap.
"""

import threading

from repro.util.errors import RequestTimeoutError, TransientWebError
from repro.util.rng import stable_uniform

#: Errors a retry can plausibly fix.  ``TransientWebError`` covers the
#: fault model's 5xx/outage/hang-timeout family; ``RequestTimeoutError``
#: the pump's per-call timeout; ``TimeoutError``/``ConnectionError``
#: cover a future real-socket backend.
RETRYABLE = (TransientWebError, RequestTimeoutError, TimeoutError, ConnectionError)

#: The backoff before attempt ``n + 1`` is ``base_backoff *
#: BACKOFF_MULTIPLIER**n``, capped at ``MAX_BACKOFF`` seconds, then scaled
#: by a factor in ``[1 - JITTER/2, 1 + JITTER/2)`` drawn from a stable
#: function of ``(BACKOFF_SALT, key, n)``.
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 2.0
JITTER = 0.5
BACKOFF_SALT = 0

#: Seconds an open breaker fails fast before it admits a half-open probe.
RECOVERY_SECONDS = 1.0


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    def __init__(self, max_attempts=3, base_backoff=0.05):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_backoff < 0:
            raise ValueError("backoff delays cannot be negative")
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff

    @staticmethod
    def retryable_error(exc):
        """Is *exc* in the transient (retry-worthy) family?"""
        return isinstance(exc, RETRYABLE)

    def should_retry(self, exc, attempt):
        """Retry after *exc* on 0-based attempt *attempt*?"""
        return attempt + 1 < self.max_attempts and self.retryable_error(exc)

    def backoff_delay(self, key, attempt):
        """Seconds to sleep before attempt ``attempt + 1``.

        Exponential in *attempt*, capped, then jittered by a stable
        function of the request and *attempt* — the same request backs
        off identically in every run, while distinct requests
        decorrelate (no thundering-herd re-synchronisation).
        """
        delay = min(MAX_BACKOFF, self.base_backoff * BACKOFF_MULTIPLIER**attempt)
        if delay > 0.0:
            u = stable_uniform("backoff", BACKOFF_SALT, key, attempt)
            delay *= 1.0 - JITTER / 2.0 + JITTER * u
        return delay


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreakerConfig:
    """Per-destination circuit breaking: trip after ``failure_threshold``
    consecutive failures."""

    def __init__(self, failure_threshold=5):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold


class CircuitBreaker:
    """Closed / open / half-open breaker for one destination.

    - **closed**: requests flow; ``failure_threshold`` *consecutive*
      failures trip it open (a success resets the streak).
    - **open**: every request is rejected without touching the network
      until :data:`RECOVERY_SECONDS` have elapsed since opening.
    - **half-open**: one probe request is admitted; its success closes
      the breaker, its failure re-opens it (and restarts the recovery
      clock).  A probe that ends with neither hands its permit back
      (:meth:`release`), so the next request becomes the probe.

    *clock* is the owning pump's :class:`~repro.util.timing.Clock`.
    """

    def __init__(self, destination, config, clock):
        self.destination = destination
        self.config = config
        self.clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self._probing = False
        #: Clock reading of the most recent state change (None while the
        #: breaker has never left its initial closed state) — operators
        #: reading a snapshot can tell a breaker that opened a second ago
        #: from one that has been failing fast for an hour.
        self._last_transition_at = None
        # Transition / rejection counters for the pump stats.
        self.opens = 0
        self.half_opens = 0
        self.closes = 0
        self.rejections = 0

    @property
    def state(self):
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def allow(self):
        """May one request proceed right now?  (Counts rejections.)

        Returns the state the request is admitted under — ``CLOSED``, or
        ``HALF_OPEN`` for the probe — or ``None`` when it is rejected.
        """
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return CLOSED
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return HALF_OPEN
            self.rejections += 1
            return None

    def release(self):
        """The half-open probe ended with no verdict: admit another."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probing = False

    def record_success(self):
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._last_transition_at = self.clock.now()
                self.closes += 1

    def record_failure(self):
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._trip_locked()

    def _trip_locked(self):
        self._state = OPEN
        self._opened_at = self.clock.now()
        self._last_transition_at = self._opened_at
        self._consecutive_failures = 0
        self.opens += 1

    def _maybe_half_open_locked(self):
        if self._state == OPEN:
            now = self.clock.now()
            if now - self._opened_at >= RECOVERY_SECONDS:
                self._state = HALF_OPEN
                self._probing = False
                self._last_transition_at = now
                self.half_opens += 1

    def snapshot(self):
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self.opens,
                "half_opens": self.half_opens,
                "closes": self.closes,
                "rejections": self.rejections,
                "opened_at": self._opened_at,
                "last_transition_at": self._last_transition_at,
            }

    def __repr__(self):
        return "CircuitBreaker({} -> {})".format(self.destination, self.state)


class ResiliencePolicy:
    """Everything the pump applies around one external call.

    ``retry=None`` disables retries, ``call_timeout=None`` disables the
    per-call timeout, ``breaker=None`` disables circuit breaking — the
    all-``None`` policy is byte-for-byte today's behaviour.
    """

    def __init__(self, retry=None, call_timeout=None, breaker=None):
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError("call_timeout must be positive")
        self.retry = retry
        self.call_timeout = call_timeout
        self.breaker = breaker  # a CircuitBreakerConfig, or None

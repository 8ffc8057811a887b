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
  ``recovery_timeout`` elapses, then a limited number of half-open
  probes decide between closing and re-opening.
- :class:`ResiliencePolicy` — bundle of the above plus the per-call
  timeout the pump races against each attempt on its deadline heap.
"""

import threading
import time

from repro.util.errors import RequestTimeoutError, TransientWebError
from repro.util.rng import stable_uniform

#: Errors a retry can plausibly fix.  ``TransientWebError`` covers the
#: fault model's 5xx/outage/hang-timeout family; ``RequestTimeoutError``
#: the pump's per-call timeout; ``TimeoutError``/``ConnectionError``
#: cover a future real-socket backend.
DEFAULT_RETRYABLE = (TransientWebError, RequestTimeoutError, TimeoutError, ConnectionError)


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    def __init__(
        self,
        max_attempts=3,
        base_backoff=0.05,
        multiplier=2.0,
        max_backoff=2.0,
        jitter=0.5,
        retryable=DEFAULT_RETRYABLE,
        salt=0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_backoff < 0 or max_backoff < 0:
            raise ValueError("backoff delays cannot be negative")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.multiplier = multiplier
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.retryable = tuple(retryable)
        self.salt = salt

    def retryable_error(self, exc):
        """Is *exc* in the transient (retry-worthy) family?"""
        return isinstance(exc, self.retryable)

    def should_retry(self, exc, attempt):
        """Retry after *exc* on 0-based attempt *attempt*?"""
        return attempt + 1 < self.max_attempts and self.retryable_error(exc)

    def backoff_delay(self, key, attempt):
        """Seconds to sleep before attempt ``attempt + 1``.

        Exponential in *attempt*, capped, then jittered by a stable
        function of ``(salt, key, attempt)`` — the same request backs
        off identically in every run, while distinct requests
        decorrelate (no thundering-herd re-synchronisation).
        """
        delay = min(self.max_backoff, self.base_backoff * self.multiplier**attempt)
        if self.jitter > 0.0 and delay > 0.0:
            u = stable_uniform("backoff", self.salt, key, attempt)
            delay *= 1.0 - self.jitter / 2.0 + self.jitter * u
        return delay


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreakerConfig:
    """Thresholds for per-destination circuit breakers.

    ``clock`` is injectable for deterministic tests (defaults to
    ``time.monotonic``).
    """

    def __init__(
        self,
        failure_threshold=5,
        recovery_timeout=1.0,
        half_open_max_calls=1,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if recovery_timeout < 0:
            raise ValueError("recovery_timeout cannot be negative")
        if half_open_max_calls < 1:
            raise ValueError("half_open_max_calls must be at least 1")
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.half_open_max_calls = half_open_max_calls
        self.clock = clock


class CircuitBreaker:
    """Closed / open / half-open breaker for one destination.

    - **closed**: requests flow; ``failure_threshold`` *consecutive*
      failures trip it open (a success resets the streak).
    - **open**: every request is rejected without touching the network
      until ``recovery_timeout`` has elapsed since opening.
    - **half-open**: up to ``half_open_max_calls`` probe requests are
      admitted; one success closes the breaker, one failure re-opens it
      (and restarts the recovery clock).
    """

    def __init__(self, destination, config=None):
        self.destination = destination
        self.config = config or CircuitBreakerConfig()
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self._half_open_probes = 0
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
        """May one request proceed right now?  (Counts rejections.)"""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._half_open_probes < self.config.half_open_max_calls:
                    self._half_open_probes += 1
                    return True
            self.rejections += 1
            return False

    def record_success(self):
        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._last_transition_at = self.config.clock()
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
        self._opened_at = self.config.clock()
        self._last_transition_at = self._opened_at
        self._consecutive_failures = 0
        self.opens += 1

    def _maybe_half_open_locked(self):
        if self._state == OPEN and (
            self.config.clock() - self._opened_at >= self.config.recovery_timeout
        ):
            self._state = HALF_OPEN
            self._half_open_probes = 0
            self._last_transition_at = self.config.clock()
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

    @classmethod
    def default(cls):
        """Sensible production-ish defaults (documented in DESIGN.md)."""
        return cls(
            retry=RetryPolicy(),
            call_timeout=10.0,
            breaker=CircuitBreakerConfig(),
        )

    def max_attempts(self):
        return self.retry.max_attempts if self.retry is not None else 1

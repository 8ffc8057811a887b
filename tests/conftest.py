"""Shared fixtures.

The calibrated default corpus is expensive (~1s) and immutable, so it is
built once per session and shared; engines over it are cheap.  Tests that
need latency use tiny fixed delays so the whole suite stays fast.
"""

import pytest

from repro.config import EngineConfig
from repro.datasets import load_all
from repro.exec.operator import Operator
from repro.storage import Database
from repro.web.corpus import CorpusConfig
from repro.web.world import SimulatedWeb, default_web
from repro.wsq import WsqEngine

# Lowered plans are stamped with the configured batch size; operator trees
# a test builds by hand take the class default.  Point that at the
# configured size too, so the REPRO_BATCH_SIZE=1 leg reaches them as well.
Operator.batch_size = EngineConfig.resolve().batch_size


@pytest.fixture(scope="session")
def web():
    """The shared calibrated simulated Web."""
    return default_web()


@pytest.fixture(scope="session")
def small_web():
    """A small, fast corpus (uncalibrated orderings)."""
    return SimulatedWeb(CorpusConfig.small())


@pytest.fixture()
def paper_db():
    """Fresh in-memory database with all paper tables."""
    return load_all(Database())


@pytest.fixture()
def engine(web, paper_db):
    """WSQ engine over the calibrated web, zero latency."""
    return WsqEngine(database=paper_db, web=web)


@pytest.fixture()
def small_engine(small_web, paper_db):
    """WSQ engine over the small web, zero latency."""
    return WsqEngine(database=paper_db, web=small_web)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden plan snapshots under tests/golden/ "
        "instead of comparing against them",
    )


@pytest.fixture()
def update_goldens(request):
    """True when the run should rewrite golden snapshots in place."""
    return request.config.getoption("--update-goldens")

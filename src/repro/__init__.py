"""WSQ/DSQ reproduction (Goldman & Widom, SIGMOD 2000).

Public API re-exports; see README.md for a tour.

    >>> from repro import Database, WsqEngine, load_all
    >>> engine = WsqEngine(database=load_all(Database()))
    >>> engine.execute("Select Name, Count From States, WebCount "
    ...                "Where Name = T1 Order By Count Desc").rows[0][0]
    'California'
"""

__version__ = "1.0.0"

from repro.config import EngineConfig
from repro.datasets import load_all
from repro.dsq import DsqSession
from repro.plan import CostModel
from repro.relational import Column, DataType, Schema
from repro.storage import Database
from repro.web import (
    CorpusConfig,
    FixedLatency,
    ResultCache,
    SimulatedWeb,
    UniformLatency,
    ZeroLatency,
    default_web,
)
from repro.wsq import ProfileReport, QueryResult, WsqEngine, format_table

__all__ = [
    "Column",
    "CorpusConfig",
    "CostModel",
    "DataType",
    "Database",
    "DsqSession",
    "EngineConfig",
    "FixedLatency",
    "ProfileReport",
    "QueryResult",
    "ResultCache",
    "Schema",
    "SimulatedWeb",
    "UniformLatency",
    "WsqEngine",
    "ZeroLatency",
    "__version__",
    "default_web",
    "format_table",
    "load_all",
]

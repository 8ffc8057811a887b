"""repro.serve: the multi-tenant query service layer (DESIGN.md §12).

An optional layer *above* :class:`~repro.wsq.engine.WsqEngine`: nothing
in the engine or asynciter stack imports this package (deadlines are
duck-typed on the way down), so embedding the engine without a service
costs nothing.
"""

from repro.serve.admission import (
    DEFAULT_TENANT,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHED_SHUTDOWN,
    AdmissionController,
    TenantPolicy,
)
from repro.serve.deadline import Deadline
from repro.serve.scheduler import FairScheduler
from repro.serve.session import QueryHandle, QueryService
from repro.util.errors import AdmissionRejected, QueryDeadlineExceeded

__all__ = [
    "DEFAULT_TENANT",
    "SHED_DEADLINE",
    "SHED_QUEUE_FULL",
    "SHED_SHUTDOWN",
    "AdmissionController",
    "AdmissionRejected",
    "Deadline",
    "FairScheduler",
    "QueryDeadlineExceeded",
    "QueryHandle",
    "QueryService",
    "TenantPolicy",
]

"""Query planning: name binding, virtual-table analysis, plan construction.

The planner mirrors the paper's prototype: left-deep nested-loop plans in
FROM-list order, with dependent joins feeding virtual-table inputs.  It
adds binding-pattern safety (a virtual table's ``SearchExp``/``T1..Tn``
must be bound by constants or by relations earlier in the join order —
the guarantee the paper notes Informix could not give) and an optional
reorderer that moves virtual tables after their binding providers.
"""

from repro.plan.binder import Binder
from repro.plan.cost import CostModel, PlanEstimate, predicate_selectivity
from repro.plan.planner import Planner

__all__ = [
    "Binder",
    "CostModel",
    "PlanEstimate",
    "Planner",
    "predicate_selectivity",
]

"""Plan construction: SQL AST -> logical algebra -> physical operators.

``Planner.plan_logical(query)`` turns a parsed SELECT into a
:mod:`repro.plan.logical` tree:

1. FROM items resolve to stored tables or virtual-table occurrences.
2. Virtual-table usage analysis (:mod:`repro.plan.analysis`) fixes each
   occurrence's arity *n*, template, rank limit, and input bindings.
3. Relations are joined left-deep in FROM order (the paper's prototype
   lets users control join order this way); ``reorder=True`` instead
   topologically sorts so every virtual table follows its binding
   providers.
4. Predicates are pushed to the lowest operator whose schema can bind
   them; virtual tables hang off dependent joins.
5. GROUP BY/aggregates, HAVING, DISTINCT, ORDER BY (with hidden sort
   columns for non-projected keys), and LIMIT complete the plan.

``Planner.optimize(node)`` then runs the one cost-gated relational
pipeline (:data:`repro.plan.rules.RELATIONAL_PIPELINE`) through the
:mod:`repro.plan.rules` engine, and ``Planner.plan(query)`` — the
historical entry point — composes all three layers: build, optimize,
then :func:`repro.plan.physical.lower` to executable operators.
``lower(planner.plan_logical(query), config)`` is the unoptimized
reference the equivalence tests compare against.

The output is a *synchronous* plan (EVScan leaves); asynchronous
iteration is the :func:`repro.plan.rules.reqsync_pack` applied over the
logical form (or, for legacy physical plans, through the
:func:`repro.asynciter.rewrite.apply_asynchronous_iteration` adapter).
"""

from repro.config import EngineConfig
from repro.exec import AggregateSpec
from repro.plan import logical as L
from repro.plan.analysis import analyze_vtables, validate_bindings
from repro.plan.binder import Binder, collect_aggregates, collect_names
from repro.plan.cost import CostModel
from repro.plan.physical import lower
from repro.plan.rules import RELATIONAL_PIPELINE, RuleEngine, access_path
from repro.relational.expr import ColumnRef, make_conjunction
from repro.relational.schema import Column, Schema
from repro.sql import ast
from repro.util.errors import BindingError, PlanError


class _Relation:
    """One FROM item after catalog resolution."""

    def __init__(self, alias, table=None, vdef=None):
        self.alias = alias
        self.table = table
        self.vdef = vdef
        self.usage = None  # for vtables
        self.instance = None

    @property
    def is_vtable(self):
        return self.vdef is not None


class Planner:
    """Plans queries over one database plus a virtual-table catalog."""

    def __init__(self, database, vtable_catalog=None, options=None):
        self.database = database
        self.vtable_catalog = {
            name.lower(): vdef for name, vdef in (vtable_catalog or {}).items()
        }
        #: The :class:`~repro.config.EngineConfig` planned under
        #: (``None`` resolves one from the environment).
        self.options = options if options is not None else EngineConfig.resolve()
        #: Gates the pipeline when ``optimize`` is handed no model.
        self._default_cost_model = CostModel(latency_mean=0.05)

    # -- public API -----------------------------------------------------------

    def plan(self, query):
        """Build the physical plan for a parsed SELECT statement.

        The historical entry point, now a composition of the three
        planning layers: ``plan_logical`` (algebra construction),
        ``optimize`` (the relational pipeline), and
        :func:`repro.plan.physical.lower`.
        """
        node, _ = self.optimize(self.plan_logical(query))
        return lower(node, self.options)

    def plan_logical(self, query):
        """Build the (unoptimized) logical plan for a parsed SELECT."""
        relations = self._resolve_from(query)
        usages, residual = self._analyze(query, relations)
        relations = self._order_relations(query, relations)
        plan, residual = self._build_join_tree(query, relations, residual)
        return self._finish(query, plan, residual)

    def optimize(self, node, tracer=None, metrics=None, query_id=None, cost_model=None):
        """Run the relational pipeline over *node*.

        Returns ``(optimized_node, firings)``.  Every structural rewrite
        is cost-gated: a calibrated engine passes its own *cost_model*
        so measured latencies and statistics steer the gates; ``None``
        falls back to a static default model, so standalone planners
        still gate structurally-sound rewrites on estimated work.
        """
        if cost_model is None:
            cost_model = self._default_cost_model
        engine = RuleEngine(
            [RELATIONAL_PIPELINE],
            settings=self.options,
            tracer=tracer,
            metrics=metrics,
            query_id=query_id,
            cost_model=cost_model,
        )
        node = engine.run(node)
        return node, engine.firings

    # -- FROM resolution ------------------------------------------------------------

    def _resolve_from(self, query):
        relations = []
        seen = set()
        for ref in query.from_tables:
            alias = ref.binding_name
            if alias.lower() in seen:
                raise PlanError("duplicate FROM alias {!r}".format(alias))
            seen.add(alias.lower())
            if self.database.has_table(ref.table):
                relations.append(_Relation(alias, table=self.database.table(ref.table)))
            elif ref.table.lower() in self.vtable_catalog:
                relations.append(
                    _Relation(alias, vdef=self.vtable_catalog[ref.table.lower()])
                )
            else:
                raise PlanError("unknown table {!r}".format(ref.table))
        return relations

    def _analyze(self, query, relations):
        search_aliases = [
            r.alias for r in relations if r.is_vtable and r.vdef.uses_search_terms
        ]
        usages, residual = analyze_vtables(query, search_aliases)
        for relation in relations:
            if not relation.is_vtable:
                continue
            if relation.vdef.uses_search_terms:
                usage = usages[relation.alias]
            else:
                usage, residual = self._analyze_url_vtable(
                    query, relation, residual
                )
            relation.usage = usage
            relation.instance = relation.vdef.instantiate(
                relation.alias,
                usage.n,
                template=usage.template,
                rank_limit=usage.rank_limit,
            )
            relation.instance.fixed_bindings.update(usage.constant_terms)
            validate_bindings(usage, relation.instance)
        return usages, residual

    def _analyze_url_vtable(self, query, relation, residual):
        """Bindings for WebFetch-style tables (single ``Url`` input)."""
        from repro.plan.analysis import VTableUsage

        usage = VTableUsage(relation.alias)
        input_names = {n.lower(): n for n in relation.vdef.input_names(0)}
        remaining = []
        for conjunct in residual:
            consumed = False
            if isinstance(conjunct, ast.Cmp) and conjunct.op == "=":
                pairs = (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                )
                for left, right in pairs:
                    if (
                        isinstance(left, ast.Name)
                        and left.name.lower() in input_names
                        and (
                            left.qualifier is None
                            or left.qualifier.lower() == relation.alias.lower()
                        )
                    ):
                        param = input_names[left.name.lower()]
                        if isinstance(right, ast.Const):
                            usage.constant_terms[param] = right.value
                            consumed = True
                            break
                        if isinstance(right, ast.Name):
                            usage.dependent_terms[param] = right
                            consumed = True
                            break
            if not consumed:
                remaining.append(conjunct)
        return usage, remaining

    # -- join ordering --------------------------------------------------------------------

    def _order_relations(self, query, relations):
        if not self.options.reorder:
            return relations
        candidates = list(relations)
        if self.options.cost_reorder:
            # Stored tables smallest-first keeps nested-loop outer sides
            # small; stable sort preserves FROM order among equals and
            # leaves virtual tables' relative order to the binding pass.
            candidates.sort(
                key=lambda r: r.table.row_count() if r.table is not None else float("inf")
            )
        placed = []
        placed_aliases = set()
        pending = candidates
        while pending:
            progressed = False
            for relation in list(pending):
                if self._providers_satisfied(relation, relations, placed_aliases):
                    placed.append(relation)
                    placed_aliases.add(relation.alias.lower())
                    pending.remove(relation)
                    progressed = True
            if not progressed:
                raise BindingError(
                    "cannot order FROM items to satisfy virtual-table "
                    "bindings: {}".format([r.alias for r in pending])
                )
        return placed

    def _providers_satisfied(self, relation, all_relations, placed_aliases):
        if not relation.is_vtable:
            return True
        for provider in relation.usage.dependent_terms.values():
            alias = self._provider_alias(provider, all_relations, relation)
            if alias is None or alias.lower() not in placed_aliases:
                return False
        return True

    def _provider_alias(self, name_node, relations, consumer):
        """Which FROM alias supplies *name_node*?"""
        if name_node.qualifier is not None:
            for relation in relations:
                if relation.alias.lower() == name_node.qualifier.lower():
                    return relation.alias
            return None
        candidates = []
        for relation in relations:
            if relation is consumer:
                continue
            schema = self._relation_schema(relation)
            if schema is not None and schema.maybe_resolve(name_node.name) is not None:
                candidates.append(relation.alias)
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _relation_schema(self, relation):
        if relation.table is not None:
            return relation.table.schema.with_qualifier(relation.alias)
        if relation.instance is not None:
            return relation.instance.schema
        return None

    # -- join tree -----------------------------------------------------------------------------

    def _build_join_tree(self, query, relations, residual):
        residual = list(residual)
        sole_relation = len(relations) == 1
        plan = None
        for relation in relations:
            if relation.is_vtable:
                plan = self._attach_vtable(plan, relation)
            else:
                scan = self._access_path(relation, residual, sole_relation)
                plan = self._attach_table(plan, scan, residual)
            plan, residual = self._push_filters(plan, residual)
        if plan is None:
            raise PlanError("query has no FROM relations")
        return plan, residual

    def _access_path(self, relation, residual, sole_relation):
        """Choose IndexScan over TableScan when a sargable predicate matches.

        Candidates are the conjuncts that bind against this relation's
        own schema and unambiguously refer to it (every name qualified
        with its alias, or any reference in a single-relation query);
        :func:`repro.plan.rules.access_path` picks the window.
        Consumed conjuncts are removed from *residual*.
        """
        scan = L.LogicalScan(relation.table, relation.alias)
        if not getattr(relation.table, "indexes", None):
            return scan
        binder = Binder(scan.schema)
        candidates = [
            conjunct
            for conjunct in residual
            if (
                sole_relation
                or all(n.qualifier is not None for n in collect_names(conjunct))
            )
            and binder.can_bind(conjunct)
        ]
        choice = access_path(scan, [binder.bind(c) for c in candidates])
        if choice is None:
            return scan
        indexed, absorbed = choice
        for conjunct, taken in zip(candidates, absorbed):
            if taken:
                residual.remove(conjunct)
        return indexed

    def _attach_vtable(self, plan, relation):
        instance = relation.instance
        scan = L.LogicalVTableScan(instance)
        dependent = {}
        for param, provider in relation.usage.dependent_terms.items():
            if plan is None:
                raise BindingError(
                    "virtual table {} is first in the join order but "
                    "input {} depends on {}".format(
                        relation.alias, param, provider.sql()
                    )
                )
            try:
                index = plan.schema.resolve(provider.name, provider.qualifier)
            except PlanError:
                raise BindingError(
                    "input {} of {} is bound to {}, which is not available "
                    "earlier in the join order".format(
                        param, relation.alias, provider.sql()
                    )
                )
            dependent[param] = index
        if plan is None:
            if instance.dependent_params:
                raise BindingError(
                    "virtual table {} has dependent inputs {} but no "
                    "preceding relation".format(
                        relation.alias, instance.dependent_params
                    )
                )
            return scan
        missing = [p for p in instance.dependent_params if p not in dependent]
        if missing:
            raise BindingError(
                "virtual table {} inputs {} are unbound".format(
                    relation.alias, missing
                )
            )
        return L.LogicalDependentJoin(plan, scan, dependent)

    def _attach_table(self, plan, scan, residual):
        if plan is None:
            return scan
        combined = plan.schema.concat(scan.schema)
        binder = Binder(combined, subquery_planner=self.plan)
        join_conjuncts = []
        for conjunct in list(residual):
            names = collect_names(conjunct)
            if not names:
                continue
            if binder.can_bind(conjunct) and not Binder(
                plan.schema, subquery_planner=self.plan
            ).can_bind(conjunct):
                # Touches the new relation (not bindable before it joined).
                if collect_aggregates(conjunct):
                    continue
                join_conjuncts.append(conjunct)
                residual.remove(conjunct)
        if join_conjuncts:
            predicate = make_conjunction(
                [binder.bind(c) for c in join_conjuncts]
            )
            return L.LogicalJoin(plan, scan, predicate)
        return L.LogicalCrossProduct(plan, scan)

    def _push_filters(self, plan, residual):
        """Attach every residual conjunct that the current schema can bind."""
        binder = Binder(plan.schema, subquery_planner=self.plan)
        bound = []
        remaining = []
        for conjunct in residual:
            if collect_aggregates(conjunct):
                remaining.append(conjunct)
            elif binder.can_bind(conjunct):
                bound.append(binder.bind(conjunct))
            else:
                remaining.append(conjunct)
        if bound:
            plan = L.LogicalFilter(plan, make_conjunction(bound))
        return plan, remaining

    # -- aggregation / projection / ordering ----------------------------------------------------------

    def _finish(self, query, plan, residual):
        if residual:
            # Surface the *underlying* binding failure (unknown column,
            # malformed subquery, ...) rather than a generic complaint —
            # can_bind() swallowed it during placement.
            binder = Binder(plan.schema, subquery_planner=self.plan)
            for conjunct in residual:
                try:
                    binder.bind(conjunct)
                except PlanError as exc:
                    raise PlanError(
                        "cannot place predicate {}: {}".format(conjunct.sql(), exc)
                    )
            raise PlanError(
                "could not place predicates: {}".format(
                    [c.sql() for c in residual]
                )
            )
        aggregates = []
        for item in query.select_items:
            if not isinstance(item.expr, ast.Star):
                aggregates.extend(collect_aggregates(item.expr))
        aggregates.extend(collect_aggregates(query.having))
        for order in query.order_by:
            aggregates.extend(collect_aggregates(order.expr))

        if aggregates or query.group_by:
            plan, select_exprs, names, select_asts = self._plan_aggregation(
                query, plan, aggregates
            )
        else:
            if query.having is not None:
                raise PlanError("HAVING requires GROUP BY or aggregates")
            select_exprs, names, select_asts = self._expand_select(query, plan.schema)

        output_schema = self._output_schema(plan.schema, select_exprs, names)
        plan, output_schema = self._plan_order_and_project(
            query, plan, select_exprs, select_asts, output_schema
        )
        if query.distinct:
            plan = L.LogicalDistinct(plan)
        if query.limit is not None:
            plan = L.LogicalLimit(plan, query.limit)
        return plan

    def _expand_select(self, query, schema):
        """Returns parallel lists: bound exprs, output names, source ASTs.

        Star-expanded outputs have ``None`` ASTs (there is no per-column
        syntax to match ORDER BY items against; name matching covers them).
        """
        binder = Binder(schema)
        exprs = []
        names = []
        asts = []
        for item in query.select_items:
            if isinstance(item.expr, ast.Star):
                for i, column in enumerate(schema):
                    if item.expr.qualifier is None or (
                        column.qualifier
                        and column.qualifier.lower() == item.expr.qualifier.lower()
                    ):
                        exprs.append(ColumnRef(i, column.qualified_name()))
                        names.append(column.name)
                        asts.append(None)
                continue
            expr = binder.bind(item.expr)
            exprs.append(expr)
            names.append(self._item_name(item))
            asts.append(item.expr)
        if not exprs:
            raise PlanError("empty select list")
        return exprs, names, asts

    @staticmethod
    def _item_name(item):
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.Name):
            return item.expr.name
        return item.expr.sql()

    def _output_schema(self, input_schema, exprs, names):
        columns = []
        for expr, name in zip(exprs, names):
            data_type = expr.result_type(input_schema)
            if data_type is None:
                raise PlanError("cannot type output column {!r}".format(name))
            columns.append(Column(name, data_type))
        return Schema(columns, allow_duplicates=True)

    # -- aggregation ------------------------------------------------------------------

    def _plan_aggregation(self, query, plan, aggregates):
        binder = Binder(plan.schema)
        group_asts = list(query.group_by)
        group_exprs = [binder.bind(g) for g in group_asts]
        # Unique aggregate calls, in first-appearance order.
        agg_asts = []
        for call in aggregates:
            if call not in agg_asts:
                agg_asts.append(call)
        specs = []
        for call in agg_asts:
            if call.star:
                specs.append(AggregateSpec(call.func, star=True))
            else:
                specs.append(AggregateSpec(call.func, expr=binder.bind(call.argument)))
        agg_columns = [
            Column("g{}".format(i), expr.result_type(plan.schema) or _fail_type(g))
            for i, (g, expr) in enumerate(zip(group_asts, group_exprs))
        ]
        agg_columns += [
            Column("a{}".format(i), spec.result_type(plan.schema))
            for i, spec in enumerate(specs)
        ]
        agg_schema = Schema(agg_columns)
        plan = L.LogicalAggregate(plan, group_exprs, specs, agg_schema)

        # Rebind select/having/order expressions over the aggregate output.
        rebinder = _AggregateRebinder(group_asts, agg_asts, agg_schema)
        select_exprs = []
        names = []
        asts = []
        for item in query.select_items:
            if isinstance(item.expr, ast.Star):
                raise PlanError("SELECT * cannot be combined with GROUP BY")
            select_exprs.append(rebinder.rebind(item.expr))
            names.append(self._item_name(item))
            asts.append(item.expr)
        if query.having is not None:
            plan = L.LogicalFilter(plan, rebinder.rebind(query.having))
        return plan, select_exprs, names, asts

    # -- ordering & projection ---------------------------------------------------------

    def _plan_order_and_project(
        self, query, plan, select_exprs, select_asts, output_schema
    ):
        """Project, then sort — adding hidden sort columns when needed."""
        if not query.order_by:
            return (
                L.LogicalProject(plan, select_exprs, output_schema),
                output_schema,
            )

        input_binder = Binder(plan.schema)
        sort_keys = []  # (index into extended projection, descending)
        extended_exprs = list(select_exprs)
        extended_columns = list(output_schema)
        for order in query.order_by:
            index = self._match_order_item(order.expr, select_asts, output_schema)
            if index is None:
                expr = input_binder.bind(order.expr)
                data_type = expr.result_type(plan.schema)
                extended_exprs.append(expr)
                extended_columns.append(
                    Column("__sort{}".format(len(extended_columns)), data_type)
                )
                index = len(extended_exprs) - 1
            sort_keys.append((ColumnRef(index), order.descending))

        extended_schema = Schema(extended_columns, allow_duplicates=True)
        plan = L.LogicalProject(plan, extended_exprs, extended_schema)
        plan = L.LogicalSort(plan, sort_keys)
        if len(extended_exprs) > len(select_exprs):
            # Drop the hidden sort columns.
            keep = [
                ColumnRef(i, output_schema[i].name)
                for i in range(len(select_exprs))
            ]
            plan = L.LogicalProject(plan, keep, output_schema)
        return plan, output_schema

    @staticmethod
    def _match_order_item(order_expr, select_asts, output_schema):
        """Match an ORDER BY expression to an output column, if possible.

        Matches identical select expressions, then (for unqualified names)
        unique output column names — which covers both aliases and
        ``SELECT *`` expansions, so ``Order By Count`` reuses the projected
        column instead of forcing a hidden sort column.
        """
        for i, source in enumerate(select_asts):
            if source is not None and source == order_expr:
                return i
        if isinstance(order_expr, ast.Name) and order_expr.qualifier is None:
            return output_schema.maybe_resolve(order_expr.name)
        return None


def _fail_type(group_ast):
    raise PlanError("cannot type GROUP BY expression {}".format(group_ast.sql()))


class _AggregateRebinder:
    """Rebinds expressions over the Aggregate operator's output schema.

    Group-by expressions map to the leading columns; aggregate calls map
    to the trailing ones; anything else inside must be built from those.
    """

    def __init__(self, group_asts, agg_asts, agg_schema):
        self.group_asts = group_asts
        self.agg_asts = agg_asts
        self.agg_schema = agg_schema

    def rebind(self, node):
        for i, g in enumerate(self.group_asts):
            if node == g:
                return ColumnRef(i, g.sql())
        if isinstance(node, ast.FuncCall):
            for i, call in enumerate(self.agg_asts):
                if node == call:
                    return ColumnRef(len(self.group_asts) + i, call.sql())
            raise PlanError("aggregate {} not computed".format(node.sql()))
        if isinstance(node, ast.Const):
            from repro.relational.expr import Literal

            return Literal(node.value)
        if isinstance(node, ast.Arith):
            from repro.relational.expr import BinaryOp

            return BinaryOp(node.op, self.rebind(node.left), self.rebind(node.right))
        if isinstance(node, ast.Cmp):
            from repro.relational.expr import Comparison

            return Comparison(node.op, self.rebind(node.left), self.rebind(node.right))
        if isinstance(node, ast.LogicalAnd):
            from repro.relational.expr import Conjunction

            return Conjunction([self.rebind(t) for t in node.terms])
        if isinstance(node, ast.LogicalOr):
            from repro.relational.expr import Disjunction

            return Disjunction([self.rebind(t) for t in node.terms])
        if isinstance(node, ast.LogicalNot):
            from repro.relational.expr import Negation

            return Negation(self.rebind(node.term))
        raise PlanError(
            "expression {} must be a GROUP BY expression or an "
            "aggregate".format(node.sql())
        )

"""Plan construction: SQL AST -> logical algebra -> physical operators.

``Planner.plan_logical(query)`` turns a parsed SELECT into a
:mod:`repro.plan.logical` tree:

1. FROM items resolve to stored tables or virtual-table occurrences.
2. Virtual-table usage analysis (:mod:`repro.plan.analysis`) fixes each
   occurrence's arity *n*, template, rank limit, and input bindings.
3. Relations are joined left-deep in FROM order, as in the paper's
   Redbase prototype: the user controls the join order, and a virtual
   table listed before the relation that binds its inputs is a
   :class:`~repro.util.errors.BindingError`.
4. Predicates are pushed to the lowest operator whose schema can bind
   them; virtual tables hang off dependent joins.
5. GROUP BY/aggregates, HAVING, DISTINCT, ORDER BY (with hidden sort
   columns for non-projected keys), and LIMIT complete the plan.

There is no relational rewrite pass: a conjunct over one stored table
is that table's selection, and the planner builds no identity
projection and no DISTINCT over an aggregate that is already unique.
:func:`repro.plan.physical.lower` turns the tree into executable
operators.  An ``IN``/``EXISTS`` subquery is bound to its own built
logical tree, which ``lower`` lowers with the query.

The output is a *synchronous* plan (EVScan leaves); asynchronous
iteration is ReqSync placement over the logical form
(:func:`repro.asynciter.rewrite.rewrite_logical`).
"""

from repro.config import EngineConfig
from repro.exec import AggregateSpec
from repro.plan import logical as L
from repro.plan.analysis import analyze_vtables, validate_bindings
from repro.plan.binder import Binder, collect_aggregates, collect_names
from repro.relational.expr import (
    ColumnRef,
    Comparison,
    Literal,
    conjunction_terms,
    make_conjunction,
)
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

    # -- public API -----------------------------------------------------------

    def plan_logical(self, query):
        """Build the logical plan for a parsed SELECT."""
        relations = self._resolve_from(query)
        residual = self._analyze(query, relations)
        plan, residual = self._build_join_tree(query, relations, residual)
        return self._finish(query, plan, residual)

    def optimize(self, node, tracer=None, metrics=None, query_id=None, cost_model=None):
        """``(node, [])``: there is no relational rewrite pass.

        Kept, with its signature, for the frozen benchmark adapter
        (perf/adapter.py); nothing else calls it.
        """
        return node, []

    def _subquery(self, query):
        """A subquery's logical tree (the binder's hook)."""
        return self.plan_logical(query)

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
        return residual

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
        :func:`access_path` picks the window.
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
        binder = Binder(combined, subquery_planner=self._subquery)
        own = Binder(scan.schema, subquery_planner=self._subquery)
        join_conjuncts = []
        scan_conjuncts = []
        for conjunct in list(residual):
            names = collect_names(conjunct)
            if not names:
                continue
            if binder.can_bind(conjunct) and not Binder(
                plan.schema, subquery_planner=self._subquery
            ).can_bind(conjunct):
                # Touches the new relation (not bindable before it joined).
                if collect_aggregates(conjunct):
                    continue
                # Over the new relation alone, it is that scan's selection:
                # the join keeps a bare equi-join to hash on.
                if own.can_bind(conjunct):
                    scan_conjuncts.append(own.bind(conjunct))
                else:
                    join_conjuncts.append(conjunct)
                residual.remove(conjunct)
        if scan_conjuncts:
            scan = L.LogicalFilter(scan, make_conjunction(scan_conjuncts))
        if join_conjuncts:
            predicate = make_conjunction(
                [binder.bind(c) for c in join_conjuncts]
            )
            return L.LogicalJoin(plan, scan, predicate)
        return L.LogicalCrossProduct(plan, scan)

    def _push_filters(self, plan, residual):
        """Attach every residual conjunct that the current schema can bind."""
        binder = Binder(plan.schema, subquery_planner=self._subquery)
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
            binder = Binder(plan.schema, subquery_planner=self._subquery)
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
            plan, binder, select_exprs, names, select_asts = self._plan_aggregation(
                query, plan, aggregates
            )
        else:
            if query.having is not None:
                raise PlanError("HAVING requires GROUP BY or aggregates")
            binder = Binder(plan.schema)
            select_exprs, names, select_asts = self._expand_select(query, binder)

        output_schema = self._output_schema(plan.schema, select_exprs, names)
        plan, output_schema = self._plan_order_and_project(
            query, plan, binder, select_exprs, select_asts, output_schema
        )
        if query.distinct and not _unique(plan):
            plan = L.LogicalDistinct(plan)
        if query.limit is not None:
            plan = L.LogicalLimit(plan, query.limit)
        return plan

    def _expand_select(self, query, binder):
        """Returns parallel lists: bound exprs, output names, source ASTs.

        Star-expanded outputs have ``None`` ASTs (there is no per-column
        syntax to match ORDER BY items against; name matching covers them).
        """
        schema = binder.schema
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

        # SELECT, HAVING and ORDER BY bind over the aggregate's output:
        # group keys first, then the aggregate calls.
        outputs = {}
        for index, node in enumerate(group_asts + agg_asts):
            outputs.setdefault(node, index)
        binder = Binder(agg_schema, outputs=outputs)
        select_exprs = []
        names = []
        asts = []
        for item in query.select_items:
            if isinstance(item.expr, ast.Star):
                raise PlanError("SELECT * cannot be combined with GROUP BY")
            select_exprs.append(binder.bind(item.expr))
            names.append(self._item_name(item))
            asts.append(item.expr)
        if query.having is not None:
            plan = L.LogicalFilter(plan, binder.bind(query.having))
        return plan, binder, select_exprs, names, asts

    # -- ordering & projection ---------------------------------------------------------

    def _plan_order_and_project(
        self, query, plan, binder, select_exprs, select_asts, output_schema
    ):
        """Project, then sort — adding hidden sort columns, bound by
        *binder* over *plan*'s output, when needed."""
        if not query.order_by:
            return _project(plan, select_exprs, output_schema), output_schema

        sort_keys = []  # (index into extended projection, descending)
        extended_exprs = list(select_exprs)
        extended_columns = list(output_schema)
        for order in query.order_by:
            index = self._match_order_item(order.expr, select_asts, output_schema)
            if index is None:
                expr = binder.bind(order.expr)
                data_type = expr.result_type(plan.schema)
                extended_exprs.append(expr)
                extended_columns.append(
                    Column("__sort{}".format(len(extended_columns)), data_type)
                )
                index = len(extended_exprs) - 1
            sort_keys.append((ColumnRef(index), order.descending))

        extended_schema = Schema(extended_columns, allow_duplicates=True)
        plan = L.LogicalSort(_project(plan, extended_exprs, extended_schema), sort_keys)
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


def _project(plan, exprs, schema):
    """A projection of *plan*, or *plan* itself when it would be the
    identity: every input column in place, under the same names."""
    identity = schema.names() == plan.schema.names() and all(
        isinstance(expr, ColumnRef) and expr.index == i for i, expr in enumerate(exprs)
    )
    return plan if identity else L.LogicalProject(plan, exprs, schema)


def _unique(plan):
    """Are *plan*'s rows distinct already?  True over an aggregate, bare or
    under a column projection that keeps every group key."""
    if isinstance(plan, L.LogicalAggregate):
        return True
    if isinstance(plan, L.LogicalProject) and isinstance(plan.child, L.LogicalAggregate):
        if not all(isinstance(e, ColumnRef) for e in plan.expressions):
            return False
        kept = {e.index for e in plan.expressions}
        return set(range(len(plan.child.group_exprs))) <= kept
    return False


def _fail_type(group_ast):
    raise PlanError("cannot type GROUP BY expression {}".format(group_ast.sql()))


# -- access-path selection ------------------------------------------------------------


_SARGABLE_OPS = ("=", "<", "<=", ">", ">=")
_FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _term_bound(term):
    """``(column_index, op, constant)`` for a sargable comparison, else None.

    Normalizes ``const op col`` to ``col flip(op) const``; NULL and
    boolean constants are never sargable.
    """
    if not isinstance(term, Comparison) or term.op not in _SARGABLE_OPS:
        return None
    pairs = (
        (term.left, term.right, term.op),
        (term.right, term.left, _FLIP_OP.get(term.op, term.op)),
    )
    for column_side, const_side, op in pairs:
        if (
            isinstance(column_side, ColumnRef)
            and isinstance(const_side, Literal)
            and const_side.value is not None
            and not isinstance(const_side.value, bool)
        ):
            return column_side.index, op, const_side.value
    return None


class _IndexBounds:
    """Accumulates sargable comparisons into one [low, high] window."""

    def __init__(self):
        self.low = None
        self.high = None
        self.include_low = True
        self.include_high = True
        self._have_equality = False

    def tighten(self, op, value):
        """Fold one comparison in; returns False if it cannot be absorbed."""
        if self._have_equality:
            return False  # keep further predicates as ordinary filters
        if op == "=":
            if self.low is not None or self.high is not None:
                return False
            self.low = self.high = value
            self._have_equality = True
            return True
        if op in (">", ">="):
            include = op == ">="
            if self.low is None or value > self.low or (
                value == self.low and self.include_low and not include
            ):
                self.low = value
                self.include_low = include
            return True
        if op in ("<", "<="):
            include = op == "<="
            if self.high is None or value < self.high or (
                value == self.high and self.include_high and not include
            ):
                self.high = value
                self.include_high = include
            return True
        return False


def access_path(scan, predicates):
    """Access-path selection: an index window for a bare stored-table scan.

    *predicates* are bound over *scan*'s own schema.  The first of the
    table's indexes whose column some predicate restricts wins; a
    predicate is absorbed whole or not at all — every conjunct in it
    must be a sargable comparison of that column against a constant of
    the column's kind (so ``BETWEEN`` folds in as one unit) that
    :class:`_IndexBounds` can tighten.  Returns ``(indexed_scan,
    absorbed)`` with one flag per predicate, or None when no index
    applies.
    """
    for index in getattr(scan.table, "indexes", None) or ():
        column = scan.schema.maybe_resolve(index.column_name)
        if column is None:
            continue
        numeric = scan.schema[column].type.is_numeric
        window = _IndexBounds()
        absorbed = []
        for predicate in predicates:
            bounds = [_term_bound(term) for term in conjunction_terms(predicate)]
            absorbed.append(
                all(
                    bound is not None
                    and bound[0] == column
                    and numeric == isinstance(bound[2], (int, float))
                    for bound in bounds
                )
                and all(window.tighten(op, value) for _, op, value in bounds)
            )
        if any(absorbed):
            indexed = L.LogicalScan(
                scan.table,
                scan.alias,
                index=index,
                low=window.low,
                high=window.high,
                include_low=window.include_low,
                include_high=window.include_high,
            )
            return indexed, absorbed
    return None

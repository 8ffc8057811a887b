"""Virtual-table framework.

Definitions vs instances
------------------------

A :class:`VirtualTableDef` is what lives in the catalog under a name like
``WebCount_AV``.  Because the paper's tables have "an infinite family" of
shapes (``T1..Tn`` with query-dependent *n*), referencing one in a FROM
clause creates a :class:`VTableInstance` specialized to that query: a fixed
column list, the constant ("fixed") input bindings from the WHERE clause,
and the remaining ("dependent") inputs a dependent join must supply per
outer tuple.

External calls
--------------

``VTableInstance.make_call(bindings)`` packages one external request as an
:class:`ExternalCall`: a key, a destination, a factory for the generator
that performs one attempt of it, and a probe that reads the result cache.
Every call is registered with a :class:`~repro.asynciter.pump.RequestPump`,
which answers a cached one on the spot and runs the rest; a caller that
wants to block (:class:`~repro.vtables.evscan.EVScan`) waits for the pump
to settle it.  Results are normalized to a list of field
dicts, so ``EVScan``, ``AEVScan``, and ``ReqSync`` all share one patching
vocabulary:

- ``WebCount`` → ``[{"count": 42}]`` (always exactly one row),
- ``WebPages`` → one dict per hit (possibly none — tuple cancellation).
"""

from repro.relational.placeholder import Placeholder
from repro.relational.schema import Schema
from repro.util.errors import BindingError, VirtualTableError


class ExternalCall:
    """One request to an external source.

    ``key`` identifies the request for caching/debugging; ``destination``
    names the rate-limit bucket (the paper's per-destination counters).

    ``factory(attempt)`` returns the generator for one attempt: it
    yields the seconds of each network wait (the pump resumes it when
    that much time has passed) and returns the list of result-field
    dicts.  The request pump passes the 0-based retry attempt through so
    fault injection stays a stable function of
    ``(destination, request, attempt)``.

    ``probe()`` (or ``None`` when the source keeps no cache) answers from
    what is already known, without I/O: the call's rows, or ``None`` for
    a miss.  The pump asks it once, at registration, on the registering
    thread; only a miss becomes an attempt.
    """

    __slots__ = ("key", "destination", "_factory", "probe")

    def __init__(self, key, destination, factory, probe=None):
        self.key = key
        self.destination = destination
        self._factory = factory
        self.probe = probe

    def execute_async(self, attempt=0):
        """Return the generator for attempt *attempt* (see above)."""
        return self._factory(attempt)

    def __repr__(self):
        return "ExternalCall({} -> {})".format(self.key, self.destination)


def cache_probe(source, shape, *request):
    """The ``probe`` of a call to *source* (a client or fetch service).

    ``source.probe(*request)`` is the source's one cache read; *shape*
    turns what it finds into the rows the call's attempt would have
    produced.  ``None`` when the source has no cache to ask.
    """
    if source.cache is None:
        return None

    def probe():
        value = source.probe(*request)
        return None if value is None else shape(value)

    return probe


class VirtualTableDef:
    """A named virtual table in the catalog."""

    def __init__(self, name):
        self.name = name

    #: Ordered names of input (bindable) columns given *n* terms.
    def input_names(self, n):
        raise NotImplementedError

    def instantiate(self, qualifier, n, template=None, rank_limit=None):
        """Create the per-query instance; see subclass docs."""
        raise NotImplementedError

    #: True when Ti/SearchExp columns exist (search-style tables).
    uses_search_terms = True


class VTableInstance:
    """One FROM-clause occurrence of a virtual table.

    Subclasses define ``columns()`` (name/type pairs in row order) and
    ``make_call``, and hand ``__init__`` the two things every call
    consults: ``input_params`` (all bindable input column names, in
    order) and ``result_fields`` (output column name -> result dict
    key).  Both are fixed per instance, so they are built once here, not
    per binding.
    """

    def __init__(self, definition, qualifier, fixed_bindings, input_params, result_fields):
        self.definition = definition
        self.qualifier = qualifier
        self.fixed_bindings = dict(fixed_bindings)
        self.input_params = list(input_params)
        self.result_fields = dict(result_fields)
        self._schema = Schema(
            [col.with_qualifier(qualifier) for col in self.columns()]
        )
        self._positions = {c.name: i for i, c in enumerate(self._schema)}
        self._result_slots = [
            (self._positions[column], field)
            for column, field in self.result_fields.items()
        ]
        self._checked_names = set()  # join-bound name tuples resolve_bindings passed

    # -- subclass interface ------------------------------------------------------

    def columns(self):
        """Unqualified :class:`~repro.relational.schema.Column` list."""
        raise NotImplementedError

    def make_call(self, bindings):
        raise NotImplementedError

    def describe(self):
        """Short text for plan labels, e.g. ``WebCount (T2 = 'Knuth')``."""
        if not self.fixed_bindings:
            return self.qualifier
        fixed = ", ".join(
            "{} = {!r}".format(k, v) for k, v in sorted(self.fixed_bindings.items())
        )
        return "{} ({})".format(self.qualifier, fixed)

    # -- shared machinery -----------------------------------------------------------

    @property
    def schema(self):
        return self._schema

    @property
    def dependent_params(self):
        """Input names that must come from a dependent join."""
        return [p for p in self.input_params if p not in self.fixed_bindings]

    def resolve_bindings(self, join_bindings):
        """Merge fixed and join-supplied bindings; verify completeness.

        Which names a join binds is fixed by the plan, so each set of
        names is checked once per instance; every call checks its values.
        """
        bindings = dict(self.fixed_bindings)
        names = ()
        if join_bindings:
            bindings.update(join_bindings)
            names = tuple(join_bindings)
        if names not in self._checked_names:
            self._check_names(names)
            self._checked_names.add(names)
        for name, value in bindings.items():
            if value is None or isinstance(value, Placeholder):
                raise VirtualTableError(
                    "input {} of {} bound to unusable value {!r}".format(
                        name, self.qualifier, value
                    )
                )
        return bindings

    def _check_names(self, names):
        for name in names:
            if name not in self.input_params:
                raise BindingError(
                    "{} has no input column {!r}".format(self.qualifier, name)
                )
        missing = [
            p for p in self.input_params if p not in self.fixed_bindings and p not in names
        ]
        if missing:
            raise BindingError(
                "inputs {} of {} are unbound; bind them with constants or an "
                "equi-join with an earlier table".format(missing, self.qualifier)
            )

    def complete_rows(self, bindings, result_rows):
        """Build fully-resolved output rows from external results."""
        prefix = self._echo_prefix(bindings)
        rows = []
        for result in result_rows:
            row = list(prefix)
            for position, field in self._result_slots:
                row[position] = result[field]
            rows.append(tuple(row))
        return rows

    def placeholder_row(self, bindings, call_id):
        """The optimistic single row AEVScan returns before the call lands."""
        row = self._echo_prefix(bindings)
        for position, field in self._result_slots:
            row[position] = Placeholder(call_id, field)
        return tuple(row)

    def _echo_prefix(self, bindings):
        """Row skeleton with input columns echoed and outputs None."""
        row = [None] * len(self._schema)
        for name, value in bindings.items():
            row[self._positions[name]] = value
        return row

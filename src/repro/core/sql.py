"""SQL generation *and* the ``sql`` detection engine (the technique of [2]).

The paper's centralized baseline: "from a set Σ of CFDs, a fixed number of
SQL queries can be automatically generated that, when evaluated on D,
return all the violations of Σ in D".  This module emits those queries,
one statement per normal form of each CFD:

* a **constant** form compiles to a scan catching *single-tuple*
  violations: tuples matching the pattern's LHS whose RHS cell fails the
  pattern's RHS entry;
* a **variable** form compiles to a GROUP BY on ``X`` over the tuples
  matching some pattern row, keeping groups with more than one distinct
  value on some RHS attribute (*pairwise* violations).

Both return the ``Vioπ`` projection (the ``X`` attributes).  The paper's
original macro encodes the tableau in an auxiliary pattern table; for
self-containedness we inline the tableau as OR-ed match conditions, which
is equivalent.

One compiler writes every statement.  It takes a *value binder*: the
engine (:func:`detect_violations_sql`, dispatched by ``REPRO_ENGINE=sql``)
binds each pattern value as a parameter (attribute names may contain
quotes and values may contain ``'``/``%``), executes on a persistent
per-relation sqlite3 handle and decodes result rows into a
:class:`~repro.core.violations.ViolationReport` that is bit-identical to
the reference engine on violations *and* tuple keys.  The display
(``repro sql``, :func:`violation_sql`, :func:`run_detection_on_sqlite`)
inlines the same values as literals instead, so what it prints is exactly
the statement set the engine runs with ``collect_tuples=False``.

NULL semantics (the ``None`` contract)
--------------------------------------

The in-memory engines treat ``None`` as an ordinary domain value: it is
equal to itself, distinct from everything else, and incomparable under
order predicates.  SQL three-valued logic disagrees on every count, so the
compiler emits *null-safe* comparisons instead of ``=``/``<>``:

* equality uses ``IS``, so a ``None`` cell matches a ``None`` pattern
  constant and nothing else;
* ``NotValue`` uses ``IS NOT`` — Python's ``None != v`` is true, so a NULL
  cell must *satisfy* the negation;
* the constant-form RHS test is wrapped as ``(cond) IS NOT TRUE``: a
  predicate over a NULL cell evaluates to NULL in SQL but to "no match"
  (hence *violated*) in Python, and the wrapper folds both to the same
  answer;
* the GROUP BY conflict test counts NULL as one more distinct value:
  ``COUNT(DISTINCT a)`` ignores NULLs, so the compiler emits
  ``COUNT(DISTINCT a) + MAX(CASE WHEN a IS NULL THEN 1 ELSE 0 END) > 1``
  per RHS attribute (a ``COALESCE`` sentinel would collide with real
  domain values; the explicit two-term count cannot);
* ``OneOf`` splits a ``None`` member out of the ``IN`` list into an
  ``OR col IS NULL`` branch (``NULL IN (...)`` is never true in SQL, but
  ``None in {None}`` is true in Python);
* ``Range`` never matches ``None`` (Python raises ``TypeError`` → no
  match), which the ``typeof`` guard below reproduces.

Mixed-type columns add one more divergence: sqlite orders INTEGER below
TEXT while Python raises ``TypeError`` (→ no match), so ``Range``
conditions carry a ``typeof(col)`` guard restricting the comparison to the
bound's type class.  Tables are created with *undeclared* column types so
sqlite's type affinity cannot coerce values (``'2'`` must stay distinct
from ``2``).

The conformance suite (``tests/test_engine_conformance.py``) property-tests
all of the above against the reference oracle — the engine and the printed
statements both — including relations with ``None`` cells.
"""

from __future__ import annotations

import math
import sqlite3
import threading
from collections import OrderedDict
from typing import Iterable, Sequence

from ..relational import Relation, column_store
from .cfd import CFD, is_wildcard
from .epatterns import NotValue, OneOf, Range
from .normalize import ConstantCFD, VariableCFD, normalize_all
from .violations import Violation, ViolationReport


class SQLEngineError(RuntimeError):
    """The SQL engine cannot represent this relation or pattern faithfully.

    Raised eagerly (at handle build or statement compile time) with the
    offending attribute or value named, never silently approximated — the
    engine's contract is bit-identical agreement with ``reference``.
    """


# ---------------------------------------------------------------------------
# Value classes: what the engine can faithfully round-trip
# ---------------------------------------------------------------------------

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _value_class(value: object) -> str:
    """``"null" | "int" | "float" | "text"`` — or :class:`SQLEngineError`.

    Rejects values a database cannot store losslessly: NaN (sqlite stores
    it as NULL, conflating it with ``None``), integers outside 64 bits,
    and non-primitive objects.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "int"
    if isinstance(value, int):
        if not (_INT64_MIN <= value <= _INT64_MAX):
            raise SQLEngineError(
                f"integer {value!r} does not fit in 64 bits; "
                "the sql engine cannot store it losslessly"
            )
        return "int"
    if isinstance(value, float):
        if value != value:
            raise SQLEngineError(
                "NaN is not representable in the sql engine "
                "(sqlite stores it as NULL, conflating it with None)"
            )
        return "float"
    if isinstance(value, str):
        return "text"
    raise SQLEngineError(
        f"value {value!r} of type {type(value).__name__} is not "
        "representable in the sql engine (use int, float, str, bool or None)"
    )


def _validate_columns(relation: Relation) -> None:
    """Check every cell is storable, via the cached ColumnStore.

    Validation walks the store's *distinct* values (cheap even on large
    relations) and raises :class:`SQLEngineError` naming the attribute on
    the first unrepresentable value.
    """
    store = column_store(relation)
    for attr in relation.schema.attributes:
        for value in store.column(attr).values:
            try:
                _value_class(value)
            except SQLEngineError as error:
                raise SQLEngineError(f"attribute {attr!r}: {error}") from None


# ---------------------------------------------------------------------------
# Quoting and value binders
# ---------------------------------------------------------------------------

def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _quote_value(value: object) -> str:
    """A sqlite literal that reads back as an equal value of the same class."""
    value_class = _value_class(value)
    if value_class == "null":
        return "NULL"
    if value_class == "text":
        return "'" + value.replace("'", "''") + "'"
    if value_class == "int":
        return str(int(value))  # True -> 1, as sqlite3 binds it
    if math.isinf(value):
        # sqlite has no infinity literal; an overflowing one reads as ±inf
        return "9e999" if value > 0 else "-9e999"
    return repr(value)


def _bind_param(value: object, params: list) -> str:
    """The engine's binder: the value travels as a bound parameter."""
    _value_class(value)
    params.append(value)
    return "?"


def _bind_literal(value: object, params: list) -> str:
    """The display's binder: the value is inlined as a literal."""
    return _quote_value(value)


# ---------------------------------------------------------------------------
# Statement compilation (one statement per normal form)
# ---------------------------------------------------------------------------

class _CompiledQuery:
    """One executable statement plus the recipe to decode its rows."""

    __slots__ = ("sql", "params", "source", "report_attrs", "n_x", "n_key")

    def __init__(self, sql, params, source, report_attrs, n_x, n_key):
        self.sql = sql
        self.params = params
        self.source = source
        self.report_attrs = report_attrs
        self.n_x = n_x
        self.n_key = n_key

    def decode(self, rows: Iterable[Sequence], report: ViolationReport, collect_tuples: bool) -> None:
        for row in rows:
            report.add(
                Violation(
                    cfd=self.source,
                    lhs_attributes=self.report_attrs,
                    lhs_values=tuple(row[: self.n_x]),
                )
            )
            if collect_tuples:
                report.add_tuple_key(
                    tuple(row[self.n_x : self.n_x + self.n_key])
                )


class _Compiler:
    """Compiles normalized Σ into statements over one table.

    Needs only the table name and the key attributes (read only when
    tuple keys are collected), never the data.  ``bind(value, params)``
    renders every pattern value: :func:`_bind_param` for the engine,
    :func:`_bind_literal` for the display.
    """

    def __init__(self, table: str, key_attrs: Sequence[str] = (), bind=_bind_param):
        self._table = _quote_ident(table)
        self._key_attrs = tuple(key_attrs)
        self._bind = bind

    def _col(self, attr: str, qualifier: str = "") -> str:
        return qualifier + _quote_ident(attr)

    def _entry(self, col: str, value: object, params: list) -> str:
        """The null-safe condition for ``col ≍ value`` (module docstring)."""
        bind = self._bind
        if isinstance(value, OneOf):
            rest = sorted(
                (v for v in value.values if v is not None),
                key=lambda v: (str(type(v)), repr(v)),
            )
            branches = []
            if rest:
                listed = ", ".join(bind(v, params) for v in rest)
                branches.append(f"{col} IN ({listed})")
            if None in value.values:
                branches.append(f"{col} IS NULL")
            return "(" + " OR ".join(branches) + ")"
        if isinstance(value, NotValue):
            if value.value is None:
                return f"{col} IS NOT NULL"
            return f"{col} IS NOT {bind(value.value, params)}"
        if isinstance(value, Range):
            bound_class = _value_class(value.bound)
            if bound_class == "null":
                # Python: value < None raises TypeError -> never matches
                return "0=1"
            if bound_class == "text":
                guard = f"typeof({col}) = 'text'"
            else:
                guard = f"typeof({col}) IN ('integer', 'real')"
            return f"({guard} AND {col} {value.op} {bind(value.bound, params)})"
        if value is None:
            return f"{col} IS NULL"
        return f"{col} IS {bind(value, params)}"

    def _match(
        self,
        attrs: Sequence[str],
        row: Sequence[object],
        params: list,
        qualifier: str = "",
    ) -> str:
        parts = [
            self._entry(self._col(attr, qualifier), value, params)
            for attr, value in zip(attrs, row)
            if not is_wildcard(value)
        ]
        return " AND ".join(parts) if parts else "1=1"

    def _select_list(self, attrs: Sequence[str], qualifier: str = "") -> str:
        if not attrs:
            return "1"
        return ", ".join(self._col(a, qualifier) for a in attrs)

    def constant(self, form: ConstantCFD, collect_tuples: bool) -> _CompiledQuery:
        params: list = []
        select_attrs = form.report_lhs + (
            self._key_attrs if collect_tuples else ()
        )
        distinct = "" if collect_tuples else "DISTINCT "
        match = self._match(form.lhs, form.values, params)
        rhs = self._entry(self._col(form.rhs_attr), form.rhs_value, params)
        sql = (
            f"SELECT {distinct}{self._select_list(select_attrs)} "
            f"FROM {self._table} "
            f"WHERE ({match}) AND ({rhs}) IS NOT TRUE"
        )
        return _CompiledQuery(
            sql,
            tuple(params),
            form.source,
            form.report_lhs,
            len(form.report_lhs),
            len(self._key_attrs) if collect_tuples else 0,
        )

    def _conflict(self, rhs_attrs: Sequence[str]) -> str:
        # NULL-aware distinct count; see the module docstring.
        return " OR ".join(
            f"(COUNT(DISTINCT {self._col(a)}) + "
            f"MAX(CASE WHEN {self._col(a)} IS NULL THEN 1 ELSE 0 END)) > 1"
            for a in rhs_attrs
        )

    def variable(self, form: VariableCFD, collect_tuples: bool) -> _CompiledQuery:
        params: list = []
        inner_match = " OR ".join(
            f"({self._match(form.lhs, row, params)})" for row in form.patterns
        )
        group_cols = self._select_list(form.lhs)
        group_by = f" GROUP BY {group_cols}" if form.lhs else ""
        # with an empty X the whole match set is one group; selecting an
        # aggregate keeps sqlite happy about HAVING without GROUP BY
        inner_select = group_cols if form.lhs else "COUNT(*)"
        inner = (
            f"SELECT {inner_select} FROM {self._table} "
            f"WHERE {inner_match}{group_by} "
            f"HAVING {self._conflict(form.rhs)}"
        )
        if not collect_tuples:
            return _CompiledQuery(
                inner, tuple(params), form.source, form.lhs, len(form.lhs), 0
            )
        if form.lhs:
            on = " AND ".join(
                f"{self._col(a, 'd.')} IS {self._col(a, 'g.')}"
                for a in form.lhs
            )
            join = f"JOIN ({inner}) AS g ON {on}"
        else:
            join = f"CROSS JOIN ({inner}) AS g"
        select_attrs = form.lhs + self._key_attrs
        outer_match = " OR ".join(
            f"({self._match(form.lhs, row, params, qualifier='d.')})"
            for row in form.patterns
        )
        sql = (
            f"SELECT {self._select_list(select_attrs, 'd.')} "
            f"FROM {self._table} AS d {join} "
            f"WHERE {outer_match}"
        )
        return _CompiledQuery(
            sql,
            tuple(params),
            form.source,
            form.lhs,
            len(form.lhs),
            len(self._key_attrs),
        )

    def compile(
        self, cfds: Sequence[CFD], collect_tuples: bool
    ) -> tuple[_CompiledQuery, ...]:
        queries: list[_CompiledQuery] = []
        for normalized in normalize_all(cfds):
            for form in normalized.constants:
                queries.append(self.constant(form, collect_tuples))
            for form in normalized.variables:
                queries.append(self.variable(form, collect_tuples))
        return tuple(queries)


def violation_sql(cfd: CFD, table: str) -> list[str]:
    """The detection statements for one CFD, one per normal form.

    Values are inlined as literals; otherwise these are exactly the
    statements the ``sql`` engine runs with ``collect_tuples=False``.
    """
    queries = _Compiler(table, bind=_bind_literal).compile([cfd], False)
    return [query.sql for query in queries]


def create_table_sql(relation: Relation, table: str) -> str:
    """A CREATE TABLE statement matching the relation's schema.

    Columns carry **no declared type**: any affinity would let sqlite
    coerce values on insert (``'2'`` under INTEGER affinity becomes the
    integer ``2``), silently merging values the in-memory engines keep
    distinct.  Undeclared columns have BLOB (none) affinity — values are
    stored exactly as bound.
    """
    columns = ", ".join(
        _quote_ident(attr) for attr in relation.schema.attributes
    )
    return f"CREATE TABLE {_quote_ident(table)} ({columns})"


# ---------------------------------------------------------------------------
# Persistent per-relation handles
# ---------------------------------------------------------------------------

class SQLRelationHandle:
    """A relation loaded once into sqlite3, ready for repeated detection.

    Holds the connection, the compiled-statement cache and a lock (the
    resident service calls engines from request threads).  Obtained via
    :func:`sql_handle`, which keeps a small LRU of live handles so repeat
    detections on the same relation skip the load entirely.
    """

    TABLE = "D"

    __slots__ = ("relation", "_connection", "_compiler", "_plans", "_lock")

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        _validate_columns(relation)
        schema = relation.schema
        connection = sqlite3.connect(":memory:", check_same_thread=False)
        connection.execute(create_table_sql(relation, self.TABLE))
        if relation.rows:
            placeholders = ", ".join("?" for _ in schema.attributes)
            connection.executemany(
                f"INSERT INTO {_quote_ident(self.TABLE)} VALUES ({placeholders})",
                relation.rows,
            )
        self._connection = connection
        self._compiler = _Compiler(
            self.TABLE, [schema.attributes[p] for p in schema.key_positions()]
        )

    def _plan(self, cfds: Sequence[CFD], collect_tuples: bool):
        key = (tuple((cfd.name, cfd) for cfd in cfds), collect_tuples)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = self._compiler.compile(cfds, collect_tuples)
        with self._lock:
            while len(self._plans) >= 32:
                self._plans.popitem(last=False)
            self._plans[key] = plan
        return plan

    def detect(
        self, cfds: Sequence[CFD], collect_tuples: bool = True
    ) -> ViolationReport:
        """Run the compiled statement set and decode a ViolationReport."""
        plan = self._plan(cfds, collect_tuples)
        report = ViolationReport()
        with self._lock:
            for query in plan:
                cursor = self._connection.execute(query.sql, query.params)
                rows = cursor.fetchall()
                query.decode(rows, report, collect_tuples)
        return report

    def execute(self, sql: str) -> list[tuple]:
        """Run one ad-hoc statement on the loaded table (the printed
        statements of :func:`run_detection_on_sqlite`)."""
        with self._lock:
            return [tuple(row) for row in self._connection.execute(sql).fetchall()]

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except Exception:
                pass


#: live handles, LRU by relation identity.  Entries hold a strong
#: reference to the relation (via the handle), so an id() key can never be
#: reused while its entry is alive; identity is re-checked on probe anyway.
_HANDLES: OrderedDict[int, SQLRelationHandle] = OrderedDict()
#: each cached handle is a live connection pinning its relation in memory,
#: so the cache is a bounded LRU that *closes* what it evicts
_HANDLES_CAP = 8
_HANDLES_LOCK = threading.Lock()


def sql_handle(relation: Relation) -> SQLRelationHandle:
    """The (cached) sqlite3 handle for a relation."""
    key = id(relation)
    with _HANDLES_LOCK:
        handle = _HANDLES.get(key)
        if handle is not None and handle.relation is relation:
            _HANDLES.move_to_end(key)
            return handle
    handle = SQLRelationHandle(relation)
    evicted = []
    with _HANDLES_LOCK:
        racer = _HANDLES.get(key)
        if racer is not None and racer.relation is relation:
            _HANDLES.move_to_end(key)
            handle.close()
            return racer
        while len(_HANDLES) >= _HANDLES_CAP:
            _, old = _HANDLES.popitem(last=False)
            evicted.append(old)
        _HANDLES[key] = handle
    for old in evicted:
        old.close()
    return handle


def close_sql_handles() -> None:
    """Close and drop every cached handle (tests and long-running hosts)."""
    with _HANDLES_LOCK:
        handles = list(_HANDLES.values())
        _HANDLES.clear()
    for handle in handles:
        handle.close()


def detect_violations_sql(
    relation: Relation,
    cfds: CFD | Iterable[CFD],
    collect_tuples: bool = True,
) -> ViolationReport:
    """``Vioπ(Σ, D)`` plus tuple keys, computed inside sqlite3.

    The third engine (``REPRO_ENGINE=sql``): loads the relation once into
    a persistent per-relation handle, compiles all of normalized Σ into
    one batched, parameterized statement set (see the module docstring
    for the exact NULL and typing contract) and decodes result rows back
    into a :class:`ViolationReport` bit-identical to the reference engine.
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    return sql_handle(relation).detect(list(cfds), collect_tuples)


def run_detection_on_sqlite(
    relation: Relation, cfds: CFD | Iterable[CFD]
) -> set[tuple[str, tuple]]:
    """Execute the *printed* statements on the engine's sqlite handle.

    Returns ``{(cfd_name, x_values), ...}`` — the ``Vioπ`` entries — for
    direct comparison with :func:`repro.core.detect_violations`.  The
    statements are the literal-rendered ones of :func:`violation_sql`
    (the paper's "centralized SQL technique" made runnable), run on the
    table :func:`detect_violations_sql` loads.
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    handle = sql_handle(relation)
    compiler = _Compiler(SQLRelationHandle.TABLE, bind=_bind_literal)
    report = ViolationReport()
    for query in compiler.compile(list(cfds), False):
        query.decode(handle.execute(query.sql), report, False)
    return {(v.cfd, v.lhs_values) for v in report.violations}

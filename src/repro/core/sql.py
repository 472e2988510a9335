"""SQL generation *and* the ``sql`` detection engine (the technique of [2]).

The paper's centralized baseline: "from a set Σ of CFDs, a fixed number of
SQL queries can be automatically generated that, when evaluated on D,
return all the violations of Σ in D".  This module emits those queries for
any CFD, in the two-query shape of [2]:

* ``Q_C`` — a scan catching *single-tuple* violations of the constant
  pattern entries: tuples matching a pattern's LHS whose RHS disagrees
  with the pattern's RHS constants;
* ``Q_V`` — a GROUP BY on ``X`` over the tuples matching some pattern's
  LHS, keeping groups with more than one distinct value on some RHS
  attribute (*pairwise* violations).

Both return the ``Vioπ`` projection (the ``X`` attributes).  The paper's
original macro encodes the tableau in an auxiliary pattern table; for
self-containedness we inline the tableau as OR-ed match conditions, which
is equivalent and keeps the emitted SQL runnable on any engine.

Two consumers share the query shape:

* the **display path** (``repro sql``, :func:`violation_sql`) renders
  self-contained SQL with inlined literals — meant to be read and pasted
  into any database shell;
* the **engine path** (:func:`detect_violations_sql`, dispatched by
  ``REPRO_ENGINE=sql``) compiles the same plan with **bound parameters**
  (never literals — attribute names may contain quotes and values may
  contain ``'``/``%``), executes it on a persistent per-relation database
  handle (``REPRO_SQL_BACKEND=sqlite|duckdb|auto``) and decodes result
  rows back into a :class:`~repro.core.violations.ViolationReport` that is
  bit-identical to the reference engine on violations *and* tuple keys.

NULL semantics (the ``None`` contract)
--------------------------------------

The in-memory engines treat ``None`` as an ordinary domain value: it is
equal to itself, distinct from everything else, and incomparable under
order predicates.  SQL three-valued logic disagrees on every count, so the
engine compiles *null-safe* comparisons instead of ``=``/``<>``:

* equality uses ``IS`` (sqlite) / ``IS NOT DISTINCT FROM`` (duckdb), so a
  ``None`` cell matches a ``None`` pattern constant and nothing else;
* ``NotValue`` uses ``IS NOT`` / ``IS DISTINCT FROM`` — Python's
  ``None != v`` is true, so a NULL cell must *satisfy* the negation;
* the constant-form RHS test is wrapped as ``(cond) IS NOT TRUE``: a
  predicate over a NULL cell evaluates to NULL in SQL but to "no match"
  (hence *violated*) in Python, and the wrapper folds both to the same
  answer;
* the GROUP BY conflict test counts NULL as one more distinct value:
  ``COUNT(DISTINCT a)`` ignores NULLs, so the engine emits
  ``COUNT(DISTINCT a) + MAX(CASE WHEN a IS NULL THEN 1 ELSE 0 END) > 1``
  per RHS attribute (a ``COALESCE`` sentinel would collide with real
  domain values; the explicit two-term count cannot);
* ``OneOf`` splits a ``None`` member out of the ``IN`` list into an
  ``OR col IS NULL`` branch (``NULL IN (...)`` is never true in SQL, but
  ``None in {None}`` is true in Python);
* ``Range`` never matches ``None`` (Python raises ``TypeError`` → no
  match), which the sqlite ``typeof``-guard and duckdb's NULL propagation
  under ``IS NOT TRUE`` both reproduce.

Mixed-type columns add one more divergence: sqlite orders INTEGER below
TEXT while Python raises ``TypeError`` (→ no match), so sqlite ``Range``
conditions carry a ``typeof(col)`` guard restricting the comparison to the
bound's type class.  Tables are created with *undeclared* column types so
sqlite's type affinity cannot coerce values (``'2'`` must stay distinct
from ``2``).  DuckDB is strictly typed, so it is only selected (under
``auto``) when every column is type-homogeneous; forcing
``REPRO_SQL_BACKEND=duckdb`` on untypeable data raises
:class:`SQLEngineError`.

The conformance suite (``tests/test_engine_conformance.py``) property-tests
all of the above against the reference oracle, including relations with
``None`` cells.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from typing import Callable, Iterable, Sequence

from ..relational import Relation, column_store
from .cfd import CFD, is_wildcard
from .epatterns import NotValue, OneOf, Range, is_predicate
from .normalize import ConstantCFD, VariableCFD, normalize, normalize_all
from .violations import Violation, ViolationReport


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _quote_value(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def _entry_condition(attr: str, value: object) -> str:
    if is_predicate(value):
        return value.sql_condition(_quote_ident(attr), _quote_value)
    return f"{_quote_ident(attr)} = {_quote_value(value)}"


def _match_condition(attrs: Iterable[str], row: Iterable[object]) -> str:
    """The SQL condition for ``t[X] ≍ tp[X]`` (wildcards drop out)."""
    parts = [
        _entry_condition(attr, value)
        for attr, value in zip(attrs, row)
        if not is_wildcard(value)
    ]
    return " AND ".join(parts) if parts else "1=1"


def constant_violation_sql(cfd: CFD, table: str) -> str | None:
    """``Q_C``: single-tuple violations of the constant normal forms.

    Returns ``None`` when the CFD has no constant pattern entries.
    """
    normalized = normalize(cfd)
    if not normalized.constants:
        return None
    select_list = ", ".join(_quote_ident(a) for a in cfd.lhs)
    branches = []
    for constant in normalized.constants:
        condition = _match_condition(constant.lhs, constant.values)
        branches.append(
            f"({condition} AND NOT "
            f"({_entry_condition(constant.rhs_attr, constant.rhs_value)}))"
        )
    where = " OR ".join(branches)
    return (
        f"SELECT DISTINCT {select_list} FROM {_quote_ident(table)} "
        f"WHERE {where}"
    )


def variable_violation_sql(cfd: CFD, table: str) -> str | None:
    """``Q_V``: pairwise violations of the variable normal forms.

    Returns ``None`` when every pattern binds every RHS attribute to a
    constant (then ``Q_C`` alone suffices).
    """
    normalized = normalize(cfd)
    if not normalized.variables:
        return None
    queries = []
    for variable in normalized.variables:
        group_list = ", ".join(_quote_ident(a) for a in variable.lhs)
        match = " OR ".join(
            f"({_match_condition(variable.lhs, row)})"
            for row in variable.patterns
        )
        having = " OR ".join(
            f"COUNT(DISTINCT {_quote_ident(attr)}) > 1"
            for attr in variable.rhs
        )
        queries.append(
            f"SELECT {group_list} FROM {_quote_ident(table)} "
            f"WHERE {match} GROUP BY {group_list} HAVING {having}"
        )
    return " UNION ".join(queries)


def violation_sql(cfd: CFD, table: str) -> list[str]:
    """All detection queries for one CFD (one or two, as in [2])."""
    queries = []
    constant = constant_violation_sql(cfd, table)
    if constant:
        queries.append(constant)
    variable = variable_violation_sql(cfd, table)
    if variable:
        queries.append(variable)
    return queries


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
# The ``sql`` engine: backend resolution
# ---------------------------------------------------------------------------

class SQLEngineError(RuntimeError):
    """The SQL engine cannot represent this relation or pattern faithfully.

    Raised eagerly (at handle build or statement compile time) with the
    offending attribute or value named, never silently approximated — the
    engine's contract is bit-identical agreement with ``reference``.
    """


#: concrete backends ``REPRO_SQL_BACKEND`` accepts (besides ``"auto"``).
SQL_BACKENDS = ("sqlite", "duckdb")

_DUCKDB_PROBED: bool | None = None


def duckdb_enabled() -> bool:
    """Whether the optional duckdb dependency is importable (memoized)."""
    global _DUCKDB_PROBED
    if _DUCKDB_PROBED is None:
        try:
            import duckdb  # noqa: F401
        except Exception:
            _DUCKDB_PROBED = False
        else:
            _DUCKDB_PROBED = True
    return _DUCKDB_PROBED


def resolve_sql_backend(backend: str | None = None) -> str:
    """Validate the backend choice (explicit argument or environment).

    Returns ``"sqlite"``, ``"duckdb"`` or ``"auto"``.  Unknown names raise
    ``ValueError`` (the CLI maps that to exit 2, like every other knob);
    asking for duckdb without the package importable raises
    ``RuntimeError`` so the failure names the missing extra instead of
    surfacing as an ImportError mid-detection.
    """
    value = backend if backend is not None else os.environ.get(
        "REPRO_SQL_BACKEND", "auto"
    )
    if value not in SQL_BACKENDS + ("auto",):
        raise ValueError(
            f"unknown SQL backend {value!r}; "
            f"use one of {', '.join(SQL_BACKENDS)} (or 'auto')"
        )
    if value == "duckdb" and not duckdb_enabled():
        raise RuntimeError(
            "REPRO_SQL_BACKEND=duckdb but the duckdb package is not "
            "importable; install the 'sql' extra or use sqlite"
        )
    return value


# ---------------------------------------------------------------------------
# Value classes: what the engine can faithfully round-trip
# ---------------------------------------------------------------------------

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_FLOAT_EXACT_INT = 2**53


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


def _is_numeric(value_class: str) -> bool:
    return value_class in ("int", "float")


def _column_classes(relation: Relation) -> dict[str, set[str]]:
    """Distinct value classes per attribute, via the cached ColumnStore.

    Validation walks the store's *distinct* values (cheap even on large
    relations) and raises :class:`SQLEngineError` naming the attribute on
    the first unrepresentable value.
    """
    store = column_store(relation)
    classes: dict[str, set[str]] = {}
    for attr in relation.schema.attributes:
        found: set[str] = set()
        for value in store.column(attr).values:
            try:
                found.add(_value_class(value))
            except SQLEngineError as error:
                raise SQLEngineError(f"attribute {attr!r}: {error}") from None
        classes[attr] = found
    return classes


def _duckdb_column_type(attr: str, classes: set[str]) -> str | None:
    """The duckdb column type for a class set, or ``None`` if untypeable."""
    present = classes - {"null"}
    if not present:
        return "VARCHAR"
    if present == {"int"}:
        return "BIGINT"
    if present <= {"int", "float"}:
        return "DOUBLE"
    if present == {"text"}:
        return "VARCHAR"
    return None


def _duckdb_schema(relation: Relation) -> dict[str, str] | None:
    """Column types for duckdb, or ``None`` when the data needs sqlite.

    DuckDB is strictly typed: a column must be homogeneous (integers,
    floats, or strings — NULLs allowed anywhere) and an int stored in a
    DOUBLE column must survive the float round-trip.
    """
    store = column_store(relation)
    types: dict[str, str] = {}
    for attr, classes in _column_classes(relation).items():
        column_type = _duckdb_column_type(attr, classes)
        if column_type is None:
            return None
        if column_type == "DOUBLE":
            for value in store.column(attr).values:
                if (
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and abs(value) > _FLOAT_EXACT_INT
                ):
                    return None
        types[attr] = column_type
    return types


def _class_of_column(classes: set[str]) -> str:
    """The compile-time class of a (duckdb-typeable) column."""
    present = classes - {"null"}
    if not present:
        return "null"
    if present == {"int"}:
        return "int"
    if present <= {"int", "float"}:
        return "float"
    return "text"


# ---------------------------------------------------------------------------
# Dialects: null-safe, parameterized condition rendering
# ---------------------------------------------------------------------------

class _SqliteDialect:
    """sqlite3: untyped storage, ``IS`` null-safety, ``typeof`` guards."""

    name = "sqlite"

    def eq(self, col: str, rhs: str) -> str:
        return f"{col} IS {rhs}"

    def ne(self, col: str, rhs: str) -> str:
        return f"{col} IS NOT {rhs}"

    def entry(self, col: str, col_class: str, value: object, params: list) -> str:
        if isinstance(value, OneOf):
            return self._one_of(col, col_class, value.values, params)
        if isinstance(value, NotValue):
            _value_class(value.value)
            if value.value is None:
                return f"{col} IS NOT NULL"
            params.append(value.value)
            return self.ne(col, "?")
        if isinstance(value, Range):
            return self._range(col, col_class, value, params)
        _value_class(value)
        if value is None:
            return f"{col} IS NULL"
        params.append(value)
        return self.eq(col, "?")

    def _one_of(
        self, col: str, col_class: str, values: frozenset, params: list
    ) -> str:
        rest = sorted(
            (v for v in values if v is not None), key=lambda v: (str(type(v)), repr(v))
        )
        for v in rest:
            _value_class(v)
        branches = []
        if rest:
            params.extend(rest)
            placeholders = ", ".join("?" for _ in rest)
            branches.append(f"{col} IN ({placeholders})")
        if None in values:
            branches.append(f"{col} IS NULL")
        return "(" + " OR ".join(branches) + ")"

    def _range(self, col: str, col_class: str, predicate: Range, params: list) -> str:
        bound_class = _value_class(predicate.bound)
        if bound_class == "null":
            # Python: value < None raises TypeError -> never matches
            return "0=1"
        if _is_numeric(bound_class):
            guard = f"typeof({col}) IN ('integer', 'real')"
        else:
            guard = f"typeof({col}) = 'text'"
        params.append(predicate.bound)
        return f"({guard} AND {col} {predicate.op} ?)"


class _DuckDBDialect:
    """duckdb: strictly typed columns, ``IS [NOT] DISTINCT FROM``.

    Compile-time type classes stand in for sqlite's runtime ``typeof``
    guards: a comparison across type classes can never hold in Python, so
    it folds to ``0=1`` (or ``1=1`` for :class:`NotValue`, which ``None``
    and every cross-class value satisfies).
    """

    name = "duckdb"

    def eq(self, col: str, rhs: str) -> str:
        return f"{col} IS NOT DISTINCT FROM {rhs}"

    def ne(self, col: str, rhs: str) -> str:
        return f"{col} IS DISTINCT FROM {rhs}"

    def _compatible(self, col_class: str, value_class: str) -> bool:
        if col_class == "null":
            return False
        if _is_numeric(value_class):
            return _is_numeric(col_class)
        return col_class == value_class

    def entry(self, col: str, col_class: str, value: object, params: list) -> str:
        if isinstance(value, OneOf):
            return self._one_of(col, col_class, value.values, params)
        if isinstance(value, NotValue):
            target_class = _value_class(value.value)
            if value.value is None:
                return f"{col} IS NOT NULL"
            if not self._compatible(col_class, target_class):
                return "1=1"  # every cell (NULL included) differs in Python
            params.append(value.value)
            return self.ne(col, "?")
        if isinstance(value, Range):
            return self._range(col, col_class, value, params)
        value_class = _value_class(value)
        if value is None:
            return f"{col} IS NULL"
        if not self._compatible(col_class, value_class):
            return "0=1"
        params.append(value)
        return self.eq(col, "?")

    def _one_of(
        self, col: str, col_class: str, values: frozenset, params: list
    ) -> str:
        rest = sorted(
            (v for v in values if v is not None), key=lambda v: (str(type(v)), repr(v))
        )
        compatible = [
            v for v in rest if self._compatible(col_class, _value_class(v))
        ]
        branches = []
        if compatible:
            params.extend(compatible)
            placeholders = ", ".join("?" for _ in compatible)
            branches.append(f"{col} IN ({placeholders})")
        if None in values:
            branches.append(f"{col} IS NULL")
        if not branches:
            return "0=1"
        return "(" + " OR ".join(branches) + ")"

    def _range(self, col: str, col_class: str, predicate: Range, params: list) -> str:
        bound_class = _value_class(predicate.bound)
        if bound_class == "null" or not self._compatible(col_class, bound_class):
            return "0=1"
        params.append(predicate.bound)
        # NULL cells propagate NULL, which the IS NOT TRUE wrapper (RHS)
        # and WHERE falsiness (LHS) both read as "no match", like Python.
        return f"({col} {predicate.op} ?)"


_DIALECTS = {"sqlite": _SqliteDialect(), "duckdb": _DuckDBDialect()}


# ---------------------------------------------------------------------------
# Statement compilation (per normal form, parameters bound)
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
    """Compiles normalized Σ into parameterized statements for one handle."""

    def __init__(self, dialect, table: str, schema, col_classes: dict[str, str]):
        self._dialect = dialect
        self._table = _quote_ident(table)
        self._schema = schema
        self._classes = col_classes
        self._key_attrs = tuple(
            schema.attributes[p] for p in schema.key_positions()
        )

    def _col(self, attr: str, qualifier: str = "") -> str:
        return qualifier + _quote_ident(attr)

    def _match(
        self,
        attrs: Sequence[str],
        row: Sequence[object],
        params: list,
        qualifier: str = "",
    ) -> str:
        parts = [
            self._dialect.entry(
                self._col(attr, qualifier), self._classes[attr], value, params
            )
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
        rhs = self._dialect.entry(
            self._col(form.rhs_attr),
            self._classes[form.rhs_attr],
            form.rhs_value,
            params,
        )
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
                self._dialect.eq(self._col(a, "d."), self._col(a, "g."))
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


# ---------------------------------------------------------------------------
# Persistent per-relation handles
# ---------------------------------------------------------------------------

class SQLRelationHandle:
    """A relation loaded once into a database, ready for repeated detection.

    Holds the connection, the compiled-statement cache and a lock (the
    resident service calls engines from request threads).  Obtained via
    :func:`sql_handle`, which keeps a small LRU of live handles so repeat
    detections on the same relation skip the load entirely.
    """

    TABLE = "D"

    __slots__ = (
        "relation",
        "backend",
        "_connection",
        "_compiler",
        "_plans",
        "_lock",
    )

    def __init__(self, relation: Relation, backend: str) -> None:
        self.relation = relation
        self.backend = backend
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        classes = _column_classes(relation)
        col_classes = {
            attr: _class_of_column(found) for attr, found in classes.items()
        }
        if backend == "duckdb":
            types = _duckdb_schema(relation)
            if types is None:
                raise SQLEngineError(
                    "relation has mixed-type columns duckdb cannot store "
                    "faithfully; use REPRO_SQL_BACKEND=sqlite (or auto)"
                )
            self._connection = self._connect_duckdb(relation, types)
        else:
            self._connection = self._connect_sqlite(relation)
        self._compiler = _Compiler(
            _DIALECTS[backend], self.TABLE, relation.schema, col_classes
        )

    def _connect_sqlite(self, relation: Relation):
        connection = sqlite3.connect(":memory:", check_same_thread=False)
        connection.execute(create_table_sql(relation, self.TABLE))
        self._load(connection, relation)
        return connection

    def _connect_duckdb(self, relation: Relation, types: dict[str, str]):
        import duckdb

        connection = duckdb.connect(":memory:")
        threads = max(1, os.cpu_count() or 1)
        connection.execute(f"PRAGMA threads={threads}")
        columns = ", ".join(
            f"{_quote_ident(attr)} {column_type}"
            for attr, column_type in types.items()
        )
        connection.execute(
            f"CREATE TABLE {_quote_ident(self.TABLE)} ({columns})"
        )
        self._load(connection, relation)
        return connection

    def _load(self, connection, relation: Relation) -> None:
        if not relation.rows:
            return
        placeholders = ", ".join("?" for _ in relation.schema.attributes)
        connection.executemany(
            f"INSERT INTO {_quote_ident(self.TABLE)} VALUES ({placeholders})",
            relation.rows,
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

    def execute(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Run one ad-hoc statement on the loaded table (for the tests
        that execute the *display-path* SQL against the engine's own
        database, pinning generation helpers and engine together)."""
        with self._lock:
            return [
                tuple(row)
                for row in self._connection.execute(sql, params).fetchall()
            ]

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except Exception:
                pass


#: live handles, LRU by relation identity.  Entries hold a strong
#: reference to the relation (via the handle), so an id() key can never be
#: reused while its entry is alive; identity is re-checked on probe anyway.
_HANDLES: OrderedDict[tuple[int, str], SQLRelationHandle] = OrderedDict()
_HANDLES_CAP = 8
_HANDLES_LOCK = threading.Lock()


def resolve_handle_cap(override: int | None = None) -> int:
    """The handle-cache bound (``REPRO_SQL_HANDLES``, default 8).

    Each cached entry is a live database connection pinning its relation
    in memory, so the cache is a bounded LRU that *closes* what it
    evicts — this knob sizes it for hosts juggling many relations.
    Malformed values fail loudly (the CLI maps the ValueError to exit
    code 2, like every other knob).
    """
    if override is not None:
        value = override
    else:
        raw = os.environ.get("REPRO_SQL_HANDLES")
        if raw is None or raw == "":
            return _HANDLES_CAP
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_SQL_HANDLES must be a positive integer, got {raw!r}"
            ) from None
    if value < 1:
        raise ValueError(f"REPRO_SQL_HANDLES must be >= 1, got {value!r}")
    return value


def _backend_for(relation: Relation, preference: str) -> str:
    if preference == "sqlite":
        return "sqlite"
    if preference == "duckdb":
        return "duckdb"
    if duckdb_enabled() and _duckdb_schema(relation) is not None:
        return "duckdb"
    return "sqlite"


def sql_handle(
    relation: Relation, backend: str | None = None
) -> SQLRelationHandle:
    """The (cached) database handle for a relation.

    ``backend`` follows :func:`resolve_sql_backend` (``None`` → the
    ``REPRO_SQL_BACKEND`` environment, default ``auto``: duckdb when
    importable and the data is cleanly typed, sqlite otherwise).
    """
    preference = resolve_sql_backend(backend)
    resolved = _backend_for(relation, preference)
    cap = resolve_handle_cap()
    key = (id(relation), resolved)
    with _HANDLES_LOCK:
        handle = _HANDLES.get(key)
        if handle is not None and handle.relation is relation:
            _HANDLES.move_to_end(key)
            return handle
    handle = SQLRelationHandle(relation, resolved)
    evicted = []
    with _HANDLES_LOCK:
        racer = _HANDLES.get(key)
        if racer is not None and racer.relation is relation:
            _HANDLES.move_to_end(key)
            handle.close()
            return racer
        while len(_HANDLES) >= cap:
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
    backend: str | None = None,
) -> ViolationReport:
    """``Vioπ(Σ, D)`` plus tuple keys, computed inside a SQL database.

    The fourth engine (``REPRO_ENGINE=sql``): loads the relation once into
    a persistent per-relation handle, compiles all of normalized Σ into
    one batched, parameterized statement set (``Q_C`` scans and NULL-aware
    ``Q_V`` GROUP BYs — see the module docstring for the exact NULL and
    typing contract) and decodes result rows back into a
    :class:`ViolationReport` bit-identical to the reference engine.
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    cfds = list(cfds)
    handle = sql_handle(relation, backend)
    return handle.detect(cfds, collect_tuples)


def run_detection_on_sqlite(
    relation: Relation, cfds: CFD | Iterable[CFD]
) -> set[tuple[str, tuple]]:
    """Execute the *display-path* SQL on the engine's sqlite handle.

    Returns ``{(cfd_name, x_values), ...}`` — the ``Vioπ`` entries — for
    direct comparison with :func:`repro.core.detect_violations`.  The
    statements are the literal-rendered ones of :func:`violation_sql`
    (the paper's "centralized SQL technique" made runnable); they run on
    the same table :func:`detect_violations_sql` loads, so the generation
    helpers and the engine cannot drift apart.
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    handle = sql_handle(relation, backend="sqlite")
    found: set[tuple[str, tuple]] = set()
    for cfd in cfds:
        for query in violation_sql(cfd, SQLRelationHandle.TABLE):
            for row in handle.execute(query):
                found.add((cfd.name, tuple(row)))
    return found

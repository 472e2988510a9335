"""Centralized CFD violation detection (the SQL technique of [2]).

Given a set Σ of CFDs and a relation ``D`` held at one site, [2] generates a
fixed number of SQL queries that compute ``Vio(Σ, D)``: per CFD, a scan
catches single-tuple violations of the constant normal forms, and a GROUP BY
on ``X`` over the tuples matching the pattern tableau catches pairwise
violations of the variable normal forms.  This module is the same plan on
our relational engine; it is both the baseline detector and the local
checking step every distributed algorithm runs at coordinator sites.

Three engines implement the plan:

* the **reference** engine below — one scan per normal form, row tuples
  and hash tables rebuilt per query.  It is the executable spec every
  other detector (fused, distributed, SQL) is tested against;
* the **fused** engine (:mod:`repro.core.fused`) — a single pass over the
  relation's cached columnar encoding evaluating all of Σ at once, with
  the per-form folds vectorized over the store's ``int32`` code arrays
  (boolean-mask constant tests, group-reduce conflict detection);
* the **sql** engine (:mod:`repro.core.sql`) — the paper's technique run
  *literally*: the relation loaded once into a persistent stdlib sqlite3
  database and all of normalized Σ compiled into one parameterized
  statement set (the statements ``repro sql`` prints), result rows
  decoded back into a report.

:func:`detect_violations` dispatches between them: pass
``engine="reference" | "fused" | "sql"``, or set the ``REPRO_ENGINE``
environment variable to the same values (the engine conformance matrix in
the test suite does exactly that).  With neither given (``"auto"``),
detection runs the fused engine.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..knobs import ENGINES, resolve  # ENGINES: re-exported by repro.core
from ..relational import Relation
from .cfd import CFD
from .normalize import (
    ConstantCFD,
    NormalizedCFD,
    VariableCFD,
    normalize_all,
    pattern_index,
)
from .violations import Violation, ViolationReport


def detect_constant(
    relation: Relation,
    constant: ConstantCFD,
    collect_tuples: bool = True,
) -> ViolationReport:
    """Scan for single-tuple violations of one constant normal form."""
    schema = relation.schema
    cond_pos = schema.positions(constant.lhs)
    rhs_pos = schema.position(constant.rhs_attr)
    report_pos = schema.positions(constant.report_lhs)
    key_pos = schema.key_positions()

    report = ViolationReport()
    for row in relation.rows:
        if not constant.violated_by(
            tuple(row[p] for p in cond_pos), row[rhs_pos]
        ):
            continue
        report.add(
            Violation(
                cfd=constant.source,
                lhs_attributes=constant.report_lhs,
                lhs_values=tuple(row[p] for p in report_pos),
            )
        )
        if collect_tuples:
            report.add_tuple_key(tuple(row[p] for p in key_pos))
    return report


def detect_variable(
    relation: Relation,
    variable: VariableCFD,
    collect_tuples: bool = True,
) -> ViolationReport:
    """GROUP BY ``X`` detection of pairwise violations of a variable CFD.

    A group of tuples agreeing on ``X`` (and matching some pattern row)
    violates iff it takes at least two distinct values on some RHS
    attribute.
    """
    schema = relation.schema
    lhs_pos = schema.positions(variable.lhs)
    rhs_pos = schema.positions(variable.rhs)
    key_pos = schema.key_positions()
    index = pattern_index(variable.patterns)

    # x-value -> (first rhs tuple, conflicting?)  plus optional member keys
    groups: dict[tuple, list] = {}
    match_cache: dict[tuple, bool] = {}
    for row in relation.rows:
        x = tuple(row[p] for p in lhs_pos)
        matched = match_cache.get(x)
        if matched is None:
            matched = index.matches_any(x)
            match_cache[x] = matched
        if not matched:
            continue
        y = tuple(row[p] for p in rhs_pos)
        state = groups.get(x)
        if state is None:
            groups[x] = [y, False, [tuple(row[p] for p in key_pos)] if collect_tuples else None]
        else:
            if y != state[0]:
                state[1] = True
            if collect_tuples:
                state[2].append(tuple(row[p] for p in key_pos))

    report = ViolationReport()
    for x, (first_y, conflicting, keys) in groups.items():
        if not conflicting:
            continue
        report.add(
            Violation(
                cfd=variable.source,
                lhs_attributes=variable.lhs,
                lhs_values=x,
            )
        )
        if collect_tuples:
            for key in keys:
                report.add_tuple_key(key)
    return report


def detect_normalized(
    relation: Relation,
    normalized: NormalizedCFD,
    collect_tuples: bool = True,
) -> ViolationReport:
    """Violations of one CFD given in normal form."""
    report = ViolationReport()
    for constant in normalized.constants:
        report.merge(detect_constant(relation, constant, collect_tuples))
    for variable in normalized.variables:
        report.merge(detect_variable(relation, variable, collect_tuples))
    return report


def detect_violations_reference(
    relation: Relation,
    cfds: CFD | Iterable[CFD],
    collect_tuples: bool = True,
) -> ViolationReport:
    """``Vioπ(Σ, D)`` by the literal per-normal-form SQL plan of [2].

    This is the reference oracle: the fused engine and every distributed
    algorithm must agree with it bit-for-bit (violations and tuple keys),
    which the test suite asserts both on the paper's running example and
    property-based random instances.  Reports merge in CFD order.
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    return ViolationReport.union(
        [
            detect_normalized(relation, normalized, collect_tuples)
            for normalized in normalize_all(cfds)
        ]
    )


def detect_violations(
    relation: Relation,
    cfds: CFD | Iterable[CFD],
    collect_tuples: bool = True,
    engine: str | None = None,
) -> ViolationReport:
    """``Vioπ(Σ, D)`` (plus violating tuple keys) on a centralized relation.

    This is the library's central detection entry point: the CLI, the
    experiment harness and every distributed detector's local check land
    here.  One knob selects how the plan executes:

    ``engine``
        The execution backend: ``"fused"`` (single-pass columnar
        evaluation of all of Σ with vectorized folds), ``"sql"`` (the plan
        compiled to parameterized statements and run inside a persistent
        sqlite3 database — see :mod:`repro.core.sql`), ``"reference"``
        (one scan per normal form — the executable spec) or ``"auto"``
        (the fused engine).  When ``None``, the ``REPRO_ENGINE``
        environment variable decides, defaulting to ``"auto"``.  An
        unknown name raises :class:`ValueError`.
    """
    engine = resolve("REPRO_ENGINE", engine)
    if engine in ("auto", "fused"):
        from .fused import fused_detect

        return fused_detect(relation, cfds, collect_tuples)
    if engine == "reference":
        return detect_violations_reference(relation, cfds, collect_tuples)
    from .sql import detect_violations_sql  # engine == "sql"

    return detect_violations_sql(relation, cfds, collect_tuples)


def check_cost(n_tuples: int, n_cfds: int = 1) -> float:
    """The paper's estimate of local checking cost: ``|D| · log |D|``.

    Used by the Section III-B response-time model; scaled by the number of
    CFDs checked since each runs its own GROUP BY query.
    """
    if n_tuples <= 0:
        return 0.0
    return float(n_cfds) * n_tuples * math.log2(n_tuples + 1)

"""Fused single-pass detection of a whole CFD set Σ over the columnar backend.

The reference detector (:func:`repro.core.detection.detect_violations_reference`)
replays the SQL plan of [2] literally: one scan of the row tuples per
constant normal form, one scan plus one hash GROUP BY per variable normal
form — O(|Σ| · |D|) passes that re-materialize Python tuples and rebuild
hash tables every time.  This module is the same mathematics restructured
so each row tuple is *touched once*:

1. **One pass over the tuples.**  The relation's cached
   :class:`~repro.relational.columnar.ColumnStore` dictionary-encodes each
   referenced attribute the first time it is needed; that encoding scan is
   the only place raw row tuples are hashed.  Composite
   :class:`~repro.relational.columnar.KeyColumn` views assign every row the
   ordinal of its distinct X (and Y) combination, shared by every normal
   form with the same attribute list — and shared with ``group_by``,
   ``join`` and ``HashIndex``, and across repeated detections, because the
   store is cached on the immutable relation.

2. **Per-form vectorized folds over integer codes.**  Each constant
   normal form compiles to per-column *code* tests (a pattern constant
   missing from a column proves no row can match, so the form drops out
   entirely; an eCFD predicate is evaluated once per distinct value, never
   per row), which become boolean masks over the store's cached ``int32``
   code arrays — one lookup table per referenced column.  Each variable
   normal form probes its :class:`PatternIndex` once per distinct X group
   — the shared σ trie of Section IV-B — and finds the conflicting groups
   by a sort-free group-reduce: a scatter elects one representative Y code
   per σ-matched X group, and a group conflicts iff some of its rows
   disagrees with the representative.  No tuple construction, no value
   hashing.  Each firing form only records its violating rows; they OR
   into one row mask once every form has run, so a row that several
   forms flag has its tuple key projected once and the detection builds
   one report.  The first collection over a store projects the rows; on
   repeat detections the keys are gathered through the relation's key
   :class:`~repro.relational.columnar.KeyColumn`, whose pre-built value
   tuples make the set allocation-free.

The output is bit-for-bit the reference detector's :class:`ViolationReport`
(violations *and* violating tuple keys), which the property-based suites
assert on random relations and CFD sets across every engine.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

import numpy as _np

from ..relational import Relation
from ..relational.columnar import ColumnStore, column_store
from .cfd import CFD, matches
from .epatterns import is_predicate
from .normalize import (
    ConstantCFD,
    PatternIndex,
    VariableCFD,
    normalize_all,
    pattern_index,
)
from .violations import Violation, ViolationReport


def _project_rows(
    rows: Sequence[tuple], ids: Sequence[int], positions: tuple[int, ...]
):
    """Iterate ``rows[i][positions]`` tuples for ``i`` in ``ids``, C-speed.

    ``itemgetter`` with several positions yields the projection tuples
    directly; a single position is wrapped through one-iterable ``zip`` to
    get 1-tuples without a Python-level loop.
    """
    fetched = map(rows.__getitem__, ids)
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), fetched))
    return map(itemgetter(*positions), fetched)


# -- constant normal forms ----------------------------------------------------


def _compile_constant(store: ColumnStore, constant: ConstantCFD):
    """Compile one constant form to code-level tests, or ``None`` if it can
    never fire on this relation (a required constant is absent, or no value
    of the RHS column violates the pattern).

    Each check pairs a column with the set of codes its pattern entry
    accepts.
    """
    checks = []
    for attr, value in zip(constant.lhs, constant.values):
        column = store.column(attr)
        if is_predicate(value):
            allowed = frozenset(
                code for code, v in enumerate(column.values) if value.matches(v)
            )
        else:
            code = column.code_of.get(value)
            allowed = frozenset((code,)) if code is not None else frozenset()
        if not allowed:
            return None
        checks.append((column, allowed))
    rhs_column = store.column(constant.rhs_attr)
    bad = frozenset(
        code
        for code, v in enumerate(rhs_column.values)
        if not matches(v, constant.rhs_value)
    )
    if not bad:
        return None
    return checks, rhs_column, bad


def _code_mask(column, accepted: frozenset):
    """Boolean row mask "this column's code is in ``accepted``", via a
    per-column lookup table (cheaper than ``np.isin`` for dictionary-sized
    alphabets)."""
    codes = column.codes_array()
    if len(accepted) == 1:
        (code,) = accepted
        return codes == code
    table = _np.zeros(column.n_distinct, dtype=bool)
    table[list(accepted)] = True
    return table[codes]


def _constant_hits(checks, rhs_column, bad):
    """Row ids violating one constant form, as one boolean-mask conjunction."""
    mask = _code_mask(rhs_column, bad)
    for column, allowed in checks:
        mask &= _code_mask(column, allowed)
    return _np.nonzero(mask)[0]


def _scan_constants(
    store: ColumnStore,
    constants: Sequence[ConstantCFD],
    report: ViolationReport,
    hits: list,
) -> None:
    """Add each constant form's violations to ``report`` and its violating
    row ids to ``hits``."""
    rows = store.rows
    for constant in constants:
        plan = _compile_constant(store, constant)
        if plan is None:
            continue
        ids = _constant_hits(*plan)
        if not len(ids):
            continue
        report_pos = store.schema.positions(constant.report_lhs)
        for values in set(_project_rows(rows, ids.tolist(), report_pos)):
            report.add(
                Violation(
                    cfd=constant.source,
                    lhs_attributes=constant.report_lhs,
                    lhs_values=values,
                )
            )
        hits.append(ids)


# -- variable normal forms ----------------------------------------------------


def _variable_conflicts(x_key, y_key, matched):
    """Conflicting X-group ordinals by a sort-free group-reduce.

    One scatter (last write wins) elects a representative Y code per
    σ-matched X group; a group takes at least two distinct Y codes iff some
    of its rows disagrees with the representative.  Three passes over the
    code arrays, no sorting, no hashing.
    """
    x = x_key.codes_array()
    y = y_key.codes_array()
    matched_arr = _np.fromiter(matched, dtype=bool, count=x_key.n_groups)
    if matched_arr.all():
        xs, ys = x, y
    else:
        keep = matched_arr[x]
        xs = x[keep]
        ys = y[keep]
    representative = _np.empty(x_key.n_groups, dtype=ys.dtype)
    representative[xs] = ys  # unmatched groups keep garbage, never read
    conflict = _np.zeros(x_key.n_groups, dtype=bool)
    conflict[xs[ys != representative[xs]]] = True
    return _np.nonzero(conflict)[0].tolist()


def group_segments(codes):
    """Segment an ``int`` code array into per-group contiguous runs.

    The shared kernel behind the vectorized delta folds: one stable
    argsort brings equal codes together, then the run boundaries fall out
    of a single vectorized comparison.  Returns ``(order, starts, ends)``
    — ``order[starts[k]:ends[k]]`` are the original positions of the
    ``k``-th distinct code, and because codes are first-seen ordinals
    everywhere in this library, segments come back in first-seen order,
    exactly like a row-at-a-time fold would visit the groups.
    """
    order = _np.argsort(codes, kind="stable")
    ordered = codes[order]
    bounds = _np.nonzero(ordered[1:] != ordered[:-1])[0] + 1
    edges = bounds.tolist()
    return order, [0, *edges], [*edges, len(ordered)]


def _collect_keys(store: ColumnStore, hits: list) -> set[tuple]:
    """The key projections of every row in ``hits`` (row-id arrays or
    boolean row masks), gathered once: the hits OR into one row mask, so a
    row that several forms flag is projected once.

    Decoding through the key :class:`KeyColumn`'s pre-built value tuples
    makes repeat detections allocation-free, but building that column costs
    one pass over the relation — a loss for one-shot runs.  The first
    collection over a store projects the rows and leaves a breadcrumb in
    ``store.scratch``; from the second on (the columnar caches are warm,
    the store is evidently being reused) the key column pays for itself.
    """
    mask = _np.zeros(len(store.rows), dtype=bool)
    for hit in hits:
        mask[hit] = True
    ids = _np.flatnonzero(mask)
    if store.scratch.get("keys_collected", False):
        key_column = store.key_column(store.schema.key)
        codes = key_column.codes_array()[ids].tolist()
        return set(map(key_column.values.__getitem__, codes))
    store.scratch["keys_collected"] = True
    key_pos = store.schema.key_positions()
    return set(_project_rows(store.rows, ids.tolist(), key_pos))


def _scan_variables(
    store: ColumnStore,
    variables: Sequence[tuple[VariableCFD, PatternIndex]],
    report: ViolationReport,
    hits: list,
) -> None:
    """Add each variable form's violations to ``report`` and its violating
    rows, as a boolean row mask, to ``hits``."""
    for variable, index in variables:
        x_key = store.key_column(variable.lhs)
        y_key = store.key_column(variable.rhs)
        # σ membership once per distinct X combination, not per row
        matched = [index.matches_any(values) for values in x_key.values]
        conflicting = _variable_conflicts(x_key, y_key, matched)
        if not conflicting:
            continue
        for g in conflicting:
            report.add(
                Violation(
                    cfd=variable.source,
                    lhs_attributes=variable.lhs,
                    lhs_values=x_key.values[g],
                )
            )
        # every member of a conflicting group is a violating tuple
        group_mask = _np.zeros(x_key.n_groups, dtype=bool)
        group_mask[conflicting] = True
        hits.append(group_mask[x_key.codes_array()])


def _detect(
    relation: Relation,
    constants: Sequence[ConstantCFD],
    variables: Sequence[tuple[VariableCFD, PatternIndex]],
    collect_tuples: bool,
) -> ViolationReport:
    """Every form's violations, and the violating tuple keys collected once."""
    report = ViolationReport()
    if not relation.rows:
        return report
    store = column_store(relation)
    hits: list = []
    _scan_constants(store, constants, report, hits)
    _scan_variables(store, variables, report, hits)
    if collect_tuples and hits:
        report.tuple_keys = _collect_keys(store, hits)
    return report


# -- public API ---------------------------------------------------------------


def detect_constants(
    relation: Relation,
    constants: Sequence[ConstantCFD],
    collect_tuples: bool = True,
) -> ViolationReport:
    """Violations of several constant normal forms, over the columnar store."""
    return _detect(relation, constants, (), collect_tuples)


class FusedDetector:
    """Σ compiled once — normal forms and σ pattern indexes — then evaluated
    against any number of relations.

    The per-relation columnar state lives on the relations themselves, so a
    detector instance is stateless across calls and cheap to share.
    """

    __slots__ = ("cfds", "normalized", "_constants", "_variables")

    def __init__(self, cfds: CFD | Iterable[CFD]) -> None:
        if isinstance(cfds, CFD):
            cfds = [cfds]
        self.cfds = list(cfds)
        self.normalized = normalize_all(self.cfds)
        self._constants = [
            constant for nf in self.normalized for constant in nf.constants
        ]
        self._variables = [
            (variable, pattern_index(variable.patterns))
            for nf in self.normalized
            for variable in nf.variables
        ]

    def detect(
        self, relation: Relation, collect_tuples: bool = True
    ) -> ViolationReport:
        """``Vioπ(Σ, D)`` plus violating tuple keys, fused over one encoding
        pass of ``relation``."""
        return _detect(
            relation, self._constants, self._variables, collect_tuples
        )


def fused_detect(
    relation: Relation,
    cfds: CFD | Iterable[CFD],
    collect_tuples: bool = True,
) -> ViolationReport:
    """One-shot fused detection (compile Σ, then :meth:`FusedDetector.detect`)."""
    return FusedDetector(cfds).detect(relation, collect_tuples)

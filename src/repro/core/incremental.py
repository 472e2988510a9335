"""Incremental violation detection: maintain ``Vioπ(Σ, D)`` across updates.

The paper's second headline contribution, next to one-shot distributed
detection, is *incremental* detection: when ``D`` receives a batch of
inserted/deleted tuples, the violations of Σ should be maintained by
inspecting only the delta and the affected σ groups — never by rescanning
``D``.  This module is the centralized half of that claim (the
distributed half lives in :mod:`repro.detect.incremental`):

* a :class:`ViolationDelta` — the violations and violating tuple keys a
  batch *added* and *removed*;
* an :class:`IncrementalDetector`, which wraps a compiled
  :class:`~repro.core.fused.FusedDetector` and caches per-normal-form
  state between updates:

  - **constant forms** keep nothing but a router compiled once per
    session: a single tuple witnesses (or stops witnessing) a constant
    violation on its own, so a batch folds in O(|ΔD|) — inserted rows
    count hits in, deleted rows count them back out
    (:class:`ConstantFolds`);
  - **variable forms** keep, per σ-matched ``X`` group, the multiset of
    RHS combinations and of member tuple keys
    (:class:`VariableGroupState`).  A batch touches only the groups its
    rows fall into; a group flips between clean and conflicting exactly
    when its count of distinct RHS combinations crosses two.

  Both feed shared :class:`TransitionCounter`\\ s — multisets of
  violations/keys whose zero crossings *are* the :class:`ViolationDelta`
  (the same violation witnessed by two forms, or the same key by two
  rows, only disappears when the last witness does).

Engine semantics follow the rest of the library: ``reference`` (the
executable spec the property suites compare against) and ``sql``
recompute the full report per update and diff it; ``fused`` runs true
delta folds.  Its variable-form fold is vectorized over the batch: it
codes the batch once through the state's session dictionaries and
scatters signed counts per distinct ``(x_code, y_code)`` combination
instead of flipping multisets row by row
(:meth:`VariableGroupState.fold_signed`).  Updates arrive either as
:class:`~repro.relational.delta.DeltaRelation` versions (``apply``) or as
explicit row batches (``update``, which builds the versions itself).
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as _np

from ..relational import Relation, SchemaError
from .cfd import CFD, matches, tuple_matches
from .detection import ENGINES, detect_violations_reference
from .epatterns import is_predicate
from .fused import FusedDetector, _project_rows, group_segments
from .normalize import ConstantCFD, VariableCFD, pattern_index, projector
from .violations import Violation, ViolationReport


class ViolationDelta:
    """What one update batch changed: violations/keys added and removed.

    Both sides are plain :class:`ViolationReport`\\ s, so delta consumers
    (dashboards, downstream repair queues) reuse the ordinary report API.
    Deltas built by the counters (:func:`commit_counters`) materialize
    those reports lazily — a session absorbing batches in a tight loop
    never pays for delta reports nobody reads.
    """

    __slots__ = ("_added", "_removed", "_raw", "_wrap")

    def __init__(
        self,
        added: ViolationReport | None = None,
        removed: ViolationReport | None = None,
    ) -> None:
        self._added = added if added is not None else ViolationReport()
        self._removed = removed if removed is not None else ViolationReport()
        self._raw = None
        self._wrap = False

    @classmethod
    def deferred(cls, v_added, k_added, v_removed, k_removed, wrap_keys):
        """A delta over raw counter output, materialized on first access."""
        delta = cls.__new__(cls)
        delta._added = None
        delta._removed = None
        delta._raw = (v_added, k_added, v_removed, k_removed)
        delta._wrap = wrap_keys
        return delta

    def _materialize(self) -> None:
        v_added, k_added, v_removed, k_removed = self._raw
        self._added = ViolationReport(v_added, _wrap(k_added, self._wrap))
        self._removed = ViolationReport(
            v_removed, _wrap(k_removed, self._wrap)
        )
        self._raw = None

    @property
    def added(self) -> ViolationReport:
        if self._added is None:
            self._materialize()
        return self._added

    @property
    def removed(self) -> ViolationReport:
        if self._removed is None:
            self._materialize()
        return self._removed

    def __bool__(self) -> bool:  # truthiness = "something changed"
        if self._raw is not None:
            return any(self._raw)
        return bool(
            self.added.violations
            or self.removed.violations
            or self.added.tuple_keys
            or self.removed.tuple_keys
        )

    def __repr__(self) -> str:
        return (
            f"ViolationDelta(+{len(self.added)} / -{len(self.removed)} Vioπ, "
            f"+{len(self.added.tuple_keys)} / "
            f"-{len(self.removed.tuple_keys)} keys)"
        )


def _restore_counts(counts: dict, journal: dict) -> None:
    """Put every journalled entry of a count table back to its prior
    count (the rollback half of a first-touch ``entry -> prior`` journal)."""
    for key, prior in journal.items():
        if prior > 0:
            counts[key] = prior
        else:
            counts.pop(key, None)


class TransitionCounter:
    """A multiset that captures zero crossings per update batch.

    Counts are witness counts — how many (form, row) or (form, group)
    facts currently assert an item.  ``begin`` opens a batch; every
    ``add`` toggles the item in a *crossing set* whenever its positivity
    flips, so an item's membership after the batch records whether it
    crossed zero an odd number of times — which is exactly "its
    positivity changed".  ``commit`` splits the set by current sign (an
    item bumped up and back down within one batch appears in neither
    list).  Tracking only actual crossings keeps both ``add`` and
    ``commit`` proportional to what changed, not to what was touched —
    the property the vectorized delta folds lean on.

    Batches are **transactional**: while one is open, the first touch of
    each item records its prior count in an undo log, so
    :meth:`rollback` restores the exact pre-batch multiset in
    O(|touched|) — never a full copy of the counts (which would undo the
    delta engine's complexity claim).
    """

    __slots__ = ("counts", "_went_up", "_went_down", "_undo")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._went_up: set | None = None
        self._went_down: set | None = None
        self._undo: dict | None = None

    def begin(self) -> None:
        self._went_up = set()
        self._went_down = set()
        self._undo = {}

    def _cross(self, item, up: bool) -> None:
        if up:
            if item in self._went_down:
                self._went_down.discard(item)
            else:
                self._went_up.add(item)
        else:
            if item in self._went_up:
                self._went_up.discard(item)
            else:
                self._went_down.add(item)

    def add(self, item, n: int = 1) -> None:
        count = self.counts.get(item, 0)
        undo = self._undo
        if undo is not None and item not in undo:
            undo[item] = count
        new = count + n
        if new > 0:
            self.counts[item] = new
        elif new == 0:
            self.counts.pop(item, None)
        else:
            raise ValueError(
                f"witness count of {item!r} fell below zero: the update "
                "removed rows that were never inserted"
            )
        if self._went_up is not None and (count > 0) != (new > 0):
            self._cross(item, new > 0)

    def add_bulk(self, items: Iterable, sign: int) -> None:
        """Bulk single-sign :meth:`add` — the per-row hot path of the
        vectorized folds, built from C-level primitives.

        ``sign > 0``: the crossers are exactly the items absent before
        the bulk (one set comprehension), the counting is one
        :meth:`Counter.update`, and the crossing sets advance with whole-
        set arithmetic.  ``sign < 0`` mirrors it with
        :meth:`Counter.subtract` plus a per-distinct sweep that purges
        zeros (the counts dict never stores non-positive entries) and
        spots underflows.
        """
        counts = self.counts
        undo = self._undo
        if sign > 0:
            crossers = {item for item in items if item not in counts}
            if undo is not None:
                for item in items:
                    if item not in undo:
                        undo[item] = counts.get(item, 0)
            counts.update(items)
        else:
            distinct = set(items)
            if undo is not None:
                for item in distinct:
                    if item not in undo:
                        undo[item] = counts.get(item, 0)
            counts.subtract(items)
            if min(map(counts.__getitem__, distinct), default=1) < 0:
                bad = next(k for k in distinct if counts[k] < 0)
                raise ValueError(
                    f"witness count of {bad!r} fell below zero: the "
                    "update removed rows that were never inserted"
                )
            crossers = {item for item in distinct if not counts[item]}
            for item in crossers:
                del counts[item]
        if self._went_up is None or not crossers:
            return
        if sign > 0:
            returning = crossers & self._went_down
            self._went_down -= returning
            self._went_up |= crossers - returning
        else:
            returning = crossers & self._went_up
            self._went_up -= returning
            self._went_down |= crossers - returning

    def commit(self) -> tuple[list, list]:
        """Close the batch; return (newly positive, newly gone) items."""
        added = list(self._went_up)
        removed = list(self._went_down)
        self._went_up = None
        self._went_down = None
        self._undo = None
        return added, removed

    def rollback(self) -> None:
        """Restore the exact pre-batch multiset; close the batch.

        O(|items touched since begin|).  A no-op when no batch is open,
        so a failed operation can always call it unconditionally.
        """
        undo = self._undo
        self._undo = None
        self._went_up = None
        self._went_down = None
        if undo is not None:
            _restore_counts(self.counts, undo)

    def positive(self):
        """All items with a positive count (counts are never kept at 0)."""
        return self.counts.keys()


def _project_keys(rows: Sequence[tuple], ids, key_pos: tuple[int, ...]):
    """Key projections of the given rows — *raw* values for
    single-attribute keys.

    The key counters run hottest of all the incremental state (every
    violating-row event hashes a key), so for the overwhelmingly common
    single-attribute key they carry the bare value instead of a 1-tuple —
    no per-row tuple allocation, cheaper hashing.  The report boundary
    (:func:`commit_counters` / :func:`counters_report` with
    ``wrap_keys=True``) restores the tuple form the
    :class:`ViolationReport` contract requires.
    """
    if len(key_pos) == 1:
        return map(itemgetter(key_pos[0]), map(rows.__getitem__, ids))
    return _project_rows(rows, ids, key_pos)


def _wrap(keys_iterable, wrap_keys: bool):
    if wrap_keys:
        return [(key,) for key in keys_iterable]
    return keys_iterable


def commit_counters(
    violations: TransitionCounter,
    keys: TransitionCounter,
    wrap_keys: bool = False,
) -> ViolationDelta:
    """Close both counters' batches into one :class:`ViolationDelta`.

    ``wrap_keys`` restores 1-tuple form for key items the folds carried
    raw (single-attribute keys, see :func:`_project_keys`).  The delta's
    reports materialize lazily; the key crossing sets transfer by
    reference, so closing a batch is O(|violation crossings|), not
    O(|key crossings|).
    """
    v_added, v_removed = violations.commit()
    k_added = keys._went_up
    k_removed = keys._went_down
    keys._went_up = None
    keys._went_down = None
    keys._undo = None
    return ViolationDelta.deferred(
        v_added, k_added, v_removed, k_removed, wrap_keys
    )


def counters_report(
    violations: TransitionCounter,
    keys: TransitionCounter,
    wrap_keys: bool = False,
) -> ViolationReport:
    """The counters' current positive entries as a fresh report copy."""
    return ViolationReport(
        violations.positive(), _wrap(keys.positive(), wrap_keys)
    )


def counters_size(
    violations: TransitionCounter, keys: TransitionCounter
) -> tuple[int, int]:
    """``(len(report.violations), len(report.tuple_keys))`` of
    :func:`counters_report`, without building the report: the counters
    never keep a non-positive count, so the sizes are two ``len()``\\ s."""
    return len(violations.counts), len(keys.counts)


# -- constant normal forms ----------------------------------------------------


class ConstantFolds:
    """Delta folds for a set of constant normal forms.

    Stateless between batches (a constant violation is a per-row fact),
    and routed once per session: the forms compile against the *schema*,
    not against each batch.  Forms sharing an ``lhs`` attribute list share
    one projection; within it the predicate-free patterns hash on their
    constants — one C-level projection and one ``dict.get`` per row answer
    all of them — and patterns carrying eCFD predicates are probed
    linearly.  A batch then folds in O(|ΔD|), pushing ``sign``-ed witness
    counts into the shared counters.  Hashing the projection gives the
    dictionary encoder's equality (``1 == 1.0 == True`` conflate), so the
    hits are those of the one-shot engines' code tests.
    """

    __slots__ = ("constants", "collect_tuples", "_schema", "_routes")

    def __init__(
        self, constants: Sequence[ConstantCFD], collect_tuples: bool = True
    ) -> None:
        self.constants = list(constants)
        self.collect_tuples = collect_tuples
        self._schema = None
        #: per distinct ``lhs``: (row -> lhs values, lhs values -> forms)
        self._routes: list = []

    def _route(self, schema) -> None:
        """Compile the router: every position resolved, every form filed
        under its ``lhs`` as ``(form, rhs position, report projector)``."""
        by_lhs: dict[tuple, tuple[dict, list]] = {}
        for constant in self.constants:
            hashed, probed = by_lhs.setdefault(constant.lhs, ({}, []))
            form = (
                constant,
                schema.position(constant.rhs_attr),
                projector(schema.positions(constant.report_lhs)),
            )
            if any(map(is_predicate, constant.values)):
                probed.append(form)
            else:
                hashed.setdefault(constant.values, []).append(form)
        self._schema = schema
        self._routes = [
            (projector(schema.positions(lhs)), _form_lookup(hashed, probed))
            for lhs, (hashed, probed) in by_lhs.items()
        ]

    def fold(
        self,
        relation: Relation,
        sign: int,
        violations: TransitionCounter,
        keys: TransitionCounter,
    ) -> None:
        """Fold every row of ``relation`` (a batch) with weight ``sign``."""
        rows = relation.rows
        if not rows or not self.constants:
            return
        if relation.schema is not self._schema:
            self._route(relation.schema)
        found: list[Violation] = []
        hit_rows: list[tuple] = []  # one entry per (row, violated form)
        for project, lookup in self._routes:
            for row, forms in zip(rows, map(lookup, map(project, rows))):
                if not forms:
                    continue
                for constant, rhs_pos, report in forms:
                    if not matches(row[rhs_pos], constant.rhs_value):
                        found.append(
                            Violation(
                                cfd=constant.source,
                                lhs_attributes=constant.report_lhs,
                                lhs_values=report(row),
                            )
                        )
                        hit_rows.append(row)
        if not found:
            return
        violations.add_bulk(found, sign)
        if self.collect_tuples:
            keys.add_bulk(
                list(
                    _project_keys(
                        hit_rows,
                        range(len(hit_rows)),
                        self._schema.key_positions(),
                    )
                ),
                sign,
            )


def _form_lookup(hashed: dict, probed: list):
    """``lhs values -> the forms whose pattern they match`` for one route:
    the hash probe alone unless some pattern carries a predicate."""
    if not probed:
        return hashed.get

    def lookup(values):
        return [
            *hashed.get(values, ()),
            *(f for f in probed if tuple_matches(values, f[0].values)),
        ]

    return lookup


# -- variable normal forms ----------------------------------------------------


def _bump(counts: dict, key, n: int, journal: dict | None = None) -> None:
    prior = counts.get(key, 0)
    if journal is not None:
        journal.setdefault(key, prior)
    count = prior + n
    if count > 0:
        counts[key] = count
    elif count == 0:
        del counts[key]
    else:
        raise ValueError("deleted a row that is not in the group")


class _CodeGroup:
    """One σ-matched ``X`` group's live state, keyed by its ``X`` code.

    ``y_counts`` maps RHS *codes* to row counts.  Member keys are kept as
    a compacted multiset plus two append-only event logs (``adds`` /
    ``dels``) — the per-row residue of a batch is then a C-level
    ``list.extend``, and the logs fold into the multiset only when a
    conflict flip actually needs the membership (or the logs outgrow it).

    **Rollback relies on this invariant:** ``key_counts`` is *replaced*,
    never mutated in place; ``adds`` / ``dels`` only grow between
    compactions, and a compaction (:meth:`membership`) replaces all three
    with fresh objects.  The undo entry of an open batch therefore holds
    the three pre-batch objects by reference plus the two log lengths —
    O(1), whatever the group's size — and :meth:`restore` reinstates the
    references and truncates the logs.  ``y_counts`` is bumped in place,
    so its undo is a journal of the prior count of each entry the batch
    changes, recorded on first touch like :class:`TransitionCounter`'s.
    """

    __slots__ = ("y_counts", "key_counts", "adds", "dels", "conflicting")

    def __init__(self) -> None:
        self.y_counts: dict[int, int] = {}
        self.key_counts: dict = {}
        self.adds: list = []
        self.dels: list = []
        self.conflicting = False

    def snapshot(self) -> tuple:
        adds, dels = self.adds, self.dels
        logs = (self.key_counts, adds, len(adds), dels, len(dels))
        return self.conflicting, {}, logs

    def restore(self, saved: tuple) -> None:
        self.conflicting, y_journal, logs = saved
        _restore_counts(self.y_counts, y_journal)
        self.key_counts, self.adds, n_adds, self.dels, n_dels = logs
        del self.adds[n_adds:]
        del self.dels[n_dels:]

    def membership(self) -> dict:
        """The compacted member-key multiset (folds the event logs in)."""
        if self.adds or self.dels:
            counter = Counter(self.key_counts)
            counter.update(self.adds)
            if self.dels:
                counter.subtract(self.dels)
            cleaned: dict = {}
            for key, count in counter.items():
                if count > 0:
                    cleaned[key] = count
                elif count < 0:
                    raise ValueError(
                        "deleted a row that is not in the group"
                    )
            self.key_counts = cleaned
            self.adds = []
            self.dels = []
        return self.key_counts


#: :meth:`VariableGroupState._touch`'s answer when no batch is open or
#: the batch itself created the group: nothing to journal
_NO_JOURNAL = (False, None, None)


class VariableGroupState:
    """Cached GROUP-BY state of one variable normal form.

    Append-only session dictionaries intern every distinct ``X`` / ``Y``
    projection ever seen, with the σ verdict per ``X`` code.  A
    :class:`_CodeGroup` exists for every σ-matched ``X`` code with at
    least one row and holds the multiset of RHS codes and member keys.  A
    batch touches only the groups of its own rows; a group's member keys
    enter/leave the shared key counter exactly when the group flips.
    """

    __slots__ = (
        "variable",
        "collect_tuples",
        "_index",
        "_x_code_of",
        "_x_values",
        "_x_matched",
        "_x_matched_np",
        "_y_code_of",
        "_y_values",
        "_code_groups",
        "_undo",
    )

    def __init__(self, variable: VariableCFD, collect_tuples: bool = True) -> None:
        self.variable = variable
        self.collect_tuples = collect_tuples
        self._index = pattern_index(variable.patterns)
        self._x_code_of: dict[tuple, int] = {}
        self._x_values: list[tuple] = []
        self._x_matched: list[bool] = []
        self._x_matched_np = None
        self._y_code_of: dict = {}
        self._y_values: list = []
        self._code_groups: dict[int, _CodeGroup] = {}
        # transactional batches: group key -> (group, its undo entry),
        # or None when the group did not exist; recorded on first touch
        self._undo: dict | None = None

    # -- transactional batches --------------------------------------------

    def begin(self) -> None:
        """Open a transactional batch: journal groups on first touch.

        An undo entry never copies a container whose size depends on the
        group — references, lengths and prior counts of the entries the
        batch changes (see :class:`_CodeGroup`) — so arming, filling and
        dropping the log is O(|ΔD|) and a failed fold can still
        :meth:`rollback` to the exact pre-batch state.  The session
        interning dictionaries (``_x_code_of`` …) are append-only and
        stay grown across a rollback: codes assigned during a doomed
        batch are simply never referenced again.
        """
        self._undo = {}

    def commit(self) -> None:
        """Close the batch, discarding its undo log."""
        self._undo = None

    def _touch(self, key, group) -> tuple:
        """Journal ``key``'s group (``None``: absent) on its first touch
        under an open batch; returns its ``(conflicting, y journal,
        rest)`` undo entry for the fold to journal into."""
        undo = self._undo
        if undo is None:
            return _NO_JOURNAL
        if key in undo:
            entry = undo[key]
        else:
            entry = undo[key] = (
                None if group is None else (group, group.snapshot())
            )
        return _NO_JOURNAL if entry is None else entry[1]

    def rollback(self) -> None:
        """Restore every touched group to its pre-batch state.

        A no-op when no batch is open.  Groups created during the batch
        disappear; groups deleted during it come back (the same object);
        groups mutated in place are restored from their undo entries.
        """
        undo = self._undo
        self._undo = None
        if undo is None:
            return
        groups = self._code_groups
        for key, entry in undo.items():
            if entry is None:
                groups.pop(key, None)
                continue
            group, saved = entry
            group.restore(saved)
            groups[key] = group

    def _code_violation(self, code: int) -> Violation:
        """The violation of one interned ``X`` code (single-attribute
        projections intern raw, so wrap them back here)."""
        x = self._x_values[code]
        if len(self.variable.lhs) == 1:
            x = (x,)
        return Violation(
            cfd=self.variable.source,
            lhs_attributes=self.variable.lhs,
            lhs_values=x,
        )

    def _intern_projections(self, batches, positions, code_of, values):
        """Code every batch row's projection through a session dictionary.

        The probe runs as one C-level ``map(dict.get)`` per batch
        (single-attribute projections probe the *raw* value — no tuple
        allocation); projections never seen before fall into the (rare,
        steady-state empty) miss loop, which appends them to the
        append-only decode list — codes assigned once stay valid for the
        session's lifetime, which is what lets the group table key by int
        code.  Returns the flat code list across all batches, aligned
        with the concatenated row stream, plus the freshly assigned codes.
        """
        single = len(positions) == 1
        getter = itemgetter(positions[0]) if single else None
        codes: list = []
        fresh: list[int] = []
        for rows, _sign in batches:
            if single:
                projected = map(getter, rows)
            else:
                projected = _project_rows(rows, range(len(rows)), positions)
            offset = len(codes)
            codes.extend(map(code_of.get, projected))
            if None in codes[offset:]:
                # miss loop: re-project lazily only for the gap rows
                gap = [
                    i
                    for i in range(offset, len(codes))
                    if codes[i] is None
                ]
                if single:
                    gap_values = (rows[i - offset][positions[0]] for i in gap)
                else:
                    gap_values = _project_rows(
                        rows, [i - offset for i in gap], positions
                    )
                for i, value in zip(gap, gap_values):
                    code = code_of.get(value)
                    if code is None:
                        code = len(values)
                        code_of[value] = code
                        values.append(value)
                        fresh.append(code)
                    codes[i] = code
        return codes, fresh

    def fold_signed(
        self,
        schema,
        batches: Sequence[tuple[Sequence[tuple], int]],
        violations: TransitionCounter,
        keys: TransitionCounter,
    ) -> None:
        """The delta fold: signed row streams → group tables.

        ``batches`` is a list of ``(rows, ±1)`` — typically one delete
        stream and one insert stream of the same update.  The whole
        stream is coded **once** through the state's append-only session
        dictionaries (one C-level ``dict.get`` map per projection — no
        per-batch columnar re-encode), σ is answered from the per-code
        verdict array, and one sort-based reduce over the mixed-radix
        ``(x_code, y_code)`` combination collapses the stream to a *net*
        signed count per distinct touched combination — a delete and a
        re-insert of the same combination cancel before they ever reach
        the group table.  The remaining Python work is per distinct
        touched group (conflict transitions from the aggregated counts)
        plus the member-key bookkeeping of those groups, which cannot
        compress below the rows because every row carries its own key.

        Folding a multi-step chain in one call is sound because multiset
        arithmetic commutes and the counters only observe the batch's
        endpoints; the one behavioural difference from replaying the
        steps is that an *invalid* delete cancelled by a matching insert
        in the same batch is no longer detected (the net is zero).
        """
        batches = [(rows, sign) for rows, sign in batches if rows]
        if not batches:
            return
        x_single = len(self.variable.lhs) == 1
        x_codes, fresh = self._intern_projections(
            batches,
            schema.positions(self.variable.lhs),
            self._x_code_of,
            self._x_values,
        )
        matched_list = self._x_matched
        if fresh:
            matches_any = self._index.matches_any
            x_values = self._x_values
            matched_list.extend(
                matches_any((x_values[code],) if x_single else x_values[code])
                for code in fresh
            )
            self._x_matched_np = None
        y_codes, _fresh_y = self._intern_projections(
            batches,
            schema.positions(self.variable.rhs),
            self._y_code_of,
            self._y_values,
        )

        x_arr = _np.asarray(x_codes, dtype=_np.int64)
        if self._x_matched_np is None:
            self._x_matched_np = _np.asarray(matched_list, dtype=bool)
        matched = self._x_matched_np[x_arr]
        total = len(x_codes)
        if not matched.any():
            return
        signs = _np.empty(total, dtype=_np.int8)
        at = 0
        for rows, sign in batches:
            signs[at:at + len(rows)] = sign
            at += len(rows)
        if matched.all():
            sel = None
            xs = x_arr
            sgns = signs
        else:
            sel = _np.nonzero(matched)[0]
            xs = x_arr[sel]
            sgns = signs[sel]
        ys = _np.asarray(y_codes, dtype=_np.int64)
        if sel is not None:
            ys = ys[sel]

        # net signed count per distinct (x, y): one sparse sort-based
        # reduce (never a dense x × y table)
        n_y = len(self._y_values)
        pair_codes, inverse = _np.unique(
            xs * n_y + ys, return_inverse=True
        )
        net = _np.bincount(inverse, weights=sgns).astype(_np.int64)
        pair_x = (pair_codes // n_y).tolist()
        pair_y = (pair_codes % n_y).tolist()
        net_counts = net.tolist()

        groups = self._code_groups

        # phase A — net (x, y) counts into the y tables; conflict flips
        # are *not* evaluated yet (phase B reads the pre-batch flags)
        touched: list[tuple[int, _CodeGroup]] = []
        n_pairs = len(pair_x)
        at = 0
        while at < n_pairs:
            gx = pair_x[at]
            group = groups.get(gx)
            # every distinct x of the stream appears in pair_x, so this
            # single touch also covers the phase B/C mutations below
            _, y_journal, _ = self._touch(gx, group)
            if group is None:
                group = groups[gx] = _CodeGroup()
            touched.append((gx, group))
            y_counts = group.y_counts
            while at < n_pairs and pair_x[at] == gx:
                count = net_counts[at]
                if count:
                    try:
                        _bump(y_counts, pair_y[at], count, y_journal)
                    except ValueError:
                        raise ValueError(
                            "deleted a row of X group "
                            f"{self._x_values[gx]!r} that is not in the "
                            "state"
                        ) from None
                at += 1

        # phase B — member-key streams, one per sign, C-level extends
        # into each touched group's event log; rows of a group that was
        # conflicting before the batch also count into the key counter
        # (a flip later settles the difference in phase C)
        collect = self.collect_tuples
        key_pos = schema.key_positions()
        stream_base = (
            _np.arange(total, dtype=_np.int64) if sel is None else sel
        )
        all_rows: Sequence[tuple]
        if len(batches) == 1:
            all_rows = batches[0][0]
        else:
            all_rows = []
            for rows, _sign in batches:
                all_rows.extend(rows)
        # the insert stream folds first: a valid chain can insert a row
        # and delete it again within one batch, and running deletes last
        # means they always subtract from maximal counts — no transient
        # underflow on the key counter, and compaction at any point sees
        # every add the pending dels could refer to
        for sign in (1, -1):
            sign_sel = _np.nonzero(sgns == sign)[0]
            if not len(sign_sel):
                continue
            order, starts, ends = group_segments(xs[sign_sel])
            ordered = sign_sel[order]
            first_codes = xs[ordered[
                _np.asarray(starts, dtype=_np.int64)
            ]].tolist()
            stream_keys = list(
                _project_keys(all_rows, stream_base[ordered].tolist(), key_pos)
            )
            conflict_keys: list = []
            for gx, s, e in zip(first_codes, starts, ends):
                group = groups[gx]  # phase A created it
                seg = stream_keys[s:e]
                if sign > 0:
                    group.adds.extend(seg)
                else:
                    group.dels.extend(seg)
                if collect and group.conflicting:
                    conflict_keys.extend(seg)
                if len(group.adds) + len(group.dels) > (
                    32 + 2 * len(group.key_counts)
                ):
                    group.membership()  # amortized compaction
            if conflict_keys:
                keys.add_bulk(conflict_keys, sign)

        # phase C — settle conflict flips from the post-batch y tables
        for gx, group in touched:
            was = group.conflicting
            now = len(group.y_counts) >= 2
            if now != was:
                group.conflicting = now
                violations.add(self._code_violation(gx), 1 if now else -1)
                if collect:
                    membership = group.membership()
                    if sum(membership.values()) == len(membership):
                        # all counts are 1 (row keys are usually unique)
                        keys.add_bulk(
                            list(membership), 1 if now else -1
                        )
                    else:
                        ones = [
                            k for k, c in membership.items() if c == 1
                        ]
                        keys.add_bulk(ones, 1 if now else -1)
                        for member, count in membership.items():
                            if count != 1:
                                keys.add(
                                    member, count if now else -count
                                )
            elif len(group.adds) + len(group.dels) > (
                32 + 2 * len(group.key_counts)
            ):
                group.membership()  # keep pure-delete sessions bounded
            if not group.y_counts:
                del groups[gx]


# -- the detector -------------------------------------------------------------


class IncrementalDetector:
    """``Vioπ(Σ, D)`` maintained across insert/delete batches.

    Compile once, :meth:`attach` to a relation (one full fold building
    the cached state), then :meth:`apply` successive
    :class:`~repro.relational.delta.DeltaRelation` versions — or
    :meth:`update` with explicit batches — each in time proportional to
    the delta and the σ groups it touches.  :attr:`report` is always the
    full current report; every ``apply``/``update`` additionally returns
    the :class:`ViolationDelta` of that batch.

    Alongside the fold state the session keeps a **keyed row store** —
    key projection → resident row(s), a DBMS-style heap + primary index.
    A :meth:`update` batch of keys and rows mutates the store in
    O(|ΔD|): no delta-relation version, no O(|D|) row-list copy, no
    tombstone mask.  :attr:`relation` stays available as a lazily
    materialized (and cached) snapshot; predicate deletes and explicit
    :meth:`apply` chains still run through delta-relation versions, which
    the store absorbs at O(|ΔD|) per step.

    ``engine`` follows :func:`~repro.core.detection.detect_violations`:
    ``reference`` (full recompute + diff per update — the executable
    spec), ``sql`` (likewise, on sqlite3), ``fused`` (delta folds), or
    ``auto``/``None`` (the ``REPRO_ENGINE`` environment decides, ``auto``
    meaning ``fused``) — resolved at :meth:`attach` time.

    **Concurrency contract**: a session is *single-writer* — the keyed
    row store, undo logs and transition counters assume one mutation at
    a time.  Every public entry point (``attach`` / ``apply`` /
    ``update`` / ``verify`` / ``report``) therefore serializes on a
    per-session reentrant lock: concurrent callers (the resident
    service's request threads) are safe, they just take turns.  The lock
    is reentrant because ``update`` can nest into ``apply`` on the
    predicate-delete path.
    """

    def __init__(
        self,
        cfds: CFD | Iterable[CFD],
        collect_tuples: bool = True,
        engine: str | None = None,
    ) -> None:
        self._fused = FusedDetector(cfds)
        self.cfds = self._fused.cfds
        self.collect_tuples = collect_tuples
        #: serializes every public entry point (single-writer contract)
        self._session_lock = threading.RLock()
        self._requested_engine = engine
        self.engine: str | None = None
        self._relation: Relation | None = None
        #: key projection -> row tuple, or a list of rows for bag
        #: duplicates; ``None`` until attach()
        self._store: dict | None = None
        #: open-batch undo log of the store (key -> pre-batch entry copy,
        #: ``None`` for "absent"), plus the pre-batch snapshot cache
        self._store_undo: dict | None = None
        self._relation_snapshot: Relation | None = None
        self.schema = None
        self._wrap_keys = False
        self._violations = TransitionCounter()
        self._keys = TransitionCounter()
        self._constants = ConstantFolds(self._fused._constants, collect_tuples)
        self._variables: list[VariableGroupState] = []
        self._reference_report: ViolationReport | None = None
        #: recompute-mode engines: the open batch's recomputed report
        self._reference_next: ViolationReport | None = None

    @property
    def relation(self) -> Relation | None:
        """The current relation version (materialized lazily after
        store-level updates; the object is cached until the next update,
        so :meth:`apply` chains can anchor on it)."""
        if self._relation is None and self._store is not None:
            with self._session_lock:
                if self._relation is None:
                    rows: list = []
                    for entry in self._store.values():
                        if type(entry) is list:
                            rows.extend(entry)
                        else:
                            rows.append(entry)
                    self._relation = Relation(self.schema, rows, copy=False)
        return self._relation

    @relation.setter
    def relation(self, value: Relation | None) -> None:
        self._relation = value

    # -- the keyed row store ----------------------------------------------

    def _build_store(self, relation: Relation) -> None:
        key_pos = relation.schema.key_positions()
        store: dict = {}
        for key, row in zip(
            _project_keys(relation.rows, range(len(relation.rows)), key_pos),
            relation.rows,
        ):
            entry = store.get(key)
            if entry is None:
                store[key] = row
            elif type(entry) is list:
                entry.append(row)
            else:
                store[key] = [entry, row]
        self._store = store

    def _store_touch(self, key) -> None:
        """Record ``key``'s pre-batch entry in the open undo log (copying
        list entries, which later store ops mutate in place)."""
        undo = self._store_undo
        if undo is None or key in undo:
            return
        entry = self._store.get(key)
        undo[key] = list(entry) if type(entry) is list else entry

    def _store_add(self, key: tuple, row: tuple) -> None:
        self._store_touch(key)
        entry = self._store.get(key)
        if entry is None:
            self._store[key] = row
        elif type(entry) is list:
            entry.append(row)
        else:
            self._store[key] = [entry, row]

    def _store_remove_row(self, key: tuple, row: tuple) -> None:
        """Remove one specific resident row (delta-version sync path)."""
        self._store_touch(key)
        entry = self._store.get(key)
        if type(entry) is list:
            entry.remove(row)
            if len(entry) == 1:
                self._store[key] = entry[0]
        elif entry is not None:
            del self._store[key]

    # -- engine resolution ------------------------------------------------

    def _resolve_engine(self) -> str:
        engine = self._requested_engine
        if engine is None:
            engine = os.environ.get("REPRO_ENGINE", "auto")
        if engine == "auto":
            return "fused"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown detection engine {engine!r}; "
                f"use one of {', '.join(ENGINES)} (or 'auto')"
            )
        return engine

    @property
    def _recompute_mode(self) -> bool:
        """Engines maintained by recompute+diff instead of delta folds.

        ``reference`` is the executable spec; ``sql`` delegates detection
        to a database, which has no incremental fold — each update re-runs
        the compiled statement set on the new relation (the per-relation
        handle cache keeps the reload cost bounded) and diffs reports.
        """
        return self.engine in ("reference", "sql")

    def _recompute_report(self, relation: Relation) -> ViolationReport:
        if self.engine == "sql":
            from .sql import detect_violations_sql

            return detect_violations_sql(
                relation, self.cfds, self.collect_tuples
            )
        return detect_violations_reference(
            relation, self.cfds, self.collect_tuples
        )

    # -- lifecycle --------------------------------------------------------

    def attach(self, relation: Relation) -> ViolationReport:
        """Build (or rebuild) the cached state with one full fold of ``D``."""
        with self._session_lock:
            self.engine = self._resolve_engine()
            self.relation = relation
            self.schema = relation.schema
            # single-attribute keys travel raw through the folds and the
            # key counters (no per-row 1-tuple); the report boundary
            # re-wraps them
            self._wrap_keys = len(relation.schema.key_positions()) == 1
            self._build_store(relation)
            if self._recompute_mode:
                self._reference_report = self._recompute_report(relation)
                return self.report
            self._violations = TransitionCounter()
            self._keys = TransitionCounter()
            self._variables = [
                VariableGroupState(variable, self.collect_tuples)
                for variable, _index in self._fused._variables
            ]
            self._fold_batches(relation.schema, [(relation.rows, 1)])
            return self.report

    def _fold_batches(
        self, schema, batches: list[tuple[list, int]]
    ) -> None:
        """Fold one update's signed row streams through every form state.

        Constant forms fold per stream; the whole list reaches each
        variable state's :meth:`VariableGroupState.fold_signed` in one
        call (a deleted and re-inserted combination cancels before it
        costs anything).
        """
        for rows, sign in batches:
            self._constants.fold(
                Relation(schema, rows, copy=False),
                sign,
                self._violations,
                self._keys,
            )
        for state in self._variables:
            state.fold_signed(schema, batches, self._violations, self._keys)

    # -- transactional batches --------------------------------------------

    def _begin_batch(self) -> None:
        """Open one all-or-nothing update: arm every undo log."""
        self._store_undo = {}
        self._relation_snapshot = self._relation
        if not self._recompute_mode:
            self._violations.begin()
            self._keys.begin()
            for state in self._variables:
                state.begin()

    def _end_batch(self) -> None:
        """Close a successful update: drop the undo logs."""
        self._store_undo = None
        self._relation_snapshot = None

    def _rollback_batch(self) -> None:
        """Restore the exact pre-batch session state.

        Unwinds, in O(|touched|): the keyed row store (entries popped,
        replaced or appended-to during the batch), every variable form's
        group table, both transition counters, and the cached relation
        snapshot.  After a rollback the session is exactly as if the
        failed ``update``/``apply`` had never been called — the
        transactionality property the chaos suite asserts.
        """
        for state in self._variables:
            state.rollback()
        self._violations.rollback()
        self._keys.rollback()
        undo = self._store_undo
        self._store_undo = None
        if undo:
            store = self._store
            for key, entry in undo.items():
                if entry is None:
                    store.pop(key, None)
                else:
                    store[key] = entry
        self._relation = self._relation_snapshot
        self._relation_snapshot = None
        self._reference_next = None

    def apply(self, relation: Relation) -> ViolationDelta:
        """Advance to ``relation``, folding only its recorded delta.

        ``relation`` must be a :class:`~repro.relational.delta.DeltaRelation`
        (or a chain of them) rooted at the currently attached version —
        anything else raises, because the provenance chain is the only
        thing that makes O(|ΔD|) maintenance sound.

        All-or-nothing: if any step of the chain fails mid-fold, the
        session rolls back to the state before this call and the
        exception propagates.
        """
        with self._session_lock:
            return self._apply_locked(relation)

    def _apply_locked(self, relation: Relation) -> ViolationDelta:
        if self.relation is None:
            raise ValueError("attach() a relation before applying updates")
        chain: list[Relation] = []
        version = relation
        while version is not self.relation:
            parent = getattr(version, "delta_parent", None)
            if parent is None:
                raise ValueError(
                    "apply() needs a DeltaRelation chained from the "
                    "attached version; got an unrelated relation "
                    "(use attach() to rebuild from scratch)"
                )
            chain.append(version)
            version = parent
        chain.reverse()
        schema = relation.schema
        key_pos = schema.key_positions()
        self._begin_batch()
        try:
            batches: list[tuple[list, int]] = []
            for version in chain:
                if version.delta_deleted:
                    rows = list(version.delta_deleted)
                    batches.append((rows, -1))
                    for key, row in zip(
                        _project_keys(rows, range(len(rows)), key_pos), rows
                    ):
                        self._store_remove_row(key, row)
                if version.delta_inserted:
                    rows = list(version.delta_inserted)
                    batches.append((rows, 1))
                    for key, row in zip(
                        _project_keys(rows, range(len(rows)), key_pos), rows
                    ):
                        self._store_add(key, row)
            if self._recompute_mode:
                self._reference_next = self._recompute_report(relation)
            else:
                self._fold_batches(schema, batches)
            self.relation = relation
        except BaseException:
            self._rollback_batch()
            raise
        return self._commit()

    def update(
        self,
        inserted: Iterable[Sequence[object]] = (),
        deleted=(),
    ) -> ViolationDelta:
        """Absorb one explicit batch: ``deleted`` first, then ``inserted``.

        With ``deleted`` an iterable of keys (bare values accepted for
        single-attribute keys; unknown keys are no-ops, matching
        :meth:`Relation.delete`), the batch goes straight through the
        session's keyed row store — O(|ΔD|) dictionary operations, no
        relation version, no O(|D|) row-list copy.  A predicate
        ``deleted`` needs a scan of ``D``, so that path still mints
        :class:`~repro.relational.delta.DeltaRelation` versions and
        :meth:`apply`\\ s them (their provenance is pruned afterwards, so
        session memory stays bounded either way).
        """
        with self._session_lock:
            return self._update_locked(inserted, deleted)

    def _update_locked(self, inserted, deleted) -> ViolationDelta:
        if self._store is None:
            raise ValueError("attach() a relation before applying updates")
        if callable(deleted) or hasattr(deleted, "evaluate"):
            return self._update_via_versions(inserted, deleted)
        if not self._fold_open(inserted, deleted):
            return ViolationDelta()
        return self._commit()

    def _fold_open(self, inserted, deleted) -> bool:
        """Fold one explicit key batch, leaving the batch open.

        Validates the batch, arms the undo logs, mutates the keyed row
        store and folds every form (a recompute-mode engine recomputes
        its report instead); if any of that raises, the batch is rolled
        back and the exception propagates.  Returns whether a batch is
        open — an empty batch opens none — which the caller then ends
        with :meth:`_commit` or :meth:`_rollback_batch`, so several
        detectors can fold one round and commit it together.
        """
        schema = self.schema
        key_pos = schema.key_positions()
        width = len(schema)
        key_width = len(key_pos)
        batch = [tuple(row) for row in inserted]
        if set(map(len, batch)) - {width}:
            bad = next(row for row in batch if len(row) != width)
            raise SchemaError(
                f"row of width {len(bad)} does not fit schema "
                f"{schema.name!r} of width {width}: {bad!r}"
            )
        doomed = deleted if type(deleted) is list else list(deleted)
        if key_width == 1:
            # raw store keys: unwrap 1-tuples, keep bare values
            if tuple in set(map(type, doomed)):
                doomed = [
                    key[0] if type(key) is tuple and len(key) == 1 else key
                    for key in doomed
                ]
                if any(type(key) is tuple for key in doomed):
                    bad = next(k for k in doomed if type(k) is tuple)
                    raise SchemaError(
                        f"key {bad!r} does not fit key attributes "
                        f"{schema.key}"
                    )
        else:
            doomed = [
                key if isinstance(key, tuple) else (key,) for key in doomed
            ]
            if set(map(len, doomed)) - {key_width}:
                bad = next(k for k in doomed if len(k) != key_width)
                raise SchemaError(
                    f"key {bad!r} does not fit key attributes {schema.key}"
                )
        if not doomed and not batch:
            return False

        self._begin_batch()
        try:
            store = self._store
            undo = self._store_undo
            removed: list[tuple] = []
            if doomed:
                for key in doomed:
                    self._store_touch(key)
                # unknown keys are no-ops, like Relation.delete
                entries = map(store.pop, doomed, repeat(None))
                removed = [entry for entry in entries if entry is not None]
                if list in set(map(type, removed)):
                    flat: list[tuple] = []
                    for entry in removed:
                        if type(entry) is list:
                            flat.extend(entry)
                        else:
                            flat.append(entry)
                    removed = flat
            if batch:
                fresh_keys = list(
                    _project_keys(batch, range(len(batch)), key_pos)
                )
                if len(set(fresh_keys)) == len(fresh_keys) and store.keys(
                ).isdisjoint(fresh_keys):
                    # the C fast path; keys are absent from the store, so
                    # their undo entries are plain "absent" markers
                    for key in fresh_keys:
                        if key not in undo:
                            undo[key] = None
                    store.update(zip(fresh_keys, batch))
                else:
                    for key, row in zip(fresh_keys, batch):
                        self._store_add(key, row)
            self._relation = None  # invalidate the cached snapshot

            if self._recompute_mode:
                self._reference_next = self._recompute_report(self.relation)
            else:
                batches: list[tuple[list, int]] = []
                if removed:
                    batches.append((removed, -1))
                if batch:
                    batches.append((batch, 1))
                self._fold_batches(schema, batches)
        except BaseException:
            self._rollback_batch()
            raise
        return True

    def _update_via_versions(self, inserted, deleted) -> ViolationDelta:
        """The predicate-delete path: delta versions, then :meth:`apply`."""
        from ..relational.delta import prune_delta_history

        version = self.relation
        version = version.delete(deleted)
        inserted = list(inserted)
        if inserted:
            version = version.insert(inserted)
        if version is self.relation:
            return ViolationDelta()
        delta = self.apply(version)
        # prune oldest-first so each step can still derive its key array
        # from the (already materialized) link below it
        prune_delta_history(version.delta_parent)
        prune_delta_history(version)
        return delta

    # -- results ----------------------------------------------------------

    def _commit(self) -> ViolationDelta:
        """Close the open batch; returns what it changed."""
        if self._recompute_mode:
            delta = self._reference_rediff()
        else:
            for state in self._variables:
                state.commit()
            delta = commit_counters(
                self._violations, self._keys, self._wrap_keys
            )
        self._end_batch()
        return delta

    def _reference_rediff(self) -> ViolationDelta:
        previous = self._reference_report
        current = self._reference_next
        self._reference_report = current
        self._reference_next = None
        return ViolationDelta(
            added=ViolationReport(
                current.violations - previous.violations,
                current.tuple_keys - previous.tuple_keys,
            ),
            removed=ViolationReport(
                previous.violations - current.violations,
                previous.tuple_keys - current.tuple_keys,
            ),
        )

    @property
    def report(self) -> ViolationReport:
        """The full current report (a fresh copy, safe to merge/mutate).

        Building the copy is O(|report|); callers that only need the
        counts read :meth:`report_size` instead.
        """
        with self._session_lock:
            if self._recompute_mode:
                source = self._reference_report or ViolationReport()
                return ViolationReport(source.violations, source.tuple_keys)
            return counters_report(
                self._violations, self._keys, self._wrap_keys
            )

    def report_size(self) -> tuple[int, int]:
        """``(len(report.violations), len(report.tuple_keys))`` in O(1)."""
        with self._session_lock:
            if self._recompute_mode:
                source = self._reference_report or ViolationReport()
                return len(source.violations), len(source.tuple_keys)
            return counters_size(self._violations, self._keys)

    def verify(self, sample: int | None = None, seed: int = 8) -> bool:
        """Invariant check of the maintained state against ``reference``.

        With ``sample=None`` (the default), recomputes the full report
        with :func:`detect_violations_reference` on the current relation
        and demands exact equality — O(|D|), the strongest check.

        With an integer ``sample``, draws that many resident rows with
        ``random.Random(seed)`` and checks **subset soundness**: both
        violations and violating tuple keys are monotone increasing in
        the rows (a sub-relation's witnesses all survive in the full
        relation), so everything the reference engine finds on the
        sampled sub-relation must already be in the maintained report.
        O(|sample|) — cheap enough to run inside a long-lived session as
        a periodic corruption check; it can miss corruption outside the
        sampled groups, never report a false alarm.
        """
        with self._session_lock:
            return self._verify_locked(sample, seed)

    def _verify_locked(self, sample: int | None, seed: int) -> bool:
        relation = self.relation
        if relation is None:
            raise ValueError("attach() a relation before verifying")
        maintained = self.report
        if sample is None or sample >= len(relation.rows):
            expected = detect_violations_reference(
                relation, self.cfds, self.collect_tuples
            )
            if set(maintained.violations) != set(expected.violations):
                return False
            return not self.collect_tuples or set(
                maintained.tuple_keys
            ) == set(expected.tuple_keys)
        import random

        rows = random.Random(seed).sample(list(relation.rows), sample)
        sampled = detect_violations_reference(
            Relation(self.schema, rows, copy=False),
            self.cfds,
            self.collect_tuples,
        )
        if not set(sampled.violations) <= set(maintained.violations):
            return False
        return not self.collect_tuples or set(sampled.tuple_keys) <= set(
            maintained.tuple_keys
        )

    def __repr__(self) -> str:
        n = len(self.relation) if self.relation is not None else 0
        return (
            f"IncrementalDetector({len(self.cfds)} CFDs, engine="
            f"{self.engine or 'unresolved'}, {n} tuples attached)"
        )


def incremental_detect(
    relation: Relation,
    cfds: CFD | Iterable[CFD],
    collect_tuples: bool = True,
    engine: str | None = None,
) -> IncrementalDetector:
    """Attach a fresh :class:`IncrementalDetector` to ``relation``."""
    detector = IncrementalDetector(cfds, collect_tuples, engine)
    detector.attach(relation)
    return detector

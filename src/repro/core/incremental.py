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
    RHS combinations (a :class:`GroupCounts` table, the one every
    resident session keeps) and of member tuple keys
    (:class:`VariableGroupState`).  A batch touches only the groups its
    rows fall into; a group flips between clean and conflicting exactly
    when its count of distinct RHS combinations crosses two.

  Both feed shared :class:`TransitionCounter`\\ s — multisets of
  violations/keys whose zero crossings *are* the :class:`ViolationDelta`
  (the same violation witnessed by two forms, or the same key by two
  rows, only disappears when the last witness does).

Every update runs true delta folds, whatever ``REPRO_ENGINE`` says (that
knob picks the one-shot engines; the property suites compare a session
against :func:`~repro.core.detection.detect_violations_reference`
directly).  The variable-form fold works in plain dictionaries: it
codes the batch once through the state's session dictionaries, makes
one C-level pass per signed stream that counts its ``(x_code, y_code)``
pairs and gathers its member keys per ``x_code``, nets the streams per
pair, and leaves Python work per distinct touched pair and group, not
per row (:meth:`VariableGroupState.fold_signed`).  Updates arrive as explicit
row batches (``update``), which change the session's
:class:`~repro.relational.rowstore.KeyedRows` store in place.

Every resident session — this module's and the distributed ones of
:mod:`repro.detect` — is a :class:`ResidentSession`: one lock, one
counter pair, one :class:`Transaction` per round (the counters and every
undo-logged participant begin together, roll back together on any
exception, and commit together), one round close, the reports and one
``verify``.  A session's layout adds only where its rows live and what
its round ships.
"""

from __future__ import annotations

import random
import threading
from collections import Counter, deque
from itertools import compress, filterfalse, repeat
from operator import eq, itemgetter, le, neg, not_, sub
from typing import Iterable, Mapping, Sequence

from ..relational import Relation
from ..relational.rowstore import KeyedRows
from .cfd import CFD, matches, tuple_matches
from .detection import detect_violations_reference
from .epatterns import is_predicate
from .fused import FusedDetector
from .normalize import ConstantCFD, VariableCFD, pattern_index, projector
from .violations import Violation, ViolationReport


class ViolationDelta:
    """What one update batch changed: violations/keys added and removed.

    Both sides are plain :class:`ViolationReport`\\ s, so delta consumers
    (dashboards, downstream repair queues) reuse the ordinary report API.
    Deltas built by the counters (:meth:`ResidentSession._close_round`)
    materialize those reports lazily — a session absorbing batches in a
    tight loop never pays for delta reports nobody reads.
    """

    __slots__ = ("_added", "_removed", "_raw", "_wrap")

    def __init__(self) -> None:
        """An empty delta (a batch that changed nothing)."""
        self._added = ViolationReport()
        self._removed = ViolationReport()
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


def _drop(table: dict, keys) -> None:
    """Delete ``keys`` from ``table`` through C-level ``dict.__delitem__``
    (a :class:`Counter`'s own ``__delitem__`` is Python-level)."""
    deque(map(dict.__delitem__, repeat(table), keys), maxlen=0)


def _tally(items: Sequence) -> dict:
    """``item -> multiplicity`` of ``items``: one C-level ``dict.fromkeys``
    when they are distinct (row keys usually are), else a :class:`Counter`."""
    tally = dict.fromkeys(items, 1)
    return tally if len(tally) == len(items) else Counter(items)


def _bump(counts: dict, key, n: int, journal: dict | None = None) -> int:
    """Add ``n`` to ``counts[key]``, dropping the entry at zero; the one
    count-and-journal step of every resident count table.  Records the
    prior count in ``journal`` on first touch (the rollback half is
    :func:`_restore_counts`) and returns it.  An underflow raises
    :class:`ValueError` with the table unchanged."""
    prior = counts.get(key, 0)
    if journal is not None:
        journal.setdefault(key, prior)
    count = prior + n
    if count > 0:
        counts[key] = count
    elif count == 0:
        counts.pop(key, None)
    else:
        raise ValueError("deleted a row that is not in the group")
    return prior


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
    the property the batched delta folds lean on.

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
        try:
            count = _bump(self.counts, item, n, self._undo)
        except ValueError:
            raise ValueError(
                f"witness count of {item!r} fell below zero: the update "
                "removed rows that were never inserted"
            ) from None
        if self._went_up is not None and (count > 0) != (count + n > 0):
            self._cross(item, count + n > 0)

    def add_bulk(self, items: Sequence, sign: int) -> None:
        """Bulk single-sign :meth:`add` — the per-row hot path of the
        delta folds, built from C-level passes.

        ``sign > 0``: the crossers are exactly the items absent before
        the bulk (one ``filterfalse`` into a set), an open batch journals
        the items missing from its undo log (``filterfalse`` again, then
        one ``dict.update`` of their priors; none while no batch is
        open, as during an attach) and the counting is one
        :meth:`Counter.update`.  ``sign < 0`` tallies the distinct items
        (:func:`_tally`), reads their priors through ``map(counts.get,
        …)`` and raises on an underflow before any count moves; then one
        ``dict.update`` writes the new counts and the zeros — the
        crossers — leave through ``dict.__delitem__`` (the counts never
        store non-positive entries).  The crossing sets advance with
        whole-set arithmetic.
        """
        counts = self.counts
        undo = self._undo
        if sign > 0:
            if undo is None:  # no batch open: nobody reads the crossers
                counts.update(items)
                return
            crossers = set(filterfalse(counts.__contains__, items))
            fresh = list(filterfalse(undo.__contains__, items))
            undo.update(zip(fresh, map(counts.get, fresh, repeat(0))))
            counts.update(items)
        else:
            tally = _tally(items)
            left = list(
                map(sub, map(counts.get, tally, repeat(0)), tally.values())
            )
            if min(left, default=0) < 0:
                bad = next(k for k, n in zip(tally, left) if n < 0)
                raise ValueError(
                    f"witness count of {bad!r} fell below zero: the "
                    "update removed rows that were never inserted"
                )
            if undo is not None:
                fresh = list(filterfalse(undo.__contains__, tally))
                undo.update(zip(fresh, map(counts.get, fresh)))
            dict.update(counts, zip(tally, left))
            crossers = set(compress(tally, map(not_, left)))
            _drop(counts, crossers)
        if self._went_up is None or not crossers:
            return
        if sign > 0:
            back, onward = self._went_down, self._went_up
        else:
            back, onward = self._went_up, self._went_down
        returning = crossers & back
        if returning:  # crossed back within the batch: no net change
            back -= returning
            crossers -= returning
        onward |= crossers

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


def _key_projector(key_pos: tuple[int, ...]):
    """``row -> key``: a C-level ``itemgetter`` that yields the *raw*
    value for single-attribute keys.

    The key counters run hottest of all the incremental state (every
    violating-row event hashes a key), so for the overwhelmingly common
    single-attribute key they carry the bare value instead of a 1-tuple —
    no per-row tuple allocation, cheaper hashing.  The report boundary
    (:class:`ResidentSession`'s round close and reports, when
    ``_wrap_keys`` is set) restores the tuple form the
    :class:`ViolationReport` contract requires.
    """
    return itemgetter(*key_pos)


def _wrap(keys_iterable, wrap_keys: bool):
    if wrap_keys:
        return list(zip(keys_iterable))
    return keys_iterable


class Transaction:
    """One all-or-nothing round: ``with Transaction(violations, keys,
    participants):`` begins both counters and every participant (row
    stores, group tables, kernels: anything with ``begin`` / ``commit``
    / ``rollback``).  Any ``BaseException`` in the body — an interrupt
    too — rolls all of them back and propagates; otherwise the
    participants commit and the counters stay open for
    :meth:`ResidentSession._close_round`.  Stateless between rounds, so
    reusable; a session whose participants change per round reassigns
    :attr:`participants`."""

    __slots__ = ("violations", "keys", "participants")

    def __init__(self, violations, keys, participants: Sequence) -> None:
        self.violations = violations
        self.keys = keys
        self.participants = participants

    def __enter__(self) -> None:
        self.violations.begin()
        self.keys.begin()
        for participant in self.participants:
            participant.begin()

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if exc_type is None:
            for participant in self.participants:
                participant.commit()
        else:
            for participant in self.participants:
                participant.rollback()
            self.violations.rollback()
            self.keys.rollback()
        return False


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
        under its ``lhs`` as ``(form, rhs position, rhs test, rhs pattern,
        report projector)``.  The rhs test is the C-level ``eq`` for a
        constant pattern (``value == pattern`` in :func:`matches`' operand
        order) and :func:`matches` for a predicate."""
        by_lhs: dict[tuple, tuple[dict, list]] = {}
        for constant in self.constants:
            hashed, probed = by_lhs.setdefault(constant.lhs, ({}, []))
            rhs = constant.rhs_value
            form = (
                constant,
                schema.position(constant.rhs_attr),
                matches if is_predicate(rhs) else eq,
                rhs,
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
            routed = list(map(lookup, map(project, rows)))
            for row, forms in compress(zip(rows, routed), routed):
                for constant, rhs_pos, test, rhs, report in forms:
                    if not test(row[rhs_pos], rhs):
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
            project_key = _key_projector(self._schema.key_positions())
            keys.add_bulk(list(map(project_key, hit_rows)), sign)


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


class GroupCounts:
    """The GROUP BY of a variable CFD, resident: ``x → {y: row count}``.

    An ``x`` group violates when it holds two distinct ``y``; the groups
    that do are the ``conflicting`` set, which :meth:`settle` moves one
    group at a time.  Every resident table of a session is one of these —
    the centralized fold's (:class:`VariableGroupState`), each distributed
    coordinator's (:class:`repro.detect.incremental._VariableState`) and
    CLUSTDETECT's per-bucket combination counts — so they share one
    count-and-journal step and one rollback.

    Batches are **transactional**: while one is open, the first touch of
    each ``x`` journals ``(was_conflicting, {y: prior count})`` — the
    :func:`_bump` journal of that group plus its conflict flag — so
    :meth:`rollback` restores counts *and* flags in O(|touched|).  Empty
    groups are dropped, never kept at ``{}``.
    """

    __slots__ = ("counts", "conflicting", "_journal")

    def __init__(self) -> None:
        self.counts: dict = {}
        self.conflicting: set = set()
        #: x -> (was conflicting, {y: prior count}) while a batch is open
        self._journal: dict | None = None

    def begin(self) -> None:
        """Open a transactional batch (first-touch journal per ``x``)."""
        self._journal = {}

    def commit(self) -> None:
        """Close the batch, discarding its journal."""
        self._journal = None

    def rollback(self) -> None:
        """Restore every touched group's counts and conflict flag; close
        the batch.  A no-op when no batch is open."""
        journal = self._journal
        self._journal = None
        if journal is None:
            return
        counts, conflicting = self.counts, self.conflicting
        for x, (was, priors) in journal.items():
            ys = counts.setdefault(x, {})
            _restore_counts(ys, priors)
            if not ys:
                del counts[x]
            (conflicting.add if was else conflicting.discard)(x)

    def _arm(self, x) -> dict | None:
        """``x``'s ``{y: prior}`` journal under an open batch (recorded on
        first touch), else ``None``."""
        journal = self._journal
        if journal is None:
            return None
        entry = journal.get(x)
        if entry is None:
            entry = journal[x] = (x in self.conflicting, {})
        return entry[1]

    def add_rows(self, x, y, n: int) -> None:
        """Add ``n`` rows of ``(x, y)``.  An underflow raises
        :class:`ValueError` with the table unchanged."""
        counts = self.counts
        ys = counts.get(x)
        if ys is None:
            ys = counts[x] = {}
        journal = None if self._journal is None else self._arm(x)
        try:
            _bump(ys, y, n, journal)
        finally:
            if not ys:
                del counts[x]

    def settle(self, x) -> int:
        """Re-derive ``x``'s conflict status after patching it: ``+1``
        when it starts conflicting, ``-1`` when it stops, else ``0``."""
        now = len(self.counts.get(x, ())) >= 2
        if now == (x in self.conflicting):
            return 0
        (self.conflicting.add if now else self.conflicting.discard)(x)
        return 1 if now else -1


class _CodeGroup:
    """The member keys of one σ-matched ``X`` group, keyed by its ``X``
    code (the group's RHS counts live in the state's
    :class:`GroupCounts`).

    Member keys are kept as a compacted multiset plus two append-only
    event logs (``adds`` / ``dels``) — the per-row residue of a batch is
    then a C-level ``list.extend``, and the logs fold into the multiset
    only when a conflict flip actually needs the membership (or the logs
    outgrow it).

    **Rollback relies on this invariant:** ``key_counts`` is *replaced*,
    never mutated in place; ``adds`` / ``dels`` only grow between
    compactions, and a compaction (:meth:`membership`) replaces all three
    with fresh objects.  The undo entry of an open batch therefore holds
    the three pre-batch objects by reference plus the two log lengths —
    O(1), whatever the group's size — and :meth:`restore` reinstates the
    references and truncates the logs.
    """

    __slots__ = ("key_counts", "adds", "dels")

    def __init__(self) -> None:
        self.key_counts: dict = {}
        self.adds: list = []
        self.dels: list = []

    def snapshot(self) -> tuple:
        adds, dels = self.adds, self.dels
        return self.key_counts, adds, len(adds), dels, len(dels)

    def restore(self, saved: tuple) -> None:
        self.key_counts, self.adds, n_adds, self.dels, n_dels = saved
        del self.adds[n_adds:]
        del self.dels[n_dels:]

    def membership(self) -> dict:
        """The compacted member-key multiset (folds the event logs in).

        C-level passes only: the adds count into one copy (a
        :class:`Counter`, which becomes the new multiset), the dels are
        tallied once and subtracted through ``map(counter.get, …)`` and
        one ``dict.update``, and the keys that reach zero leave through
        ``dict.__delitem__``.  An underflow raises with the multiset and
        both logs as they were."""
        if self.adds or self.dels:
            counter = Counter(self.key_counts)
            counter.update(self.adds)
            if self.dels:
                tally = _tally(self.dels)
                priors = map(counter.get, tally, repeat(0))
                left = list(map(sub, priors, tally.values()))
                if min(left) < 0:
                    raise ValueError("deleted a row that is not in the group")
                dict.update(counter, zip(tally, left))
                _drop(counter, compress(tally, map(not_, left)))
            self.key_counts = counter
            self.adds = []
            self.dels = []
        return self.key_counts


class VariableGroupState(GroupCounts):
    """Cached GROUP-BY state of one variable normal form.

    Append-only session dictionaries intern every distinct ``X`` / ``Y``
    projection ever seen, with the σ verdict per ``X`` code.  The
    :class:`GroupCounts` table it extends counts RHS codes per σ-matched
    ``X`` code; a :class:`_CodeGroup` per such code with at least one row
    holds its member keys.  A batch touches only the groups of its own
    rows; a group's member keys enter/leave the shared key counter
    exactly when the group flips.
    """

    __slots__ = (
        "variable",
        "_index",
        "_x_code_of",
        "_x_values",
        "_x_matched",
        "_y_code_of",
        "_y_values",
        "_code_groups",
        "_undo",
    )

    def __init__(self, variable: VariableCFD) -> None:
        super().__init__()
        self.variable = variable
        self._index = pattern_index(variable.patterns)
        self._x_code_of: dict[tuple, int] = {}
        self._x_values: list[tuple] = []
        self._x_matched: list[bool] = []
        self._y_code_of: dict = {}
        self._y_values: list = []
        self._code_groups: dict[int, _CodeGroup] = {}
        # transactional batches: x code -> (member group, its snapshot),
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
        super().begin()
        self._undo = {}

    def commit(self) -> None:
        """Close the batch, discarding its undo logs."""
        super().commit()
        self._undo = None

    def _touch(self, x: int, group) -> dict | None:
        """:meth:`GroupCounts._arm` for code ``x`` that, on the same first
        touch, also journals its member group (``None``: absent) — one
        check per distinct ``x`` of a fold arms both layers."""
        journal = self._journal
        if journal is None:
            return None
        entry = journal.get(x)
        if entry is None:
            entry = journal[x] = (x in self.conflicting, {})
            self._undo[x] = None if group is None else (group, group.snapshot())
        return entry[1]

    def rollback(self) -> None:
        """Restore the counts and every touched member group.

        A no-op when no batch is open.  Groups created during the batch
        disappear; groups deleted during it come back (the same object);
        groups mutated in place are restored from their undo entries.
        """
        super().rollback()
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

        One first-seen dictionary loop over ``map(itemgetter(*positions),
        rows)`` — the loop of :meth:`ColumnStore.column
        <repro.relational.columnar.ColumnStore.column>` — serves attach
        (every row a miss) and update (nearly every row a hit) alike.
        Single-attribute projections intern the *raw* value (no tuple
        allocation).  A miss appends the projection to the append-only
        decode list, so codes assigned once stay valid for the session's
        lifetime, which is what lets the group table key by int code.
        Returns the flat code list across all batches, aligned with the
        concatenated row stream, plus the freshly assigned codes in
        first-seen order.
        """
        project = itemgetter(*positions)
        codes: list[int] = []
        fresh: list[int] = []
        append = codes.append
        get = code_of.get
        for rows, _sign in batches:
            for value in map(project, rows):
                code = get(value)
                if code is None:
                    code = len(values)
                    code_of[value] = code
                    values.append(value)
                    fresh.append(code)
                append(code)
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
        dictionaries (one first-seen dictionary loop per projection, the
        same for an attach and an update, see :meth:`_intern_projections`)
        and σ is answered from the per-code verdict list.  Each stream
        then makes one pass over its σ-matched rows (:meth:`_stream`):
        one :class:`Counter` of its ``(x_code, y_code)`` pairs and its
        member keys per ``x_code``.  The streams net per pair — a delete
        and a re-insert of the same combination cancel before they reach
        the group table — and three phases apply the batch, with Python
        work per distinct touched pair or group and C-level work per row:

        * A, counts and journal (:meth:`_count_pairs`);
        * B, log extends and conflict keys, inserts before deletes
          (:meth:`_log_members`);
        * C, settle the flips (:meth:`_settle_flips`).

        Folding a multi-step chain in one call is sound because multiset
        arithmetic commutes and the counters only observe the batch's
        endpoints; the one behavioural difference from replaying the
        steps is that an *invalid* delete cancelled by a matching insert
        in the same batch is no longer detected (the net is zero).
        """
        batches = [(rows, sign) for rows, sign in batches if rows]
        if not batches:
            return
        lhs = self.variable.lhs
        x_codes, fresh = self._intern_projections(
            batches, schema.positions(lhs), self._x_code_of, self._x_values
        )
        if fresh:
            matches_any = self._index.matches_any
            x_values = self._x_values
            single = len(lhs) == 1
            self._x_matched.extend(
                matches_any((x_values[code],) if single else x_values[code])
                for code in fresh
            )
        y_codes, _fresh_y = self._intern_projections(
            batches,
            schema.positions(self.variable.rhs),
            self._y_code_of,
            self._y_values,
        )
        project_key = _key_projector(schema.key_positions())
        streams = []
        at = 0
        for rows, sign in batches:
            end = at + len(rows)
            stream = self._stream(
                rows, x_codes[at:end], y_codes[at:end], project_key
            )
            if stream is not None:
                streams.append((*stream, sign))
            at = end
        if not streams:
            return
        touched = self._count_pairs(streams)
        self._log_members(streams, touched, keys)
        self._settle_flips(touched, violations, keys)

    def _stream(self, rows, xs, ys, project_key):
        """One signed stream's pass over its σ-matched rows: its
        ``(x, y)`` pair counts and its member keys per ``x``, in stream
        order (``None`` when σ matches no row)."""
        verdicts = list(map(self._x_matched.__getitem__, xs))
        if not all(verdicts):
            if not any(verdicts):
                return None
            xs = list(compress(xs, verdicts))
            ys = compress(ys, verdicts)
            rows = compress(rows, verdicts)
        pairs = Counter(zip(xs, ys))
        members: dict[int, list] = {}
        get = members.get
        for x, key in zip(xs, map(project_key, rows)):
            bucket = get(x)
            if bucket is None:
                members[x] = [key]
            else:
                bucket.append(key)
        return pairs, members

    def _count_pairs(self, streams) -> dict:
        """Phase A: the streams' net ``(x, y)`` counts into the count
        table, one journal touch per distinct ``x`` (it also covers the
        mutations of phases B and C).  Returns ``x -> (member group, its
        y counts, its y journal)`` for every touched ``x``.  Conflict
        flips are *not* settled here: phase B reads the pre-batch flags."""
        if len(streams) == 1:
            pairs, _members, sign = streams[0]
            if sign > 0:
                net = pairs.items()
            else:
                net = zip(pairs, map(neg, pairs.values()))
        else:
            netted: dict = {}  # zeros stay: every x is touched
            get = netted.get
            for pairs, _members, sign in streams:
                for pair, n in pairs.items():
                    netted[pair] = get(pair, 0) + sign * n
            net = netted.items()
        counts, groups = self.counts, self._code_groups
        touched: dict = {}
        for (x, y), n in net:
            slot = touched.get(x)
            if slot is None:
                group = groups.get(x)
                journal = self._touch(x, group)
                if group is None:
                    group = groups[x] = _CodeGroup()
                y_rows = counts.get(x)
                if y_rows is None:
                    y_rows = counts[x] = {}
                slot = touched[x] = (group, y_rows, journal)
            if n:
                try:
                    _bump(slot[1], y, n, slot[2])
                except ValueError:
                    raise ValueError(
                        f"deleted a row of X group {self._x_values[x]!r} "
                        "that is not in the state"
                    ) from None
        for x, (_group, y_rows, _journal) in touched.items():
            if not y_rows:
                del counts[x]
        return touched

    def _log_members(self, streams, touched: dict, keys) -> None:
        """Phase B: each stream's member keys into its groups' event logs
        (C-level extends); the rows of a group that conflicted before the
        batch also count into the key counter (a flip settles the
        difference in phase C).

        Inserts fold first: a valid chain can insert a row and delete it
        again within one batch, and running deletes last means they
        always subtract from maximal counts — no transient underflow on
        the key counter, and compaction at any point sees every add the
        pending dels could refer to."""
        conflicting = self.conflicting
        for _pairs, members, sign in sorted(
            streams, key=itemgetter(2), reverse=True
        ):
            conflict_keys: list = []
            for x, member_keys in members.items():
                group = touched[x][0]
                (group.adds if sign > 0 else group.dels).extend(member_keys)
                if x in conflicting:
                    conflict_keys.extend(member_keys)
                if len(group.adds) + len(group.dels) > (
                    32 + 2 * len(group.key_counts)
                ):
                    group.membership()  # amortized compaction
            if conflict_keys:
                keys.add_bulk(conflict_keys, sign)

    def _settle_flips(self, touched: dict, violations, keys) -> None:
        """Phase C: settle each touched group's conflict flip from the
        post-batch counts.  A flip moves the group's violation and its
        whole membership; groups left with no rows are dropped."""
        counts, groups = self.counts, self._code_groups
        for x, (group, _y_rows, _journal) in touched.items():
            flip = self.settle(x)
            if flip:
                violations.add(self._code_violation(x), flip)
                members = group.membership()
                if sum(members.values()) != len(members):
                    members = Counter.elements(members)  # bag duplicates
                keys.add_bulk(list(members), flip)
            elif len(group.adds) + len(group.dels) > (
                32 + 2 * len(group.key_counts)
            ):
                group.membership()  # keeps pure-delete sessions bounded
            if x not in counts:
                del groups[x]


# -- the detector -------------------------------------------------------------


def apply_batch(store: KeyedRows, inserted: list, doomed) -> list:
    """Move one :meth:`~KeyedRows.check`-ed batch through ``store`` —
    deletes first — and return its non-empty signed row streams, the
    ``batches`` of :meth:`ResidentSession._fold`."""
    removed = store.delete(doomed)
    store.insert(inserted)
    return [(rows, sign) for rows, sign in ((removed, -1), (inserted, 1)) if rows]


class ResidentSession:
    """What every resident session is, whatever its layout.

    ``Vioπ(Σ, D)`` lives in one pair of :class:`TransitionCounter`\\ s —
    violations and violating tuple keys — whose zero crossings are each
    round's :class:`ViolationDelta`.  A *layout* — this module's
    :class:`IncrementalDetector` (one place, nothing shipped), and the
    horizontal, CLUSTDETECT, hybrid and vertical sessions of
    :mod:`repro.detect` — keeps its rows where they live and runs its own
    round inside :attr:`_transaction`, then closes it with
    :meth:`_close_round`.  The reports, :meth:`verify` and ``repr`` are
    here, once; a layout supplies only :meth:`_current`, its current rows
    as one full-schema :class:`Relation`.

    **Concurrency contract**: a session is *single-writer* — row stores,
    undo logs and transition counters assume one mutation at a time.
    Every public entry point therefore serializes on a per-session
    reentrant lock: concurrent callers (the resident service's request
    threads) are safe, they just take turns.  The lock is reentrant
    because public entry points call one another (``verify`` reads
    :attr:`report`).
    """

    #: whether :meth:`verify` compares violating tuple keys as well as
    #: violations; the distributed families ship coded summaries and keep
    #: no per-row keys of variable forms, so they compare violations only
    _verify_keys = True

    def __init__(self, cfds: CFD | Iterable[CFD], schema=None) -> None:
        self.cfds = [cfds] if isinstance(cfds, CFD) else list(cfds)
        #: serializes every public entry point (single-writer contract)
        self._session_lock = threading.RLock()
        self._reset(schema)

    def _reset(self, schema) -> None:
        """Fresh counters, and a round with no participants yet, for rows
        over ``schema``."""
        # single-attribute keys travel raw through the folds and the key
        # counters (no per-row 1-tuple); the report boundary re-wraps them
        self._wrap_keys = schema is not None and len(schema.key) == 1
        self._violations = TransitionCounter()
        self._keys = TransitionCounter()
        #: one round's all-or-nothing scope; the layout names the
        #: participants (its row stores and group states)
        self._transaction = Transaction(self._violations, self._keys, ())

    def _current(self) -> Relation | None:
        """The layout's current rows as one full-schema relation (``None``
        before there are any)."""
        raise NotImplementedError

    def _fold(
        self,
        schema,
        batches: list[tuple[list, int]],
        constants: ConstantFolds,
        variables: Sequence[VariableGroupState],
    ) -> None:
        """Fold one round's signed row streams through form states.

        Constant forms fold per stream; the whole list reaches each variable
        state's :meth:`VariableGroupState.fold_signed` in one call (a deleted
        and re-inserted combination cancels before it costs anything).
        """
        violations, keys = self._violations, self._keys
        for rows, sign in batches:
            constants.fold(
                Relation(schema, rows, copy=False), sign, violations, keys
            )
        for state in variables:
            state.fold_signed(schema, batches, violations, keys)

    def _close_round(self) -> ViolationDelta:
        """Close both counters' batches into one :class:`ViolationDelta`.

        The delta's reports materialize lazily; the key crossing sets
        transfer by reference, so closing a round is O(|violation
        crossings|), not O(|key crossings|).
        """
        v_added, v_removed = self._violations.commit()
        keys = self._keys
        k_added = keys._went_up
        k_removed = keys._went_down
        keys._went_up = None
        keys._went_down = None
        keys._undo = None
        return ViolationDelta.deferred(
            v_added, k_added, v_removed, k_removed, self._wrap_keys
        )

    @property
    def report(self) -> ViolationReport:
        """The full current report (a fresh copy, safe to merge/mutate).

        Building the copy is O(|report|); callers that only need the
        counts read :meth:`report_size` instead.
        """
        with self._session_lock:
            return ViolationReport(
                self._violations.positive(),
                _wrap(self._keys.positive(), self._wrap_keys),
            )

    def report_size(self) -> tuple[int, int]:
        """``(len(report.violations), len(report.tuple_keys))`` in O(1):
        the counters never keep a non-positive count."""
        with self._session_lock:
            return len(self._violations.counts), len(self._keys.counts)

    def verify(self, sample: int | None = None, seed: int = 8) -> bool:
        """Invariant check of the maintained state against ``reference``.

        With ``sample=None`` (the default), recomputes the report with
        :func:`detect_violations_reference` over the current rows and
        demands exact equality — O(|D|), the strongest check.

        With an integer ``sample``, draws that many current rows with
        ``random.Random(seed)`` and checks **subset soundness**: both
        violations and violating tuple keys are monotone increasing in
        the rows (a sub-relation's witnesses all survive in the full
        relation), so everything the reference engine finds on the
        sample must already be in the maintained report.  O(|sample|) —
        cheap enough to run inside a long-lived session as a periodic
        corruption check; it can miss corruption outside the sampled
        groups, never report a false alarm.

        Tuple keys are compared when :attr:`_verify_keys` says so.  The
        rows and the report are read under the session lock; the
        reference run happens outside it.
        """
        with self._session_lock:
            relation = self._current()
            if relation is None:
                raise ValueError("attach() a relation before verifying")
            maintained = self.report
        keys = self._verify_keys
        compare = eq
        if sample is not None and sample < len(relation):
            rows = random.Random(seed).sample(list(relation.rows), sample)
            relation = Relation(relation.schema, rows, copy=False)
            compare = le
        expected = detect_violations_reference(relation, self.cfds, keys)
        if not compare(set(expected.violations), set(maintained.violations)):
            return False
        return not keys or compare(
            set(expected.tuple_keys), set(maintained.tuple_keys)
        )

    def __repr__(self) -> str:
        violations, keys = self.report_size()
        return (
            f"{type(self).__name__}({len(self.cfds)} CFDs, "
            f"{violations} violations, {keys} violating tuples)"
        )


class IncrementalDetector(ResidentSession):
    """``Vioπ(Σ, D)`` maintained across insert/delete batches: the
    centralized layout of :class:`ResidentSession`, one place with
    nothing to ship.

    Compile once, :meth:`attach` to a relation (one full fold building
    the cached state), then :meth:`update` with successive batches, each
    in time proportional to the delta and the σ groups it touches.
    :attr:`report` is always the full current report; every ``update``
    additionally returns the :class:`ViolationDelta` of that batch.

    Alongside the fold state the session keeps its rows in a
    :class:`~repro.relational.rowstore.KeyedRows` store — key projection
    → resident row(s), a DBMS-style heap + primary index.  An
    :meth:`update` batch of keys and rows mutates the store in O(|ΔD|):
    no relation copy (a predicate delete scans the store once).
    :attr:`relation` stays available as the store's lazily materialized
    (and cached) snapshot.
    """

    def __init__(self, cfds: CFD | Iterable[CFD]) -> None:
        super().__init__(cfds)
        self._fused = FusedDetector(self.cfds)
        #: the resident rows; ``None`` until attach()
        self._rows: KeyedRows | None = None
        self.schema = None
        self._constants = ConstantFolds(self._fused._constants)
        self._variables: list[VariableGroupState] = []

    def _current(self) -> Relation | None:
        return None if self._rows is None else self._rows.relation

    @property
    def relation(self) -> Relation | None:
        """The current rows as a :class:`Relation` (materialized lazily
        after an update; the object is cached until the next one)."""
        with self._session_lock:
            return self._current()

    @property
    def fragments(self) -> list[Relation]:
        """The current rows as the session's one place — the distributed
        sessions' view of their rows."""
        return [self.relation]

    # -- lifecycle --------------------------------------------------------

    def attach(self, relation: Relation) -> ViolationReport:
        """Build (or rebuild) the cached state with one full fold of ``D``."""
        with self._session_lock:
            self.schema = relation.schema
            self._reset(relation.schema)
            self._rows = KeyedRows(relation)
            self._variables = [
                VariableGroupState(variable)
                for variable, _index in self._fused._variables
            ]
            self._transaction.participants = [self._rows, *self._variables]
            self._fold_batches(relation.schema, [(relation.rows, 1)])
            return self.report

    def _fold_batches(
        self, schema, batches: list[tuple[list, int]]
    ) -> None:
        self._fold(schema, batches, self._constants, self._variables)

    def update(
        self,
        inserted: Iterable[Sequence[object]] = (),
        deleted=(),
    ) -> ViolationDelta:
        """Absorb one explicit batch: ``deleted`` first, then ``inserted``.

        ``deleted`` is an iterable of keys (bare values accepted for
        single-attribute keys; unknown keys are no-ops) or a predicate —
        the :meth:`Relation.delete` contract.  The batch goes straight
        through the session's keyed row store: O(|ΔD|) dictionary
        operations, no O(|D|) row-list copy (a predicate costs one scan
        of the store).  All-or-nothing: a bad row or key raises before
        any state moves, and a failing fold rolls the whole round back.
        """
        with self._session_lock:
            rows = self._rows
            if rows is None:
                raise ValueError("attach() a relation before applying updates")
            batch, doomed = rows.check(inserted, deleted)
            if not doomed and not batch:
                return ViolationDelta()
            with self._transaction:
                self._fold_batches(self.schema, apply_batch(rows, batch, doomed))
            return self._close_round()

    def apply_updates(self, updates: Mapping[int, tuple]) -> ViolationDelta:
        """:meth:`update` as a round over the session's one place:
        ``updates`` holds one ``(inserted, deleted)`` batch, and its key
        (the place; ``0`` by convention) is not read."""
        ((inserted, deleted),) = updates.values()
        return self.update(inserted, deleted)


def incremental_detect(
    relation: Relation, cfds: CFD | Iterable[CFD]
) -> IncrementalDetector:
    """Attach a fresh :class:`IncrementalDetector` to ``relation``."""
    detector = IncrementalDetector(cfds)
    detector.attach(relation)
    return detector

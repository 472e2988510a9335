"""The delta engine's undo log: exact, and O(|ΔD|) to arm and drop.

``VariableGroupState`` undoes a failed batch from references, lengths and
prior-count journals — never from a copy of a touched group (see
``_CodeGroup`` in ``repro.core.incremental``).  Two things keep that
honest:

* **rollback exactness where the undo is subtle** — groups of a few
  hundred rows with non-empty event logs, a doomed batch that fails
  before or after a compaction it forced itself, on groups it created or
  emptied: the group table must be *structurally* pre-batch, not merely
  report-equal;
* **a complexity guard with no clock in it** — the ``tracemalloc`` peak of
  one fixed update must not depend on the size of the groups it touches.

Under it sits ``GroupCounts``, the one ``x -> {y: count}`` kernel every
resident session keeps; a property test pins it against a plain
``Counter``: exact rollback, commit equal to the model, and an underflow
that raises with the table unchanged.

Both run once per fused leg of the engine matrix (see ``conftest.py``);
the session itself always runs the delta folds.
"""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CFD, PatternTuple, TransitionCounter, WILDCARD
from repro.core.incremental import (
    GroupCounts,
    IncrementalDetector,
    incremental_detect,
)
from repro.relational import Relation, Schema

SCHEMA = Schema("R", ("id", "a", "b"), key=("id",))
CFD_AB = CFD(["a"], ["b"], [PatternTuple([WILDCARD], [WILDCARD])], name="phi")

FUSED_LEGS = pytest.mark.parametrize(
    "fused_leg", ["fused", "fused-numpy"], indirect=True
)


def _group_table(detector):
    """The variable form's group table by value, read without compacting:
    ``x -> ({y: count}, member-key multiset, conflicting)``."""
    state = detector._variables[0]
    groups = state._code_groups
    assert groups.keys() == state.counts.keys()
    assert state.conflicting <= state.counts.keys()
    table = {}
    for code, ys in state.counts.items():
        g = groups[code]
        members = Counter(g.key_counts)
        members.update(g.adds)
        members.subtract(g.dels)
        table[state._x_values[code]] = (
            dict(ys),
            {key: n for key, n in members.items() if n},
            code in state.conflicting,
        )
    return table


def _session_state(detector):
    report = detector.report
    return (
        _group_table(detector),
        set(report.violations),
        set(report.tuple_keys),
        sorted(detector.relation.rows),
    )


class _Session:
    """A detector over three groups — ``a=0`` clean (300 rows), ``a=1``
    conflicting (300 rows), ``a=2`` small (5 rows) — aged by committed
    batches so the code layout's ``adds`` / ``dels`` logs are non-empty."""

    def __init__(self):
        rows = [(i, 0, 0) for i in range(300)]
        rows += [(300 + i, 1, i % 2) for i in range(300)]
        rows += [(600 + i, 2, 7) for i in range(5)]
        self.live = {a: [r[0] for r in rows if r[1] == a] for a in (0, 1, 2)}
        self.next_id = 1000
        self.detector = incremental_detect(Relation(SCHEMA, rows), [CFD_AB])
        for _ in range(4):
            inserted, deleted = self.batch({0: (5, 3), 1: (5, 3), 2: (2, 1)})
            self.detector.update(inserted=inserted, deleted=deleted)
        groups = self.detector._variables[0]._code_groups.values()
        assert all(g.adds and g.dels for g in groups)

    def batch(self, plan, commit=True):
        """``{a: (n inserts, n deletes)}`` -> ``(inserted rows, deleted
        keys)``; inserts keep the group's conflict status."""
        inserted, deleted = [], []
        for a, (n_in, n_out) in plan.items():
            victims = self.live.get(a, [])[:n_out]
            deleted += victims
            fresh = list(range(self.next_id, self.next_id + n_in))
            self.next_id += n_in
            inserted += [(key, a, 7 if a == 2 else 0) for key in fresh]
            if commit:
                self.live[a] = self.live.get(a, [])[n_out:] + fresh
        return inserted, deleted


def _fail_update(detector, inserted, deleted, fuse):
    """Run one doomed update.  ``fuse`` is ``"end"`` (every fold of the
    batch completes, then the failure) or how many counter calls succeed
    before one raises mid-fold."""
    mp = pytest.MonkeyPatch()
    if fuse == "end":
        fold_batches = IncrementalDetector._fold_batches

        def doomed(self, schema, batches):
            fold_batches(self, schema, batches)
            raise RuntimeError("injected failure after the fold")

        mp.setattr(IncrementalDetector, "_fold_batches", doomed)
    else:
        left = [fuse]

        def countdown(original):
            def wrapper(self, *args, **kwargs):
                if left[0] <= 0:
                    raise RuntimeError("injected mid-fold failure")
                left[0] -= 1
                return original(self, *args, **kwargs)

            return wrapper

        for name in ("add", "add_bulk"):
            mp.setattr(
                TransitionCounter,
                name,
                countdown(getattr(TransitionCounter, name)),
            )
    try:
        with pytest.raises(RuntimeError, match="injected"):
            detector.update(inserted=inserted, deleted=deleted)
    finally:
        mp.undo()


#: doomed batches: (a) no compaction inside it; (b) more than
#: ``32 + 2·len(key_counts)`` rows on one group, so the group
#: compacts mid-batch and replaces the objects the undo entry references;
#: (c) one group created (``a=9``) and one emptied (``a=2``)
DOOMED = {
    "before-compaction": {0: (6, 4), 1: (6, 4)},
    "after-forced-compaction": {0: (700, 4), 1: (6, 4)},
    "group-created-and-emptied": {9: (3, 0), 2: (0, 100), 1: (2, 2)},
}


@pytest.mark.parametrize("fuse", ["end", 0, 1])
@pytest.mark.parametrize("scenario", DOOMED)
@FUSED_LEGS
def test_rollback_is_structurally_exact(fused_leg, scenario, fuse):
    session = _Session()
    detector = session.detector
    inserted, deleted = session.batch(DOOMED[scenario], commit=False)
    if scenario == "after-forced-compaction":
        # the batch really does compact group a=0 (the first X interned:
        # code 0) while it is open: run cleanly on a twin session, it
        # leaves the group a different key table object
        twin = _Session()
        group = twin.detector._variables[0]._code_groups[0]
        key_counts = group.key_counts
        twin.detector.update(*twin.batch(DOOMED[scenario]))
        assert group.key_counts is not key_counts

    before = _session_state(detector)
    _fail_update(detector, inserted, deleted, fuse)
    assert detector._variables[0]._undo is None
    table, violations, keys, rows = _session_state(detector)
    assert table == before[0]  # same groups, counts, membership, flags
    assert (violations, keys, rows) == before[1:]

    # the same batch re-applies on the restored state
    detector.update(inserted=inserted, deleted=deleted)
    assert detector.verify() is True
    after = _group_table(detector)
    if scenario == "group-created-and-emptied":
        assert 9 in after or (9,) in after
        assert 2 not in after and (2,) not in after


def _update_peak(group_rows):
    """``tracemalloc`` peak (bytes) of one fixed 8-insert + 4-delete
    update touching a clean and a conflicting group of ``group_rows``."""
    rows = [(i, 0, 0) for i in range(group_rows)]
    rows += [(group_rows + i, 1, i % 2) for i in range(group_rows)]
    detector = incremental_detect(Relation(SCHEMA, rows), [CFD_AB])
    base = 10 * group_rows

    def batch(n):
        fresh = base + 100 * n
        inserted = [(fresh + i, i % 2, 0) for i in range(8)]
        first = 4 * n
        deleted = [first, first + 1, group_rows + first, group_rows + first + 2]
        return inserted, deleted

    detector.update(*batch(0))  # warm: lazy plans, numpy, interned codes
    tracemalloc.start()
    try:
        detector.update(*batch(1))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert detector.verify() is True
    return peak


@FUSED_LEGS
def test_update_allocation_is_flat_in_group_size(fused_leg):
    """No clock: an update's peak allocation must not grow with the groups
    it touches (12 KB vs 13 KB here; 22 KB vs 603 KB when every touched
    group's member keys were copied on first touch).  The row counts keep
    every resident dict clear of a resize during the measured update."""
    small = _update_peak(100)
    large = _update_peak(10_000)
    assert large <= 2 * small, (small, large)
    assert small <= 2 * large, (small, large)


# -- the count kernel ---------------------------------------------------------

#: ``add_rows`` calls over a 4-value ``x`` and 3-value ``y`` alphabet;
#: negative counts underflow whenever the model holds fewer rows
ADDS = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 2), st.integers(-3, 3).filter(bool)
    ),
    max_size=14,
)


def _kernel_state(kernel):
    return (
        {x: dict(ys) for x, ys in kernel.counts.items()},
        set(kernel.conflicting),
    )


def _model_state(model, settled=True):
    counts = {}
    for (x, y), n in model.items():
        if n:
            counts.setdefault(x, {})[y] = n
    conflicting = {x for x, ys in counts.items() if len(ys) >= 2}
    return counts, conflicting if settled else set()


def _play(kernel, model, adds, settle):
    """Apply ``adds`` to the kernel and the ``Counter`` model, then (if
    ``settle``) settle every touched ``x``; an underflowing add must
    raise and change nothing."""
    touched = set()
    for x, y, n in adds:
        if model[x, y] + n < 0:
            before = _kernel_state(kernel)
            with pytest.raises(ValueError):
                kernel.add_rows(x, y, n)
            assert _kernel_state(kernel) == before
            continue
        kernel.add_rows(x, y, n)
        model[x, y] += n
        touched.add(x)
    for x in touched if settle else ():
        was = x in kernel.conflicting
        flip = kernel.settle(x)
        assert flip == (x in kernel.conflicting) - was


@settings(max_examples=150, deadline=None)
@given(ADDS, ADDS, st.booleans())
def test_group_counts_rollback_and_commit(seed, batch, settle):
    """``settle=False`` is CLUSTDETECT's combination table, which is never
    settled: its conflict set must stay empty across a rollback."""
    kernel, model = GroupCounts(), Counter()
    _play(kernel, model, seed, settle)
    assert _kernel_state(kernel) == _model_state(model, settle)

    before = _kernel_state(kernel)
    kernel.begin()
    _play(kernel, Counter(model), batch, settle)
    kernel.rollback()
    assert _kernel_state(kernel) == before

    kernel.begin()
    _play(kernel, model, batch, settle)
    kernel.commit()
    assert _kernel_state(kernel) == _model_state(model, settle)

"""Chaos suite: deterministic fault plans and transactional sessions.

The robustness contract under test: an injected fault fires exactly where
the plan says (and only once), a stale or malformed ``REPRO_FAULTS`` spec
fails loudly, and a failed update batch leaves a resident session exactly
as it was (rollback is all-or-nothing, and ``matches_full_recompute``
still holds afterwards).  The disk and serve fault kinds are driven end
to end in ``test_serve_durability.py`` / ``test_serve_governor.py``.
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CFD,
    FaultPlan,
    FaultSpecError,
    PatternTuple,
    TransitionCounter,
    WILDCARD,
    active_plan,
    detect_violations_reference,
    fault_plan,
    install_fault_plan,
)
from repro.core.incremental import incremental_detect
from repro.detect import incremental_clust, incremental_pat_s
from repro.partition import partition_uniform
from repro.relational import Relation, Schema, SchemaError

SCHEMA = Schema("R", ("id", "a", "b", "c"), key=("id",))

CFD_AB = CFD(["a"], ["b"], [PatternTuple([WILDCARD], [WILDCARD])], name="phi")


def _relation(n=30):
    return Relation(
        SCHEMA, [(i, i % 3, (i * 7) % 4, i % 2) for i in range(n)]
    )


# -- the plan itself ----------------------------------------------------------


def test_fault_plan_parse_round_trip():
    spec = "torn-write@2, bit-flip@0,fsync-fail@5,fold-fail@3,verify-drift@1"
    plan = FaultPlan.parse(spec)
    assert plan.disk == {
        "torn-write": {2}, "bit-flip": {0}, "fsync-fail": {5}
    }
    assert plan.serve == {"fold-fail": {3}, "verify-drift": {1}}
    assert "fold-fail@3" in repr(plan)
    # the repr is the spec, kinds in declaration order
    again = FaultPlan.parse(repr(plan)[len("FaultPlan("):-1])
    assert (again.disk, again.serve) == (plan.disk, plan.serve)
    assert repr(FaultPlan.parse("")) == "FaultPlan(empty)"


@pytest.mark.parametrize(
    "spec",
    [
        "explode@3",            # unknown kind
        "torn-write@three",     # non-integer order
        "crash",                # not kind@order
        "volume=11",            # not kind@order
        # the scheduler's grammar went with the scheduler: a stale spec
        # fails loudly instead of silently injecting nothing
        "crash@0",
        "crash@three",
        "slow@1",
        "seed=13",
        "rate=0.05",
        "rate=often",
        "rate=1.5",
        "latency=0.01",
        "kinds=crash",
        "kinds=crash|explode",
    ],
)
def test_fault_plan_rejects_bad_specs(spec):
    with pytest.raises(FaultSpecError):
        FaultPlan.parse(spec)


def test_fault_plan_disk_kinds_parse_on_their_own_counter():
    plan = FaultPlan.parse("torn-write@2,fold-fail@2,verify-drift@2")
    # disk orders are an independent sequence from the serve orders
    assert plan.next_fold_order() == 0
    assert plan.next_disk_order() == 0
    assert plan.next_disk_order() == 1
    assert plan.next_fold_order() == 1
    assert plan.next_verify_order() == 0
    # ...so one order number fires once per family, not once per plan
    assert plan.disk_fault_for(2) == "torn-write"
    assert plan.fold_fault_for(2) is True
    assert plan.verify_fault_for(2) is True


def test_fault_plan_disk_entries_fire_once():
    from repro.core.faults import DiskFaultInjected, disk_failure_for

    plan = FaultPlan.parse("torn-write@1")
    assert plan.disk_fault_for(0) is None
    assert plan.disk_fault_for(1) == "torn-write"
    assert plan.disk_fault_for(1) is None  # one-shot
    plan.reset()
    assert plan.disk_fault_for(1) == "torn-write"
    # injected disk faults surface as OSError so the durability layer
    # handles them on the exact path real I/O failures take
    assert isinstance(disk_failure_for("fsync-fail", 4), OSError)
    assert issubclass(DiskFaultInjected, OSError)


def test_fault_plan_rejects_unknown_disk_kinds():
    with pytest.raises(FaultSpecError):
        FaultPlan(disk={"head-crash": [1]})
    with pytest.raises(FaultSpecError):
        FaultPlan(serve={"fold-crash": [1]})


def test_fault_plan_explicit_entries_fire_once():
    plan = FaultPlan.parse("fold-fail@2,verify-drift@0")
    assert plan.fold_fault_for(0) is False
    assert plan.fold_fault_for(2) is True
    # one-shot: the retried fold (a fresh order number anyway) and even a
    # re-probe of the same number succeed
    assert plan.fold_fault_for(2) is False
    assert plan.verify_fault_for(0) is True
    assert plan.verify_fault_for(0) is False
    plan.reset()
    assert plan.fold_fault_for(2) is True


def test_active_plan_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    install_fault_plan(None)
    assert active_plan() is None
    monkeypatch.setenv("REPRO_FAULTS", "torn-write@5")
    env_plan = active_plan()
    assert env_plan.disk["torn-write"] == {5}
    assert active_plan() is env_plan  # cached: plan state must persist
    with fault_plan(FaultPlan(disk={"bit-flip": [1]})) as api_plan:
        assert active_plan() is api_plan  # API plan wins
    assert active_plan() is env_plan  # restored


# -- transactional sessions ---------------------------------------------------

ATTRS = ("a", "b", "c")
VALUES = [0, 1, 2]

rows_strategy = st.lists(
    st.tuples(*[st.sampled_from(VALUES) for _ in ATTRS]),
    min_size=2,
    max_size=16,
)

SESSION_SETTINGS = settings(max_examples=25, deadline=None)


def _report_state(detector):
    report = detector.report
    return (set(report.violations), set(report.tuple_keys))


def _countdown(original, n):
    """Wrap a method to raise after ``n`` successful calls."""
    state = {"left": n}

    def wrapper(self, *args, **kwargs):
        if state["left"] <= 0:
            raise RuntimeError("injected mid-batch failure")
        state["left"] -= 1
        return original(self, *args, **kwargs)

    return wrapper


@pytest.mark.usefixtures("detection_engine")
@SESSION_SETTINGS
@given(rows_strategy, rows_strategy, st.integers(0, 6))
def test_failed_update_rolls_back_session(initial, batch, fuse):
    """Property: failed batch ⇒ session state ≡ pre-batch, and the
    session keeps matching a full recompute afterwards."""
    relation = Relation(
        SCHEMA, [(i,) + row for i, row in enumerate(initial)]
    )
    fresh = [
        (1000 + i,) + row for i, row in enumerate(batch)
    ]
    doomed = [key for key, _ in zip(range(len(initial)), range(0, 4))]
    detector = incremental_detect(relation, [CFD_AB])
    before = _report_state(detector)
    before_rows = sorted(detector.relation.rows)

    counter_add = TransitionCounter.add
    counter_bulk = TransitionCounter.add_bulk
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(TransitionCounter, "add", _countdown(counter_add, fuse))
        mp.setattr(
            TransitionCounter, "add_bulk", _countdown(counter_bulk, fuse)
        )
        try:
            detector.update(inserted=fresh, deleted=doomed)
            failed = False
        except RuntimeError:
            failed = True
    finally:
        mp.undo()

    if failed:
        # all-or-nothing: counters, group tables and the row store are
        # exactly as before the doomed batch
        assert _report_state(detector) == before
        assert sorted(detector.relation.rows) == before_rows
    # either way the session still matches a full reference recompute,
    # and cleanly re-applying the batch works
    assert detector.verify() is True
    detector.update(inserted=fresh, deleted=doomed)
    assert detector.verify() is True


def _horizontal_session(kind):
    cluster = partition_uniform(_relation(30), 3)
    if kind == "clust":
        return incremental_clust(cluster, [CFD_AB])
    return incremental_pat_s(cluster, CFD_AB)


def _matches_reference(session):
    """The maintained report ≡ the reference engine over the resident rows."""
    rows = [row for fragment in session.fragments for row in fragment.rows]
    expected = detect_violations_reference(
        Relation(SCHEMA, rows, copy=False), CFD_AB, collect_tuples=False
    )
    return set(session.report.violations) == set(expected.violations)


@pytest.mark.parametrize("kind", ["pat-s", "clust"])
def test_failed_update_rolls_back_horizontal_session(kind):
    """A round whose *second* site is rejected leaves the first site's
    rows out too: fragments, report and cost log are all pre-round."""
    session = _horizontal_session(kind)
    session.apply_updates({0: ([(100, 0, 3, 0), (101, 0, 2, 1)], [])})
    before = set(session.report.violations)
    before_fragments = list(session.fragments)
    before_stages = len(session._cost.stages)

    # a fresh a-value with two b-values: folding it adds a violation
    good = {1: ([(200, 7, 3, 0), (201, 7, 2, 1)], [])}
    with pytest.raises(SchemaError):
        session.apply_updates({**good, 2: ([(300, 1, 3)], [])})

    assert session.fragments == before_fragments
    assert set(session.report.violations) == before
    assert len(session._cost.stages) == before_stages  # no half cost entry
    assert _matches_reference(session)
    # the session is still live: the valid half of the round applies cleanly
    update = session.apply_updates(good)
    assert len(update.delta.added.violations) == 1
    assert _matches_reference(session)


def test_mid_fold_failure_rolls_back_pat_session():
    session = _horizontal_session("pat-s")
    session.apply_updates({0: ([(100, 0, 3, 0), (101, 0, 2, 1)], [])})
    before = (set(session.report.violations), set(session.report.tuple_keys))
    before_fragments = list(session.fragments)
    before_stages = len(session._cost.stages)

    from repro.detect.incremental import _VariableState

    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(
            _VariableState, "settle", _countdown(_VariableState.settle, 0)
        )
        with pytest.raises(RuntimeError, match="injected"):
            session.apply_updates(
                {1: ([(200, 1, 3, 0), (201, 1, 2, 1)], []), 2: ([], [2])}
            )
    finally:
        mp.undo()

    assert (
        set(session.report.violations), set(session.report.tuple_keys)
    ) == before
    assert session.fragments == before_fragments  # versions rolled back
    assert len(session._cost.stages) == before_stages  # no half cost entry
    assert session.verify() is True
    # the session is still live: the same round applies cleanly
    session.apply_updates(
        {1: ([(200, 1, 3, 0), (201, 1, 2, 1)], []), 2: ([], [2])}
    )
    assert session.verify() is True


def test_verify_full_and_sampled():
    # pinned to a fold engine: the test corrupts the transition counters,
    # which recompute-mode engines (reference, sql) do not maintain
    relation = _relation(40)
    detector = incremental_detect(relation, [CFD_AB], engine="fused")
    assert detector.verify() is True
    assert detector.verify(sample=10) is True
    # corrupt the maintained state: verify must notice
    detector._violations.counts.clear()
    detector._keys.counts.clear()
    assert detector.verify() is False
    assert detector.verify(sample=30) is False


def test_verify_on_distributed_session():
    session = incremental_pat_s(partition_uniform(_relation(30), 3), CFD_AB)
    assert session.verify() is True
    assert session.verify(sample=10) is True
    session._violations.counts.clear()
    session._keys.counts.clear()
    assert session.verify() is False


def test_update_after_rollback_keeps_incremental_speed_path():
    """A rollback must not silently flip the session to reference mode."""
    relation = _relation(20)
    detector = incremental_detect(relation, [CFD_AB], engine="fused")
    assert detector.engine == "fused"
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(
            TransitionCounter, "add", _countdown(TransitionCounter.add, 0)
        )
        with pytest.raises(RuntimeError):
            detector.update(inserted=[(500, 0, 3, 1)])
    finally:
        mp.undo()
    assert detector.engine == "fused"
    delta = detector.update(inserted=[(500, 0, 3, 1)])
    assert (500,) in detector.report.tuple_keys or not delta


def teardown_module(module):
    install_fault_plan(None)
    os.environ.pop("REPRO_FAULTS", None)

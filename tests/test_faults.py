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
from repro.detect import incremental_pat_s
from repro.partition import partition_uniform
from repro.relational import Relation, Schema, SchemaError

# the per-family session builders of the state-machine suite: three sites
# (or two regions split on ``c``), Σ with variable and constant forms
from test_session_machine import (
    FAMILIES,
    apply_round as _apply,
    build_session,
    places_of as _places,
    sigma_of,
)

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


# -- a failed round is a no-op: every family, every stage ----------------------


def _family_session(kind):
    session, _initial = build_session(kind)
    return session


def _round_for(kind, session, poison=None):
    """A round that deletes and inserts at place 1 (``c = 1`` rows, so a
    hybrid session accepts them), plus a delete at place 2 where the
    family takes multi-place rounds."""
    places = _places(session)
    inserted = [(200, 1, 3, 1), (201, 7, 2, 1), (202, 7, 1, 1)]
    if poison is not None:
        inserted[1] = poison
    round_ = {1: (inserted, [places[1].rows[0][0]])}
    if kind != "hybrid":
        round_[2] = ([], [places[2].rows[0][0]])
    return round_


def _kernel_tables(session):
    """Every resident coordinator table, decoded to values."""
    tables = []
    for state in session._states:
        kernels = getattr(state, "members", [state])
        for kernel in kernels:
            shared = kernel.shared
            x_of = (lambda x: x) if shared is None else shared.x_values.__getitem__
            y_of = (lambda y: y) if shared is None else shared.y_values.__getitem__
            tables.append(
                (
                    {
                        (x_of(x), y_of(y)): n
                        for x, ys in kernel.pair_counts.items()
                        for y, n in ys.items()
                    },
                    {x_of(x) for x in kernel.conflicting},
                    list(kernel.bucket_rows),
                )
            )
        if hasattr(state, "combo_counts"):
            tables.append(
                (
                    [
                        {state.shared.values[c]: n for c, n in bucket.items()}
                        for bucket in state.combo_counts
                    ],
                    list(state.bucket_rows),
                )
            )
    return tables


def _session_state(session):
    report = session.report
    return (
        set(report.violations),
        set(report.tuple_keys),
        session.report_size(),
        len(session._cost.stages),
        len(session.shipments.events),
        session.shipments.control_messages,
        _kernel_tables(session),
    )


def _assert_round_was_a_noop(session, before, before_places):
    places = _places(session)
    assert len(places) == len(before_places)
    # identity, not equality: the pre-round versions are back in place
    assert all(a is b for a, b in zip(places, before_places))
    assert _session_state(session) == before
    violations, tuple_keys = before[0], before[1]
    assert session.report_size() == (len(violations), len(tuple_keys))
    assert session.verify() is True


@pytest.mark.parametrize("kind", FAMILIES)
def test_failed_update_rolls_back_horizontal_session(kind):
    """A round the fragment step rejects — a wrong-width row at the last
    place, after an earlier place's valid batch — leaves no trace."""
    session = _family_session(kind)
    _apply(session, {0: ([(100, 0, 3, 0), (101, 0, 2, 0)], [])})
    before = _session_state(session)
    before_places = list(_places(session))

    # a fresh a-value with two b-values: folding it adds a violation
    good = [(200, 7, 3, 1), (201, 7, 2, 1)]
    bad = (300, 1, 3, 1, 9)  # too wide; c = 1 so a region predicate passes
    if kind == "hybrid":
        rejected = {1: (good + [bad], [])}
    else:
        rejected = {1: (good, []), 2: ([bad], [])}
    with pytest.raises(SchemaError):
        _apply(session, rejected)
    _assert_round_was_a_noop(session, before, before_places)

    # the session is still live: the valid half of the round applies cleanly
    update = _apply(session, {1: (good, [])})
    assert len(update.delta.added.violations) == len(sigma_of(kind))
    assert session.verify() is True


def _raise_injected(*_args, **_kwargs):
    raise RuntimeError("injected mid-batch failure")


def _inject(mp, kind, stage):
    """Arm a failure at one stage *after* the fragment step."""
    from repro.core.incremental import ConstantFolds
    from repro.detect import clust, hybrid, incremental
    from repro.detect.incremental import _VariableState

    if stage == "constants":  # the deletes fold, the inserts fold raises
        mp.setattr(ConstantFolds, "fold", _countdown(ConstantFolds.fold, 1))
    elif stage == "scan":
        mp.setattr(incremental, "scan_delta_summary", _raise_injected)
        mp.setattr(hybrid, "scan_delta_summary", _raise_injected, raising=False)
        mp.setattr(clust, "scan_clust_delta_summary", _raise_injected)
    elif stage == "add_rows":  # for clust: inside the zero-crossing step
        mp.setattr(
            _VariableState, "add_rows", _countdown(_VariableState.add_rows, 1)
        )
    elif stage == "settle":
        mp.setattr(_VariableState, "settle", _countdown(_VariableState.settle, 0))
    elif stage == "patch":  # clust: a later bucket's patch, earlier ones applied
        mp.setattr(
            clust._ClusterGroupState,
            "patch",
            _countdown(clust._ClusterGroupState.patch, 1),
        )


STAGES = ["constants", "scan", "add_rows", "settle", "unhashable"]


@pytest.mark.parametrize(
    "kind,stage",
    [(kind, stage) for kind in FAMILIES for stage in STAGES]
    + [("clust", "patch")],
)
def test_mid_fold_failure_rolls_back_session(kind, stage):
    """A round that raises after the fragment versions were installed —
    at the delta constants fold, the delta scan, a kernel patch, a kernel
    settle, or on a cell no fold can hash — is a no-op; the same round
    then applies cleanly."""
    session = _family_session(kind)
    _apply(session, {0: ([(100, 0, 3, 0), (101, 0, 2, 0)], [])})
    before = _session_state(session)
    before_places = list(_places(session))

    mp = pytest.MonkeyPatch()
    try:
        if stage == "unhashable":
            doomed = _round_for(kind, session, poison=(201, 1, ["x"], 1))
            with pytest.raises(TypeError, match="unhashable"):
                _apply(session, doomed)
        else:
            _inject(mp, kind, stage)
            with pytest.raises(RuntimeError, match="injected"):
                _apply(session, _round_for(kind, session))
    finally:
        mp.undo()
    _assert_round_was_a_noop(session, before, before_places)

    update = _apply(session, _round_for(kind, session))
    assert update.delta.added.violations or update.delta.removed.violations
    assert session.verify() is True
    assert len(session._cost.stages) == before[3] + 1


# -- the vertical session's round is all-or-nothing too -------------------------


def _vertical_session():
    """10 rows split into ``(id, a, b)`` + ``(id, c)``: ``p: a → b`` is a
    local plan, ``q: a → c`` a join plan."""
    from repro.detect import IncrementalVerticalDetector
    from repro.partition import vertical_partition

    sigma = [
        CFD(["a"], ["b"], [PatternTuple([WILDCARD], [WILDCARD])], name="p"),
        CFD(["a"], ["c"], [PatternTuple([WILDCARD], [WILDCARD])], name="q"),
    ]
    cluster = vertical_partition(_relation(10), [("id", "a", "b"), ("id", "c")])
    session = IncrementalVerticalDetector(cluster, sigma)
    session.detect()
    return session, sigma


def _vertical_state(session):
    report = session.report
    return (
        [sorted(plan.detector.relation.rows) for plan in session._plans],
        set(report.violations),
        set(report.tuple_keys),
        list(session._cost.stages),
        list(session.shipments.events),
    )


@pytest.mark.parametrize("stage", ["unhashable", "mid-fold"])
def test_failed_vertical_round_is_a_noop(stage, monkeypatch):
    """A round that raises after plan ``p`` folded — ``q``'s fold meets an
    unhashable cell, or fails mid-fold — leaves the fragment versions,
    every plan's rows, the report, the cost log and the shipments as
    they were; the same kind of round then applies cleanly."""
    from repro.core.incremental import VariableGroupState
    from repro.detect import vertical_detect
    from repro.partition import vertical_partition

    # the fold the injection arms is the fused engine's
    monkeypatch.setenv("REPRO_ENGINE", "fused")
    session, sigma = _vertical_session()
    before = _vertical_state(session)
    before_fragments = list(session.fragments)
    assert [len(rows) for rows in before[0]] == [10, 10]

    mp = pytest.MonkeyPatch()
    try:
        if stage == "unhashable":
            with pytest.raises(TypeError):
                session.update(inserted=[(10, 1, 3, ["x"])])
        else:
            mp.setattr(
                VariableGroupState,
                "fold_signed",
                _countdown(VariableGroupState.fold_signed, 1),
            )
            with pytest.raises(RuntimeError, match="injected"):
                session.update(inserted=[(10, 1, 3, 0)], deleted=[0])
    finally:
        mp.undo()
    assert all(a is b for a, b in zip(session.fragments, before_fragments))
    assert _vertical_state(session) == before

    session.update(inserted=[(10, 1, 3, 0)], deleted=[0])
    rows = [row for row in _relation(10).rows if row[0] != 0] + [(10, 1, 3, 0)]
    fresh = vertical_detect(
        vertical_partition(Relation(SCHEMA, rows), [("id", "a", "b"), ("id", "c")]),
        sigma,
    )
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys
    assert len(session._cost.stages) == len(before[3]) + 1


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
        for name in ("add", "add_bulk"):
            mp.setattr(
                TransitionCounter,
                name,
                _countdown(getattr(TransitionCounter, name), 0),
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

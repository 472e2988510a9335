"""Chaos suite: deterministic fault plans and transactional sessions.

The robustness contract under test: an injected fault fires exactly where
the plan says (and only once), a stale or malformed ``REPRO_FAULTS`` spec
fails loudly, and a failed update batch leaves a resident session exactly
as it was (rollback is all-or-nothing, and ``matches_full_recompute``
still holds afterwards).  The disk and serve fault kinds are driven end
to end in ``test_serve_durability.py`` / ``test_serve_governor.py``.
"""

import os
from collections import Counter

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
from repro.partition import partition_uniform
from repro.relational import Relation, Schema, SchemaError

# the ``cust`` fixture of the complexity suite: three vertical fragments,
# and the CC (hybrid region) and street positions
from test_complexity import CC as CUST_CC, STREET as CUST_STREET
from test_complexity import VSETS as CUST_VSETS

# the per-family session builders of the state-machine suite: three sites
# (or two regions split on ``c``), Σ with variable and constant forms
from test_session_machine import (
    FAMILIES,
    apply_round as _apply,
    build_cluster,
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
    """Every resident count table, decoded to values."""

    def decode(kernel, x_of, y_of):
        return (
            {
                (x_of(x), y_of(y)): n
                for x, ys in kernel.counts.items()
                for y, n in ys.items()
            },
            {x_of(x) for x in kernel.conflicting},
        )

    tables = []
    for state in session._states:
        for kernel in getattr(state, "members", [state]):
            shared = kernel.shared
            x_of = (lambda x: x) if shared is None else shared.x_values.__getitem__
            y_of = (lambda y: y) if shared is None else shared.y_values.__getitem__
            tables.append(decode(kernel, x_of, y_of))
        if hasattr(state, "combos"):
            tables.append(
                decode(state.combos, lambda x: x, state.shared.values.__getitem__)
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
        [sorted(plan.rows.relation.rows) for plan in session._plans],
        set(report.violations),
        set(report.tuple_keys),
        list(session._cost.stages),
        list(session.shipments.events),
    )


@pytest.mark.parametrize("stage", ["unhashable", "mid-fold"])
def test_failed_vertical_round_is_a_noop(stage):
    """A round that raises after plan ``p`` folded — ``q``'s fold meets an
    unhashable cell, or fails mid-fold — leaves the fragment stores,
    every plan's rows, the report, the cost log and the shipments as
    they were; the same kind of round then applies cleanly."""
    from repro.core.incremental import VariableGroupState
    from repro.detect import vertical_detect
    from repro.partition import vertical_partition

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


def test_vertical_session_serializes_concurrent_writers():
    """More writer threads than cores, a short switch interval: every
    plan's batch stays one transaction, so the union report ends equal
    to a fresh run over the rows and ``report_size()`` to its length."""
    import sys
    import threading

    from repro.detect import vertical_detect
    from repro.partition import vertical_partition

    session, sigma = _vertical_session()
    n_threads, rounds = 6, 20
    errors = []

    def writer(t):
        try:
            for r in range(rounds):
                key = 100 + t * rounds + r
                session.update(inserted=[(key, key % 3, (key * 5) % 4, key % 2)])
                session.update(deleted=[key - 1] if r else [])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    last = [100 + t * rounds + rounds - 1 for t in range(n_threads)]
    rows = _relation(10).rows + [(k, k % 3, (k * 5) % 4, k % 2) for k in last]
    fresh = vertical_detect(
        vertical_partition(Relation(SCHEMA, rows), [("id", "a", "b"), ("id", "c")]),
        sigma,
    )
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys
    assert session.report_size() == (
        len(fresh.report.violations),
        len(fresh.report.tuple_keys),
    )
    assert len(session._cost.stages) == 2 + 2 * n_threads * rounds


# -- an interrupt at any counter call leaves the round a no-op ----------------


def _cust_session(kind):
    """``(session, Σ, all rows, place-0 rows)`` over 400 ``generate_cust``
    rows; ``ctr`` hosts one CFD, every other family both overlapping ones."""
    from repro.core import IncrementalDetector
    from repro.datagen import generate_cust
    from repro.datagen.cust import cust_overlapping_cfds, cust_street_cfd
    from repro.detect import (
        IncrementalClustDetector,
        IncrementalHorizontalDetector,
        IncrementalHybridDetector,
        IncrementalVerticalDetector,
    )
    from repro.distributed import HybridCluster
    from repro.partition import vertical_partition
    from repro.relational import Eq

    relation = generate_cust(400, seed=3, error_rate=0.1)
    sigma = [cust_street_cfd()] if kind == "ctr" else cust_overlapping_cfds()
    if kind == "central":
        session = IncrementalDetector(sigma)
        session.attach(relation)
        return session, sigma, relation, relation.rows
    if kind == "vertical":
        session = IncrementalVerticalDetector(
            vertical_partition(relation, CUST_VSETS), sigma
        )
    elif kind == "hybrid":
        codes = sorted({row[CUST_CC] for row in relation.rows})
        session = IncrementalHybridDetector(
            HybridCluster.from_partitions(
                relation,
                {f"CC{code}": Eq("CC", code) for code in codes},
                {
                    name: list(attrs[1:])
                    for name, attrs in zip("ABC", CUST_VSETS)
                },
            ),
            sigma,
        )
    elif kind == "clust":
        session = IncrementalClustDetector(partition_uniform(relation, 4), sigma)
    else:
        session = IncrementalHorizontalDetector(
            partition_uniform(relation, 4), sigma[0], kind
        )
    session.detect()
    if kind == "vertical":
        return session, sigma, relation, relation.rows
    return session, sigma, relation, _places(session)[0].rows


def _cust_batch(rows):
    """8 key deletes + 8 inserts: the next 8 rows again under fresh keys,
    each with a new street, so every insert puts its ``(CC, AC, zip)``
    group in conflict."""
    doomed = [row[0] for row in rows[:8]]
    inserted = [
        (10_000 + i, *row[1:CUST_STREET], f"{row[CUST_STREET]}~",
         *row[CUST_STREET + 1:])
        for i, row in enumerate(rows[8:16])
    ]
    return inserted, doomed


def _cust_round(kind, session, inserted, doomed):
    """The batch as one round at place 0 (the whole tuple, vertically)."""
    if kind in ("central", "vertical"):
        return session.update(inserted=inserted, deleted=doomed)
    return session.update(0, inserted=inserted, deleted=doomed)


def _cust_state(kind, session):
    """The rollback tests' snapshot: report, tuple keys, rows per place
    or plan, cost stages and shipments."""
    report = session.report
    if kind == "central":
        return (
            set(report.violations),
            set(report.tuple_keys),
            session.report_size(),
            Counter(session.relation.rows),
        )
    if kind == "vertical":
        return (
            _vertical_state(session),
            session.report_size(),
            [Counter(fragment.rows) for fragment in session.fragments],
        )
    return (
        _session_state(session),
        [Counter(place.rows) for place in _places(session)],
    )


def _places_or_relation(kind, session):
    return [session.relation] if kind == "central" else list(_places(session))


def _interrupt_at(mp, k):
    """Make the ``k``-th ``TransitionCounter.add`` / ``add_bulk`` call of
    a round (counted from 0 across both) raise ``KeyboardInterrupt``;
    returns the one-item list counting the calls made."""
    calls = [0]

    def arm(original):
        def wrapper(self, *args, **kwargs):
            calls[0] += 1
            if calls[0] == k + 1:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        return wrapper

    for name in ("add", "add_bulk"):
        mp.setattr(TransitionCounter, name, arm(getattr(TransitionCounter, name)))
    return calls


@pytest.mark.parametrize(
    "kind", ["central", "ctr", "clust", "hybrid", "vertical"]
)
def test_interrupted_round_is_a_noop(kind):
    """A ``KeyboardInterrupt`` at the k-th counter call of a round, for
    k = 0, 1, 2, … until the round completes without it firing, leaves
    the session exactly as it was — report, tuple keys, rows per place or
    plan, cost stages, shipments — and the completed round matches the
    ``reference`` engine over the updated rows."""
    session, sigma, relation, place_rows = _cust_session(kind)
    inserted, doomed = _cust_batch(place_rows)
    # how many counter calls the round makes: one clean run on a twin
    twin = _cust_session(kind)[0]
    with pytest.MonkeyPatch.context() as mp:
        calls = _interrupt_at(mp, -1)
        _cust_round(kind, twin, inserted, doomed)
    n_calls = calls[0]
    assert n_calls > 0

    before = _cust_state(kind, session)
    before_places = _places_or_relation(kind, session)
    for k in range(n_calls):
        with pytest.MonkeyPatch.context() as mp:
            _interrupt_at(mp, k)
            with pytest.raises(KeyboardInterrupt):
                _cust_round(kind, session, inserted, doomed)
        assert _cust_state(kind, session) == before, f"torn at k={k}"
        assert all(
            a is b
            for a, b in zip(_places_or_relation(kind, session), before_places)
        ), f"k={k}"
    # k = n_calls: the round completes without the injection firing
    with pytest.MonkeyPatch.context() as mp:
        calls = _interrupt_at(mp, n_calls)
        _cust_round(kind, session, inserted, doomed)
    assert calls[0] == n_calls

    gone = set(doomed)
    final = [row for row in relation.rows if row[0] not in gone] + inserted
    expected = detect_violations_reference(
        Relation(relation.schema, final), sigma
    )
    report = session.report
    assert report.violations == expected.violations
    if kind in ("central", "vertical"):
        assert report.tuple_keys == expected.tuple_keys


def test_verify_full_and_sampled():
    relation = _relation(40)
    detector = incremental_detect(relation, [CFD_AB])
    assert detector.verify() is True
    assert detector.verify(sample=10) is True
    # corrupt the maintained state: verify must notice
    detector._violations.counts.clear()
    detector._keys.counts.clear()
    assert detector.verify() is False
    assert detector.verify(sample=30) is False


@pytest.mark.parametrize("kind", ["pat-s", "clust", "hybrid", "vertical"])
def test_verify_on_distributed_session(kind):
    """Every session shape inherits the one ``verify``: full and sampled
    checks hold after a round, and cleared counters read ``False``."""
    session, _outcome = build_session(kind)
    # one inserted row: a whole-tuple batch, or a round at place 1 (site
    # 1, or the ``c = 1`` region)
    batch = ([(100, 0, 3, 1)], [])
    _apply(session, batch if kind == "vertical" else {1: batch})
    assert session.verify() is True
    assert session.verify(sample=10) is True
    session._violations.counts.clear()
    session._keys.counts.clear()
    assert session.verify() is False
    assert session.verify(sample=10) is False


@pytest.mark.parametrize(
    "kind, keys_compared",
    [("central", True), ("vertical", True), ("pat-s", False)],
)
def test_verify_compares_tuple_keys_only_where_sessions_keep_them(
    kind, keys_compared
):
    """The distributed families ship coded summaries and keep no per-row
    keys of variable forms, so their ``verify`` compares violations only;
    the central and vertical sessions compare tuple keys too."""
    if kind == "central":
        session = incremental_detect(
            build_cluster("ctr").reconstruct(), sigma_of("clust")
        )
    else:
        session, _outcome = build_session(kind)
    assert session.report.tuple_keys
    session._keys.counts.clear()
    assert session.verify() is (not keys_compared)


def test_update_after_rollback_keeps_incremental_speed_path():
    """A rollback leaves the delta state exact and every batch closed, so
    the next update folds on it."""
    relation = _relation(20)
    detector = incremental_detect(relation, [CFD_AB])
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
    assert detector._violations._undo is None
    assert detector._keys._undo is None
    assert detector._variables[0]._undo is None
    assert detector.verify() is True
    delta = detector.update(inserted=[(500, 0, 3, 1)])
    assert (500,) in detector.report.tuple_keys or not delta
    assert detector.verify() is True


def teardown_module(module):
    install_fault_plan(None)
    os.environ.pop("REPRO_FAULTS", None)

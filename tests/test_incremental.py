"""Property suite for incremental detection (centralized + distributed).

The acceptance property: for random relations, Σ and random insert/delete
batches — including values the shared dictionaries have never seen — the
incrementally maintained state after N updates is **identical** to a full
recompute on the final relation: violations, violating tuple keys, and
(for the distributed sessions) the coordinator GROUP-BY state a fresh run
would rebuild.  Driven across every engine.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CFD,
    IncrementalDetector,
    PatternTuple,
    TransitionCounter,
    WILDCARD,
    detect_violations_reference,
)
from repro.core.incremental import ViolationDelta
from repro.detect import (
    IncrementalHorizontalDetector,
    ctr_detect,
    pat_detect_rt,
    pat_detect_s,
)
from repro.distributed import Cluster
from repro.partition import partition_uniform
from repro.relational import Relation, Schema
from seed_oracle import assert_seed_equals_one_shot

ATTRS = ("a", "b", "c")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))
#: base domain; update batches additionally mint values outside it (so the
#: dictionaries and σ tries must absorb genuinely unseen values)
VALUES = [0, 1, 2, "x"]
FRESH = ["Δ1", "Δ2", 99]

ONE_SHOT = {"ctr": ctr_detect, "pat-s": pat_detect_s, "pat-rt": pat_detect_rt}


@st.composite
def cfds(draw):
    lhs = tuple(draw(st.permutations(ATTRS)))[: draw(st.integers(1, 2))]
    rhs_pool = [a for a in ATTRS if a not in lhs]
    rhs = (draw(st.sampled_from(rhs_pool)),)
    entries = st.sampled_from([WILDCARD] + VALUES)
    tableau = [
        PatternTuple(
            tuple(draw(entries) for _ in lhs),
            (draw(st.sampled_from([WILDCARD] + VALUES)),),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return CFD(lhs, rhs, tableau, name=f"cfd{draw(st.integers(0, 99))}")


def rows_strategy(start_id=0, domain=VALUES):
    return st.lists(
        st.tuples(*[st.sampled_from(domain) for _ in ATTRS]),
        min_size=0,
        max_size=14,
    ).map(
        lambda bodies: [
            (start_id + i,) + body for i, body in enumerate(bodies)
        ]
    )


@st.composite
def update_scripts(draw):
    """N batches of (inserted rows, deleted key fraction)."""
    steps = []
    for step in range(draw(st.integers(1, 3))):
        inserted = draw(
            rows_strategy(start_id=1000 + 100 * step, domain=VALUES + FRESH)
        )
        delete_ratio = draw(st.floats(0, 1))
        steps.append((inserted, delete_ratio))
    return steps


def run_script(detector_update, current_rows, script, rng_keys):
    """Apply every batch; returns the final row list (the oracle input)."""
    rows = list(current_rows)
    for inserted, delete_ratio in script:
        keys = [row[0] for row in rows]
        n_delete = int(len(keys) * delete_ratio)
        doomed = set(keys[:n_delete])
        detector_update(inserted, sorted(doomed))
        rows = [row for row in rows if row[0] not in doomed] + list(inserted)
    return rows


@settings(deadline=None, max_examples=40)
@given(
    rows_strategy(),
    st.lists(cfds(), min_size=1, max_size=2),
    update_scripts(),
)
def test_incremental_equals_full_recompute_all_engines(rows, sigma, script):
    relation = Relation(SCHEMA, rows)
    for engine in ("reference", "fused"):
        detector = IncrementalDetector(sigma, engine=engine)
        detector.attach(relation)
        final_rows = run_script(
            lambda ins, dels: detector.update(inserted=ins, deleted=dels),
            rows,
            script,
            None,
        )
        oracle = detect_violations_reference(Relation(SCHEMA, final_rows), sigma)
        report = detector.report
        assert report.violations == oracle.violations, engine
        assert report.tuple_keys == oracle.tuple_keys, engine
        assert sorted(map(repr, detector.relation.rows)) == sorted(
            map(repr, final_rows)
        )


@settings(deadline=None, max_examples=25)
@given(
    rows_strategy(),
    cfds(),
    update_scripts(),
    st.sampled_from(["ctr", "pat-s", "pat-rt"]),
    st.integers(1, 4),
)
def test_distributed_incremental_equals_fresh_run(
    rows, cfd, script, algorithm, n_sites
):
    relation = Relation(SCHEMA, rows)
    cluster = partition_uniform(relation, n_sites)
    session = IncrementalHorizontalDetector(cluster, cfd, algorithm)
    initial = session.detect()

    one_shot = ONE_SHOT[algorithm](partition_uniform(relation, n_sites), cfd)
    assert_seed_equals_one_shot(initial, one_shot)

    site = 0
    for step, (inserted, delete_ratio) in enumerate(script):
        site = (site + 1) % n_sites
        fragment = session.fragments[site]
        keys = [row[0] for row in fragment.rows]
        doomed = keys[: int(len(keys) * delete_ratio)]
        update = session.update(site, inserted=inserted, deleted=doomed)
        # delta shipments are bounded by the delta, not the fragments
        delta_rows = len(inserted) + len(doomed)
        assert update.shipments.tuples_shipped <= delta_rows
        assert update.shipments.codes_shipped <= 3 * delta_rows

    fresh_cluster = Cluster.from_fragments(
        [Relation(SCHEMA, fragment.rows) for fragment in session.fragments]
    )
    fresh = ONE_SHOT[algorithm](fresh_cluster, cfd)
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys

    # the patched coordinator state equals a from-scratch session's state
    rebuilt = IncrementalHorizontalDetector(fresh_cluster, cfd, algorithm)
    rebuilt.detect()
    for live, scratch in zip(session._states, rebuilt._states):
        decode = lambda state, counts: {
            (state.shared.x_values[x], state.shared.y_values[y]): n
            for x, ys in counts.items()
            for y, n in ys.items()
        }
        assert decode(live, live.pair_counts) == decode(
            scratch, scratch.pair_counts
        )


# -- units --------------------------------------------------------------------


def test_transition_counter_captures_zero_crossings():
    counter = TransitionCounter()
    counter.add("stays", 2)
    counter.begin()
    counter.add("stays", -1)       # 2 -> 1: still positive
    counter.add("fresh", 1)        # 0 -> 1: added
    counter.add("blip", 1)
    counter.add("blip", -1)        # 0 -> 1 -> 0: net nothing
    added, removed = counter.commit()
    assert added == ["fresh"]
    assert removed == []
    counter.begin()
    counter.add("stays", -1)       # 1 -> 0: removed
    added, removed = counter.commit()
    assert (added, removed) == ([], ["stays"])


def test_transition_counter_rejects_underflow():
    counter = TransitionCounter()
    counter.begin()
    with pytest.raises(ValueError):
        counter.add("ghost", -1)


def test_violation_delta_truthiness():
    assert not ViolationDelta()
    delta = ViolationDelta()
    delta.added.add_tuple_key(("k",))
    assert delta


def test_apply_requires_chained_delta():
    relation = Relation(SCHEMA, [(1, 0, 0, 0)])
    detector = IncrementalDetector(
        [CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])]
    )
    detector.attach(relation)
    with pytest.raises(ValueError):
        detector.apply(Relation(SCHEMA, [(2, 1, 1, 1)]))


def test_update_before_attach_raises():
    detector = IncrementalDetector(
        [CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])]
    )
    with pytest.raises(ValueError):
        detector.update(inserted=[(1, 0, 0, 0)])


def test_incremental_detector_engine_validation(monkeypatch):
    detector = IncrementalDetector(
        [CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])],
        engine="bogus",
    )
    with pytest.raises(ValueError):
        detector.attach(Relation(SCHEMA, []))


def test_delta_report_is_consistent_with_before_after():
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    relation = Relation(SCHEMA, [(1, "x", "u", 0), (2, "x", "u", 0)])
    detector = IncrementalDetector([cfd])
    before = detector.attach(relation)
    delta = detector.update(inserted=[(3, "x", "v", 0)])
    after = detector.report
    assert delta.added.violations == after.violations - before.violations
    assert delta.removed.violations == before.violations - after.violations
    assert delta.added.tuple_keys == after.tuple_keys - before.tuple_keys
    delta_back = detector.update(deleted=[3])
    assert detector.report.violations == before.violations
    assert delta_back.removed.violations == delta.added.violations


def test_distributed_detect_is_single_shot():
    relation = Relation(SCHEMA, [(1, "x", "u", 0), (2, "x", "v", 0)])
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    session = IncrementalHorizontalDetector(partition_uniform(relation, 2), cfd)
    session.detect()
    session.update(0, deleted=[1])
    with pytest.raises(ValueError):
        session.detect()

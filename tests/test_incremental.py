"""Property suite for incremental detection (centralized + distributed).

The acceptance property: for random relations, Σ and random insert/delete
batches — including values the shared dictionaries have never seen — the
incrementally maintained state after N updates is **identical** to a full
recompute on the final relation: violations, violating tuple keys, and
(for the distributed sessions) the coordinator GROUP-BY state a fresh run
would rebuild.  The full recompute is the ``reference`` engine, the
executable spec.
"""

from collections import Counter

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
from repro.core.fused import FusedDetector
from repro.core.incremental import (
    VariableGroupState,
    ViolationDelta,
    _CodeGroup,
)
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
    detector = IncrementalDetector(sigma)
    detector.attach(relation)
    final_rows = run_script(
        lambda ins, dels: detector.update(inserted=ins, deleted=dels),
        rows,
        script,
        None,
    )
    oracle = detect_violations_reference(Relation(SCHEMA, final_rows), sigma)
    report = detector.report
    assert report.violations == oracle.violations
    assert report.tuple_keys == oracle.tuple_keys
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
        assert decode(live, live.counts) == decode(scratch, scratch.counts)


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


def test_update_before_attach_raises():
    detector = IncrementalDetector(
        [CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])]
    )
    with pytest.raises(ValueError):
        detector.update(inserted=[(1, 0, 0, 0)])


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


def test_deleting_and_reinserting_one_row_in_one_batch_cancels():
    """The delete and insert streams of a batch net per ``(x, y)`` pair:
    deleting a row of a conflicting group and re-inserting it unchanged
    yields an empty delta and leaves the group counts, the conflict flags
    and both counters as they were."""
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    rows = [(1, "x", "u", 0), (2, "x", "v", 0), (3, "y", "u", 0)]
    detector = IncrementalDetector([cfd])
    detector.attach(Relation(SCHEMA, rows))
    (state,) = detector._variables

    def snapshot():
        return (
            {x: dict(ys) for x, ys in state.counts.items()},
            set(state.conflicting),
            dict(detector._violations.counts),
            dict(detector._keys.counts),
        )

    before = snapshot()
    assert before[1] and 1 in before[3]  # row 1 is a violating key
    delta = detector.update(inserted=[rows[0]], deleted=[1])
    assert not delta
    assert not delta.added.violations and not delta.removed.violations
    assert not delta.added.tuple_keys and not delta.removed.tuple_keys
    assert snapshot() == before
    assert detector.verify()


def test_distributed_detect_is_single_shot():
    relation = Relation(SCHEMA, [(1, "x", "u", 0), (2, "x", "v", 0)])
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    session = IncrementalHorizontalDetector(partition_uniform(relation, 2), cfd)
    session.detect()
    session.update(0, deleted=[1])
    with pytest.raises(ValueError):
        session.detect()


# -- the session intern and the member-key multiset ---------------------------

NAN_A, NAN_B = float("nan"), float("nan")
#: ``test_columnar_keys.py``'s mixed domain (1 / 1.0 / True and 0 / 0.0 /
#: False conflate as dict keys) plus two distinct NaN objects
INTERN_DOMAIN = [0, "0", 1.0, True, "x", None, 1, 0.0, False, (1, 2)] + [
    NAN_A, NAN_B, -0.0, "m1",
]


def _variable_state():
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    (variable, _index), = FusedDetector(cfd)._variables
    return VariableGroupState(variable)


@st.composite
def intern_streams(draw):
    """Positions to project, then updates of signed batches whose rows
    draw from :data:`INTERN_DOMAIN` (later updates hit earlier codes)."""
    width = draw(st.integers(1, 3))
    positions = tuple(draw(st.permutations(range(3))))[:width]
    cell = st.sampled_from(INTERN_DOMAIN)
    batch = st.tuples(
        st.lists(st.tuples(cell, cell, cell), max_size=10),
        st.sampled_from([1, -1]),
    )
    updates = draw(
        st.lists(st.lists(batch, max_size=3), min_size=1, max_size=4)
    )
    return positions, updates


@settings(deadline=None, max_examples=80)
@given(intern_streams())
def test_intern_projections_is_one_first_seen_loop(stream):
    """Codes, decode values and fresh codes of the session intern equal a
    plain first-seen dictionary loop's, update after update: the decode
    list holds the very objects the loop saw first, single-attribute
    projections stay raw, and NaN objects code by identity."""
    positions, updates = stream
    state = _variable_state()
    code_of, values = {}, []
    ref_code_of, ref_values = {}, []
    for batches in updates:
        codes, fresh = state._intern_projections(
            batches, positions, code_of, values
        )
        ref_codes, ref_fresh = [], []
        for rows, _sign in batches:
            for row in rows:
                value = tuple(row[p] for p in positions)
                if len(positions) == 1:
                    (value,) = value
                code = ref_code_of.get(value)
                if code is None:
                    code = ref_code_of[value] = len(ref_values)
                    ref_values.append(value)
                    ref_fresh.append(code)
                ref_codes.append(code)
        assert codes == ref_codes
        assert fresh == ref_fresh
        assert len(values) == len(ref_values)
        for got, want in zip(values, ref_values):
            if len(positions) == 1:
                assert got is want
            else:
                assert type(got) is tuple
                assert all(g is w for g, w in zip(got, want))


@st.composite
def member_logs(draw):
    """A compacted multiset, an adds log and a dels log that stays within
    what the first two hold (keys repeat: bag duplicates)."""
    keys = st.sampled_from(["k0", "k1", "k2", ("k", 3), 4])
    base = draw(st.dictionaries(keys, st.integers(1, 3), max_size=4))
    adds = draw(st.lists(keys, max_size=8))
    pool = list(Counter(base).elements()) + adds
    index = st.integers(0, len(pool) - 1) if pool else st.nothing()
    picks = draw(st.lists(index, unique=True))
    return base, adds, [pool[i] for i in picks]


@settings(deadline=None, max_examples=80)
@given(member_logs())
def test_code_group_membership_is_counter_arithmetic(logs):
    """Compaction of adds-only and adds + dels logs equals ``Counter``
    arithmetic, drops zero counts, and replaces (never mutates) the
    multiset and both logs."""
    base, adds, dels = logs
    group = _CodeGroup()
    group.key_counts = before = dict(base)
    group.adds = list(adds)
    group.dels = list(dels)
    expected = Counter(base)
    expected.update(adds)
    expected.subtract(dels)
    members = group.membership()
    assert members == {key: n for key, n in expected.items() if n > 0}
    assert all(n > 0 for n in members.values())
    assert group.key_counts is members
    assert group.adds == [] and group.dels == []
    if adds or dels:
        assert members is not before
    assert before == base


def test_code_group_membership_underflow_raises_and_keeps_the_logs():
    group = _CodeGroup()
    group.key_counts = kept = {"k": 2}
    group.adds = adds = ["k", "j"]
    group.dels = dels = ["j", "j"]
    with pytest.raises(ValueError):
        group.membership()
    assert group.key_counts is kept and kept == {"k": 2}
    assert group.adds is adds and group.dels is dels


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5), *[st.sampled_from(VALUES) for _ in ATTRS]
        ),
        max_size=24,
    ),
    st.lists(cfds(), min_size=1, max_size=2),
)
def test_attach_over_a_bag_relation_equals_reference(rows, sigma):
    """Rows sharing a key (counts > 1 in the member multisets) attach to
    the report the reference engine computes."""
    relation = Relation(SCHEMA, rows)
    report = IncrementalDetector(sigma).attach(relation)
    expected = detect_violations_reference(relation, sigma)
    assert report.violations == expected.violations
    assert report.tuple_keys == expected.tuple_keys


def test_attach_over_a_bag_relation_with_duplicate_conflicting_keys():
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    rows = [(1, "x", 0, 0), (1, "x", 0, 0), (1, "x", 1, 0), (2, "x", 1, 0),
            (3, "y", 0, 0), (3, "y", 0, 0)]
    relation = Relation(SCHEMA, rows)
    detector = IncrementalDetector(cfd)
    report = detector.attach(relation)
    expected = detect_violations_reference(relation, [cfd])
    assert report.violations == expected.violations
    assert report.tuple_keys == expected.tuple_keys == {(1,), (2,)}
    (state,) = detector._variables
    members = [state._code_groups[code].membership() for code in state.counts]
    assert {1: 3, 2: 1} in members and {3: 2} in members

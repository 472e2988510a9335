"""Property suite for the resident CLUSTDETECT / vertical / hybrid sessions.

The acceptance property mirrors ``tests/test_incremental.py``: for random
relations, Σ and random insert/delete batches — including values the
shared dictionaries have never seen — a resident session after N update
rounds is **identical** to a fresh one-shot run over the updated
deployment: violations, tuple keys, and (for CLUSTDETECT) the patched
:class:`~repro.relational.shareddict.SharedComboDictionary`-coded
coordinator state a fresh cluster rebuild would produce.  The module
opts into the engine-matrix fixture, so every property runs once per
detection engine: the one-shot runs the sessions are compared with
honour ``REPRO_ENGINE``, while the sessions themselves always run the
delta folds.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import CFD, IncrementalDetector, PatternTuple, WILDCARD
from repro.core.incremental import ResidentSession
from repro.detect import (
    IncrementalClustDetector,
    IncrementalHorizontalDetector,
    IncrementalHybridDetector,
    IncrementalVerticalDetector,
    clust_detect,
    hybrid_detect,
    vertical_detect,
)
from repro.distributed import Cluster, HybridCluster
from repro.partition import partition_uniform, vertical_partition
from repro.relational import Eq, Relation, Schema
from seed_oracle import assert_seed_equals_one_shot

# every test in this module runs once per detection engine (see conftest)
pytestmark = pytest.mark.usefixtures("detection_engine")

ATTRS = ("a", "b", "c", "d")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))
#: base domain; update batches additionally mint values outside it (so the
#: append-only dictionaries must absorb genuinely unseen values)
VALUES = [0, 1, 2]
FRESH = [71, 72, 99]

SETTINGS = settings(deadline=None, max_examples=20)


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
def cfds(draw):
    """Σ whose members overlap on LHS, so CLUSTDETECT actually clusters."""
    entries = st.sampled_from([WILDCARD] + VALUES)
    sigma = []
    for k in range(draw(st.integers(1, 2))):
        lhs = list(draw(st.permutations(ATTRS)))[: draw(st.integers(1, 2))]
        rhs = [draw(st.sampled_from([a for a in ATTRS if a not in lhs]))]
        tableau = [
            PatternTuple(
                [draw(entries) for _ in lhs],
                [draw(st.sampled_from([WILDCARD] + VALUES))],
            )
            for _ in range(draw(st.integers(1, 2)))
        ]
        sigma.append(CFD(lhs, rhs, tableau, name=f"cfd{k}"))
    return sigma


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


# -- CLUSTDETECT sessions -----------------------------------------------------


@SETTINGS
@given(rows_strategy(), cfds(), update_scripts(), st.integers(1, 3))
def test_clust_session_equals_fresh_rebuild(rows, sigma, script, n_sites):
    relation = Relation(SCHEMA, rows)
    cluster = partition_uniform(relation, n_sites)
    session = IncrementalClustDetector(cluster, sigma)
    initial = session.detect()

    one_shot = clust_detect(partition_uniform(relation, n_sites), sigma)
    assert_seed_equals_one_shot(initial, one_shot)

    site = 0
    for inserted, delete_ratio in script:
        site = (site + 1) % n_sites
        fragment = session.fragments[site]
        keys = [row[0] for row in fragment.rows]
        doomed = keys[: int(len(keys) * delete_ratio)]
        update = session.update(site, inserted=inserted, deleted=doomed)
        # delta shipments are bounded by the delta (once per CFD
        # cluster), never by the resident fragments
        assert update.shipments.tuples_shipped <= (
            len(inserted) + len(doomed)
        ) * max(1, len(session._states))

    fresh_cluster = Cluster.from_fragments(
        [Relation(SCHEMA, fragment.rows) for fragment in session.fragments]
    )
    fresh = clust_detect(fresh_cluster, sigma)
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys

    # the patched shared-dictionary state equals a fresh cluster rebuild:
    # decode each coordinator's per-combination row counts through its
    # SharedComboDictionary and compare value-for-value
    rebuilt = IncrementalClustDetector(fresh_cluster, sigma)
    rebuilt.detect()
    assert len(session._states) == len(rebuilt._states)
    for live, scratch in zip(session._states, rebuilt._states):
        decode = lambda state: {
            ordinal: {
                state.shared.values[code]: count
                for code, count in bucket.items()
            }
            for ordinal, bucket in state.combos.counts.items()
        }
        assert decode(live) == decode(scratch)


# -- vertical sessions --------------------------------------------------------


VSETS = [("id", "a", "b"), ("id", "c", "d")]


@SETTINGS
@given(rows_strategy(), cfds(), update_scripts())
def test_vertical_session_equals_fresh_rebuild(rows, sigma, script):
    relation = Relation(SCHEMA, rows)
    session = IncrementalVerticalDetector(
        vertical_partition(relation, VSETS), sigma
    )
    initial = session.detect()

    one_shot = vertical_detect(vertical_partition(relation, VSETS), sigma)
    assert_seed_equals_one_shot(initial, one_shot)

    current = list(rows)
    for inserted, delete_ratio in script:
        keys = [row[0] for row in current]
        doomed = set(keys[: int(len(keys) * delete_ratio)])
        session.update(inserted=inserted, deleted=sorted(doomed))
        current = [row for row in current if row[0] not in doomed] + list(
            inserted
        )

    fresh = vertical_detect(
        vertical_partition(Relation(SCHEMA, current), VSETS), sigma
    )
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys
    # the resident fragments are the fresh partition's fragments
    for fragment, site in zip(
        session.fragments, vertical_partition(Relation(SCHEMA, current), VSETS).sites
    ):
        assert sorted(map(repr, fragment.rows)) == sorted(
            map(repr, site.fragment.rows)
        )


# -- hybrid sessions ----------------------------------------------------------


HPREDICATES = {f"H{k}": Eq("a", k) for k in VALUES}
HSETS = {"V1": ["a", "b"], "V2": ["c"], "V3": ["d"]}


@SETTINGS
@given(rows_strategy(), cfds(), update_scripts())
def test_hybrid_session_equals_fresh_rebuild(rows, sigma, script):
    relation = Relation(SCHEMA, rows)
    cluster = HybridCluster.from_partitions(relation, HPREDICATES, HSETS)
    session = IncrementalHybridDetector(cluster, sigma)
    initial = session.detect()

    one_shot = hybrid_detect(
        HybridCluster.from_partitions(relation, HPREDICATES, HSETS), sigma
    )
    assert_seed_equals_one_shot(initial, one_shot)

    region = 0
    for step, (inserted, delete_ratio) in enumerate(script):
        region = (region + 1) % len(session.regions_data)
        # region membership is decided by the predicate on "a"
        routed = [
            (row[0],) + (region,) + row[2:] for row in inserted
        ]
        keys = [row[0] for row in session.regions_data[region].rows]
        doomed = keys[: int(len(keys) * delete_ratio)]
        update = session.update(region, inserted=routed, deleted=doomed)
        assert update.shipments.tuples_shipped <= (
            # phase 1 ships the delta into the gather site once per
            # holder and CFD, phase 2 once per pattern — bounded by a
            # small multiple of the delta
            (len(routed) + len(doomed)) * 4 * max(1, len(sigma)) * 3
        )

    merged = [
        row for data in session.regions_data for row in data.rows
    ]
    fresh = hybrid_detect(
        HybridCluster.from_partitions(
            Relation(SCHEMA, merged), HPREDICATES, HSETS
        ),
        sigma,
    )
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys


# -- units --------------------------------------------------------------------


def test_clust_session_is_single_shot():
    relation = Relation(SCHEMA, [(1, 0, 0, 0, 0), (2, 0, 1, 0, 0)])
    cfd = CFD(["a"], ["b"], [PatternTuple([WILDCARD], [WILDCARD])], name="p")
    session = IncrementalClustDetector(partition_uniform(relation, 2), [cfd])
    session.detect()
    with pytest.raises(ValueError):
        session.detect()
    with pytest.raises(ValueError):
        IncrementalClustDetector(
            partition_uniform(relation, 2), [cfd]
        ).update(0, inserted=[(3, 0, 0, 0, 0)])


def test_vertical_session_rejects_predicate_deletes():
    relation = Relation(SCHEMA, [(1, 0, 0, 0, 0)])
    cfd = CFD(["a"], ["b"], [PatternTuple([WILDCARD], [WILDCARD])], name="p")
    session = IncrementalVerticalDetector(
        vertical_partition(relation, VSETS), [cfd]
    )
    session.detect()
    with pytest.raises(ValueError):
        session.update(deleted=lambda row, schema: True)


def test_hybrid_session_rejects_rows_outside_the_region():
    relation = Relation(SCHEMA, [(1, 0, 0, 0, 0), (2, 1, 0, 0, 0)])
    cfd = CFD(["a"], ["b"], [PatternTuple([WILDCARD], [WILDCARD])], name="p")
    cluster = HybridCluster.from_partitions(
        relation, {f"H{k}": Eq("a", k) for k in (0, 1)}, HSETS
    )
    session = IncrementalHybridDetector(cluster, [cfd])
    session.detect()
    with pytest.raises(ValueError):
        session.update(0, inserted=[(9, 1, 0, 0, 0)])


@pytest.mark.parametrize(
    "session",
    [
        IncrementalDetector,
        IncrementalHorizontalDetector,
        IncrementalClustDetector,
        IncrementalHybridDetector,
        IncrementalVerticalDetector,
    ],
    ids=lambda session: session.__name__,
)
def test_every_session_shares_one_base(session):
    """The reports, ``verify`` and ``repr`` are written once, in
    :class:`ResidentSession`: no session class, nor any class between it
    and the base, defines its own."""
    assert issubclass(session, ResidentSession)
    between = session.__mro__[: session.__mro__.index(ResidentSession)]
    for klass in between:
        assert not {"report", "report_size", "verify", "__repr__"} & set(
            klass.__dict__
        ), klass.__name__

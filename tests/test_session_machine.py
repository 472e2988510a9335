"""A state machine over the resident distributed sessions.

One :class:`hypothesis.stateful.RuleBasedStateMachine` per session family
(``ctr``, ``pat-s``, ``pat-rt``, ``clust``, ``hybrid``) drives random
insert / delete / replace rounds at random sites or regions, predicate
deletes, inserts that duplicate a resident key (bag semantics),
multi-site rounds, *poisoned* rounds (a wrong-width row, an unhashable
cell, a malformed or absent delete key) and ``verify()`` calls, against
the simplest model there is: per place, the multiset of rows that were
accepted, and the ``reference`` engine over them.  After every rule each
place's fragment holds exactly its model rows, the maintained report
equals the reference over their union, ``report_size()`` equals the
report's lengths, and a round that raised left every fragment object,
the cost log and the shipment log exactly as they were.

The second half pins the *modelled* figures — every round's
``StageTimes``, ``codes_shipped`` and ``tuples_shipped`` of a fixed
script per family (the vertical session's too), recorded at the commit
before the sessions were rebuilt on one skeleton — so "the cost model did not move" is asserted,
not inferred; and the initial run must equal the family's one-shot
detector on the same fixture, shipment by shipment.
"""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    CFD,
    PatternTuple,
    WILDCARD,
    detect_violations_reference,
)
from repro.detect import (
    IncrementalClustDetector,
    IncrementalHorizontalDetector,
    IncrementalHybridDetector,
    IncrementalVerticalDetector,
    apply_fragment_updates,
    clust_detect,
    ctr_detect,
    hybrid_detect,
    pat_detect_rt,
    pat_detect_s,
    vertical_detect,
)
from repro.distributed import Cluster, HybridCluster
from repro.partition import partition_uniform, vertical_partition
from repro.relational import Eq, Relation, Schema, column_store
from seed_oracle import assert_seed_equals_one_shot

SCHEMA = Schema("R", ("id", "a", "b", "c"), key=("id",))
FAMILIES = ["ctr", "pat-s", "pat-rt", "clust", "hybrid"]

#: a three-pattern variable form — so the coordinator strategies have
#: buckets to disagree on — plus a constant form (a=1 → b=2)
PHI = CFD(
    ["a"],
    ["b"],
    [
        PatternTuple([0], [WILDCARD]),
        PatternTuple([7], [WILDCARD]),
        PatternTuple([WILDCARD], [WILDCARD]),
        PatternTuple([1], [2]),
    ],
    name="phi",
)
#: overlaps PHI on ``a``, so CLUSTDETECT merges the two
PSI = CFD(
    ["a", "c"],
    ["b"],
    [PatternTuple([WILDCARD, 1], [WILDCARD]), PatternTuple([0, 0], [3])],
    name="psi",
)


def base_rows():
    # ``a`` cycles out of step with the round-robin site (``id % 3``) and
    # the region (``c``), so every place holds every σ bucket
    return [(i, (i // 3) % 3, (i * 7) % 4, i % 2) for i in range(24)]


def sigma_of(kind):
    """The horizontal families host exactly one CFD."""
    return [PHI, PSI] if kind in ("clust", "hybrid", "vertical") else [PHI]


#: the vertical fragments: PHI checks locally on the first, PSI ships
#: ``c`` from the second to a key join
VSETS = [("id", "a", "b"), ("id", "c")]


def build_cluster(kind, rows=None):
    """Three sites, (hybrid) two regions on ``c``, or (vertical) two
    fragments."""
    relation = Relation(SCHEMA, base_rows() if rows is None else rows)
    if kind == "vertical":
        return vertical_partition(relation, VSETS)
    if kind == "hybrid":
        return HybridCluster.from_partitions(
            relation,
            {f"H{k}": Eq("c", k) for k in range(2)},
            {"V1": ["a"], "V2": ["b"], "V3": ["c"]},
        )
    return partition_uniform(relation, 3)


def build_session(kind):
    """``(session, initial outcome)`` over :func:`build_cluster`."""
    cluster = build_cluster(kind)
    if kind == "hybrid":
        session = IncrementalHybridDetector(cluster, sigma_of(kind))
    elif kind == "vertical":
        session = IncrementalVerticalDetector(cluster, sigma_of(kind))
    elif kind == "clust":
        session = IncrementalClustDetector(cluster, sigma_of(kind))
    else:
        session = IncrementalHorizontalDetector(cluster, PHI, kind)
    return session, session.detect()


#: the one-shot detector each family's session seeds like
ONE_SHOT = {
    "ctr": lambda cluster: ctr_detect(cluster, PHI),
    "pat-s": lambda cluster: pat_detect_s(cluster, PHI),
    "pat-rt": lambda cluster: pat_detect_rt(cluster, PHI),
    "clust": lambda cluster: clust_detect(cluster, sigma_of("clust")),
    "hybrid": lambda cluster: hybrid_detect(cluster, sigma_of("hybrid")),
    "vertical": lambda cluster: vertical_detect(cluster, sigma_of("vertical")),
}


def places_of(session):
    """The live fragment list (a hybrid session's regions)."""
    return getattr(session, "regions_data", None) or session.fragments


def apply_round(session, round_):
    """One round; hybrid's public surface is one region at a time, and a
    vertical round is one whole-tuple batch."""
    if isinstance(round_, tuple):
        inserted, deleted = round_
        return session.update(inserted=inserted, deleted=deleted)
    if hasattr(session, "apply_updates"):
        return session.apply_updates(round_)
    ((region, (inserted, deleted)),) = round_.items()
    return session.update(region, inserted=inserted, deleted=deleted)


def reference_violations(session, kind):
    if kind == "vertical":
        first, second = session.fragments
        rows = first.join(second).rows
    else:
        rows = [row for place in places_of(session) for row in place.rows]
    return set(
        detect_violations_reference(
            Relation(SCHEMA, rows, copy=False),
            sigma_of(kind),
            collect_tuples=False,
        ).violations
    )


# -- the machine --------------------------------------------------------------

bodies = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 7]), st.sampled_from([0, 1, 2, 3])),
    min_size=1,
    max_size=3,
)
picks = st.lists(st.integers(0, 40), min_size=1, max_size=3)


class SessionMachine(RuleBasedStateMachine):
    kind = "pat-s"

    def __init__(self):
        super().__init__()
        self.session, _initial = build_session(self.kind)
        #: the model: per place, the multiset of accepted rows
        self.places = [Counter(place.rows) for place in places_of(self.session)]
        self.n_places = len(self.places)
        assert sorted(sum(self.places, Counter()).elements()) == base_rows()
        self.next_id = 1000

    # -- helpers ------------------------------------------------------------

    def _fresh(self, place, body_list):
        """New rows for ``place``; ``c`` follows the place so a hybrid
        region's predicate accepts them."""
        rows = []
        for a, b in body_list:
            rows.append((self.next_id, a, b, place % 2))
            self.next_id += 1
        return rows

    def _resident_keys(self, place, indices):
        keys = [row[0] for row in places_of(self.session)[place].rows]
        return sorted({keys[i % len(keys)] for i in indices}) if keys else []

    def _accept(self, round_):
        """Apply a valid round and fold it into the model: deletes first
        (every row of a listed key, or every row the predicate matches),
        then inserts."""
        apply_round(self.session, round_)
        for place, (inserted, deleted) in round_.items():
            rows = self.places[place]
            if callable(deleted) or hasattr(deleted, "evaluate"):
                evaluate = getattr(deleted, "evaluate", deleted)
                doomed = [row for row in rows if evaluate(row, SCHEMA)]
            else:
                keys = set(deleted)
                doomed = [row for row in rows if row[0] in keys]
            for row in doomed:
                del rows[row]
            rows.update(inserted)

    def _snapshot(self):
        session = self.session
        return (
            list(places_of(session)),
            session.report.violations,
            session.report.tuple_keys,
            len(session._cost.stages),
            len(session.shipments.events),
        )

    # -- rules --------------------------------------------------------------

    @rule(place=st.integers(0, 5), body_list=bodies)
    def insert(self, place, body_list):
        place %= self.n_places
        self._accept({place: (self._fresh(place, body_list), [])})

    @rule(place=st.integers(0, 5), indices=picks)
    def delete(self, place, indices):
        place %= self.n_places
        self._accept({place: ([], self._resident_keys(place, indices))})

    @rule(place=st.integers(0, 5), indices=picks, body_list=bodies)
    def replace(self, place, indices, body_list):
        """Delete some resident keys and re-insert them with new bodies."""
        place %= self.n_places
        doomed = self._resident_keys(place, indices)
        rows = [
            (key, a, b, place % 2) for key, (a, b) in zip(doomed, body_list)
        ]
        self._accept({place: (rows, doomed)})

    @rule(
        place=st.integers(0, 5),
        a=st.sampled_from([0, 1, 2, 7]),
        as_predicate=st.booleans(),
        body_list=st.lists(bodies, max_size=1),
    )
    def predicate_delete(self, place, a, as_predicate, body_list):
        """Delete every row of a place with ``a`` = the drawn value — a
        ``(row, schema)`` callable or a :class:`Predicate` — with or
        without inserts in the same round."""
        place %= self.n_places
        deleted = (
            Eq("a", a)
            if as_predicate
            else lambda row, schema: row[schema.position("a")] == a
        )
        inserted = self._fresh(place, body_list[0]) if body_list else []
        if self.kind == "hybrid":
            # a region's rows live across vertical fragments: the hybrid
            # session takes key deletes only, and rejects before any
            # state moves
            before = self._snapshot()
            with pytest.raises(ValueError, match="predicates"):
                self._accept({place: (inserted, deleted)})
            after = self._snapshot()
            assert all(x is y for x, y in zip(after[0], before[0]))
            assert after[1:] == before[1:]
            return
        self._accept({place: (inserted, deleted)})

    @rule(place=st.integers(0, 5), indices=picks, body_list=bodies)
    def duplicate_key_insert(self, place, indices, body_list):
        """Insert rows under keys the place already holds: the fragment is
        a bag, and a later delete of such a key removes every copy."""
        place %= self.n_places
        keys = self._resident_keys(place, indices)
        rows = [(key, a, b, place % 2) for key, (a, b) in zip(keys, body_list)]
        self._accept({place: (rows, [])})

    @precondition(lambda self: self.kind != "hybrid")
    @rule(body_list=bodies, indices=picks)
    def multi_site_round(self, body_list, indices):
        self._accept(
            {
                0: (self._fresh(0, body_list), []),
                1: ([], self._resident_keys(1, indices)),
                2: (self._fresh(2, body_list[:1]), self._resident_keys(2, indices)),
            }
        )

    @rule(
        place=st.integers(0, 5),
        body_list=bodies,
        poison=st.sampled_from(["width", "unhashable", "key", "absent"]),
    )
    def poisoned_round(self, place, body_list, poison):
        place %= self.n_places
        inserted = self._fresh(place, body_list)
        deleted = []
        if poison == "width":
            inserted.append((self.next_id, 1, 2, place % 2, 9))
        elif poison == "unhashable":
            inserted.append((self.next_id, 1, ["x"], place % 2))
        elif poison == "key":
            deleted = [(1, 2)]
        else:  # an absent key deletes nothing: the round is valid
            deleted = [-5]
        before = self._snapshot()
        try:
            self._accept({place: (inserted, deleted)})
        except Exception:
            assert poison != "absent"
            after = self._snapshot()
            assert all(a is b for a, b in zip(after[0], before[0]))
            assert after[1:] == before[1:]
        else:
            assert poison == "absent"

    @rule(sample=st.sampled_from([None, 5]))
    def verify(self, sample):
        assert self.session.verify(sample=sample) is True

    # -- invariants ---------------------------------------------------------

    @invariant()
    def report_matches_reference(self):
        session = self.session
        for place, model in zip(places_of(session), self.places, strict=True):
            assert sorted(place.rows) == sorted(model.elements())
        report = session.report
        assert report.violations == reference_violations(session, self.kind)
        assert session.report_size() == (
            len(report.violations),
            len(report.tuple_keys),
        )


def _machine_for(kind):
    machine = type(f"SessionMachine_{kind}", (SessionMachine,), {"kind": kind})
    case = machine.TestCase
    case.settings = settings(
        max_examples=40, stateful_step_count=15, deadline=None
    )
    return case


TestCtrSessionMachine = _machine_for("ctr")
TestPatSSessionMachine = _machine_for("pat-s")
TestPatRtSessionMachine = _machine_for("pat-rt")
TestClustSessionMachine = _machine_for("clust")
TestHybridSessionMachine = _machine_for("hybrid")


# -- the modelled figures did not move ---------------------------------------

_TWO_SITE_ROUNDS = [
    {1: ([(100, 7, 3, 1), (101, 7, 2, 1), (102, 1, 1, 1)], [1, 4])},
    {0: ([(103, 0, 0, 0)], [0, 3]), 2: ([(104, 2, 5, 0)], [2, 5])},
    {1: ([], [100, 101]), 2: ([(105, 7, 1, 1), (106, 1, 2, 1)], [])},
]
#: three fixed rounds per family (hybrid: one region per round, ``c`` =
#: the region)
SCRIPT = {
    **{kind: _TWO_SITE_ROUNDS for kind in FAMILIES if kind != "hybrid"},
    "hybrid": [
        {1: ([(100, 7, 3, 1), (101, 7, 2, 1), (102, 1, 1, 1)], [1, 5])},
        {0: ([(103, 0, 0, 0), (104, 2, 5, 0)], [0, 4])},
        {1: ([(105, 7, 1, 1), (106, 1, 2, 1)], [100, 101])},
    ],
    # vertical: whole tuples in, keys out, no place
    "vertical": [
        ([(100, 7, 3, 1), (101, 7, 2, 1), (102, 1, 1, 1)], [1, 4]),
        ([(103, 0, 0, 0), (104, 2, 5, 0)], [0, 3]),
        ([(105, 7, 1, 1), (106, 1, 2, 1)], [100, 101]),
    ],
}

#: per family: ``(stage times, codes_shipped, tuples_shipped)`` of the
#: initial run (one ``(scan, transfer, check)`` per stage) and of each
#: scripted round.  Every per-round entry was recorded at commit 6c1d850,
#: before the three session classes shared a skeleton.  The initial-run
#: entries of ``ctr`` and ``hybrid`` are the one-shot detector's figures
#: on the same fixture: once each session seeded through its family's
#: one-shot step, the seed stopped charging CTRDETECT one GROUP BY per
#: pattern and stopped reordering hybrid's constant-gather stages
PINNED = {
    "ctr": [
        ([(5.333333333333333e-05, 0.0003333333333333333, 0.00027863137138648347)], 32, 16),
        ((3.3333333333333335e-05, 0.00020833333333333335, 3.231203125901445e-05), 15, 5),
        ((2e-05, 0.000125, 2.321928094887362e-05), 9, 3),
        ((1.3333333333333333e-05, 8.333333333333333e-05, 2.321928094887362e-05), 12, 4),
    ],
    "pat-s": [
        ([(5.333333333333333e-05, 0.0003333333333333333, 0.00022474338213496567)], 32, 16),
        ((3.3333333333333335e-05, 0.00020833333333333335, 3.231203125901445e-05), 15, 5),
        ((2e-05, 0.000125, 2.321928094887362e-05), 9, 3),
        ((1.3333333333333333e-05, 8.333333333333333e-05, 2.321928094887362e-05), 12, 4),
    ],
    "pat-rt": [
        ([(5.333333333333333e-05, 0.0003333333333333333, 0.00015)], 32, 16),
        ((3.3333333333333335e-05, 0.000125, 1.5e-05), 9, 3),
        ((2e-05, 0.000125, 1.5e-05), 12, 4),
        ((1.3333333333333333e-05, 8.333333333333333e-05, 1.5e-05), 12, 4),
    ],
    "clust": [
        ([(5.333333333333333e-05, 0.0003333333333333333, 0.00037136116311268553)], 16, 16),
        ((3.3333333333333335e-05, 0.00020833333333333335, 3.231203125901445e-05), 10, 5),
        ((2e-05, 0.000125, 2.321928094887362e-05), 6, 3),
        ((1.3333333333333333e-05, 8.333333333333333e-05, 2.321928094887362e-05), 8, 4),
    ],
    "hybrid": [
        (
            [
                (0.0, 0.0005, 0.0),
                (0.0, 0.0005, 0.0),
                (0.0, 0.0005, 0.00011101319154423276),
                (8e-05, 0.0002916666666666667, 0.00015),
                (0.0, 0.0005, 0.0),
                (0.0, 0.0005, 0.00011101319154423276),
                (8e-05, 0.0, 0.00011101319154423276),
            ],
            214,
            107,
        ),
        ((3.3333333333333335e-05, 0.000625, 5.25e-05), 49, 23),
        ((2.6666666666666667e-05, 0.0005, 7.92481250360578e-06), 38, 18),
        ((2.6666666666666667e-05, 0.0005, 3.231203125901445e-05), 41, 19),
    ],
    # recorded at commit cd5379a, while the vertical session still kept
    # its fragments as versioned relations
    "vertical": [
        ([(0.0, 0.0, 0.00027863137138648347), (0.0, 0.001, 0.0005572627427729669)], 48, 24),
        ((3.3333333333333335e-05, 0.00020833333333333335, 6.46240625180289e-05), 10, 5),
        ((2.6666666666666667e-05, 0.00016666666666666666, 4.643856189774724e-05), 8, 4),
        ((2.6666666666666667e-05, 0.00016666666666666666, 4.643856189774724e-05), 8, 4),
    ],
}


@pytest.mark.parametrize("kind", FAMILIES + ["vertical"])
def test_modelled_figures_equal_the_parent_commit(kind):
    session, initial = build_session(kind)
    assert_seed_equals_one_shot(initial, ONE_SHOT[kind](build_cluster(kind)))
    observed = [
        (
            [(s.scan, s.transfer, s.check) for s in initial.cost.stages],
            initial.shipments.codes_shipped,
            initial.shipments.tuples_shipped,
        )
    ]
    for round_ in SCRIPT[kind]:
        update = apply_round(session, round_)
        stage = update.stage
        observed.append(
            (
                (stage.scan, stage.transfer, stage.check),
                update.shipments.codes_shipped,
                update.shipments.tuples_shipped,
            )
        )
    assert observed == PINNED[kind]
    assert session.report.violations == reference_violations(session, kind)


# -- apply_fragment_updates stays a pure function ----------------------------


@pytest.mark.parametrize("kind", ["pat-s", "clust", "hybrid"])
def test_versioned_path_on_a_copy_leaves_the_session_alone(kind):
    """What a caller pricing a copy of the fragments against a live
    session relies on: :func:`apply_fragment_updates` on
    ``list(session.fragments)`` moves nothing in the session; the same
    batch then applies through ``update`` and equals a fresh rebuild;
    and a fragment is a :class:`Relation` the columnar layer and
    ``Relation.insert`` / ``delete`` accept."""
    session, _initial = build_session(kind)
    resident = session.fragments[0].rows
    # c = 0 keeps the rows in a hybrid session's region 0
    batch = ([(200, 7, 3, 0), (201, 0, 1, 0)], [row[0] for row in resident[:2]])

    def state():
        fragments = session.fragments
        return (
            fragments,
            [sorted(fragment.rows) for fragment in fragments],
            session.report,
            session.report_size(),
        )

    before = state()
    assert apply_fragment_updates(list(session.fragments), {0: batch})
    after = state()
    assert all(x is y for x, y in zip(after[0], before[0], strict=True))
    assert after[1:] == before[1:]

    session.update(0, inserted=batch[0], deleted=batch[1])
    rows = [row for fragment in session.fragments for row in fragment.rows]
    gone = set(batch[1])
    assert sorted(rows) == sorted(
        [row for row in base_rows() if row[0] not in gone] + batch[0]
    )
    if kind == "hybrid":
        rebuilt = build_cluster(kind, rows)
    else:
        rebuilt = Cluster.from_fragments(
            Relation(SCHEMA, fragment.rows) for fragment in session.fragments
        )
    fresh = ONE_SHOT[kind](rebuilt)
    assert session.report.violations == fresh.report.violations
    assert session.report.tuple_keys == fresh.report.tuple_keys

    fragment = session.fragments[0]
    assert isinstance(fragment, Relation)
    column_store(fragment).key_column(("a", "b"))
    grown = fragment.insert([(300, 1, 1, 0)])
    shrunk = fragment.delete([200])
    assert (len(grown), len(shrunk)) == (len(fragment) + 1, len(fragment) - 1)
    assert column_store(grown).key_column(("a", "b"))
    assert column_store(shrunk).key_column(("a", "b"))

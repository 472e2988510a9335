"""CLUSTDETECT's coordinator check: σ tries compiled once, one GROUP BY per
member CFD per coordinator *site* over the shared combination codes, and a
cost accounting that did not move by a bit.

Three angles:

* *compile count* — a detection compiles each distinct tableau at most
  once (the members' and the projected one), a second detection none;
* *equivalence, generated* — against the reference engine and SEQDETECT
  over random sites, overlapping CFDs, eCFD predicates, ``None`` and
  mixed-type cells, an empty fragment, both strategies and the
  cached-dictionary repeat run;
* *accounting golden* — shipments, every cost stage and the coordinator
  assignment equal literals recorded before the per-site check replaced the
  per-bucket fused-engine runs.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import (
    CFD,
    FusedDetector,
    NotValue,
    OneOf,
    PatternIndex,
    PatternTuple,
    Range,
    WILDCARD,
    detect_violations_reference,
    normalize,
)
from repro.core.normalize import _INDEX_MEMO
from repro.datagen import cust_overlapping_cfds, generate_cust
from repro.detect import clust_detect, seq_detect
from repro.detect.clust import cluster_cfds
from repro.distributed import Cluster
from repro.partition import partition_uniform
from repro.relational import Relation, Schema

# -- compile count -------------------------------------------------------------


def test_each_tableau_is_compiled_once(monkeypatch):
    compiled = []
    original = PatternIndex.__init__

    def counting_init(self, patterns):
        compiled.append(patterns)
        original(self, patterns)

    monkeypatch.setattr(PatternIndex, "__init__", counting_init)
    _INDEX_MEMO.clear()

    cfds = cust_overlapping_cfds()
    relation = generate_cust(4000, 8)
    variables = [v for cfd in cfds for v in normalize(cfd).variables]
    (group,) = cluster_cfds(variables, relation.schema.attributes)
    tableaux = {member.patterns for member in group.members}
    tableaux.add(group.projected)

    first = clust_detect(partition_uniform(relation, 8), cfds)
    assert 0 < len(compiled) <= len(tableaux) == 3
    assert set(compiled) <= tableaux

    # a fresh cluster has cold dictionaries, but the tries are per tableau
    compiled.clear()
    second = clust_detect(partition_uniform(relation, 8), cfds)
    assert compiled == []
    assert second.report.violations == first.report.violations


def test_fused_detectors_share_one_index_per_tableau():
    cfds = cust_overlapping_cfds()
    one, other = FusedDetector(cfds), FusedDetector(cfds)
    assert one._variables
    for (_, index), (_, again) in zip(one._variables, other._variables):
        assert index is again


# -- equivalence, generated ----------------------------------------------------

ATTRS = ("a", "b", "c", "d")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))
#: ``1 == 1.0 == True`` share a hash; ``"1"`` and ``None`` do not
CELLS = [None, 0, 1, 1.0, "1", True, 2]
ENTRIES = [
    WILDCARD,
    WILDCARD,
    0,
    1,
    "1",
    2,
    OneOf([1, "1"]),
    NotValue(1),
    Range("<", 2),
    Range(">=", 1),
]


@st.composite
def overlapping_cfds(draw):
    """1–3 CFDs whose LHS are prefixes of one attribute order (always one
    CFD cluster), or free subsets (clusters form transitively, possibly
    with an empty shared-attribute set)."""
    order = draw(st.permutations(ATTRS))
    nested = draw(st.booleans())
    sigma = []
    for i in range(draw(st.integers(1, 3))):
        if nested:
            lhs = list(order[: draw(st.integers(1, 3))])
        else:
            lhs = draw(
                st.lists(
                    st.sampled_from(ATTRS), min_size=1, max_size=3, unique=True
                )
            )
        rhs = [draw(st.sampled_from([a for a in ATTRS if a not in lhs]))]
        tableau = [
            PatternTuple(
                [draw(st.sampled_from(ENTRIES)) for _ in lhs],
                # mostly variable patterns: those are what ships
                [draw(st.sampled_from([WILDCARD, WILDCARD, 1, NotValue(1)]))],
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        sigma.append(CFD(lhs, rhs, tableau, name=f"phi{i}"))
    return sigma


@st.composite
def clusters(draw):
    """A relation over 1–8 sites, one of them left empty when it can be."""
    body = draw(
        st.lists(
            st.tuples(*[st.sampled_from(CELLS) for _ in ATTRS]), max_size=24
        )
    )
    rows = [(i,) + cells for i, cells in enumerate(body)]
    n_sites = draw(st.integers(1, 8))
    fragments: list[list[tuple]] = [[] for _ in range(n_sites)]
    for row in rows:
        fragments[draw(st.integers(0, max(n_sites - 2, 0)))].append(row)
    cluster = Cluster.from_fragments(
        Relation(SCHEMA, part, copy=False) for part in fragments
    )
    return Relation(SCHEMA, rows), cluster


@settings(max_examples=150, deadline=None)
@given(clusters(), overlapping_cfds())
def test_clust_matches_reference_and_seq(data, sigma):
    relation, cluster = data
    expected = detect_violations_reference(relation, sigma).violations
    assert seq_detect(cluster, sigma).report.violations == expected
    for strategy in ("s", "rt"):
        outcome = clust_detect(cluster, sigma, strategy)
        assert outcome.report.violations == expected
        # the cluster now caches the combination dictionary and every
        # site's translation: the repeat run ships codes only
        repeat = clust_detect(cluster, sigma, strategy)
        assert repeat.report.violations == expected
        assert repeat.tuples_shipped == outcome.tuples_shipped
        assert repeat.cost.stages == outcome.cost.stages


# -- accounting golden ---------------------------------------------------------

#: recorded on the commit before this check was rewritten (a5e3e62)
GOLDEN_COORDINATORS_S = [
    4, 7, 6, 2, 1, 1, 7, 0, 2, 4, 1, 1, 1, 3, 0, 2, 1, 1, 2, 0, 2, 1, 0, 7, 1,
    0, 0, 2, 0, 0, 5, 3, 0, 4, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 6, 0, 0, 3,
    0, 0, 5, 0, 0, 2, 0, 0, 0, 0, 3, 6, 2, 7, 2, 3, 0, 4, 7, 2, 3, 3, 1, 2, 2,
    5, 0, 0, 1, 0, 3, 4, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1,
    4, 0, 0, 0, 0, 7, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 1, 0, 3, 2, 6,
    5, 3, 7, 0, 3, 2, 0, 2, 0, 4, 1, 1, 3, 4, 0, 0, 0, 7, 3, 0, 0, 5, 5, 0, 6,
    0, 0, 7, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 5, 6, 5, 1, 2, 1, 1, 4, 1, 2, 1, 1, 3, 0, 0, 7, 6, 6, 0, 2,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2, 4, 5, 6, 3, 1, 1, 3, 0, 0,
    0, 0, 0, 0, 0,
]  # fmt: skip


def _accounting(strategy):
    cluster = partition_uniform(generate_cust(4000, 8), 8)
    outcome = clust_detect(cluster, cust_overlapping_cfds(), strategy)
    stages = [(s.scan, s.transfer, s.check) for s in outcome.cost.stages]
    return outcome, stages


def test_accounting_is_unchanged_strategy_s():
    outcome, stages = _accounting("s")
    assert outcome.tuples_shipped == 2951
    assert outcome.shipments.codes_shipped == 2951
    assert len(outcome.report.violations) == 42
    assert stages == [(0.0033333333333333335, 0.017, 0.035879467388615534)]
    assert outcome.details["coordinators"] == {
        "cust_city[26]+cust_street[255]": GOLDEN_COORDINATORS_S
    }


def test_accounting_is_unchanged_strategy_rt():
    outcome, stages = _accounting("rt")
    assert outcome.tuples_shipped == 3027
    assert outcome.shipments.codes_shipped == 3027
    assert len(outcome.report.violations) == 42
    assert stages == [(0.0033333333333333335, 0.016625, 0.034248333852991364)]

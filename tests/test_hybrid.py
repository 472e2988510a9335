"""Tests for detection under hybrid fragmentation (Section VIII extension)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import detect_violations, parse_cfd
from repro.datagen import (
    emp_horizontal_predicates,
    emp_instance,
    emp_tableau_cfds,
    emp_vertical_attribute_sets,
)
from repro.distributed import HybridCluster
from repro.detect import IncrementalHybridDetector, hybrid_detect, select_balanced
from repro.relational import Eq, Relation, Schema
from seed_oracle import assert_seed_equals_one_shot

# every test in this module runs once per detection engine (see conftest)
pytestmark = pytest.mark.usefixtures("detection_engine")

S = Schema("R", ["id", "a", "b", "c", "d"], key=["id"])


def make_hybrid(rows, n_kinds=2):
    relation = Relation(S, rows)
    predicates = {
        f"H{k}": Eq("a", k) for k in range(n_kinds)
    }
    attribute_sets = {"V1": ["a", "b"], "V2": ["c"], "V3": ["d"]}
    return relation, HybridCluster.from_partitions(
        relation, predicates, attribute_sets
    )


def rows_over(n, n_kinds=2):
    return [
        (i, i % n_kinds, i % 3, f"c{i % 4}", f"d{(i * 7) % 5}")
        for i in range(n)
    ]


# -- construction -----------------------------------------------------------


def test_hybrid_structure_and_site_ids():
    _rel, cluster = make_hybrid(rows_over(10))
    assert len(cluster.regions) == 2
    assert cluster.n_sites == 6  # 2 regions x 3 vertical fragments
    ids = {
        cluster.site_id(r, f)
        for r in range(2)
        for f in range(3)
    }
    assert ids == set(range(6))


def test_hybrid_reconstruct():
    relation, cluster = make_hybrid(rows_over(12))
    assert cluster.reconstruct() == relation
    assert cluster.total_tuples() == 12


def test_hybrid_requires_covering_predicates():
    relation = Relation(S, rows_over(6, n_kinds=3))
    with pytest.raises(Exception):
        HybridCluster.from_partitions(
            relation,
            {"only0": Eq("a", 0)},
            {"V1": ["a", "b", "c", "d"]},
        )


# -- detection ----------------------------------------------------------------


def test_hybrid_detect_on_emp_matches_centralized():
    d0 = emp_instance()
    cluster = HybridCluster.from_partitions(
        d0, emp_horizontal_predicates(), emp_vertical_attribute_sets()
    )
    phis = emp_tableau_cfds()
    expected = detect_violations(d0, phis, collect_tuples=False).violations
    outcome = hybrid_detect(cluster, phis)
    assert outcome.report.violations == expected
    assert outcome.tuples_shipped > 0  # gathers are unavoidable here


def test_hybrid_detect_no_gather_when_fragment_covers():
    relation, cluster = make_hybrid(rows_over(10))
    cfd = parse_cfd("([a] -> [b])", name="ab")  # V1 covers {a, b}
    outcome = hybrid_detect(cluster, cfd)
    expected = detect_violations(relation, cfd, collect_tuples=False)
    assert outcome.report.violations == expected.violations
    # no intra-region (vertical) shipments: only cross-region pattern traffic
    intra = [
        e for e in outcome.shipments.events if "@" in e.tag
    ]
    assert not intra


def test_hybrid_detect_constant_cfd():
    relation, cluster = make_hybrid(rows_over(10))
    cfd = parse_cfd("([a=0] -> [d='d0'])", name="const")
    expected = detect_violations(relation, cfd, collect_tuples=False)
    outcome = hybrid_detect(cluster, cfd)
    assert outcome.report.violations == expected.violations


def test_hybrid_detect_region_pruning():
    relation, cluster = make_hybrid(rows_over(10))
    # patterns only bind a=0: region H1 (a=1) is never gathered
    cfd = parse_cfd("([a, b] -> [c]) with (0, _ || _)", name="pruned")
    outcome = hybrid_detect(cluster, cfd)
    expected = detect_violations(relation, cfd, collect_tuples=False)
    assert outcome.report.violations == expected.violations
    h1_sites = {cluster.site_id(1, f) for f in range(3)}
    for event in outcome.shipments.events:
        assert event.src not in h1_sites


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(0, 2),
            st.sampled_from(["c0", "c1"]),
            st.sampled_from(["d0", "d1", "d2"]),
        ),
        min_size=0,
        max_size=20,
    ),
    st.sampled_from(
        [
            "([a, b] -> [c])",
            "([b] -> [d])",
            "([a, c] -> [d]) with (0, 'c0' || _), (_, _ || _)",
            "([b=1] -> [c='c0'])",
            "([c] -> [b])",
        ]
    ),
)
def test_hybrid_detect_matches_centralized_random(body, text):
    rows = [(i,) + r for i, r in enumerate(body)]
    relation, cluster = make_hybrid(rows)
    cfd = parse_cfd(text, name="t")
    expected = detect_violations(relation, cfd, collect_tuples=False)
    for strategy in ("s", "rt"):
        outcome = hybrid_detect(cluster, cfd, strategy=strategy)
        assert outcome.report.violations == expected.violations


def test_hybrid_rejects_unknown_strategy():
    _relation, cluster = make_hybrid(rows_over(4))
    with pytest.raises(ValueError):
        hybrid_detect(cluster, parse_cfd("([a] -> [b])"), strategy="bogus")


@pytest.mark.parametrize("strategy", ["s", "rt", "balanced"])
def test_hybrid_session_takes_every_one_shot_strategy(strategy):
    """The session seeds through the one-shot's own step, so it accepts
    what ``hybrid_detect`` accepts — a strategy callable included — and
    its initial run is that one-shot run."""
    pick = select_balanced if strategy == "balanced" else strategy
    cfds = [
        parse_cfd("([a, b] -> [c])", name="ab"),
        parse_cfd("([b] -> [d]) with (1 || _), (_ || _)", name="b"),
    ]
    _relation, cluster = make_hybrid(rows_over(18))
    session = IncrementalHybridDetector(cluster, cfds, strategy=pick)
    assert_seed_equals_one_shot(
        session.detect(), hybrid_detect(cluster, cfds, strategy=pick)
    )

"""Tests for closed frequent itemset mining and FD pattern instantiation."""

import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.core import CFD, WILDCARD, detect_violations, is_wildcard, parse_cfd
from repro.detect import ctr_detect, pat_detect_s
from repro.mining import (
    closed_frequent_itemsets,
    frequent_itemsets,
    instantiate_with_frequent_patterns,
    itemsets_to_rows,
)
from repro.mining.patterns import instantiate_mined, mine_cluster
from repro.partition import partition_uniform
from repro.relational import Relation, Schema

ATTRS = ("a", "b", "c")


# -- the oracle: levelwise Apriori ---------------------------------------------


def apriori_frequent_itemsets(transactions, attributes, min_support):
    """Every itemset with support ``>= min_support``, level by level:
    count single items, then join level ``k-1`` into level-``k``
    candidates, prune those with an infrequent subset, and count the rest
    against every transaction."""
    attributes = tuple(attributes)
    counts = {}
    for transaction in transactions:
        for item in zip(attributes, transaction):
            counts[item] = counts.get(item, 0) + 1
    current = {
        frozenset([item]): support
        for item, support in counts.items()
        if support >= min_support
    }
    frequent = dict(current)
    level = 1
    while current and level < len(attributes):
        level += 1
        candidates = apriori_candidates(current, level)
        tallies = dict.fromkeys(candidates, 0)
        for transaction in transactions:
            items = frozenset(zip(attributes, transaction))
            for candidate in candidates:
                if candidate <= items:
                    tallies[candidate] += 1
        current = {
            itemset: support
            for itemset, support in tallies.items()
            if support >= min_support
        }
        frequent.update(current)
    return frequent


def apriori_candidates(previous, level):
    """Apriori join + prune: level-``level`` candidates, one value per
    attribute, whose every ``level - 1`` subset is in ``previous``."""
    candidates = set()
    for a, b in combinations(list(previous), 2):
        union = a | b
        if len(union) != level or len({attr for attr, _ in union}) != level:
            continue
        if all(
            frozenset(subset) in previous
            for subset in combinations(union, level - 1)
        ):
            candidates.add(union)
    return candidates


def apriori_closed_itemsets(transactions, attributes, min_support):
    """The frequent itemsets no one-item frequent superset matches in
    support."""
    frequent = apriori_frequent_itemsets(transactions, attributes, min_support)
    items = {item for itemset in frequent for item in itemset}
    return {
        itemset: support
        for itemset, support in frequent.items()
        if all(
            frequent.get(itemset | {item}) != support
            for item in items
            if item[0] not in {attr for attr, _ in itemset}
        )
    }


def support_of(transactions, itemset):
    return sum(
        1
        for t in transactions
        if all(dict(zip(ATTRS, t)).get(attr) == val for attr, val in itemset)
    )


# -- frequent itemsets ---------------------------------------------------------


def test_frequent_itemsets_simple():
    transactions = [
        (1, "x", True),
        (1, "x", False),
        (1, "y", True),
        (2, "y", True),
    ]
    frequent = frequent_itemsets(transactions, ATTRS, min_support=2)
    assert frequent[frozenset({("a", 1)})] == 3
    assert frequent[frozenset({("a", 1), ("b", "x")})] == 2
    assert frozenset({("a", 2)}) not in frequent


def test_min_support_must_be_positive():
    with pytest.raises(ValueError):
        frequent_itemsets([], ATTRS, 0)


def test_one_value_per_attribute_in_itemsets():
    transactions = [(1, "x", True), (2, "x", True)]
    frequent = frequent_itemsets(transactions, ATTRS, 1)
    for itemset in frequent:
        attrs = [attr for attr, _v in itemset]
        assert len(attrs) == len(set(attrs))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2), st.sampled_from("xy"), st.booleans()
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 5),
)
def test_frequent_itemsets_supports_are_exact(transactions, min_support):
    frequent = frequent_itemsets(transactions, ATTRS, min_support)
    for itemset, support in frequent.items():
        assert support == support_of(transactions, itemset)
        assert support >= min_support


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2), st.sampled_from("xy"), st.booleans()
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 5),
)
def test_frequent_itemsets_complete_downward_closed(transactions, min_support):
    """The miner must enumerate *all* frequent itemsets (needed for closure)."""
    from itertools import combinations

    frequent = frequent_itemsets(transactions, ATTRS, min_support)
    distinct_items = {
        (attr, value)
        for t in transactions
        for attr, value in zip(ATTRS, t)
    }
    for size in range(1, len(ATTRS) + 1):
        for combo in combinations(sorted(distinct_items), size):
            attrs = [a for a, _ in combo]
            if len(set(attrs)) != size:
                continue
            itemset = frozenset(combo)
            if support_of(transactions, itemset) >= min_support:
                assert itemset in frequent


def test_closed_itemsets_drop_absorbed_subsets():
    # b is always "x" when a is 1 -> {a=1} is not closed, {a=1,b=x} is.
    transactions = [(1, "x", True), (1, "x", False), (2, "y", True)]
    closed = closed_frequent_itemsets(transactions, ATTRS, 2)
    assert frozenset({("a", 1)}) not in closed
    assert frozenset({("a", 1), ("b", "x")}) in closed


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2), st.sampled_from("xy"), st.booleans()
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_closed_itemsets_property(transactions):
    """Closed = no one-item extension with equal support."""
    closed = closed_frequent_itemsets(transactions, ATTRS, 2)
    frequent = frequent_itemsets(transactions, ATTRS, 2)
    for itemset, support in closed.items():
        covered = {a for a, _ in itemset}
        for other in frequent:
            if len(other) == 1:
                ((attr, value),) = other
                if attr in covered:
                    continue
                assert frequent.get(itemset | other) != support


@st.composite
def transaction_sets(draw):
    """Random transactions over 1–4 attributes, values from a small
    alphabet with ``None``, and a random support threshold."""
    attributes = ("a", "b", "c", "d")[: draw(st.integers(1, 4))]
    value = st.sampled_from(["p", "q", 0, 1, None])
    transactions = draw(
        st.lists(st.tuples(*[value] * len(attributes)), max_size=30)
    )
    return transactions, attributes, draw(st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(transaction_sets())
def test_group_counts_equal_the_apriori_oracle(case):
    transactions, attributes, min_support = case
    assert frequent_itemsets(
        transactions, attributes, min_support
    ) == apriori_frequent_itemsets(transactions, attributes, min_support)
    assert closed_frequent_itemsets(
        transactions, attributes, min_support
    ) == apriori_closed_itemsets(transactions, attributes, min_support)


def test_itemsets_come_by_size_then_first_occurrence_then_subset():
    transactions = [(1, "x", True), (2, "y", True), (1, "y", False)]
    order = list(frequent_itemsets(transactions, ATTRS, 1))
    assert order[:6] == [
        frozenset({("a", 1)}),
        frozenset({("b", "x")}),
        frozenset({("c", True)}),
        frozenset({("a", 2)}),
        frozenset({("b", "y")}),
        frozenset({("c", False)}),
    ]
    # size 2, first transaction: subsets (a, b), (a, c), (b, c) in turn
    assert order[6:9] == [
        frozenset({("a", 1), ("b", "x")}),
        frozenset({("a", 1), ("c", True)}),
        frozenset({("b", "x"), ("c", True)}),
    ]


def test_itemsets_to_rows():
    rows = itemsets_to_rows(
        [frozenset({("a", 1), ("c", True)})], ATTRS, WILDCARD
    )
    assert rows == [(1, WILDCARD, True)]


# -- FD instantiation ----------------------------------------------------------

SCHEMA = Schema("R", ["id", "a", "b", "y"], key=["id"])


def skewed_relation(n=200):
    """80% of tuples share (a=1, b='hot'); the rest are scattered."""
    rows = []
    for i in range(n):
        if i % 5 != 0:
            rows.append((i, 1, "hot", i % 7))
        else:
            rows.append((i, i % 13, f"cold{i % 11}", i % 7))
    return Relation(SCHEMA, rows)


def test_instantiation_preserves_violations():
    relation = skewed_relation()
    cluster = partition_uniform(relation, 4)
    fd = CFD(["a", "b"], ["y"], name="fd")
    result = instantiate_with_frequent_patterns(cluster, fd, theta=0.1)
    assert result.n_mined_patterns > 0
    expected = detect_violations(relation, fd).violations
    got = detect_violations(relation, result.cfd).violations
    assert got == expected


def test_instantiation_reduces_shipment():
    """The Fig. 3(e) effect: mined patterns cut PATDETECTS traffic."""
    relation = skewed_relation()
    cluster = partition_uniform(relation, 4)
    fd = CFD(["a", "b"], ["y"], name="fd")
    plain = pat_detect_s(cluster, fd)
    mined = instantiate_with_frequent_patterns(cluster, fd, theta=0.1)
    refined = pat_detect_s(cluster, mined.cfd)
    assert refined.report.violations == plain.report.violations
    assert refined.tuples_shipped < plain.tuples_shipped


def test_high_theta_mines_nothing():
    relation = skewed_relation()
    cluster = partition_uniform(relation, 2)
    fd = CFD(["a", "b"], ["y"])
    result = instantiate_with_frequent_patterns(cluster, fd, theta=1.0)
    # Nothing occurs in every tuple of a fragment here except possibly the
    # hot pattern; either way the CFD stays equivalent.
    expected = detect_violations(relation, fd).violations
    assert detect_violations(relation, result.cfd).violations == expected


def test_theta_validated():
    relation = skewed_relation(10)
    cluster = partition_uniform(relation, 2)
    fd = CFD(["a"], ["y"])
    with pytest.raises(ValueError):
        instantiate_with_frequent_patterns(cluster, fd, theta=0.0)
    with pytest.raises(ValueError):
        instantiate_with_frequent_patterns(cluster, fd, theta=1.5)


def test_wildcard_row_kept_last():
    relation = skewed_relation()
    cluster = partition_uniform(relation, 2)
    fd = CFD(["a", "b"], ["y"])
    result = instantiate_with_frequent_patterns(cluster, fd, theta=0.2)
    last = result.cfd.tableau[-1]
    assert all(is_wildcard(v) for v in last.lhs)


def test_max_patterns_cap():
    relation = skewed_relation()
    cluster = partition_uniform(relation, 2)
    fd = CFD(["a", "b"], ["y"])
    result = instantiate_with_frequent_patterns(
        cluster, fd, theta=0.01, max_patterns=3
    )
    assert result.n_mined_patterns <= 3


def test_non_fd_rows_untouched():
    cfd = parse_cfd("([a, b] -> [y]) with (1, 'hot' || _), (_, _ || _)")
    relation = skewed_relation()
    cluster = partition_uniform(relation, 2)
    result = instantiate_with_frequent_patterns(cluster, cfd, theta=0.1)
    lhs_rows = [tp.lhs for tp in result.cfd.tableau]
    assert (1, "hot") in lhs_rows  # original specific row kept
    expected = detect_violations(relation, cfd).violations
    assert detect_violations(relation, result.cfd).violations == expected


def test_ctr_with_mining_matches_without():
    relation = skewed_relation()
    cluster = partition_uniform(relation, 3)
    fd = CFD(["a", "b"], ["y"], name="fd")
    mined = instantiate_with_frequent_patterns(cluster, fd, theta=0.1)
    assert (
        ctr_detect(cluster, mined.cfd).report.violations
        == ctr_detect(cluster, fd).report.violations
    )


RELATION_ROWS = st.lists(
    st.tuples(
        st.sampled_from("pqr"), st.sampled_from("uv"), st.integers(0, 2)
    ),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(RELATION_ROWS, st.integers(1, 4), st.sampled_from([["a"], ["a", "b"]]))
def test_mine_once_then_instantiate_equals_instantiating_afresh(
    values, n_sites, lhs
):
    """A θ sweep over one mining gives, at every θ, the result of mining
    afresh: the same tableau in the same order, per-site counts and
    modelled time; each site's count is the oracle's closed itemsets."""
    schema = Schema("R", ["id", "a", "b", "y"], key=["id"])
    relation = Relation(schema, [(i, *v) for i, v in enumerate(values)])
    cluster = partition_uniform(relation, n_sites)
    fd = CFD(lhs, ["y"], name="fd")
    mining = mine_cluster(cluster, fd)
    for theta in (0.01, 0.1, 0.3, 0.5, 1.0):
        once = instantiate_mined(mining, theta)
        assert once == instantiate_with_frequent_patterns(cluster, fd, theta)
        assert once.per_site_patterns == [
            len(
                apriori_closed_itemsets(
                    site.fragment.project(lhs).rows,
                    lhs,
                    max(1, math.ceil(theta * len(site.fragment))),
                )
            )
            for site in cluster.sites
        ]


HASH_SEED_SCRIPT = """
import random
from repro.core import CFD
from repro.detect import pat_detect_s
from repro.mining import instantiate_with_frequent_patterns
from repro.partition import partition_uniform
from repro.relational import Relation, Schema

rng = random.Random(1)
rows = [
    (i, rng.choice("pqr"), rng.choice("uvwx"), rng.choice("mno"), rng.randrange(3))
    for i in range(600)
]
schema = Schema("R", ["id", "a", "b", "c", "y"], key=["id"])
cluster = partition_uniform(Relation(schema, rows), 3)
mined = instantiate_with_frequent_patterns(
    cluster, CFD(["a", "b", "c"], ["y"]), theta=0.05
)
print([tp.lhs for tp in mined.cfd.tableau])
print(pat_detect_s(cluster, mined.cfd).tuples_shipped)
"""


def test_mining_does_not_depend_on_the_hash_seed():
    """With k = 3 the mined rows of one wildcard count overlap, so their
    order decides which pattern claims a tuple; it must not follow
    ``PYTHONHASHSEED``."""
    src = Path(repro.__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]

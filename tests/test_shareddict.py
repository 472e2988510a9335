"""Shared-dictionary properties: cluster-global codes decode identically.

The whole point of :mod:`repro.relational.shareddict` is one invariant:
**equal values carry equal codes at every fragment of a cluster, and every
code decodes to the same value everywhere**.  The coded shipping of the
distributed detectors (and the coordinator-side merge on code pairs) is
only correct on top of it, so it is pinned here on random fragmentations —
through the per-variable pair dictionaries and the whole-combination
dictionaries of CLUSTDETECT.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import normalize
from repro.detect.base import (
    partition_cluster,
    partition_fragment_summary,
)
from repro.partition import partition_uniform
from repro.relational import (
    Relation,
    Schema,
    SharedComboDictionary,
    SharedPairDictionary,
    column_store,
)

ATTRS = ("a", "b", "c")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))
VALUES = [0, 1, "x", "y"]

rows = st.lists(
    st.tuples(*[st.sampled_from(VALUES) for _ in ATTRS]),
    min_size=1,
    max_size=24,
)

SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def fragmented(draw):
    body = draw(rows)
    relation = Relation(SCHEMA, [(i,) + r for i, r in enumerate(body)])
    n_sites = draw(st.integers(1, 4))
    return relation, partition_uniform(relation, n_sites)


@SETTINGS
@given(fragmented())
def test_pair_dictionary_translations_decode_fragment_combos(data):
    """Per-fragment translations decode back to each fragment's combos."""
    relation, cluster = data
    attributes = ("a", "b", "c")
    lhs_width = 2
    shared = SharedPairDictionary(lhs_width)
    for i, site in enumerate(cluster.sites):
        distincts = column_store(site.fragment).key_column(attributes).values
        pairs = shared.translate(i, distincts)
        assert pairs == shared.pairs_for(i)  # memoized
        for combo, (x_code, y_code) in zip(distincts, pairs):
            assert shared.x_values[x_code] == combo[:lhs_width]
            assert shared.y_values[y_code] == combo[lhs_width:]
    # global injectivity: distinct X projections ↔ distinct codes
    assert len(shared.x_values) == len(shared.x_code_of)
    assert len(set(shared.x_values)) == len(shared.x_values)


@SETTINGS
@given(fragmented())
def test_combo_dictionary_decodes_identically(data):
    relation, cluster = data
    attributes = ("a", "c")
    shared = SharedComboDictionary()
    for i, site in enumerate(cluster.sites):
        distincts = column_store(site.fragment).key_column(attributes).values
        codes = shared.translate(i, distincts)
        for combo, code in zip(distincts, codes):
            assert shared.values[code] == combo
    assert len(set(shared.values)) == len(shared.values)


def test_partition_cluster_shares_one_dictionary_across_sites():
    """partition_cluster interns all fragments into one cached dictionary."""
    relation = Relation(
        SCHEMA, [(i, i % 2, i % 3, "x") for i in range(12)]
    )
    cluster = partition_uniform(relation, 3)
    from repro.core import CFD

    cfd = CFD(["a", "b"], ["c"], name="phi")
    (variable,) = normalize(cfd).variables
    partitions, _ = partition_cluster(cluster, variable)
    shared = partitions[0].shared
    assert all(part.shared is shared for part in partitions)
    # equal (X, A) combos at different sites translate to the same pair
    seen: dict[tuple, tuple[int, int]] = {}
    for i, part in enumerate(partitions):
        distincts = column_store(part.site.fragment).key_column(
            variable.attributes
        ).values
        for combo, pair in zip(distincts, part.pairs):
            assert seen.setdefault(combo, pair) == pair
    # repeat detections reuse the cached dictionary and translations
    again, _ = partition_cluster(cluster, variable)
    assert again[0].shared is shared
    assert all(a.pairs is b.pairs for a, b in zip(again, partitions))


def test_fragment_summary_counts_match_bucket_rows():
    """Bucket row counts equal the σ-matched rows of the fragment."""
    relation = Relation(
        SCHEMA, [(i, i % 2, i % 2, i % 4) for i in range(16)]
    )
    from repro.core import CFD, PatternTuple, WILDCARD, pattern_index

    cfd = CFD(
        ["a", "b"],
        ["c"],
        [PatternTuple([0, WILDCARD], [WILDCARD])],
        name="phi",
    )
    (variable,) = normalize(cfd).variables
    counts, bucket_codes, values = partition_fragment_summary(
        relation, variable
    )
    index = pattern_index(variable.patterns)
    expected = sum(
        1
        for row in relation.rows
        if index.matches_any(tuple(row[SCHEMA.position(a)] for a in variable.lhs))
    )
    assert sum(counts) == expected
    assert values == column_store(relation).key_column(variable.attributes).values
    for count, codes in zip(counts, bucket_codes):
        assert (count == 0) == (not codes)

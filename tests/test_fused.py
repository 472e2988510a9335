"""The fused columnar detector must match the reference oracle bit-for-bit.

Property-based equivalence on random relations and random CFD sets
(including eCFD predicate entries), checked on the whole relation and on
every fragment of both horizontal partition kinds — on violations *and*
collected tuple keys — plus direct unit tests of the columnar cache reuse
path and the engine dispatcher.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CFD,
    FusedDetector,
    NotValue,
    OneOf,
    PatternTuple,
    WILDCARD,
    detect_violations,
    detect_violations_reference,
    fused_detect,
)
from repro.partition import partition_by_attribute, partition_uniform
from repro.relational import HashIndex, Relation, Schema, column_store

ATTRS = ("a", "b", "c", "d")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))
VALUES = [0, 1, 2]

rows = st.lists(
    st.tuples(*[st.sampled_from(VALUES) for _ in ATTRS]),
    min_size=0,
    max_size=24,
)


@st.composite
def relations(draw):
    body = draw(rows)
    return Relation(SCHEMA, [(i,) + r for i, r in enumerate(body)])


@st.composite
def pattern_entries(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return WILDCARD
    if kind == 1:
        return OneOf(draw(st.sets(st.sampled_from(VALUES), min_size=1, max_size=2)))
    if kind == 2:
        return NotValue(draw(st.sampled_from(VALUES)))
    return draw(st.sampled_from(VALUES))


@st.composite
def cfds(draw):
    lhs_size = draw(st.integers(1, 3))
    attrs = draw(st.permutations(ATTRS).map(lambda p: list(p[: lhs_size + 1])))
    lhs, rhs = attrs[:-1], [attrs[-1]]
    n_patterns = draw(st.integers(1, 3))
    tableau = [
        PatternTuple(
            [draw(pattern_entries()) for _ in lhs],
            [draw(pattern_entries()) for _ in rhs],
        )
        for _ in range(n_patterns)
    ]
    return CFD(lhs, rhs, tableau, name=f"cfd{draw(st.integers(0, 10 ** 6))}")


SETTINGS = settings(max_examples=100, deadline=None)


def assert_equivalent(relation, sigma):
    expected = detect_violations_reference(relation, sigma, collect_tuples=True)
    fused = fused_detect(relation, sigma, collect_tuples=True)
    assert fused.violations == expected.violations
    assert fused.tuple_keys == expected.tuple_keys


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_fused_equals_reference_centralized(relation, sigma):
    assert_equivalent(relation, sigma)


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3), st.integers(1, 4))
def test_fused_equals_reference_on_uniform_fragments(relation, sigma, n_sites):
    for site in partition_uniform(relation, n_sites).sites:
        assert_equivalent(site.fragment, sigma)


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_fused_equals_reference_on_attribute_fragments(relation, sigma):
    for site in partition_by_attribute(relation, "a").sites:
        assert_equivalent(site.fragment, sigma)


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_detector_instance_is_reusable(relation, sigma):
    detector = FusedDetector(sigma)
    first = detector.detect(relation)
    second = detector.detect(relation)  # warm columnar cache
    assert first.violations == second.violations
    assert first.tuple_keys == second.tuple_keys


# -- unit tests ---------------------------------------------------------------


def small_relation():
    return Relation(
        SCHEMA,
        [
            (0, 1, 1, 0, 0),
            (1, 1, 1, 0, 1),  # conflicts with row 0 on d given (a, b)
            (2, 2, 0, 1, 2),
            (3, 2, 0, 1, 2),
        ],
    )


def test_fused_variable_cfd_reports_keys():
    relation = small_relation()
    cfd = CFD(["a", "b"], ["d"], name="phi")
    report = fused_detect(relation, cfd)
    expected = detect_violations_reference(relation, cfd)
    assert report.violations == expected.violations
    assert report.tuple_keys == expected.tuple_keys == {(0,), (1,)}


def test_fused_constant_cfd_with_absent_constant_matches_nothing():
    relation = small_relation()
    cfd = CFD(["a"], ["b"], [PatternTuple((99,), (5,))], name="phi")
    assert fused_detect(relation, cfd).is_clean()
    assert detect_violations_reference(relation, cfd).is_clean()


def test_fused_predicate_entries():
    relation = small_relation()
    cfd = CFD(
        ["a"],
        ["c"],
        [PatternTuple((OneOf({1, 2}),), (NotValue(1),))],
        name="phi",
    )
    expected = detect_violations_reference(relation, cfd)
    fused = fused_detect(relation, cfd)
    assert fused.violations == expected.violations
    assert fused.tuple_keys == expected.tuple_keys


def test_fused_empty_relation():
    relation = Relation(SCHEMA, [])
    cfd = CFD(["a"], ["b"], name="phi")
    assert fused_detect(relation, cfd).is_clean()


def test_dispatcher_selects_engines(monkeypatch):
    relation = small_relation()
    cfd = CFD(["a", "b"], ["d"], name="phi")
    fused = detect_violations(relation, cfd, engine="fused")
    reference = detect_violations(relation, cfd, engine="reference")
    auto = detect_violations(relation, cfd, engine="auto")
    assert fused.violations == reference.violations == auto.violations
    with pytest.raises(ValueError):
        detect_violations(relation, cfd, engine="no-such-engine")
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    via_env = detect_violations(relation, cfd)
    assert via_env.violations == reference.violations


def test_dispatcher_fused_numpy_engine(monkeypatch):
    """``fused-numpy`` folded into ``fused``: the old name is rejected,
    by argument and by environment, instead of silently aliasing."""
    relation = small_relation()
    cfd = CFD(["a", "b"], ["d"], name="phi")
    with pytest.raises(ValueError, match="unknown detection engine"):
        detect_violations(relation, cfd, engine="fused-numpy")
    monkeypatch.setenv("REPRO_ENGINE", "fused-numpy")
    with pytest.raises(ValueError, match="unknown detection engine"):
        detect_violations(relation, cfd)


# -- cached columnar index reuse ----------------------------------------------


def test_column_store_is_cached_on_the_relation():
    relation = small_relation()
    store = column_store(relation)
    assert column_store(relation) is store
    assert store.column("a") is store.column("a")
    assert store.key_column(("a", "b")) is store.key_column(("a", "b"))
    assert store.group_index(("a",)) is store.group_index(("a",))


def test_hash_index_reuses_the_cached_group_index():
    relation = small_relation()
    first = HashIndex(relation, ["a", "b"])
    store = column_store(relation)
    assert ("a", "b") in store._group_indexes  # built by the first index
    second = HashIndex(relation, ["a", "b"])
    for key in store.group_index(("a", "b")):
        assert first.lookup(key) == second.lookup(key)
    # and the buckets agree with a brute-force grouping
    for key, bucket in relation.group_by(["a", "b"]).items():
        assert first.lookup(key) == bucket


def test_single_attribute_key_column_shares_codes():
    relation = small_relation()
    store = column_store(relation)
    column = store.column("a")
    key = store.key_column(("a",))
    assert key.codes is column.codes  # no re-encoding for 1-attribute keys
    assert key.values == [(v,) for v in column.values]


def test_group_index_matches_group_by_row_ids():
    relation = small_relation()
    index = column_store(relation).group_index(("c",))
    for key, ids in index.items():
        assert [relation.rows[i] for i in ids] == relation.group_by(["c"])[key]

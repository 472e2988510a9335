"""Property-based differential suite: reference ≡ fused ≡ sql.

The reference engine is the executable spec; the fused engine and the
database-backed ``sql`` engine must reproduce it bit-for-bit — violations
*and* collected tuple keys — on every input, and the statements
``repro sql`` prints must return its ``Vioπ`` when run.  This module
drives all three engines over random relations and CFD sets covering the
paths where they genuinely diverge in implementation:

* eCFD predicate entries (``OneOf`` / ``NotValue`` / ``Range``) on both
  sides of the pattern;
* mixed int/str columns, whose dictionary codes the vectorized
  composite-key combine must group exactly like the hash loop;
* both horizontal partition kinds, empty relations and fragments,
  single-row X-groups, and all-identical columns;
* warm re-detection on a cached store (the fused folds switch their
  tuple-key collection strategy on the second run; the sql engine reuses
  its per-relation database handle);
* relations with ``None`` cells — SQL three-valued logic vs the in-memory
  engines' "None is an ordinary value" contract (the null-safe compilation
  strategy is documented in :mod:`repro.core.sql`).

``VECTORIZE_MIN_ROWS`` is forced to 0 for the whole module so the
hypothesis-sized relations actually take the vectorized composite-key
combine; the columnar unit tests at the bottom pin it and the hash loop
to the identical first-seen-order output.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CFD,
    ENGINES,
    NotValue,
    OneOf,
    PatternTuple,
    Range,
    WILDCARD,
    detect_violations,
    run_detection_on_sqlite,
)
from repro.detect import (
    IncrementalClustDetector,
    clust_detect,
    ctr_detect,
    pat_detect_rt,
    pat_detect_s,
    seq_detect,
)
from repro.partition import partition_by_attribute, partition_uniform
from repro.relational import Relation, Schema, column_store
from repro.relational import columnar

ATTRS = ("a", "b", "c", "d")
SCHEMA = Schema("R", ("id",) + ATTRS, key=("id",))
#: mixed domain: int-only and string-carrying draws, both against the same
#: oracle
VALUES = [0, 1, 2, "x", "y"]


@pytest.fixture(scope="module", autouse=True)
def vectorize_tiny_relations():
    """Drop the vectorization threshold so hypothesis-sized inputs hit the
    vectorized key combine instead of the small-relation hash loop."""
    patcher = pytest.MonkeyPatch()
    patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", 0)
    yield
    patcher.undo()


def assert_engines_agree(relation, sigma):
    expected = detect_violations(relation, sigma, engine="reference")
    for engine in ENGINES[1:]:
        # twice per engine: the second run folds over a warm columnar
        # store (or, for sql, a warm per-relation database handle)
        for _ in range(2):
            report = detect_violations(relation, sigma, engine=engine)
            assert report.violations == expected.violations, engine
            assert report.tuple_keys == expected.tuple_keys, engine
    # the printed statements, run as printed (values inlined as literals)
    assert run_detection_on_sqlite(relation, sigma) == {
        (v.cfd, v.lhs_values) for v in expected.violations
    }, "printed sql"


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
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return WILDCARD
    if kind == 1:
        return OneOf(draw(st.sets(st.sampled_from(VALUES), min_size=1, max_size=2)))
    if kind == 2:
        return NotValue(draw(st.sampled_from(VALUES)))
    if kind == 3:
        return Range(draw(st.sampled_from(["<", "<=", ">", ">="])), draw(st.integers(0, 2)))
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


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_engines_agree_centralized(relation, sigma):
    assert_engines_agree(relation, sigma)


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3), st.integers(1, 4))
def test_engines_agree_on_uniform_fragments(relation, sigma, n_sites):
    for site in partition_uniform(relation, n_sites).sites:
        assert_engines_agree(site.fragment, sigma)


@SETTINGS
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_engines_agree_on_attribute_fragments(relation, sigma):
    for site in partition_by_attribute(relation, "a").sites:
        assert_engines_agree(site.fragment, sigma)


# -- NULL semantics: sql three-valued logic vs "None is a value" -------------

#: like VALUES but with None cells — the domain where SQL's three-valued
#: logic diverges hardest from the in-memory engines' contract (None equals
#: itself, differs from everything, never orders)
NULL_VALUES = [0, 1, "x", None]

null_rows = st.lists(
    st.tuples(*[st.sampled_from(NULL_VALUES) for _ in ATTRS]),
    min_size=0,
    max_size=24,
)


@st.composite
def null_relations(draw):
    body = draw(null_rows)
    return Relation(SCHEMA, [(i,) + r for i, r in enumerate(body)])


@st.composite
def null_pattern_entries(draw):
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return WILDCARD
    if kind == 1:
        return OneOf(
            draw(st.sets(st.sampled_from(NULL_VALUES), min_size=1, max_size=3))
        )
    if kind == 2:
        return NotValue(draw(st.sampled_from(NULL_VALUES)))
    if kind == 3:
        # int and str bounds: the sqlite typeof-guard must keep cross-type
        # (and NULL) comparisons out, like Python's TypeError -> no match
        return Range(
            draw(st.sampled_from(["<", "<=", ">", ">="])),
            draw(st.sampled_from([0, 1, "x"])),
        )
    return draw(st.sampled_from(NULL_VALUES))


@st.composite
def null_cfds(draw):
    lhs_size = draw(st.integers(1, 3))
    attrs = draw(st.permutations(ATTRS).map(lambda p: list(p[: lhs_size + 1])))
    lhs, rhs = attrs[:-1], [attrs[-1]]
    tableau = [
        PatternTuple(
            [draw(null_pattern_entries()) for _ in lhs],
            [draw(null_pattern_entries()) for _ in rhs],
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return CFD(lhs, rhs, tableau, name=f"null{draw(st.integers(0, 10 ** 6))}")


@SETTINGS
@given(null_relations(), st.lists(null_cfds(), min_size=1, max_size=3))
def test_engines_agree_with_null_cells(relation, sigma):
    assert_engines_agree(relation, sigma)


def test_null_groups_and_keys_deterministic():
    """None is an X value and a Y value like any other: a group keyed on
    None conflicts iff its Y values differ, where None != 0 counts as a
    difference but None == None does not."""
    relation = Relation(
        SCHEMA,
        [
            (0, None, None, 0, 0),
            (1, None, None, 0, 1),  # same (None, None) on a,b: no conflict
            (2, None, 0, 0, 2),  # b flips None -> 0: conflict on X=None
            (3, "x", None, None, 3),
            (4, "x", None, None, 4),
        ],
    )
    sigma = [CFD(["a"], ["b"], name="phi")]
    assert_engines_agree(relation, sigma)
    report = detect_violations(relation, sigma, engine="sql")
    assert report.violations == detect_violations(
        relation, sigma, engine="reference"
    ).violations
    assert {v.lhs_values for v in report.violations} == {(None,)}
    assert report.tuple_keys == {(0,), (1,), (2,)}


def test_null_constant_rhs_violation():
    """A None cell violates a constant RHS pattern (no match -> violated),
    and a None RHS constant is only satisfied by a None cell."""
    relation = Relation(
        SCHEMA,
        [(0, 1, None, 0, 0), (1, 1, "x", 0, 0), (2, 2, None, 0, 0)],
    )
    sigma = [
        CFD(["a"], ["b"], [PatternTuple((1,), ("x",))], name="want_x"),
        CFD(["a"], ["b"], [PatternTuple((2,), (None,))], name="want_null"),
    ]
    assert_engines_agree(relation, sigma)
    report = detect_violations(relation, sigma, engine="sql")
    assert {(v.cfd, v.lhs_values) for v in report.violations} == {
        ("want_x", (1,))
    }
    assert report.tuple_keys == {(0,)}


#: one CFD per row: the cells where ``=``/``<>``/``NOT (…)``/``COUNT
#: (DISTINCT) > 1`` SQL answers differently from the reference engine
#: (the last instance, a None X group, is one plain GROUP BY already gets
#: right)
EDGE_INSTANCES = {
    "fd-null-and-value-y": (
        [("x", None), ("x", "y")], CFD(["a"], ["b"], name="phi")
    ),
    "null-under-constant-rhs": (
        [(1, None)], CFD(["a"], ["b"], [PatternTuple((1,), ("x",))], name="phi")
    ),
    "null-lhs-pattern": (
        [(None, "z")],
        CFD(["a"], ["b"], [PatternTuple((None,), ("x",))], name="phi"),
    ),
    "not-value-over-null": (
        [(None, "z")],
        CFD(["a"], ["b"], [PatternTuple((NotValue("x"),), ("y",))], name="phi"),
    ),
    "range-over-mixed-column": (
        [(2, "y"), ("z", "q"), ("w", "q")],
        CFD(["a"], ["b"], [PatternTuple((Range(">", 1),), ("y",))], name="phi"),
    ),
    "null-x-group": (
        [(None, "x"), (None, "y")], CFD(["a"], ["b"], name="phi")
    ),
}


@pytest.mark.parametrize("instance", sorted(EDGE_INSTANCES))
def test_engines_and_printed_sql_agree_on_edge_cells(instance):
    body, cfd = EDGE_INSTANCES[instance]
    relation = Relation(
        SCHEMA, [(i, a, b, 0, 0) for i, (a, b) in enumerate(body)]
    )
    assert_engines_agree(relation, [cfd])


NAN = float("nan")
#: the edge cells plus the cells where equality and identity part: ``1 ==
#: 1.0 == True`` conflate, a NaN object equals only itself
DISTRIBUTED_EDGES = {
    **EDGE_INSTANCES,
    "lookalike-numbers": (
        [(1, "x"), (1.0, "x"), (True, "y"), (0, 1), (0.0, 1.0), (False, True)],
        CFD(["a"], ["b"], name="phi"),
    ),
    "nan-cells": (
        [(NAN, 1), (NAN, 2), (float("nan"), 1), (0, NAN), (0, NAN), (1, NAN)],
        CFD(["a"], ["b"], name="phi"),
    ),
}
DISTRIBUTED = {
    "ctr": lambda cluster, sigma: ctr_detect(cluster, sigma[0]),
    "pat_s": lambda cluster, sigma: pat_detect_s(cluster, sigma[0]),
    "pat_rt": lambda cluster, sigma: pat_detect_rt(cluster, sigma[0]),
    "seq": seq_detect,
    "clust": clust_detect,
    "clust session": lambda cluster, sigma: IncrementalClustDetector(
        cluster, sigma
    ).detect(),
}


@pytest.mark.parametrize("n_sites", [1, 2, 4])
@pytest.mark.parametrize("instance", sorted(DISTRIBUTED_EDGES))
def test_distributed_algorithms_agree_on_edge_cells(instance, n_sites):
    """Every site scan groups a fragment's combinations with the
    reference engine's equality, so the distributed detectors report its
    violations on the edge cells; SEQ and CLUST also get a second CFD
    whose LHS contains the first's, so CLUST merges the two."""
    body, cfd = DISTRIBUTED_EDGES[instance]
    relation = Relation(
        SCHEMA, [(i, a, b, i % 2, 0) for i, (a, b) in enumerate(body)]
    )
    wider = CFD(["a", "c"], ["b"], name="psi")
    for name, detect in DISTRIBUTED.items():
        sigma = [cfd] if name in ("ctr", "pat_s", "pat_rt") else [cfd, wider]
        expected = detect_violations(relation, sigma, engine="reference")
        outcome = detect(partition_uniform(relation, n_sites), sigma)
        assert outcome.report.violations == expected.violations, name


# -- deterministic edge cases -------------------------------------------------


def test_empty_relation():
    assert_engines_agree(Relation(SCHEMA, []), [CFD(["a"], ["b"], name="phi")])


def test_single_row_x_groups():
    """Every X value distinct: no pairwise violation is possible."""
    relation = Relation(SCHEMA, [(i, i, i % 2, 0, 0) for i in range(12)])
    sigma = [CFD(["a"], ["b"], name="phi"), CFD(["a", "b"], ["c"], name="psi")]
    assert_engines_agree(relation, sigma)
    assert detect_violations(relation, sigma, engine="fused").is_clean()


def test_all_identical_columns():
    """One X group covering the whole relation, one shared Y value."""
    relation = Relation(SCHEMA, [(i, 1, 1, 1, 1) for i in range(10)])
    sigma = [CFD(["a"], ["b"], name="phi")]
    assert_engines_agree(relation, sigma)
    # flip one RHS value: the single group now conflicts, all rows violate
    broken = Relation(SCHEMA, [(i, 1, 1 + (i == 9), 1, 1) for i in range(10)])
    assert_engines_agree(broken, sigma)
    report = detect_violations(broken, sigma)
    assert report.tuple_keys == {(i,) for i in range(10)}
    # 1 == 1.0 == True: one X group, one Y value under Python equality
    lookalikes = [1, 1.0, True]
    same = Relation(
        SCHEMA,
        [(i, lookalikes[i % 3], lookalikes[(i + 1) % 3], 1, 1) for i in range(9)],
    )
    assert_engines_agree(same, sigma)
    assert detect_violations(same, sigma, engine="sql").is_clean()


def test_absent_constant_drops_out():
    relation = Relation(SCHEMA, [(0, 1, 1, 0, 0), (1, 2, 0, 1, 2)])
    cfd = CFD(["a"], ["b"], [PatternTuple((99,), (5,))], name="phi")
    assert_engines_agree(relation, [cfd])


def test_large_int_float_mix_does_not_conflate():
    """An int/float mix upcasts to float64, where ints beyond 2**53 collapse
    onto the same float; the vectorized encoder must detect the lossy round
    trip and fall back, or fused silently misses violations.  The
    float sits in the same column as the huge ints so the whole column
    upcasts, and the two ints differ only below float64 precision."""
    relation = Relation(
        SCHEMA,
        [(0, 1, 2 ** 60, 0, 0), (1, 1, 2 ** 60 + 1, 0, 0), (2, 2, 0.5, 0, 0)],
    )
    sigma = [CFD(["a"], ["b"], name="phi")]
    assert_engines_agree(relation, sigma)
    report = detect_violations(relation, sigma, engine="reference")
    assert len(report.violations) == 1 and report.tuple_keys == {(0,), (1,)}


def test_constant_and_variable_hits_in_one_shot_detection():
    """First detection with both constant and variable collections: the
    breadcrumb is resolved per call, and the combined report matches."""
    relation = Relation(
        SCHEMA, [(0, 1, 5, 0, 0), (1, 1, 1, 0, 1), (2, 1, 1, 0, 2)]
    )
    sigma = [
        CFD(["a"], ["b"], [PatternTuple((1,), (9,))], name="const"),
        CFD(["a", "c"], ["d"], name="var"),
    ]
    assert_engines_agree(relation, sigma)


def test_mixed_type_key_columns():
    """Composite X over a mixed int/str column: vectorized combine still
    applies on top of the dictionary-encoded column codes."""
    body = [(0, "x"), (1, "x"), (0, "x"), (1, 2), (0, 2), ("x", 2)]
    relation = Relation(
        SCHEMA, [(i, a, b, 0, i) for i, (a, b) in enumerate(body)]
    )
    sigma = [CFD(["a", "b"], ["d"], name="phi")]
    assert_engines_agree(relation, sigma)


# -- columnar backend equivalence ---------------------------------------------


def both_stores(rows_, n_attrs=3):
    """The same rows with key columns built by the vectorized combine and
    by the hash loop."""
    schema = Schema("R", ("id",) + ATTRS[:n_attrs], key=("id",))
    vec = column_store(Relation(schema, rows_))
    patcher = pytest.MonkeyPatch()
    patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", 10 ** 9)
    try:
        plain = column_store(Relation(schema, rows_))
    finally:
        patcher.undo()
    return vec, plain


def test_vectorized_encode_matches_dictionary_encode():
    rows_ = [(i, i % 7, (i * 3) % 5, i % 2) for i in range(500)]
    vec, plain = both_stores(rows_)
    for attr in ("a", "b", "c"):
        left, right = vec.column(attr), plain.column(attr)
        assert left.codes == right.codes  # first-seen order preserved
        assert left.values == right.values
        assert left.code_of == right.code_of
    key_vec = vec.key_column(("a", "b", "c"))
    key_plain = plain.key_column(("a", "b", "c"))
    assert key_vec.codes == key_plain.codes
    assert key_vec.values == key_plain.values
    assert vec.group_index(("a", "b")) == plain.group_index(("a", "b"))
    assert list(vec.group_index(("a", "b"))) == list(plain.group_index(("a", "b")))


def test_vectorized_encode_fallbacks():
    mixed = [(i, "s" if i % 2 else i, 1.5, float("nan")) for i in range(40)]
    vec, plain = both_stores(mixed)
    for attr in ("a", "c"):  # mixed and NaN columns
        assert vec.column(attr).codes == plain.column(attr).codes
    # the lazily-built array view agrees with the list view
    assert vec.column("a").codes_array().tolist() == vec.column("a").codes


def test_code_arrays_are_cached_and_int32():
    import numpy as np

    rows_ = [(i, i % 3, i % 4, 0) for i in range(300)]
    store = column_store(Relation(Schema("R", ("id",) + ATTRS[:3], key=("id",)), rows_))
    column = store.column("a")
    assert column.codes_array() is column.codes_array()
    assert column.codes_array().dtype == np.int32
    key = store.key_column(("a", "b"))
    assert key.codes_array() is key.codes_array()
    assert key.codes_array().dtype == np.int32

"""The vectorized composite-key combine equals the hash loop bit for bit.

``ColumnStore.key_column`` builds a multi-attribute key from the
per-attribute dictionary codes: attributes fold into a dense first-seen
table while it stays small next to the row count, the rest go through one
mixed-radix ``np.unique``, and a key whose packed capacity would pass
2**62 falls back to the hash loop.  These tests pin all three routes to
the hash loop's encoding — codes, decoded values (the very same value
objects), the ``int32`` array view and the ``group_index`` order — over
int, str, float, NaN, bool and mixed columns.  The distributed site scans
skip the key column for one ``Counter`` pass
(:func:`repro.detect.base.combination_counts`); the last tests pin that
pass to the key column's grouping, order and row counts.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import event, given, settings

from repro.detect.base import combination_counts
from repro.relational import Relation, Schema, column_store
from repro.relational import columnar

NAN_A, NAN_B = float("nan"), float("nan")
#: per-kind value domains; a column draws indices into one of them
DOMAINS = {
    "int": list(range(300)),
    "str": [f"s{i}" for i in range(300)],
    "float": [i + 0.5 for i in range(300)],
    "nan": [NAN_A, NAN_B, -0.0, 0.0] + [i + 0.25 for i in range(296)],
    "bool": [False, True],
    # 1 / 1.0 / True and 0 / 0.0 / False conflate as dict keys
    "mixed": [0, "0", 1.0, True, "x", None, 1, 0.0, False, (1, 2)]
    + [f"m{i}" for i in range(290)],
}


def stores(schema, rows):
    """The same rows with key columns built by the vectorized combine and
    by the hash loop."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", 0)
        fast = column_store(Relation(schema, rows))
        patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", 10**9)
        slow = column_store(Relation(schema, rows))
    return fast, slow


def dense_steps(store, attributes) -> int:
    """How many attributes the dense first-seen table absorbs, by the
    rule the store applies (the first attribute always counts)."""
    n = len(store.rows)
    groups = store.column(attributes[0]).n_distinct
    for i in range(1, len(attributes)):
        width = store.column(attributes[i]).n_distinct
        if groups * width > columnar._DENSE_CELLS_PER_ROW * n:
            return i
        groups = store.key_column(attributes[: i + 1]).n_groups
    return len(attributes)


def route(store, attributes) -> str:
    if len(attributes) == 1:
        return "single column"
    dense = dense_steps(store, attributes)
    if dense == len(attributes):
        return "dense"
    return "unique" if dense == 1 else "dense+unique"


def assert_same_key(fast, slow, attributes):
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", 0)
        left = fast.key_column(attributes)
        patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", 10**9)
        right = slow.key_column(attributes)
    assert left.codes == right.codes
    assert left.codes_array().dtype == np.int32
    assert left.codes_array().tolist() == right.codes
    assert len(left.values) == len(right.values)
    for mine, theirs in zip(left.values, right.values):
        assert type(mine) is tuple and len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs))
    left_index = fast.group_index(attributes)
    right_index = slow.group_index(attributes)
    assert list(left_index.values()) == list(right_index.values())
    assert len(left_index) == len(right_index)


@st.composite
def relations(draw):
    n_attrs = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 60))
    attributes = tuple(f"a{i}" for i in range(n_attrs))
    columns = []
    for _ in attributes:
        domain = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
        width = min(len(domain), draw(st.sampled_from([1, 2, 3, 6, 60, 300])))
        picks = draw(
            st.lists(
                st.integers(0, width - 1), min_size=n_rows, max_size=n_rows
            )
        )
        columns.append([domain[i] for i in picks])
    schema = Schema("R", ("id",) + attributes, key=("id",))
    rows = [(i, *cells) for i, cells in enumerate(zip(*columns))]
    return schema, attributes, rows


@settings(max_examples=300, deadline=None)
@given(relations())
def test_key_column_equals_hash_loop(case):
    schema, attributes, rows = case
    fast, slow = stores(schema, rows)
    if rows:
        event(f"route: {route(slow, attributes)}")
    assert_same_key(fast, slow, attributes)


def shaped(n, columns):
    attributes = tuple(f"a{i}" for i in range(len(columns)))
    schema = Schema("R", ("id",) + attributes, key=("id",))
    rows = [(i, *(column(i) for column in columns)) for i in range(n)]
    return stores(schema, rows), attributes


@pytest.mark.parametrize(
    "expected, columns",
    [
        # 4 × 4 × 4 cells for 64 rows: every attribute folds densely
        ("dense", [lambda i: i % 4, lambda i: f"s{i // 4 % 4}", lambda i: i % 3 == 0]),
        # 64 × 64 cells exceed 8 per row at once: np.unique does it all
        ("unique", [lambda i: i, lambda i: float(i * 7 % 64)]),
        # (a0, a1) fold densely into 16 groups, 16 × 64 cells do not
        (
            "dense+unique",
            [lambda i: i % 4, lambda i: i // 4 % 4, lambda i: f"c{i * 5 % 64}",
             lambda i: NAN_A if i % 2 else i % 3],
        ),
    ],
)
def test_each_route_equals_hash_loop(expected, columns):
    (fast, slow), attributes = shaped(64, columns)
    assert route(slow, attributes) == expected
    assert_same_key(fast, slow, attributes)


def test_capacity_past_2_62_takes_the_hash_loop():
    # eight all-distinct attributes over 300 rows: 300**8 > 2**62, and no
    # pair fits the dense table, so the packed key would overflow int64
    columns = [
        lambda i, m=m: i * m % 300 for m in (1, 7, 11, 13, 17, 19, 23, 29)
    ]
    (fast, slow), attributes = shaped(300, columns)
    assert route(slow, attributes) == "unique"
    codes = [fast.column(a) for a in attributes]
    assert fast._key_column_numpy(attributes, codes) is None
    assert_same_key(fast, slow, attributes)


def test_single_attribute_key_shares_the_column_array():
    (store, _), _ = shaped(300, [lambda i: i % 5, lambda i: f"s{i % 7}"])
    for attribute in ("a0", "a1"):
        key = store.key_column((attribute,))
        assert key.codes_array() is store.column(attribute).codes_array()


# -- the site scans' combination counts ---------------------------------------


@settings(max_examples=300, deadline=None)
@given(relations())
def test_combination_counts_equal_the_key_column(case):
    """One ``Counter`` pass yields the key column's distinct combinations,
    equal and in the same first-seen order, and a ``bincount`` of its
    codes as the row counts."""
    schema, attributes, rows = case
    relation = Relation(schema, rows)
    values, occupancy = combination_counts(relation, attributes)
    key = column_store(Relation(schema, rows)).key_column(attributes)
    assert all(type(combo) is tuple for combo in values)
    assert values == key.values
    expected = np.bincount(key.codes_array(), minlength=key.n_groups).tolist()
    assert occupancy == expected
    # memoized per store: a repeat scan gets the very same lists back
    assert combination_counts(relation, attributes) == (values, occupancy)
    assert combination_counts(relation, attributes)[0] is values


def test_combination_decodes_to_its_first_row():
    """Equal combinations share one count; the decoded combination is the
    first row's projection, not each column's first-seen value."""
    schema = Schema("R", ("id", "a", "b"), key=("id",))
    rows = [(0, 1, "x"), (1, True, "y"), (2, 1.0, "y"), (3, NAN_A, "y")]
    values, occupancy = combination_counts(Relation(schema, rows), ("a", "b"))
    assert values == [(1, "x"), (True, "y"), (NAN_A, "y")]
    assert occupancy == [1, 2, 1]
    decoded = column_store(Relation(schema, rows)).key_column(("a", "b")).values
    assert decoded[1] == values[1]
    assert type(decoded[1][0]) is int and values[1][0] is True

"""``Relation.insert`` / ``Relation.delete``: a batch ΔD on a plain relation.

The contract under test: both return a new plain :class:`Relation` and
leave the receiver (rows and cached columnar views) untouched; rows are
validated like the constructor's; deletes take keys (key tuples, or bare
values for a one-attribute key) or a predicate and follow bag semantics;
an empty batch returns the receiver itself.
"""

import pytest

from repro.core import CFD, WILDCARD, IncrementalDetector, PatternTuple
from repro.relational import Relation, Schema, column_store
from repro.relational.schema import SchemaError

SCHEMA = Schema("R", ("id", "a", "b"), key=("id",))


def base_relation():
    return Relation(
        SCHEMA,
        [(1, "x", 10), (2, "y", 20), (3, "x", 10), (4, "z", 20)],
    )


def warmed(relation):
    """Build the views a detection run would have left behind."""
    store = column_store(relation)
    store.column("a")
    store.column("b")
    store.key_column(("a", "b"))
    store.group_index(("a",))
    return store


# -- insert -------------------------------------------------------------------


def test_insert_appends_rows():
    parent = base_relation()
    child = parent.insert([(5, "x", 30), (6, "w", 10)])
    assert type(child) is Relation
    assert child.rows == parent.rows + [(5, "x", 30), (6, "w", 10)]
    assert len(child) == 6 and len(parent) == 4


def test_insert_validates_row_width():
    with pytest.raises(SchemaError):
        base_relation().insert([(5, "x")])


def test_insert_leaves_parent_caches_frozen():
    parent = base_relation()
    store = warmed(parent)
    before_codes = list(store.column("a").codes)
    before_values = list(store.column("a").values)
    child = parent.insert([(5, "brand-new", 1)])
    column_store(child).column("a")
    assert column_store(parent) is store
    assert store.column("a").codes == before_codes
    assert store.column("a").values == before_values


# -- delete -------------------------------------------------------------------


def test_delete_by_keys():
    parent = base_relation()
    child = parent.delete([2, 4])
    assert type(child) is Relation
    assert child.rows == [(1, "x", 10), (3, "x", 10)]
    assert len(parent) == 4


def test_delete_accepts_key_tuples_and_predicates():
    parent = base_relation()
    assert len(parent.delete([(1,), (3,)])) == 2
    assert len(parent.delete(lambda row, schema: row[2] >= 20)) == 2


def test_delete_bag_semantics_removes_duplicates_together():
    relation = Relation(SCHEMA, [(1, "x", 1), (1, "y", 2), (2, "z", 3)])
    child = relation.delete([1])
    assert child.rows == [(2, "z", 3)]


def test_delete_rejects_misshapen_keys():
    with pytest.raises(SchemaError):
        base_relation().delete([(1, 2)])


def test_delete_group_index_has_no_empty_buckets():
    parent = Relation(SCHEMA, [(1, "only", 1), (2, "x", 2), (3, "x", 3)])
    store = column_store(parent)
    store.column("a")
    store.group_index(("a",))
    child = parent.delete([1])
    index = column_store(child).group_index(("a",))
    assert ("only",) not in index
    assert all(ids for ids in index.values())


def test_noop_updates_return_self():
    """``insert([])`` / ``delete([])`` are no-ops: no row-list copy — the
    parent object itself comes back."""
    parent = base_relation()
    assert parent.insert([]) is parent
    assert parent.insert(iter(())) is parent
    assert parent.delete([]) is parent
    assert parent.delete(iter(())) is parent
    # a predicate delete always scans, and always returns a new relation
    child = parent.delete(lambda row, schema: False)
    assert child is not parent and child.rows == parent.rows


def test_delete_everything_and_nothing():
    parent = base_relation()
    warmed(parent)
    nothing = parent.delete([99])
    assert nothing.rows == parent.rows
    everything = parent.delete(lambda row, schema: True)
    assert len(everything) == 0
    assert column_store(everything).column("a").codes == []


# -- relational operators on updated relations ---------------------------------


def test_operators_work_on_delta_relations():
    parent = base_relation()
    warmed(parent)
    child = parent.delete([2]).insert([(9, "x", 10)])
    assert child.group_by(("a",))[("x",)] == [
        (1, "x", 10), (3, "x", 10), (9, "x", 10)
    ]
    projected = child.project(("a",), dedupe=True)
    assert set(projected.rows) == {("x",), ("z",)}


def test_incremental_updates_do_not_accumulate_history():
    """A session keeps one plain snapshot of its current rows, whatever
    it absorbed."""
    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    detector = IncrementalDetector([cfd])
    detector.attach(base_relation())
    for i in range(10):
        detector.update(inserted=[(100 + i, "x", i)], deleted=[100 + i - 1] if i else [])
    assert type(detector.relation) is Relation
    assert sorted(detector.relation.rows) == sorted(
        base_relation().rows + [(109, "x", 9)]
    )

"""Delta relations and derived column stores (`repro.relational.delta`).

The contract under test: ``Relation.insert`` / ``Relation.delete`` return
immutable versions whose derived columnar views are *equivalent to a fresh
build* — bit-identical for inserts, value-identical (with possibly stale
dictionary entries) for deletes — while the parent's caches stay frozen,
and cluster-aware stores keep shared-dictionary codes stable across
versions.
"""

import pytest

from repro.relational import (
    Relation,
    Schema,
    SharedDictionary,
    column_store,
)
from repro.relational.delta import DeltaRelation, DerivedColumnStore
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


def test_insert_appends_rows_and_records_provenance():
    parent = base_relation()
    child = parent.insert([(5, "x", 30), (6, "w", 10)])
    assert isinstance(child, DeltaRelation)
    assert child.delta_parent is parent
    assert child.delta_inserted == ((5, "x", 30), (6, "w", 10))
    assert child.delta_deleted == ()
    assert len(child) == 6 and len(parent) == 4


def test_insert_validates_row_width():
    with pytest.raises(SchemaError):
        base_relation().insert([(5, "x")])


def test_insert_derived_columns_match_fresh_build(monkeypatch):
    monkeypatch.setenv("REPRO_INCREMENTAL", "1")  # pin the kill-switch on
    parent = base_relation()
    warmed(parent)
    child = parent.insert([(5, "w", 10), (6, "x", 99)])
    derived = column_store(child)
    assert isinstance(derived, DerivedColumnStore)
    fresh = column_store(Relation(SCHEMA, child.rows))
    for attribute in ("a", "b"):
        assert derived.column(attribute).codes == fresh.column(attribute).codes
        assert derived.column(attribute).values == fresh.column(attribute).values
    assert derived.key_column(("a", "b")).codes == fresh.key_column(("a", "b")).codes
    assert derived.key_column(("a", "b")).values == fresh.key_column(("a", "b")).values
    assert derived.group_index(("a",)) == fresh.group_index(("a",))


def test_insert_leaves_parent_caches_frozen():
    parent = base_relation()
    store = warmed(parent)
    before_codes = list(store.column("a").codes)
    before_values = list(store.column("a").values)
    child = parent.insert([(5, "brand-new", 1)])
    column_store(child).column("a")
    assert store.column("a").codes == before_codes
    assert store.column("a").values == before_values


def test_insert_chain_derives_transitively():
    parent = base_relation()
    warmed(parent)
    v1 = parent.insert([(5, "w", 10)])
    v2 = v1.insert([(6, "x", 40)])
    fresh = column_store(Relation(SCHEMA, v2.rows))
    assert column_store(v2).column("a").codes == fresh.column("a").codes


# -- delete -------------------------------------------------------------------


def test_delete_by_keys_and_provenance():
    parent = base_relation()
    child = parent.delete([2, 4])
    assert child.delta_deleted == ((2, "y", 20), (4, "z", 20))
    assert [row[0] for row in child.rows] == [1, 3]


def test_delete_accepts_key_tuples_and_predicates():
    parent = base_relation()
    assert len(parent.delete([(1,), (3,)])) == 2
    assert len(parent.delete(lambda row, schema: row[2] >= 20)) == 2


def test_delete_bag_semantics_removes_duplicates_together():
    relation = Relation(SCHEMA, [(1, "x", 1), (1, "y", 2), (2, "z", 3)])
    child = relation.delete([1])
    assert len(child) == 1
    assert child.delta_deleted == ((1, "x", 1), (1, "y", 2))


def test_delete_rejects_misshapen_keys():
    with pytest.raises(SchemaError):
        base_relation().delete([(1, 2)])


def test_delete_derived_views_decode_like_fresh_build():
    parent = base_relation()
    warmed(parent)
    child = parent.delete([2])
    derived = column_store(child)
    fresh = column_store(Relation(SCHEMA, child.rows))
    for attribute in ("a", "b"):
        got = derived.column(attribute)
        want = fresh.column(attribute)
        assert [got.values[c] for c in got.codes] == [
            want.values[c] for c in want.codes
        ]
    # composite key columns compact, so they match a fresh build exactly
    assert derived.key_column(("a", "b")).codes == fresh.key_column(("a", "b")).codes
    assert derived.key_column(("a", "b")).values == fresh.key_column(("a", "b")).values


def test_delete_group_index_has_no_empty_buckets():
    parent = Relation(SCHEMA, [(1, "only", 1), (2, "x", 2), (3, "x", 3)])
    store = column_store(parent)
    store.column("a")
    store.group_index(("a",))
    child = parent.delete([1])
    index = column_store(child).group_index(("a",))
    assert ("only",) not in index
    assert all(ids for ids in index.values())


def test_delete_then_insert_round_trip_matches_fresh():
    parent = base_relation()
    warmed(parent)
    v1 = parent.delete([3])
    v2 = v1.insert([(7, "x", 10), (8, "q", 5)])
    derived = column_store(v2)
    fresh = column_store(Relation(SCHEMA, v2.rows))
    got = derived.key_column(("a", "b"))
    want = fresh.key_column(("a", "b"))
    assert [got.values[c] for c in got.codes] == [
        want.values[c] for c in want.codes
    ]
    assert derived.group_index(("a", "b")) == fresh.group_index(("a", "b"))


def test_noop_updates_return_self():
    """``insert([])`` / ``delete([])`` are no-ops: no DeltaRelation, no
    row-list copy — the parent object itself comes back."""
    parent = base_relation()
    assert parent.insert([]) is parent
    assert parent.insert(iter(())) is parent
    assert parent.delete([]) is parent
    assert parent.delete(iter(())) is parent
    # a predicate delete always scans, but matching nothing still yields
    # an empty-delta version (provenance semantics unchanged)
    child = parent.delete(lambda row, schema: False)
    assert child is not parent and child.delta_deleted == ()


def test_delete_everything_and_nothing():
    parent = base_relation()
    warmed(parent)
    nothing = parent.delete([99])
    assert len(nothing) == 4 and nothing.delta_deleted == ()
    everything = parent.delete(lambda row, schema: True)
    assert len(everything) == 0
    assert len(everything.delta_deleted) == 4
    assert column_store(everything).column("a").codes == []


# -- relational operators on delta versions -----------------------------------


def test_operators_work_on_delta_relations():
    parent = base_relation()
    warmed(parent)
    child = parent.delete([2]).insert([(9, "x", 10)])
    assert child.group_by(("a",))[("x",)] == [
        (1, "x", 10), (3, "x", 10), (9, "x", 10)
    ]
    projected = child.project(("a",), dedupe=True)
    assert set(projected.rows) == {("x",), ("z",)}


# -- environment opt-out ------------------------------------------------------


def test_repro_incremental_zero_disables_derivation(monkeypatch):
    monkeypatch.setenv("REPRO_INCREMENTAL", "0")
    parent = base_relation()
    warmed(parent)
    child = parent.insert([(5, "w", 10)])
    assert isinstance(child, DeltaRelation)  # provenance still recorded
    assert not isinstance(column_store(child), DerivedColumnStore)
    fresh = column_store(Relation(SCHEMA, child.rows))
    assert column_store(child).column("a").codes == fresh.column("a").codes


# -- shared (cluster-aware) stores --------------------------------------------


def test_shared_store_codes_stay_stable_across_versions(monkeypatch):
    monkeypatch.setenv("REPRO_INCREMENTAL", "1")  # pin the kill-switch on
    shared = SharedDictionary()
    parent = base_relation()
    parent_store = shared.store_for(parent)
    parent_codes = list(parent_store.column("a").codes)
    child = parent.insert([(5, "brand-new", 1)])
    child_store = shared.store_for(child)
    assert isinstance(child_store, DerivedColumnStore)
    child_codes = child_store.column("a").codes
    # the parent's rows keep their exact global codes in the child
    assert child_codes[: len(parent_codes)] == parent_codes
    # and the new value extends the global table, never renumbering it
    table = shared.column("a")
    assert table.values[child_codes[-1]] == "brand-new"
    assert parent_store.column("a").codes == parent_codes


def test_shared_store_delete_filters_codes():
    shared = SharedDictionary()
    parent = base_relation()
    shared.store_for(parent).column("a")
    child = parent.delete([1])
    child_store = shared.store_for(child)
    decoded = [
        child_store.column("a").values[c] for c in child_store.column("a").codes
    ]
    assert decoded == [row[1] for row in child.rows]


# -- provenance pruning -------------------------------------------------------


def test_prune_delta_history_severs_chain_and_keeps_rows():
    from repro.relational.delta import prune_delta_history

    parent = base_relation()
    warmed(parent)
    child = parent.delete([2]).insert([(9, "x", 10)])
    rows_before = list(child.rows)
    prune_delta_history(child.delta_parent)
    prune_delta_history(child)
    assert child.delta_parent is None
    assert child.delta_inserted == () and child.delta_deleted == ()
    assert child.rows == rows_before
    # severed stores fall back to fresh builds, still correct
    fresh = column_store(Relation(SCHEMA, child.rows))
    got = column_store(child).column("a")
    assert [got.values[c] for c in got.codes] == [
        fresh.column("a").values[c] for c in fresh.column("a").codes
    ]


def test_prune_tolerates_plain_relations_and_none():
    from repro.relational.delta import prune_delta_history

    prune_delta_history(None)
    prune_delta_history(base_relation())  # no-op, no error


def test_incremental_updates_do_not_accumulate_history():
    from repro.core import IncrementalDetector, CFD, PatternTuple, WILDCARD

    cfd = CFD(("a",), ("b",), [PatternTuple((WILDCARD,), (WILDCARD,))])
    detector = IncrementalDetector([cfd])
    detector.attach(base_relation())
    for i in range(10):
        detector.update(inserted=[(100 + i, "x", i)], deleted=[100 + i - 1] if i else [])
    # the session keeps at most the current snapshot; key-batch updates go
    # through the keyed row store, so no version chain exists at all, and
    # predicate-path versions are pruned — either way no history survives
    assert getattr(detector.relation, "delta_parent", None) is None
    chain = 0
    version = detector.relation
    while getattr(version, "delta_parent", None) is not None:
        version = version.delta_parent
        chain += 1
    assert chain == 0

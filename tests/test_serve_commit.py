"""What a group commit does under the session lock, besides the fold.

``_reconcile`` turns a coalesced ticket run into one batch in O(rows)
and must stay equivalent to replaying the tickets serially; a due
checkpoint writes the session snapshot through the C JSON encoder in
bounded slices and must store the same document as before.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parse_cfd
from repro.core.incremental import IncrementalDetector
from repro.relational import Relation
from repro.relational.schema import Schema
from repro.serve import DurableStore, ManagedSession
from repro.serve.durability import _SNAPSHOT_SLICE
from repro.serve.service import _reconcile, _Ticket

CFD = "([CC=44, zip] -> [street])"
SCHEMA = {
    "name": "cust",
    "attributes": ["id", "CC", "zip", "street"],
    "key": ["id"],
}


# -- _reconcile ---------------------------------------------------------------


def reconcile_by_rescan(tickets, key_of):
    """The O(deletes × inserts) implementation ``_reconcile`` replaced."""
    deleted: dict = {}
    inserted: list = []
    for ticket in tickets:
        for key in ticket.deleted:
            inserted = [entry for entry in inserted if entry[0] != key]
            deleted[key] = None
        for row in ticket.inserted:
            inserted.append((key_of(row), row))
    return list(deleted), [row for _key, row in inserted]


#: few keys, so duplicates, insert-delete-insert runs on one key and
#: deletes of keys nobody holds all show up
keys = st.integers(0, 5)
ticket_rows = st.lists(
    st.tuples(
        keys,
        st.sampled_from([44, 99]),
        st.sampled_from(["Z0", "Z1"]),
        st.sampled_from(["S0", "S1", "S2"]),
    ),
    max_size=4,
)
ticket_runs = st.lists(
    st.tuples(ticket_rows, st.lists(keys, max_size=3)), min_size=1, max_size=8
)


def _attached(rows) -> IncrementalDetector:
    detector = IncrementalDetector([parse_cfd(CFD)])
    schema = Schema(SCHEMA["name"], SCHEMA["attributes"], SCHEMA["key"])
    detector.attach(Relation(schema, list(rows)))
    return detector


@settings(max_examples=200, deadline=None)
@given(ticket_runs)
def test_reconcile_equals_rescan_and_serial_replay(run):
    tickets = [_Ticket(inserted, deleted, 0) for inserted, deleted in run]
    key_of = lambda row: row[0]  # noqa: E731
    deleted, inserted = _reconcile(tickets, key_of)
    assert (deleted, inserted) == reconcile_by_rescan(tickets, key_of)

    base = [(key, 44, "Z0", f"S{key % 2}") for key in range(3)]
    combined = _attached(base)
    combined.update(inserted, deleted)
    serial = _attached(base)
    for ticket in tickets:
        serial.update(ticket.inserted, ticket.deleted)
    assert sorted(combined.relation.rows) == sorted(serial.relation.rows)
    assert combined.report.violations == serial.report.violations
    assert combined.report.tuple_keys == serial.report.tuple_keys


# -- checkpoint ---------------------------------------------------------------


def awkward_rows(n: int) -> list[list]:
    """Non-ASCII strings, ``None`` and float cells among plain ones."""
    streets = ["S0", "Straße №5", None, 2.5, "S1"]
    return [
        [i, 44 if i % 2 else 99, f"Z{i % 7}", streets[i % len(streets)]]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "kind, n_rows",
    [
        ("central", 0),
        ("central", 2 * _SNAPSHOT_SLICE + 3),  # crosses slice boundaries
        ("central", _SNAPSHOT_SLICE),  # ends exactly on one
        ("clust", 2),  # 3 sites: one fragment stays empty
        ("clust", 3 * _SNAPSHOT_SLICE + 7),
    ],
)
def test_checkpoint_roundtrips_the_exact_document(tmp_path, kind, n_rows):
    spec = {
        "kind": kind,
        "schema": SCHEMA,
        "cfds": [CFD],
        "rows": awkward_rows(n_rows),
        "sites": 3,
    }
    session = ManagedSession("t", "s", spec, 64, 16)
    snapshot = session.snapshot()
    if n_rows <= 2:
        assert [] in snapshot["fragments"]

    store = DurableStore(tmp_path)
    store.checkpoint("t", "s", snapshot)
    loaded, epoch = store.load_snapshot("t", "s")
    store.close()
    assert epoch == 1
    # what json.dump(document) stored, as parsed
    assert loaded == json.loads(json.dumps(snapshot))
    restored = ManagedSession.from_snapshot(loaded, 64, 16)
    assert restored.snapshot()["fragments"] == loaded["fragments"]
    assert restored.detect() == session.detect()

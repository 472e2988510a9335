"""O(|ΔD|) write paths, asserted by counting allocated bytes.

Every resident write path absorbs a batch in time and space proportional
to the batch, not to the rows it keeps.  Wall time cannot gate that on a
shared host; allocated bytes can — numpy reports its buffers to
:mod:`tracemalloc`, so an array copy of a fragment counts like a list
copy.  For each write path this builds the same session over N and 4N
``generate_cust`` rows, replays 2 warm-up and then 8 steady-state
batches of 16 key deletes + 16 inserts at one place, and asserts that
the median allocation peak of an update at 4N is at most 1.25× the
median at N.  An O(|D|) term reads ≈4× here.  The write paths are the
sessions' own ``update`` and, for the kinds the resident service hosts
(``central``, ``ctr``, ``clust``), :meth:`ManagedSession.update` — the
service's admission, ticket queue and fold without the HTTP layer.
Every re-insert carries a perturbed street, so it lands in an existing
``X`` group; the ``centralized-fresh-zip`` case also gives each one a
never-seen zip, so every measured update interns fresh ``X`` codes and
their σ verdicts.

N = 2,000 is small enough for tier-1 and still large enough to catch a
whole-place copy.  On commit da8b75c, whose distributed sessions still
copied a place's rows per round, the ctr, pat-s, pat-rt, clust and
hybrid cases read 1.58–1.69× (clust 1.62×); on commit cd5379a, whose
vertical session still advanced versioned fragments, the vertical case
reads 3.87×.
"""

import random
import statistics
import tracemalloc

import pytest

from repro.core import IncrementalDetector
from repro.core.parser import format_cfd
from repro.datagen import generate_cust
from repro.datagen.cust import cust_overlapping_cfds, cust_street_cfd
from repro.detect import (
    IncrementalClustDetector,
    IncrementalHorizontalDetector,
    IncrementalHybridDetector,
    IncrementalVerticalDetector,
)
from repro.distributed import HybridCluster
from repro.partition import partition_uniform, vertical_partition
from repro.relational import Eq
from repro.serve import ManagedSession

N = 2_000
BATCH = 16
WARMUP, MEASURED = 2, 8
MAX_RATIO = 1.25

VSETS = [
    ("id", "name", "CC", "AC", "phn"),
    ("id", "street", "city", "zip"),
    ("id", "item", "price", "quantity"),
]
KEY, CC, STREET, ZIP = 0, 2, 5, 7


def _centralized(relation):
    detector = IncrementalDetector(cust_overlapping_cfds())
    detector.attach(relation)
    return relation.rows, detector.update


def _horizontal(kind):
    def build(relation):
        session = IncrementalHorizontalDetector(
            partition_uniform(relation, 4), cust_street_cfd(), kind
        )
        session.detect()
        return session.fragments[0].rows, _at_place(session.update, 0)

    return build


def _clust(relation):
    session = IncrementalClustDetector(
        partition_uniform(relation, 4), cust_overlapping_cfds()
    )
    session.detect()
    return session.fragments[0].rows, _at_place(session.update, 0)


def _hybrid(relation):
    codes = sorted({row[CC] for row in relation.rows})
    session = IncrementalHybridDetector(
        HybridCluster.from_partitions(
            relation,
            {f"CC{code}": Eq("CC", code) for code in codes},
            {name: list(attrs[1:]) for name, attrs in zip("ABC", VSETS)},
        ),
        cust_overlapping_cfds(),
    )
    session.detect()
    region = [row for row in relation.rows if row[CC] == codes[0]]
    return region, _at_place(session.update, 0)


def _vertical(relation):
    session = IncrementalVerticalDetector(
        vertical_partition(relation, VSETS), cust_overlapping_cfds()
    )
    session.detect()
    return relation.rows, session.update


def _managed(kind):
    def build(relation):
        schema = relation.schema
        cfds = [cust_street_cfd()] if kind == "ctr" else cust_overlapping_cfds()
        spec = {
            "kind": kind,
            "schema": {
                "name": schema.name,
                "attributes": list(schema.attributes),
                "key": list(schema.key),
            },
            "cfds": [format_cfd(cfd) for cfd in cfds],
            "rows": relation.rows,
        }
        if kind != "central":
            spec["sites"] = 4
        session = ManagedSession("tenant", kind, spec, 64, 16)
        rows = (
            relation.rows
            if kind == "central"
            else session._detector.fragments[0].rows
        )
        return rows, lambda inserted, deleted: session.update(
            inserted, deleted, site=0
        )

    return build


def _at_place(update, place):
    return lambda inserted, deleted: update(
        place, inserted=inserted, deleted=deleted
    )


PATHS = {
    "centralized": _centralized,
    "ctr": _horizontal("ctr"),
    "pat-s": _horizontal("pat-s"),
    "pat-rt": _horizontal("pat-rt"),
    "clust": _clust,
    "hybrid": _hybrid,
    "vertical": _vertical,
    "managed-central": _managed("central"),
    "managed-ctr": _managed("ctr"),
    "managed-clust": _managed("clust"),
}
#: the paths whose re-inserts also carry a never-seen zip
FRESH_ZIP = {"centralized-fresh-zip": _centralized}


def update_peaks(build, n_rows, fresh_zip=False):
    """Allocation peak (bytes) of each measured update of one session."""
    rows, update = build(generate_cust(n_rows, seed=3, error_rate=0.05))
    live = {row[KEY]: row for row in rows}
    rng = random.Random(11)
    next_key = 10 * n_rows
    peaks = []
    for step in range(WARMUP + MEASURED):
        # delete BATCH resident rows, re-insert them under fresh keys with
        # a perturbed street (same place: the CC and the rest stay)
        doomed = rng.sample(sorted(live), BATCH)
        inserted = []
        for key in doomed:
            row = list(live.pop(key))
            row[KEY] = next_key
            row[STREET] = f"{row[STREET]}~{step % 3}"
            if fresh_zip:
                row[ZIP] = f"Z~{next_key}"
            next_key += 1
            inserted.append(tuple(row))
        live.update((row[KEY], row) for row in inserted)
        tracemalloc.start()
        try:
            update(inserted, doomed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if step >= WARMUP:
            peaks.append(peak)
    return peaks


@pytest.mark.parametrize("path", [*PATHS, *FRESH_ZIP])
def test_update_allocation_is_independent_of_resident_rows(path):
    fresh_zip = path in FRESH_ZIP
    build = FRESH_ZIP[path] if fresh_zip else PATHS[path]
    small = statistics.median(update_peaks(build, N, fresh_zip))
    large = statistics.median(update_peaks(build, 4 * N, fresh_zip))
    assert large / small <= MAX_RATIO, (
        f"{path}: an update allocates {large / small:.2f}x more at "
        f"{4 * N} rows ({large} B) than at {N} ({small} B)"
    )

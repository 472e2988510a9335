"""The six in-process workloads: seeded inputs, the timed op, the oracle.

Every workload drives the program only through public layer functions.
Inputs come from ``generate_cust(n, seed)``; op ``i`` is generated from
the seed and the ops before it, outside the timed call, so the same seed
always yields the same op stream.  ``serve_durable`` lives in
:mod:`serve_workload`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import time
from pathlib import Path

from repro.core import (
    CFD,
    IncrementalDetector,
    PatternTuple,
    detect_violations,
    detect_violations_reference,
    normalize_all,
)
from repro.datagen import (
    all_cc_ac_pairs,
    city_of,
    cust_city_cfd,
    cust_overlapping_cfds,
    cust_street_cfd,
    generate_cust,
)
from repro.detect import IncrementalClustDetector, clust_detect
from repro.distributed import Cluster
from repro.partition import partition_uniform
from repro.relational import Relation, column_store

from .spans import Tracer

#: constant-RHS pattern tuples in Σ3; each costs the reference oracle one
#: scan of the relation, so the count is kept small
N_CONSTANT_PATTERNS = 12
N_SITES = 8
#: exact counts of the seed-8 runs, see Workload.pinned_mismatches
PINNED = Path(__file__).resolve().parent / "pinned.json"


def sigma3() -> list[CFD]:
    """Σ3: the street CFD (variable, 255 patterns), the city CFD (variable,
    26 patterns) and a constant-RHS city tableau, so constant folds are on
    the path."""
    constant = CFD(
        ["CC", "AC"],
        ["city"],
        [
            PatternTuple((cc, ac), (city_of(cc, ac),))
            for cc, ac in all_cc_ac_pairs()[:N_CONSTANT_PATTERNS]
        ],
        name="cust_city_const",
    )
    return [cust_street_cfd(255), cust_city_cfd(26), constant]


def encode_targets(cfds) -> tuple[list[str], list[tuple[str, ...]]]:
    """The columns and key columns the fused engine encodes for ``cfds``."""
    columns: list[str] = []
    keys: list[tuple[str, ...]] = []
    for normal in normalize_all(cfds):
        for constant in normal.constants:
            columns.extend(constant.lhs)
            columns.append(constant.rhs_attr)
        for variable in normal.variables:
            keys.extend((tuple(variable.lhs), tuple(variable.rhs)))
    return list(dict.fromkeys(columns)), list(dict.fromkeys(keys))


def encode(relation: Relation, cfds) -> int:
    """Dictionary-encode what ``cfds`` needs; returns the distinct codes."""
    store = column_store(relation)
    columns, keys = encode_targets(cfds)
    distinct = sum(store.column(a).n_distinct for a in columns)
    return distinct + sum(store.key_column(k).n_groups for k in keys)


def mismatches(label: str, got, expected, tuple_keys: bool = True) -> list[str]:
    """Differences between a report and the reference oracle's."""
    found = []
    if set(got.violations) != set(expected.violations):
        found.append(
            f"{label}: {len(got.violations)} violations, "
            f"reference has {len(expected.violations)}"
        )
    if tuple_keys and set(got.tuple_keys) != set(expected.tuple_keys):
        found.append(
            f"{label}: {len(got.tuple_keys)} tuple keys, "
            f"reference has {len(expected.tuple_keys)}"
        )
    return found


def corrupted(report):
    """The oracle's report with one violation dropped (checker self-test)."""
    report.violations.discard(next(iter(report.violations)))
    return report


class Workload:
    """One named workload; subclasses fill in the five hooks."""

    name = ""
    rows_full = 0
    rows_quick = 2_000
    warmup_ops = 4
    op_span = ""  # the one span of the default run_op_traced
    #: a resident session is set up afresh after this many measured ops
    #: (0: the op leaves no state behind).  A session's ops get slower as
    #: it absorbs batches (delta_small: by a fifth over 5 000), so without
    #: epochs a latency would depend on how many ops the host's speed, or
    #: a faster program, let a run fit into ``--seconds``
    epoch_ops = 0
    #: the timed calls are CPU work on the calling thread (bench/clock.py)
    calibrated = True
    #: attributes ``setup`` creates: the program's state
    program_state: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.n_rows = self.rows_quick if quick else self.rows_full
        if quick:  # a quick run's dozen ops still cross an epoch boundary
            self.epoch_ops = min(self.epoch_ops, 4)
        self.epoch = 0
        self.digest = hashlib.sha256()
        self.counts: dict[str, int] = {}
        self.notes: list[str] = []

    def generate(self) -> None:
        data = generate_cust(self.n_rows, seed=self.seed)
        self.schema = data.schema
        self.rows = data.rows
        self.digest.update(repr(self.rows).encode())  # the inputs, then the ops
        self.key_pos = self.schema.key_positions()[0]
        self.street_pos = self.schema.position("street")
        lhs = [self.schema.position(a) for a in ("CC", "AC", "zip")]
        self.x_groups = len({tuple(row[p] for p in lhs) for row in self.rows})

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop the program's state, so the next set-up starts from
        nothing and memory holds one copy of it, not two."""
        for attribute in self.program_state:
            self.__dict__.pop(attribute, None)

    def new_epoch(self) -> None:
        self.epoch += 1
        self.release()
        gc.collect()  # as run_setups does: memory holds one session, not two
        self.setup(Tracer())  # its spans are not the run's

    def peak_rss_mib(self) -> float:
        """High-water mark of the process running the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def next_op(self, i: int):
        raise NotImplementedError

    def run_op(self, op) -> int:
        """The timed call; returns the rows it processed."""
        raise NotImplementedError

    def run_op_traced(self, op, tracer) -> int:
        """The same work with a span around each public layer call."""
        with tracer.span(self.op_span):
            return self.run_op(op)

    def check(self, corrupt: bool = False) -> list[str]:
        raise NotImplementedError

    def size(self) -> dict:
        return {"rows": self.n_rows, "x_groups": self.x_groups}

    def pinned_key(self, trace: bool) -> str:
        mode = "quick" if self.quick else "full"
        return f"{mode}-seed{self.seed}-trace{int(trace)}"

    def pinned_mismatches(self, trace: bool, values: dict) -> list[str]:
        """The paper's figures and the other exact counts are pinned for
        the default seed: a change that shifts one has to say so."""
        pinned = json.loads(PINNED.read_text())
        expected = pinned.get(self.pinned_key(trace), {}).get(self.name, {})
        return [
            f"{metric} is {values[metric]!r}, pinned at {value!r}"
            for metric, value in expected.items()
            if not math.isclose(values[metric], value, rel_tol=1e-9)
        ]

    def pin(self, trace: bool, values: dict) -> None:
        """Pin this run's exact counts (``bench/run.py --pin``)."""
        from .metrics import PER_LAYER

        pinned = json.loads(PINNED.read_text())
        pinned.setdefault(self.pinned_key(trace), {})[self.name] = {
            m.name: values[m.name]
            for m in PER_LAYER
            if m.exact and m.name in values
        }
        PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")

    def note_op(self, op) -> None:
        """Fold one generated op into the op-stream digest."""
        self.digest.update(repr(op).encode())

    def stream_digest(self) -> str:
        return self.digest.hexdigest()

    def after_op(self, op, prefix: bool) -> None:
        """Untimed bookkeeping after a successful op; ``prefix`` marks the
        fixed op prefix that exact counts are taken over."""

    def mutated(self, victims, tag: str) -> list[tuple]:
        """The victims' values under fresh ids; every other one gets a
        corrupted street, so a batch moves violations both ways."""
        fresh = []
        for j, row in enumerate(victims):
            row = list(row)
            row[self.key_pos] = self.next_id
            self.next_id += 1
            if j % 2:
                row[self.street_pos] = f"{row[self.street_pos]}~{tag}"
            fresh.append(tuple(row))
        return fresh

    def swap(self, live: "LiveKeys", n: int, tag: str) -> tuple[list, list]:
        """One non-reverting batch against ``live``: ``n`` sampled rows are
        deleted and re-inserted mutated -> ``(inserted, deleted_keys)``."""
        victims = live.sample(self.rng, n)
        inserted = self.mutated(victims, tag)
        deleted = [row[self.key_pos] for row in victims]
        for key in deleted:
            live.remove(key)
        for row in inserted:
            live.add(row)
        return inserted, deleted

    def reference(self, rows, cfds, corrupt: bool):
        started = time.perf_counter()
        expected = detect_violations_reference(
            Relation(self.schema, rows, copy=False), cfds
        )
        self.reference_seconds = time.perf_counter() - started
        return corrupted(expected) if corrupt else expected


# -- one-shot detection ------------------------------------------------------


class OneshotCold(Workload):
    name = "oneshot_cold"
    rows_full = 40_000
    program_state = ("report",)

    def generate(self) -> None:
        super().generate()
        self.cfds = sigma3()

    def setup(self, tracer) -> None:
        with tracer.span("relational.relation.load"):
            relation = Relation(self.schema, self.rows)
        with tracer.span("core.detection.first_detect"):
            self.report = detect_violations(relation, self.cfds)

    def next_op(self, i):
        return i

    def run_op(self, op) -> int:
        relation = Relation(self.schema, self.rows, copy=False)
        self.report = detect_violations(relation, self.cfds)
        return len(self.rows)

    def run_op_traced(self, op, tracer) -> int:
        with tracer.span("bench.op"):
            with tracer.span("relational.relation.build"):
                relation = Relation(self.schema, self.rows, copy=False)
            with tracer.span("relational.columnar.encode"):
                self.counts["relational.columnar.distinct_codes"] = encode(
                    relation, self.cfds
                )
            with tracer.span("core.fused.fold_decode"):
                self.report = detect_violations(relation, self.cfds)
        return len(self.rows)

    def check(self, corrupt=False) -> list[str]:
        expected = self.reference(self.rows, self.cfds, corrupt)
        self.counts["core.detection.violations"] = len(expected.violations)
        self.counts["core.detection.tuple_keys"] = len(expected.tuple_keys)
        return mismatches("detect_violations(Σ3)", self.report, expected)

    def size(self) -> dict:
        return {**super().size(), "cfds": len(self.cfds)}


class OneshotWarm(OneshotCold):
    name = "oneshot_warm"
    rows_full = 80_000
    warmup_ops = 6
    program_state = ("relation", "report", "reports")

    def setup(self, tracer) -> None:
        with tracer.span("relational.relation.load"):
            self.relation = Relation(self.schema, self.rows)
        with tracer.span("core.detection.first_detect"):
            self.report = detect_violations(self.relation, self.cfds)
        self.reports = {}

    def run_op(self, op) -> int:
        """All of Σ3, then the street CFD alone, as one op: timed apart
        the two would make the latency distribution bimodal and its
        median meaningless."""
        self.reports[0] = detect_violations(self.relation, self.cfds)
        self.reports[1] = detect_violations(self.relation, self.cfds[:1])
        return 2 * len(self.rows)

    def run_op_traced(self, op, tracer) -> int:
        with tracer.span("bench.op"):
            with tracer.span("core.fused.fold_decode"):
                return self.run_op(op)

    def check(self, corrupt=False) -> list[str]:
        found = []
        for op, label in ((0, "Σ3"), (1, "street CFD")):
            cfds = self.cfds[:1] if op else self.cfds
            expected = self.reference(self.rows, cfds, corrupt)
            if not op:
                self.counts["core.detection.violations"] = len(
                    expected.violations
                )
                self.counts["core.detection.tuple_keys"] = len(
                    expected.tuple_keys
                )
            found += mismatches(
                f"detect_violations({label})", self.reports[op], expected
            )
        return found


# -- the delta engine --------------------------------------------------------


class LiveKeys:
    """The bench's own record of a session's live rows, so op generation
    never reads detector state: key -> row, with O(1) uniform sampling."""

    def __init__(self, rows, key_pos: int) -> None:
        self.key_pos = key_pos
        self.row_of = {row[key_pos]: row for row in rows}
        self.keys = list(self.row_of)
        self.slot = {key: i for i, key in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def sample(self, rng: random.Random, n: int) -> list:
        """``n`` distinct live rows."""
        return [
            self.row_of[self.keys[i]]
            for i in rng.sample(range(len(self.keys)), n)
        ]

    def add(self, row) -> None:
        key = row[self.key_pos]
        self.row_of[key] = row
        self.slot[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key) -> None:
        del self.row_of[key]
        i = self.slot.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[i] = last
            self.slot[last] = i

    def rows(self) -> list:
        return list(self.row_of.values())


class DeltaSmall(Workload):
    name = "delta_small"
    rows_full = 80_000
    warmup_ops = 50
    epoch_ops = 1000
    op_span = "core.incremental.update"
    program_state = ("detector", "deltas")
    batch = 8  # deletes and mutated re-inserts per op

    def generate(self) -> None:
        super().generate()
        self.cfds = sigma3()
        self.counts["core.incremental.violations_added"] = 0
        self.counts["core.incremental.violations_removed"] = 0

    def setup(self, tracer) -> None:
        with tracer.span("relational.relation.load"):
            relation = Relation(self.schema, self.rows)
        with tracer.span("core.incremental.attach"):
            self.detector = IncrementalDetector(self.cfds)
            self.detector.attach(relation)
        self.start_stream(self.epoch)

    def start_stream(self, epoch: int = 0) -> None:
        self.live = LiveKeys(self.rows, self.key_pos)
        self.rng = random.Random(f"{self.name}/{self.seed}/{epoch}")
        self.next_id = 10 * len(self.rows)

    def next_op(self, i):
        return self.swap(self.live, self.batch, f"d{i}")

    def run_op(self, op) -> int:
        inserted, deleted = op
        self.deltas = [
            self.detector.update(inserted=inserted, deleted=deleted)
        ]
        return len(inserted) + len(deleted)

    def after_op(self, op, prefix) -> None:
        if not prefix:
            return
        for delta in self.deltas:
            self.counts["core.incremental.violations_added"] += len(
                delta.added.violations
            )
            self.counts["core.incremental.violations_removed"] += len(
                delta.removed.violations
            )

    def check(self, corrupt=False) -> list[str]:
        final = self.detector.relation.rows
        found = []
        if sorted(final) != sorted(self.live.rows()):
            found.append("detector.relation rows differ from the op stream's")
        expected = self.reference(final, self.cfds, corrupt)
        return found + mismatches(
            "IncrementalDetector.report", self.detector.report, expected
        )

    def size(self) -> dict:
        return {
            **super().size(),
            "cfds": len(self.cfds),
            "delta_rows": 2 * self.batch,
        }


class DeltaLarge(DeltaSmall):
    name = "delta_large"
    rows_full = 40_000
    warmup_ops = 4
    epoch_ops = 25

    def generate(self) -> None:
        super().generate()
        self.batch = self.n_rows // 10

    def next_op(self, i):
        """A pure-insert batch, then a pure-delete batch sampled over all
        live rows, so the relation swings between N and 1.1 N rows."""
        inserted = self.mutated(self.live.sample(self.rng, self.batch), f"L{i}")
        for row in inserted:
            self.live.add(row)
        deleted = [
            row[self.key_pos] for row in self.live.sample(self.rng, self.batch)
        ]
        for key in deleted:
            self.live.remove(key)
        return inserted, deleted

    def run_op(self, op) -> int:
        """Both batches as one op: timed apart, the two kinds would make
        the latency distribution bimodal and its median meaningless."""
        inserted, deleted = op
        self.deltas = [
            self.detector.update(inserted=inserted),
            self.detector.update(deleted=deleted),
        ]
        return len(inserted) + len(deleted)

    def run_op_traced(self, op, tracer) -> int:
        inserted, deleted = op
        with tracer.span("bench.op"):
            with tracer.span("core.incremental.update.insert"):
                added = self.detector.update(inserted=inserted)
            with tracer.span("core.incremental.update.delete"):
                self.deltas = [added, self.detector.update(deleted=deleted)]
        return len(inserted) + len(deleted)

    def note_op(self, op) -> None:
        # hashing 4 000-row batches whole would dominate op generation
        inserted, deleted = op
        self.digest.update(repr((inserted[:16], deleted[:16])).encode())

    def size(self) -> dict:
        return {**super().size(), "delta_rows": self.batch}


# -- distributed detection ---------------------------------------------------


class DistOneshot(Workload):
    name = "dist_oneshot"
    rows_full = 16_000
    program_state = ("outcome",)

    def generate(self) -> None:
        super().generate()
        self.cfds = cust_overlapping_cfds()

    def setup(self, tracer) -> None:
        with tracer.span("relational.relation.load"):
            relation = Relation(self.schema, self.rows)
        with tracer.span("partition.horizontal.partition"):
            cluster = partition_uniform(relation, N_SITES)
        self.site_rows = [site.fragment.rows for site in cluster.sites]
        with tracer.span("detect.clust.first_detect"):
            self.outcome = clust_detect(cluster, self.cfds)

    def next_op(self, i):
        return i

    def fresh_cluster(self) -> Cluster:
        return Cluster.from_fragments(
            Relation(self.schema, rows, copy=False) for rows in self.site_rows
        )

    def run_op(self, op) -> int:
        self.outcome = clust_detect(self.fresh_cluster(), self.cfds)
        return len(self.rows)

    def run_op_traced(self, op, tracer) -> int:
        with tracer.span("bench.op"):
            with tracer.span("distributed.cluster.build"):
                cluster = self.fresh_cluster()
            with tracer.span("detect.clust.clust_detect"):
                self.outcome = clust_detect(cluster, self.cfds)
        return len(self.rows)

    def check(self, corrupt=False) -> list[str]:
        rows = [row for part in self.site_rows for row in part]
        expected = self.reference(rows, self.cfds, corrupt)
        self.counts["distributed.network.tuples_shipped.clust"] = (
            self.outcome.tuples_shipped
        )
        return mismatches(
            "clust_detect", self.outcome.report, expected, tuple_keys=False
        )

    def size(self) -> dict:
        return {**super().size(), "cfds": len(self.cfds), "sites": N_SITES}


class DistSession(Workload):
    name = "dist_session"
    rows_full = 80_000
    warmup_ops = 16
    epoch_ops = 800
    op_span = "detect.clust.update"
    program_state = ("session", "update")
    batch = 80  # deletes and inserts per op, at one site

    def generate(self) -> None:
        super().generate()
        self.cfds = cust_overlapping_cfds()
        self.counts["detect.clust.codes_shipped"] = 0

    def setup(self, tracer) -> None:
        with tracer.span("relational.relation.load"):
            relation = Relation(self.schema, self.rows)
        with tracer.span("partition.horizontal.partition"):
            cluster = partition_uniform(relation, N_SITES)
        with tracer.span("detect.clust.session_detect"):
            self.session = IncrementalClustDetector(cluster, self.cfds)
            self.session.detect()
        self.start_stream(self.epoch)

    def start_stream(self, epoch: int = 0) -> None:
        self.live_at = [
            LiveKeys(self.rows[site::N_SITES], self.key_pos)
            for site in range(N_SITES)
        ]
        self.rng = random.Random(f"{self.name}/{self.seed}/{epoch}")
        self.next_id = 10 * len(self.rows)

    def next_op(self, i):
        site = i % N_SITES
        return (site, *self.swap(self.live_at[site], self.batch, f"s{i}"))

    def run_op(self, op) -> int:
        site, inserted, deleted = op
        self.update = self.session.update(
            site, inserted=inserted, deleted=deleted
        )
        return len(inserted) + len(deleted)

    def after_op(self, op, prefix) -> None:
        if prefix:
            self.counts["detect.clust.codes_shipped"] += (
                self.update.shipments.codes_shipped
            )

    def check(self, corrupt=False) -> list[str]:
        final = [row for part in self.session.fragments for row in part.rows]
        streamed = [row for live in self.live_at for row in live.rows()]
        found = []
        if sorted(final) != sorted(streamed):
            found.append("session fragments differ from the op stream's rows")
        expected = self.reference(final, self.cfds, corrupt)
        return found + mismatches(
            "IncrementalClustDetector.report",
            self.session.report,
            expected,
            tuple_keys=False,
        )

    def size(self) -> dict:
        return {
            **super().size(),
            "cfds": len(self.cfds),
            "sites": N_SITES,
            "delta_rows": 2 * self.batch,
        }

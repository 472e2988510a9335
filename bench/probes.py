"""Per-layer numbers of the traced run: each is measured from here, by
timing calls into one layer's public functions (or read off the spans
the traced ops recorded), after the workload's own correctness check.
Times are at reference speed (:mod:`clock`), like the end-to-end ones.

``run`` returns ``{metric: (value, samples)}`` for the metrics whose layer
is on the workload's path; the runner reports the rest as 0.
"""

from __future__ import annotations

import json
import statistics
import tempfile

from repro.core import (
    IncrementalDetector,
    close_sql_handles,
    detect_violations,
    normalize,
    normalize_all,
)
from repro.datagen import cust_street_cfd
from repro.detect import (
    IncrementalHorizontalDetector,
    IncrementalHybridDetector,
    IncrementalVerticalDetector,
    apply_fragment_updates,
    base,
    clust_detect,
    ctr_detect,
    pat_detect_rt,
    pat_detect_s,
    scan_delta_summary,
    select_max_stat,
    seq_detect,
)
from repro.distributed import HybridCluster, ShipmentLog
from repro.partition import partition_uniform, vertical_partition
from repro.relational import Eq, Relation, column_store
from repro.serve import DetectionService

from .clock import Clock
from .metrics import p50
from .serve_workload import SESSION, request
from .workloads import N_SITES, LiveKeys, mismatches, sigma3


def median_ms(seconds: list[float]) -> tuple[float, int]:
    return statistics.median(seconds) * 1e3, len(seconds)


#: the probes run one after another on the main thread
CLOCK = Clock()
reference_seconds = CLOCK.at_reference


def timed(call, repeats: int) -> tuple[float, int]:
    """Median time of ``call()`` in ms over ``repeats`` calls."""
    return median_ms([reference_seconds(call) for _ in range(repeats)])


def setup_ms(tracer, name: str) -> tuple[float, int]:
    return median_ms(tracer.durations(name))


def counts(workload, *names: str) -> dict:
    return {name: (workload.counts[name], 1) for name in names}


# -- one-shot detection ------------------------------------------------------


def oneshot_cold(w, tracer, samples, quick) -> dict:
    relation = Relation(w.schema, w.rows, copy=False)
    values = {
        "relational.relation.build_ms": setup_ms(
            tracer, "relational.relation.build"
        ),
        "relational.columnar.encode_ms": setup_ms(
            tracer, "relational.columnar.encode"
        ),
        "core.normalize.normalize_ms": timed(
            lambda: normalize_all(sigma3()), 20
        ),
        # the engine tiers, a few ops each, for the earn-or-delete audit
        "core.detection.reference_ms": (w.reference_seconds * 1e3, 1),
        "core.fused.python_ms": timed(
            lambda: detect_violations(relation, w.cfds, engine="fused"), 3
        ),
    }
    fresh = Relation(w.schema, w.rows, copy=False)
    values["core.sql.sqlite_load_ms"] = timed(
        lambda: detect_violations(fresh, w.cfds, engine="sql"), 1
    )
    values["core.sql.sqlite_warm_ms"] = timed(
        lambda: detect_violations(fresh, w.cfds, engine="sql"), 3
    )
    close_sql_handles()
    values.update(
        counts(
            w,
            "relational.columnar.distinct_codes",
            "core.detection.violations",
            "core.detection.tuple_keys",
        )
    )
    return values


def oneshot_warm(w, tracer, samples, quick) -> dict:
    repeats = 5 if quick else 15
    fold = timed(
        lambda: detect_violations(w.relation, w.cfds, collect_tuples=False),
        repeats,
    )
    full = timed(lambda: detect_violations(w.relation, w.cfds), repeats)
    return {
        "core.normalize.normalize_ms": timed(
            lambda: normalize_all(sigma3()), 20
        ),
        "core.fused.fold_ms": fold,
        "core.fused.decode_ms": (full[0] - fold[0], repeats),
        **counts(w, "core.detection.violations", "core.detection.tuple_keys"),
    }


# -- the delta engine --------------------------------------------------------


def delta_small(w, tracer, samples, quick) -> dict:
    return {
        "core.incremental.attach_ms": setup_ms(
            tracer, "core.incremental.attach"
        ),
        # update((), ()) returns before arming anything, so the no-op
        # batch is a delete of a key that is not there: undo arm/drop and
        # counter commit run, no row is folded
        "core.incremental.noop_update_ms": timed(
            lambda: w.detector.update(deleted=[-1]), 200
        ),
        **counts(
            w,
            "core.incremental.violations_added",
            "core.incremental.violations_removed",
        ),
    }


def replay_ms(w, cfds, ops: int) -> tuple[float, int]:
    """The workload's own op stream, from its start, against a detector
    over ``cfds`` only."""
    detector = IncrementalDetector(cfds)
    detector.attach(Relation(w.schema, w.rows, copy=False))
    w.start_stream()
    samples = []
    for i in range(ops):
        inserted, deleted = w.next_op(i)
        samples.append(
            reference_seconds(
                lambda: (
                    detector.update(inserted=inserted),
                    detector.update(deleted=deleted),
                )
            )
        )
    return median_ms(samples)


def delta_large(w, tracer, samples, quick) -> dict:
    values = delta_small(w, tracer, samples, quick)
    insert = setup_ms(tracer, "core.incremental.update.insert")
    delete = setup_ms(tracer, "core.incremental.update.delete")
    noop = values["core.incremental.noop_update_ms"][0]
    final = w.detector.relation.rows
    values.update(
        {
            "core.incremental.insert_ms": insert,
            "core.incremental.delete_ms": delete,
            "core.incremental.per_row_us": (
                ((insert[0] + delete[0]) / 2 - noop) / w.batch * 1e3,
                insert[1] + delete[1],
            ),
            # cold detection over the final rows: what not being
            # incremental would cost per batch
            "core.incremental.recompute_ms": timed(
                lambda: detect_violations(
                    Relation(w.schema, final, copy=False), w.cfds
                ),
                3,
            ),
        }
    )
    ops = 5 if quick else 12
    values["core.incremental.variable_only_ms"] = replay_ms(w, w.cfds[:2], ops)
    values["core.incremental.constant_only_ms"] = replay_ms(w, w.cfds[2:], ops)
    return values


# -- distributed detection ---------------------------------------------------

ALGORITHMS = {
    "ctr": lambda cluster, cfds: ctr_detect(cluster, cfds[0]),
    "pat_s": lambda cluster, cfds: pat_detect_s(cluster, cfds[0]),
    "pat_rt": lambda cluster, cfds: pat_detect_rt(cluster, cfds[0]),
    "seq": seq_detect,
    "clust": clust_detect,
}


def staged_patdetect(w, tracer) -> None:
    """PATDETECTS on the street CFD, one span per ``detect.base`` stage."""
    variable = normalize(w.cfds[0]).variables[0]
    cluster = w.fresh_cluster()
    log = ShipmentLog()
    with tracer.span("detect.base.scan"):
        partitions, _index = base.partition_cluster(cluster, variable)
    base.exchange_statistics(cluster, log)
    coordinators = select_max_stat(cluster, [p.lstat for p in partitions])
    with tracer.span("detect.base.ship"):
        merged = base.ship_buckets(
            cluster, partitions, coordinators, log, variable.source,
            width=len(variable.attributes),
        )
    with tracer.span("detect.base.check"):
        base.coordinator_check(
            cluster, variable, coordinators, merged, partitions[0].shared
        )


def dist_oneshot(w, tracer, samples, quick) -> dict:
    values = {
        "partition.horizontal.partition_ms": setup_ms(
            tracer, "partition.horizontal.partition"
        ),
        "distributed.cluster.build_ms": setup_ms(
            tracer, "distributed.cluster.build"
        ),
    }
    for _ in range(3):
        tracer.timed_op(
            CLOCK, tracer.new_op(), lambda: staged_patdetect(w, tracer)
        )
    for stage in ("scan", "ship", "check"):
        values[f"detect.base.{stage}_ms"] = setup_ms(
            tracer, f"detect.base.{stage}"
        )
    rows = [row for part in w.site_rows for row in part]
    for name, detect in ALGORITHMS.items():
        cfds = w.cfds if name in ("seq", "clust") else w.cfds[:1]
        outcomes = []
        values[f"detect.{name}.wall_ms"] = timed(
            lambda: outcomes.append(detect(w.fresh_cluster(), cfds)), 3
        )
        problems = mismatches(
            name, outcomes[-1].report, w.reference(rows, cfds, False),
            tuple_keys=False,
        )
        if problems:
            raise AssertionError(problems)
        values[f"distributed.network.tuples_shipped.{name}"] = (
            outcomes[-1].tuples_shipped, 1,
        )
        values[f"distributed.cost.modelled_response_s.{name}"] = (
            outcomes[-1].response_time, 1,
        )
    return values


def family_update_ms(w, session, lives, update, ops) -> tuple[float, int]:
    """``ops`` batches of the workload's shape against another session
    family; ``lives`` are the row groups a batch may be drawn from."""
    samples = []
    for i in range(ops):
        group = i % len(lives)
        inserted, deleted = w.swap(lives[group], w.batch, f"f{i}")
        samples.append(
            reference_seconds(
                lambda: update(session, group, inserted, deleted)
            )
        )
    return median_ms(samples)


def dist_session(w, tracer, samples, quick) -> dict:
    values = {
        "partition.horizontal.partition_ms": setup_ms(
            tracer, "partition.horizontal.partition"
        ),
        "detect.clust.codes_shipped_per_update": (
            w.counts["detect.clust.codes_shipped"] / w.prefix_ops, w.prefix_ops,
        ),
    }
    reps = 5 if quick else 10
    attributes = ("CC", "AC", "zip", "street")
    variables = [v for n in normalize_all(w.cfds) for v in n.variables]

    # relational.delta: one fragment's next version, then its derived store
    fragment = w.session.fragments[0]
    column_store(fragment).key_column(attributes)
    inserts, deletes, applies, scans = [], [], [], []
    for i in range(reps):
        inserted, deleted = w.swap(w.live_at[0], w.batch, f"p{i}")
        doomed = set(deleted)
        removed = [row for row in fragment.rows if row[w.key_pos] in doomed]
        inserts.append(
            reference_seconds(
                lambda: column_store(fragment.insert(inserted)).key_column(
                    attributes
                )
            )
        )
        deletes.append(
            reference_seconds(
                lambda: column_store(fragment.delete(deleted)).key_column(
                    attributes
                )
            )
        )
        # the two stages of a session update, on the same batch
        applies.append(
            reference_seconds(
                lambda: apply_fragment_updates(
                    list(w.session.fragments), {0: (inserted, deleted)}
                )
            )
        )
        scans.append(
            reference_seconds(
                lambda: scan_delta_summary(
                    fragment, variables, inserted, removed
                )
            )
        )
        # keep the session in step with the stream for the next batch
        w.session.update(0, inserted=inserted, deleted=deleted)
        fragment = w.session.fragments[0]
        column_store(fragment).key_column(attributes)
    values["relational.delta.insert_ms"] = median_ms(inserts)
    values["relational.delta.delete_ms"] = median_ms(deletes)
    values["detect.incremental.apply_fragment_updates_ms"] = median_ms(applies)
    values["detect.incremental.scan_delta_ms"] = median_ms(scans)

    # the other three session families, same batch shape, same base rows
    ops = 5 if quick else 16
    relation = Relation(w.schema, w.rows, copy=False)
    w.start_stream()
    session = IncrementalHorizontalDetector(
        partition_uniform(relation, N_SITES), cust_street_cfd(255), "pat-s"
    )
    session.detect()
    values["detect.incremental.pat_s_update_ms"] = family_update_ms(
        w, session, w.live_at,
        lambda s, site, ins, dels: s.update(site, inserted=ins, deleted=dels),
        ops,
    )
    sets = [
        ("id", "name", "CC", "AC", "phn"),
        ("id", "street", "city", "zip"),
        ("id", "item", "price", "quantity"),
    ]
    w.start_stream()
    session = IncrementalVerticalDetector(
        vertical_partition(relation, sets), w.cfds
    )
    session.detect()
    values["detect.vertical.update_ms"] = family_update_ms(
        w, session, w.live_at,
        lambda s, _site, ins, dels: s.update(inserted=ins, deleted=dels),
        ops,
    )
    cc = w.schema.position("CC")
    codes = sorted({row[cc] for row in w.rows})
    session = IncrementalHybridDetector(
        HybridCluster.from_partitions(
            relation,
            {f"CC{code}": Eq("CC", code) for code in codes},
            {name: list(attrs[1:]) for name, attrs in zip("ABC", sets)},
        ),
        w.cfds,
    )
    session.detect()
    regions = [
        LiveKeys([row for row in w.rows if row[cc] == code], w.key_pos)
        for code in codes
    ]
    values["detect.hybrid.update_ms"] = family_update_ms(
        w, session, regions,
        lambda s, region, ins, dels: s.update(
            region, inserted=ins, deleted=dels
        ),
        ops,
    )
    return values


# -- the resident service ----------------------------------------------------


def service_update_ms(w, quick) -> dict:
    """In-process ``DetectionService.update`` on the workload's own stream:
    memory only, then durable at each fsync policy, interleaved in blocks
    so drift on a shared host hits all four alike."""
    spec = json.loads(w.spec)
    per_policy = 20 if quick else 500
    block = 10 if quick else 50
    with tempfile.TemporaryDirectory(dir=w.out_dir, prefix="probe-") as tmp:
        services = {"memory": DetectionService()}
        for policy in ("off", "batch", "always"):
            services[policy] = DetectionService(
                data_dir=f"{tmp}/{policy}", fsync=policy
            )
        samples = {name: [] for name in services}
        try:
            for service in services.values():
                service.create_session("bench", "cust", spec)
            for first in range(0, per_policy, block):
                for name, service in services.items():
                    for i in range(first, first + block):
                        _key, body, _row = w.op(i)
                        body = json.loads(body)
                        samples[name].append(
                            reference_seconds(
                                lambda: service.update("bench", "cust", **body)
                            )
                        )
        finally:
            for service in services.values():
                service.close()
                if service.registry.store is not None:
                    service.registry.store.close()
    values = {"serve.service.update_ms": median_ms(samples.pop("memory"))}
    for policy, seconds in samples.items():
        values[f"serve.durability.update_ms.{policy}"] = median_ms(seconds)
        quartiles = statistics.quantiles(seconds, n=4)
        w.notes.append(
            f"serve.durability.update_ms.{policy}: quartiles "
            f"{quartiles[0] * 1e3:.3f} / {quartiles[1] * 1e3:.3f} / "
            f"{quartiles[2] * 1e3:.3f} ms over {len(seconds)} updates"
        )
    return values


def update_on_new_connection(w, body: bytes) -> int:
    connection = w.server.connect()
    try:
        status, _payload = request(connection, "POST", SESSION + "/update", body)
    finally:
        connection.close()
    return status


def serve_durable(w, tracer, samples, quick) -> dict:
    plain = sorted(s.seconds for s in samples if s.ok and not s.traced)
    values = service_update_ms(w, quick)
    values["serve.registry.create_ms"] = setup_ms(
        tracer, "serve.registry.create"
    )
    values["serve.http.keepalive_overhead_ms"] = (
        p50(plain) * 1e3 - values["serve.durability.update_ms.batch"][0],
        len(plain),
    )
    # a new connection per request, against the restarted server
    newconn, statuses, wall = [], [], Clock(calibrated=False)
    for i in range(10 if quick else 60):
        _key, body, _row = w.op(500_000 + i)
        newconn.append(
            wall.at_reference(
                lambda: statuses.append(update_on_new_connection(w, body))
            )
        )
        if statuses[-1] != 200:
            raise RuntimeError(f"update on a new connection: {statuses[-1]}")
    values["serve.http.newconn_p50_ms"] = median_ms(newconn)
    values["serve.http.detect_p50_ms"] = median_ms(
        [
            wall.at_reference(
                lambda: statuses.append(
                    request(w.connection, "GET", SESSION + "/detect")[0]
                )
            )
            for _ in range(5 if quick else 30)
        ]
    )
    if statuses[-1] != 200:
        raise RuntimeError(f"detect: {statuses[-1]}")
    values["serve.service.queue_ms"] = median_ms(w.queue_seconds)
    stats = w.stats_before_kill
    session = stats["sessions"]["bench/cust"]
    durability = stats["durability"]
    updates = session["updates"]
    values.update(
        {
            "serve.service.folds_per_update": (
                session["folds"] / updates, updates,
            ),
            "serve.service.coalesced_max": (session["coalesced_max"], updates),
            "serve.durability.wal_bytes_per_row": (
                durability["wal_bytes"] / updates, updates,
            ),
            "serve.durability.fsyncs_per_update": (
                durability.get("fsyncs", 0) / updates, updates,
            ),
            "serve.durability.checkpoints": (
                durability.get("checkpoints", 0), 1,
            ),
            "serve.governor.shed": (
                sum(stats["governor"]["shed"].values()) + w.shed, updates,
            ),
            "serve.durability.recovery_s": (w.recovery_seconds, 1),
            "serve.durability.replayed_records": (
                w.stats_after_restart["durability"].get("replayed_records", 0),
                1,
            ),
        }
    )
    return values


PROBES = {
    "oneshot_cold": oneshot_cold,
    "oneshot_warm": oneshot_warm,
    "delta_small": delta_small,
    "delta_large": delta_large,
    "dist_oneshot": dist_oneshot,
    "dist_session": dist_session,
    "serve_durable": serve_durable,
}


def run(workload, tracer, samples, quick) -> dict:
    return PROBES[workload.name](workload, tracer, samples, quick)

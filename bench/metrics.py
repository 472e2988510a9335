"""The metric catalogue: what ``BENCHMARK.json`` declares, plus what its
schema has no room for — each per-layer metric's layer (module path),
whether it is an *exact* count that must repeat bit-for-bit for a seed,
the workloads whose traced run measures it (elsewhere it reads 0: the
layer is not on that workload's path), and the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple


def quantile(ordered: list[float], q: float, band: float) -> float:
    """Quantile ``q`` of an ascending list, as the mean of the order
    statistics from ``q - band`` to ``q + band``.  Where latencies cluster
    (``delta_large``: an epoch's first ops and its later ones; a kernel
    timer's ticks) a single order statistic flips between clusters from
    run to run with the clusters' shares; the band's mean moves with the
    shares."""
    n = len(ordered)
    low, high = int((q - band) * n), min(n, int((q + band) * n) + 1)
    return statistics.fmean(ordered[low:high])


def p50(ordered: list[float]) -> float:
    """The midmean: the mean of the middle half."""
    return quantile(ordered, 0.5, 0.25)


def p90(ordered: list[float]) -> float:
    return quantile(ordered, 0.9, 0.05)


WORKLOADS = {
    "oneshot_cold": "fresh Relation + detect_violations over three CFDs: what a first query pays, dictionary encode and fold in equal parts",
    "oneshot_warm": "detect_violations on one resident relation: encode is cached, so fold + tuple-key decode is all the work",
    "delta_small": "IncrementalDetector.update with 8 deletes + 8 re-inserts: the fixed per-batch cost dominates",
    "delta_large": "update with 10% insert / delete batches: vectorised signed folds and store mutation dominate, batch overhead vanishes",
    "dist_oneshot": "fresh 8-site Cluster + clust_detect: the paper's scan, ship, coordinator-check path with cold caches",
    "dist_session": "IncrementalClustDetector.update of 80 deletes + 80 inserts per site: fragment versioning and delta scans",
    "serve_durable": "single-row updates over one keep-alive HTTP connection to a repro serve child with a WAL: parse, admission, queue, fold, log, settle",
}

#: name, unit, better, bound (share of the parent's median), definition
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median of repeated program set-ups before the first warm-up op: "
     "relation load, partitioning, attach/detect bootstrap, server spawn "
     "+ session create (input generation from the seed is not set-up)"),
    ("op_p50_ms", "ms", "lower", 0.12,
     "midmean (mean of the middle half) latency of the measured ops"),
    ("op_p90_ms", "ms", "lower", 0.20,
     "mean of the 85th to 95th percentile of the same samples; every run "
     "measures >= 100 ops"),
    ("rows_per_s", "rows/s", "higher", 0.15,
     "rows the ops processed (relation rows scanned, or inserted + "
     "deleted rows acknowledged) / time spent in ops, at the stated size"),
    ("peak_rss_mb", "MiB", "lower", 0.07,
     "resident-set high-water mark of the process running the program "
     "(serve: the server child)"),
]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool
    workloads: tuple[str, ...]
    moves: str  # end-to-end metric @ workload it should move


def _ms(name, workloads, moves, unit="ms"):
    return Layer(name, unit, "lower", False, tuple(workloads.split()), moves)


def _count(name, workloads, moves="-", better="lower", unit="count"):
    return Layer(name, unit, better, True, tuple(workloads.split()), moves)


_ALGORITHMS = ("ctr", "pat_s", "pat_rt", "seq", "clust")

PER_LAYER = [
    # relational
    _ms("relational.relation.build_ms", "oneshot_cold", "op_p50_ms, rows_per_s @ oneshot_cold"),
    _ms("relational.columnar.encode_ms", "oneshot_cold", "op_p50_ms, rows_per_s @ oneshot_cold; nothing @ oneshot_warm"),
    _count("relational.columnar.distinct_codes", "oneshot_cold"),
    _ms("relational.delta.insert_ms", "dist_session", "op_p50_ms @ dist_session"),
    _ms("relational.delta.delete_ms", "dist_session", "op_p50_ms @ dist_session"),
    # core, one-shot
    _ms("core.normalize.normalize_ms", "oneshot_cold oneshot_warm", "op_p50_ms @ oneshot_*"),
    _ms("core.fused.fold_ms", "oneshot_warm", "op_p50_ms, rows_per_s @ oneshot_warm; minority @ oneshot_cold"),
    _ms("core.fused.decode_ms", "oneshot_warm", "op_p50_ms @ oneshot_warm, oneshot_cold"),
    _count("core.detection.violations", "oneshot_cold oneshot_warm"),
    _count("core.detection.tuple_keys", "oneshot_cold oneshot_warm"),
    _ms("core.detection.reference_ms", "oneshot_cold", "none (engine-tier audit)"),
    _ms("core.fused.python_ms", "oneshot_cold", "none (engine-tier audit)"),
    _ms("core.sql.sqlite_load_ms", "oneshot_cold", "none (engine-tier audit)"),
    _ms("core.sql.sqlite_warm_ms", "oneshot_cold", "none (engine-tier audit)"),
    # core, delta
    _ms("core.incremental.attach_ms", "delta_small delta_large", "setup_s @ delta_*"),
    _ms("core.incremental.noop_update_ms", "delta_small delta_large", "op_p50_ms @ delta_small, serve_durable"),
    _ms("core.incremental.insert_ms", "delta_large", "op_p50_ms, rows_per_s @ delta_large"),
    _ms("core.incremental.delete_ms", "delta_large", "op_p50_ms, rows_per_s @ delta_large"),
    _ms("core.incremental.per_row_us", "delta_large", "rows_per_s @ delta_large", unit="us"),
    _ms("core.incremental.variable_only_ms", "delta_large", "op_p50_ms @ delta_large"),
    _ms("core.incremental.constant_only_ms", "delta_large", "op_p50_ms @ delta_large"),
    _ms("core.incremental.recompute_ms", "delta_large", "none (base of any vs-recompute ratio)"),
    _count("core.incremental.violations_added", "delta_small delta_large"),
    _count("core.incremental.violations_removed", "delta_small delta_large"),
    # partition / distributed / detect, one-shot
    _ms("partition.horizontal.partition_ms", "dist_oneshot dist_session", "setup_s @ dist_*"),
    _ms("distributed.cluster.build_ms", "dist_oneshot", "op_p50_ms @ dist_oneshot"),
    _ms("detect.base.scan_ms", "dist_oneshot", "op_p50_ms @ dist_oneshot"),
    _ms("detect.base.ship_ms", "dist_oneshot", "op_p50_ms @ dist_oneshot"),
    _ms("detect.base.check_ms", "dist_oneshot", "op_p50_ms @ dist_oneshot"),
    *[_ms(f"detect.{a}.wall_ms", "dist_oneshot", "op_p50_ms @ dist_oneshot" if a == "clust" else "none (paper algorithm audit)") for a in _ALGORITHMS],
    *[_count(f"distributed.network.tuples_shipped.{a}", "dist_oneshot") for a in _ALGORITHMS],
    *[Layer(f"distributed.cost.modelled_response_s.{a}", "s", "lower", True, ("dist_oneshot",), "-") for a in _ALGORITHMS],
    # detect, sessions
    _ms("detect.incremental.apply_fragment_updates_ms", "dist_session", "op_p50_ms @ dist_session"),
    _ms("detect.incremental.scan_delta_ms", "dist_session", "op_p50_ms @ dist_session"),
    _ms("detect.incremental.pat_s_update_ms", "dist_session", "none (session family audit)"),
    _ms("detect.vertical.update_ms", "dist_session", "none (session family audit)"),
    _ms("detect.hybrid.update_ms", "dist_session", "none (session family audit)"),
    _count("detect.clust.codes_shipped_per_update", "dist_session"),
    # serve
    _ms("serve.registry.create_ms", "serve_durable", "setup_s @ serve_durable"),
    _ms("serve.service.update_ms", "serve_durable", "op_p50_ms @ serve_durable"),
    *[_ms(f"serve.durability.update_ms.{p}", "serve_durable", "op_p50_ms @ serve_durable" if p == "batch" else "none (fsync policy audit)") for p in ("off", "batch", "always")],
    _ms("serve.http.keepalive_overhead_ms", "serve_durable", "op_p50_ms @ serve_durable"),
    _ms("serve.http.newconn_p50_ms", "serve_durable", "none (attributes the keep-alive gap)"),
    _ms("serve.http.detect_p50_ms", "serve_durable", "none (reads beside writes)"),
    _ms("serve.service.queue_ms", "serve_durable", "op_p50_ms, rows_per_s @ serve_durable"),
    Layer("serve.service.folds_per_update", "ratio", "lower", False, ("serve_durable",), "rows_per_s @ serve_durable"),
    Layer("serve.service.coalesced_max", "count", "higher", False, ("serve_durable",), "-"),
    Layer("serve.durability.wal_bytes_per_row", "bytes", "lower", False, ("serve_durable",), "op_p50_ms @ serve_durable"),
    Layer("serve.durability.fsyncs_per_update", "ratio", "lower", False, ("serve_durable",), "op_p50_ms @ serve_durable"),
    Layer("serve.durability.checkpoints", "count", "lower", False, ("serve_durable",), "op_p90_ms @ serve_durable"),
    Layer("serve.governor.shed", "count", "lower", False, ("serve_durable",), "fail_ratio @ serve_durable"),
    Layer("serve.durability.recovery_s", "s", "lower", False, ("serve_durable",), "none (restart cost)"),
    Layer("serve.durability.replayed_records", "count", "lower", False, ("serve_durable",), "-"),
    # bench
    Layer("bench.trace_overhead_ratio", "ratio", "lower", False, tuple(WORKLOADS), "-"),
    Layer("bench.client.op_p99_ms", "ms", "lower", False, tuple(WORKLOADS), "-"),
    Layer("bench.clock.slowdown_ratio", "ratio", "lower", False, tuple(WORKLOADS), "none (the host's speed during the run, bench/clock.py)"),
    Layer("bench.ops", "count", "higher", False, tuple(WORKLOADS), "-"),
    Layer("bench.run_s", "s", "lower", False, tuple(WORKLOADS), "-"),
    Layer("fail_ratio", "ratio", "lower", False, tuple(WORKLOADS), "-"),
]


def benchmark_json(command, paths, run_seconds) -> dict:
    """The ``BENCHMARK.json`` document this catalogue declares."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _definition in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }

"""Replication-aware detection (Section VIII future work).

Partition kind: replicated horizontal fragments (a fragment → sites
placement map).  Paper section: VIII ("capitalize on data replication to
increase parallelism and reduce response time").  The per-pattern skeleton
of PATDETECTS, upgraded to exploit replicas:

1. each fragment is scanned (σ-partitioned) at one replica, chosen to
   balance the per-site scan load — replication buys (modelled) scan
   parallelism;
2. pattern coordinators are chosen by *availability*: the statistic of
   site ``s`` for pattern ``l`` counts the matching tuples of every
   fragment replicated at ``s``, so fragments co-located with the
   coordinator contribute without any shipment;
3. only fragments with no replica at the coordinator ship their bucket —
   as shared-dictionary ``(x_code, y_code)`` pairs — each from the
   replica whose outgoing load is lowest.

With a single replica per fragment this degrades exactly to the
availability-blind PATDETECTS; with full replication nothing ships at all.
"""

from __future__ import annotations

from ..core import (
    CFD,
    ViolationReport,
    detect_constants,
    normalize,
)
from ..distributed import CostBreakdown, DetectionOutcome, ShipmentLog, StageTimes
from ..distributed.replication import ReplicatedCluster
from ..relational import SharedPairDictionary, shared_dict_on
from . import base


def replicated_pat_detect(
    cluster: ReplicatedCluster, cfd: CFD
) -> DetectionOutcome:
    """Detect ``Vioπ(φ, D)`` over replicated horizontal fragments."""
    normalized = normalize(cfd)
    model = cluster.cost_model
    report = ViolationReport()
    log = ShipmentLog()
    stages = []
    details: dict[str, object] = {}

    # Constant CFDs: each fragment checked at one replica, no shipment —
    # one fused pass per fragment for the whole constant set.
    scan_sites = cluster.balanced_scan_assignment()
    if normalized.constants:
        for fragment in cluster.fragments:
            report.merge(
                detect_constants(
                    fragment, normalized.constants, collect_tuples=False
                )
            )

    for variable in normalized.variables:
        n_patterns = len(variable.patterns)

        # 1. balanced scans: per-site load = Σ sizes of fragments it scans.
        # Fragments are summarized and their distinct projections
        # interned into the cluster's shared dictionary, cached across
        # detections.
        shared: SharedPairDictionary = shared_dict_on(
            cluster,
            ("pairs", variable),
            lambda: SharedPairDictionary(len(variable.lhs)),
        )
        fragments = list(cluster.fragments)
        tasks = [(f, (variable,)) for f in range(len(fragments))]
        summaries = base.scan_sites(
            fragments, base.partition_fragment_summary, tasks
        )
        fragment_counts: list[list[int]] = []
        fragment_coded: list[tuple[list[list[int]], list[tuple[int, int]]]] = []
        for f, (counts, bucket_codes, values) in enumerate(summaries):
            pairs = shared.pairs_for(f)
            if pairs is None:
                pairs = shared.translate(f, values)
            fragment_counts.append(counts)
            fragment_coded.append((bucket_codes, pairs))
        scan_load = [0] * cluster.n_sites
        for f, site in enumerate(scan_sites):
            scan_load[site] += len(cluster.fragments[f])
        scan = max(
            (model.scan_time(load) for load in scan_load if load), default=0.0
        )
        log.record_control(cluster.n_sites * (cluster.n_sites - 1))

        # 2. availability-aware coordinators
        available = [[0] * n_patterns for _ in range(cluster.n_sites)]
        for f, counts in enumerate(fragment_counts):
            for site in cluster.replicas_of(f):
                for l, count in enumerate(counts):
                    available[site][l] += count
        # pick by availability, spreading ties across sites so that full
        # replication yields per-pattern parallelism instead of one hot
        # coordinator
        pattern_totals = [
            sum(counts[l] for counts in fragment_counts)
            for l in range(n_patterns)
        ]
        assigned_load = [0] * cluster.n_sites
        coordinators = []
        for l in sorted(range(n_patterns), key=lambda l: -pattern_totals[l]):
            best = max(
                range(cluster.n_sites),
                key=lambda s: (available[s][l], -assigned_load[s], -s),
            )
            coordinators.append((l, best))
            assigned_load[best] += pattern_totals[l]
        coordinators = [
            site for _l, site in sorted(coordinators)
        ]
        details[variable.source] = coordinators

        # 3. ship only what the coordinator lacks, from the laziest replica
        width = len(variable.attributes)
        outgoing = [0] * cluster.n_sites
        stage_log = ShipmentLog()
        merged = [base.MergedBucket() for _ in range(n_patterns)]
        for f, counts in enumerate(fragment_counts):
            bucket_codes, pairs = fragment_coded[f]
            replicas = cluster.replicas_of(f)
            for l, count in enumerate(counts):
                if not count:
                    continue
                dest = coordinators[l]
                merged[l].rows += count
                merged[l].pairs.extend(
                    map(pairs.__getitem__, bucket_codes[l])
                )
                if dest in replicas:
                    continue  # locally available at the coordinator
                source = min(replicas, key=lambda s: (outgoing[s], s))
                outgoing[source] += count
                stage_log.ship(
                    dest,
                    source,
                    count,
                    count * width,
                    tag=f"{variable.source}#p{l}",
                    n_codes=2 * count,
                )
        transfer = model.transfer_time(stage_log.outgoing_by_source())
        log.merge(stage_log)

        # 4. per-coordinator checks, as in the unreplicated algorithms
        found, check = base.coordinator_check(
            cluster, variable, coordinators, merged, shared
        )
        report.merge(found)
        stages.append(StageTimes(scan, transfer, check))

    if not normalized.variables:
        scan = max(
            (model.scan_time(len(f)) for f in cluster.fragments), default=0.0
        )
        stages.append(StageTimes(scan, 0.0, 0.0))

    return DetectionOutcome(
        algorithm="REPLICATEDPATDETECT",
        report=report,
        shipments=log,
        cost=CostBreakdown(stages=stages),
        details={"coordinators": details, "scan_sites": scan_sites},
    )

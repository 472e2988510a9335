"""Algorithm CTRDETECT (Section IV-B): a single coordinator per CFD.

Partition kind: horizontal.  Shipping strategy: every site counts its
tuples matching the LHS of any pattern tuple (``lstat_i``), the counts are
broadcast, and the site with the maximum count becomes the coordinator
(ties break to the smallest site, so all sites pick the same coordinator
independently).  All other sites ship the ``(X, A)`` projections of their
matching tuples to it — as shared-dictionary ``(x_code, y_code)`` pairs
(see :mod:`repro.relational.shareddict`) — where the violations are
detected with the centralized GROUP BY technique run on the code pairs.
Each tuple is shipped at most once.
"""

from __future__ import annotations

from ..core import CFD, Violation, normalize
from ..distributed import (
    Cluster,
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    StageTimes,
)
from . import base


def _pick_central_coordinator(totals: list[int]) -> int:
    """Site with the maximum matching count; ties to the smallest index."""
    best = 0
    for index, count in enumerate(totals):
        if count > totals[best]:
            best = index
    return best


def ctr_detect(cluster: Cluster, cfd: CFD) -> DetectionOutcome:
    """Detect ``Vioπ(φ, D)`` with a single coordinator site."""
    normalized = normalize(cfd)
    log, cost = ShipmentLog(), CostBreakdown()
    report = base.local_constant_checks(cluster, normalized.constants)
    coordinators_chosen: dict[str, int] = {}

    for variable in normalized.variables:
        partitions, _index = base.partition_cluster(cluster, variable)
        scan = base.scan_stage_time(cluster, partitions)
        base.exchange_statistics(cluster, log)

        totals = [sum(part.lstat) for part in partitions]
        coordinator = _pick_central_coordinator(totals)
        coordinators_chosen[variable.source] = coordinator

        schema = base.ship_projection_schema(cluster.schema, variable)
        width = len(schema)
        merged_pairs: list[tuple[int, int]] = []
        merged_rows = 0
        stage_log = ShipmentLog()
        for part in partitions:
            rows = sum(part.lstat)
            if not rows:
                continue
            if part.site.index != coordinator:
                stage_log.ship(
                    coordinator,
                    part.site.index,
                    rows,
                    rows * width,
                    tag=variable.source,
                    n_codes=2 * rows,
                )
            pairs = part.pairs
            for bucket in part.buckets:
                merged_pairs.extend(map(pairs.__getitem__, bucket.codes))
            merged_rows += rows

        transfer = cluster.cost_model.transfer_time(
            stage_log.outgoing_by_source()
        )
        log.merge(stage_log)

        # One X value never spans two σ buckets (σ is a function of X), so
        # the per-CFD GROUP BY collapses to one conflict scan of the codes.
        shared = partitions[0].shared
        for x_code in base.conflicting_x_codes(merged_pairs):
            report.add(
                Violation(
                    cfd=variable.source,
                    lhs_attributes=variable.lhs,
                    lhs_values=shared.x_values[x_code],
                )
            )
        check = cluster.cost_model.check_time(
            cluster.cost_model.check_ops(merged_rows)
        )
        cost.stages.append(StageTimes(scan, transfer, check))

    if not normalized.variables:
        # Constant-only CFD: a pure local pass, modelled as one scan stage.
        scan = max(
            (cluster.cost_model.scan_time(len(site.fragment)) for site in cluster.sites),
            default=0.0,
        )
        cost.stages.append(StageTimes(scan, 0.0, 0.0))

    return DetectionOutcome(
        algorithm="CTRDETECT",
        report=report,
        shipments=log,
        cost=cost,
        details={"coordinators": coordinators_chosen},
    )

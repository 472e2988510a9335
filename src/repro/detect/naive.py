"""The naive baseline of Section III-A: ship everything to one site.

Partition kind: horizontal.  Shipping strategy: none worth the name —
ships every fragment (whole tuples, all attributes, uncoded) to a coordinator,
reconstructs ``D`` and runs the centralized detector (the fused columnar
engine, via the :func:`repro.core.detect_violations` dispatcher).  Exists
to quantify how much traffic the real algorithms save; the paper dismisses
it as incurring "excessive network traffic".
"""

from __future__ import annotations

from typing import Iterable

from ..core import CFD, detect_violations
from ..distributed import (
    Cluster,
    CostBreakdown,
    DetectionOutcome,
    ShipmentLog,
    StageTimes,
)
from ..relational import Relation


def naive_detect(
    cluster: Cluster, cfds: CFD | Iterable[CFD], coordinator: int | None = None
) -> DetectionOutcome:
    """Reconstruct ``D`` at one site and detect centrally.

    The coordinator defaults to the largest site (least traffic for this
    baseline).
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    cfds = list(cfds)

    if coordinator is None:
        sizes = [len(site.fragment) for site in cluster.sites]
        coordinator = max(range(len(sizes)), key=sizes.__getitem__)

    log = ShipmentLog()
    width = len(cluster.schema)
    rows: list[tuple] = []
    for site in cluster.sites:
        rows.extend(site.fragment.rows)
        if site.index != coordinator and len(site.fragment):
            log.ship(
                coordinator,
                site.index,
                len(site.fragment),
                len(site.fragment) * width,
                tag="naive",
            )

    model = cluster.cost_model
    transfer = model.transfer_time(log.outgoing_by_source())
    relation = Relation(cluster.schema, rows, copy=False)
    report = detect_violations(relation, cfds, collect_tuples=True)
    check = model.check_time(model.check_ops(len(rows), n_queries=len(cfds)))

    cost = CostBreakdown(stages=[StageTimes(0.0, transfer, check)])
    return DetectionOutcome(
        algorithm="NAIVE",
        report=report,
        shipments=log,
        cost=cost,
        details={"coordinator": coordinator},
    )

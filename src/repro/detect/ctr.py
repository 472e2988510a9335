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

:func:`ctr_step` is that step for one variable form: :func:`ctr_detect`
runs it one-shot, the resident session (:mod:`repro.detect.incremental`)
seeds its kernel from it.
"""

from __future__ import annotations

from ..core import CFD, VariableCFD
from ..distributed import Cluster, DetectionOutcome, ShipmentLog, StageTimes
from . import base


def ctr_step(
    cluster: Cluster, variable: VariableCFD, log: ShipmentLog
) -> base.VariableStep:
    """CTRDETECT's step for one variable form: unlike PATDETECT's, each
    site ships one message tagged with the CFD, and the one coordinator
    is charged one GROUP BY over all merged rows.  The buckets still
    merge per pattern (a session forwards deltas per pattern); σ is a
    function of ``X``, so checking them bucket by bucket is that GROUP BY.
    """
    partitions, _index = base.partition_cluster(cluster, variable)
    base.exchange_statistics(cluster, log)
    # the site with the most matches; max() breaks ties to the smallest
    totals = [sum(part.lstat) for part in partitions]
    coordinator = max(range(len(totals)), key=totals.__getitem__)
    width = len(variable.attributes)
    stage_log = ShipmentLog()
    for part in partitions:
        rows = sum(part.lstat)
        if rows and part.site.index != coordinator:
            stage_log.ship(
                coordinator, part.site.index, rows, rows * width,
                tag=variable.source, n_codes=2 * rows,
            )
    log.merge(stage_log)
    merged = base.merge_buckets(partitions, len(variable.patterns))
    model = cluster.cost_model
    stage = StageTimes(
        base.scan_stage_time(cluster, partitions),
        model.transfer_time(stage_log.outgoing_by_source()),
        model.check_time(model.check_ops(sum(bucket.rows for bucket in merged))),
    )
    return base.VariableStep(
        variable, partitions[0].shared, [coordinator] * len(merged), merged,
        stage, coordinator,
    )


def ctr_detect(cluster: Cluster, cfd: CFD) -> DetectionOutcome:
    """Detect ``Vioπ(φ, D)`` with a single coordinator site."""
    return base.horizontal_detect(cluster, cfd, ctr_step, "CTRDETECT")

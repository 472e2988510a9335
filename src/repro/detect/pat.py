"""Algorithms PATDETECTS and PATDETECTRT (Section IV-B, Fig. 2).

Partition kind: horizontal.  Shipping strategy: both algorithms partition
each fragment with the σ function induced by the generality ordering of
the pattern tableau (Lemma 6) and designate a coordinator *per pattern
tuple*, distributing the detection work across sites; σ buckets cross the
network as shared-dictionary ``(x_code, y_code)`` pairs (see
:mod:`repro.relational.shareddict`).  The two differ only in the
coordinator-selection rule:

* ``PATDETECTS`` minimizes total shipment: the coordinator of pattern
  ``t_p^l`` is the site with the largest ``lstat[·, l]`` (that site would
  otherwise ship the most tuples for ``l``).
* ``PATDETECTRT`` greedily minimizes the Section III-B response-time cost
  ``costRS``: patterns are assigned in order, each to the site increasing
  the estimate the least, approximating ``check`` by
  ``|D_j ∪ M(j)| · log |D_j ∪ M(j)|``.

Each tuple attribute is shipped at most once (tuples of different patterns
go to different coordinators, but each tuple belongs to exactly one σ
bucket).

:func:`pat_step` is the per-pattern step for one variable form under any
coordinator rule: the one-shot detectors here run it, and so do the
resident sessions' seeds and the hybrid detector's phase 2.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Sequence

from ..core import CFD, VariableCFD
from ..distributed import Cluster, DetectionOutcome, ShipmentLog, StageTimes
from . import base

#: a strategy maps (cluster, per-site lstat matrix) -> coordinator per pattern
Strategy = Callable[[Cluster, Sequence[Sequence[int]]], list[int]]


def select_max_stat(
    cluster: Cluster, lstat: Sequence[Sequence[int]]
) -> list[int]:
    """PATDETECTS rule: per pattern, the site holding the most matches.

    Shipping cost ``costS(λ) = Σ_i |M(i)|`` is minimized exactly by keeping
    each pattern at its largest holder (every other assignment ships that
    holder's tuples too).
    """
    n_patterns = len(lstat[0]) if lstat else 0
    coordinators = []
    for l in range(n_patterns):
        best = 0
        for i in range(len(lstat)):
            if lstat[i][l] > lstat[best][l]:
                best = i
        coordinators.append(best)
    return coordinators


def make_select_min_response(cluster: Cluster) -> Strategy:
    """PATDETECTRT rule: greedy assignment minimizing ``costRS``."""

    def select(cluster: Cluster, lstat: Sequence[Sequence[int]]) -> list[int]:
        model = cluster.cost_model
        n_sites = cluster.n_sites
        n_patterns = len(lstat[0]) if lstat else 0
        fragment_sizes = [len(site.fragment) for site in cluster.sites]
        outgoing = [0] * n_sites
        received = [0] * n_sites
        coordinators: list[int] = []
        for l in range(n_patterns):
            pattern_counts = [lstat[i][l] for i in range(n_sites)]
            total = sum(pattern_counts)
            best_site, best_cost = 0, None
            for candidate in range(n_sites):
                trial_out = list(outgoing)
                for j in range(n_sites):
                    if j != candidate:
                        trial_out[j] += pattern_counts[j]
                trial_recv = received[candidate] + (total - pattern_counts[candidate])
                transfer = model.transfer_time(
                    {j: trial_out[j] for j in range(n_sites)}
                )
                check = max(
                    model.check_time(
                        model.check_ops(
                            fragment_sizes[j]
                            + (trial_recv if j == candidate else received[j])
                        )
                    )
                    for j in range(n_sites)
                )
                cost = transfer + check
                better = best_cost is None or cost < best_cost - 1e-12
                tie = best_cost is not None and abs(cost - best_cost) <= 1e-12
                if better or (
                    tie and pattern_counts[candidate] > pattern_counts[best_site]
                ):
                    best_site, best_cost = candidate, cost
            coordinators.append(best_site)
            for j in range(n_sites):
                if j != best_site:
                    outgoing[j] += pattern_counts[j]
            received[best_site] += total - pattern_counts[best_site]
        return coordinators

    return select


def select_random(seed: int = 0) -> Strategy:
    """Ablation baseline: uniformly random coordinators."""

    def select(cluster: Cluster, lstat: Sequence[Sequence[int]]) -> list[int]:
        rng = random.Random(seed)
        n_patterns = len(lstat[0]) if lstat else 0
        return [rng.randrange(cluster.n_sites) for _ in range(n_patterns)]

    return select


def select_balanced(
    cluster: Cluster, lstat: Sequence[Sequence[int]]
) -> list[int]:
    """Load-balancing rule (Section VIII): spread coordinator work evenly.

    Patterns are assigned largest-first, each to the site whose resulting
    *received + local* detection load is smallest, preferring the max-stat
    site on ties.  Trades some shipment for a flatter check stage —
    exactly the load-balancing direction the paper's future work names.
    """
    n_sites = len(lstat)
    n_patterns = len(lstat[0]) if lstat else 0
    totals = [
        sum(lstat[i][l] for i in range(n_sites)) for l in range(n_patterns)
    ]
    load = [0] * n_sites
    assignment = [0] * n_patterns
    for l in sorted(range(n_patterns), key=lambda l: -totals[l]):
        best = min(
            range(n_sites),
            key=lambda s: (load[s] + totals[l], -lstat[s][l], s),
        )
        assignment[l] = best
        load[best] += totals[l]
    return assignment


def select_min_stat(
    cluster: Cluster, lstat: Sequence[Sequence[int]]
) -> list[int]:
    """Ablation baseline: the *worst* choice under the shipment objective."""
    n_patterns = len(lstat[0]) if lstat else 0
    coordinators = []
    for l in range(n_patterns):
        worst = 0
        for i in range(len(lstat)):
            if lstat[i][l] < lstat[worst][l]:
                worst = i
        coordinators.append(worst)
    return coordinators


def _resolve_strategy(cluster: Cluster, strategy: str | Strategy) -> Strategy:
    """Coordinator-selection strategy: ``"s"``, ``"rt"`` or a callable."""
    if isinstance(strategy, str):
        if strategy == "s":
            return select_max_stat
        if strategy == "rt":
            return make_select_min_response(cluster)
        raise ValueError(f"unknown strategy {strategy!r}; use 's' or 'rt'")
    return strategy


def pat_step(
    cluster: Cluster,
    variable: VariableCFD,
    log: ShipmentLog,
    pick: Strategy,
) -> base.VariableStep:
    """PATDETECT's step for one variable form: σ scan, ``lstat``
    exchange, a coordinator per pattern chosen by ``pick``, every bucket
    shipped to its coordinator, one GROUP BY per bucket charged."""
    partitions, _index = base.partition_cluster(cluster, variable)
    base.exchange_statistics(cluster, log)
    coordinators = pick(cluster, [part.lstat for part in partitions])
    stage_log = ShipmentLog()
    merged = base.ship_buckets(
        cluster, partitions, coordinators, stage_log, variable.source,
        width=len(variable.attributes),
    )
    log.merge(stage_log)
    model = cluster.cost_model
    stage = StageTimes(
        base.scan_stage_time(cluster, partitions),
        model.transfer_time(stage_log.outgoing_by_source()),
        base.check_stage_time(model, coordinators, merged),
    )
    return base.VariableStep(
        variable, partitions[0].shared, coordinators, merged, stage,
        coordinators,
    )


def pat_detect_s(cluster: Cluster, cfd: CFD) -> DetectionOutcome:
    """PATDETECTS: per-pattern coordinators minimizing total shipment."""
    return pat_detect_with_strategy(cluster, cfd, select_max_stat, "PATDETECTS")


def pat_detect_rt(cluster: Cluster, cfd: CFD) -> DetectionOutcome:
    """PATDETECTRT: per-pattern coordinators minimizing response time."""
    return pat_detect_with_strategy(
        cluster, cfd, make_select_min_response(cluster), "PATDETECTRT"
    )


def pat_detect_with_strategy(
    cluster: Cluster, cfd: CFD, strategy: Strategy, name: str = "PATDETECT*"
) -> DetectionOutcome:
    """Run the PATDETECT skeleton with a custom coordinator strategy."""
    return base.horizontal_detect(
        cluster, cfd, partial(pat_step, pick=strategy), name
    )

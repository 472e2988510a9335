"""Wildcard instantiation of FDs with mined pattern tuples (Section IV-B).

When a CFD's pattern tuples carry many wildcards in their LHS — a
traditional FD being the extreme — the σ partition function degenerates to
a single bucket and PATDETECTS/PATDETECTRT collapse into CTRDETECT.  The
paper's remedy: mine each fragment for pattern tuples occurring at least
``θ · |D_i|`` times and replace the FD ``φ = (X → A)`` with the equivalent
CFD ``φ' = (X → A, T_θ)`` whose tableau holds the frequent patterns plus a
final all-wildcard row catching the infrequent remainder.

Closedness does not depend on θ (see :mod:`.itemsets`): a cluster is mined
once for a CFD (:func:`mine_cluster`) and instantiated at any θ from that
mining (:func:`instantiate_mined`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import CFD, PatternTuple, WILDCARD, is_wildcard, sort_patterns_by_generality
from ..distributed import Cluster
from .itemsets import closed_frequent_itemsets, itemsets_to_rows


@dataclass
class MiningResult:
    """An instantiated CFD plus mining statistics.

    ``preprocess_time`` is the paper's modelled mining overhead under the
    cluster's cost model — one levelwise pass per lattice level at each
    site, in parallel — not the work this code runs; experiments add it to
    the response time they report.
    """

    cfd: CFD
    n_mined_patterns: int
    per_site_patterns: list[int]
    preprocess_time: float


@dataclass
class ClusterMining:
    """Every site's closed itemsets at support 1 over ``cfd.lhs``: per site
    ``(|D_i|, {pattern row: support})``, rows in emission order."""

    cfd: CFD
    sites: list[tuple[int, dict[tuple, int]]]
    preprocess_time: float


def mine_cluster(cluster: Cluster, cfd: CFD) -> ClusterMining:
    """Mine every fragment of ``cluster`` once over ``cfd``'s LHS."""
    lhs = cfd.lhs
    sites = []
    for site in cluster.sites:
        transactions = site.fragment.project(lhs).rows
        closed = closed_frequent_itemsets(transactions, lhs, 1)
        rows = itemsets_to_rows(closed, lhs, WILDCARD)
        sites.append((len(site.fragment), dict(zip(rows, closed.values()))))
    scans = [len(lhs) * cluster.cost_model.scan_time(n) for n, _rows in sites]
    return ClusterMining(cfd, sites, max(scans, default=0.0))


def instantiate_mined(
    mining: ClusterMining, theta: float, max_patterns: int | None = None
) -> MiningResult:
    """:func:`instantiate_with_frequent_patterns` of ``mining.cfd`` at
    ``theta``, from ``mining``."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")

    cfd = mining.cfd
    mined_rows: dict[tuple, None] = {}
    per_site = []
    for size, closed in mining.sites:
        min_support = max(1, math.ceil(theta * size))
        rows = [row for row, support in closed.items() if support >= min_support]
        per_site.append(len(rows))
        for row in rows:
            mined_rows.setdefault(row)

    ordered = sort_patterns_by_generality(mined_rows)
    if max_patterns is not None:
        ordered = ordered[:max_patterns]

    existing = {tp.lhs for tp in cfd.tableau}
    rhs_wild = (WILDCARD,) * len(cfd.rhs)
    new_rows = [
        PatternTuple(row, rhs_wild) for row in ordered if row not in existing
    ]
    # Keep the original rows last: the all-wildcard row catches the
    # infrequent tuples, exactly as in the paper.
    refined = [
        tp for tp in cfd.tableau if not all(is_wildcard(v) for v in tp.lhs)
    ]
    wildcard_rows = [
        tp for tp in cfd.tableau if all(is_wildcard(v) for v in tp.lhs)
    ]
    tableau = refined + new_rows + wildcard_rows
    instantiated = cfd.with_tableau(tableau, name=cfd.name)
    return MiningResult(
        cfd=instantiated,
        n_mined_patterns=len(new_rows),
        per_site_patterns=per_site,
        preprocess_time=mining.preprocess_time,
    )


def instantiate_with_frequent_patterns(
    cluster: Cluster,
    cfd: CFD,
    theta: float,
    max_patterns: int | None = None,
) -> MiningResult:
    """Refine the all-wildcard rows of ``cfd`` with mined frequent patterns.

    ``theta ∈ (0, 1]`` is the frequency threshold.  Only rows whose LHS is
    entirely wildcards are refined (the FD case the paper evaluates); the
    original rows are kept, so the result is equivalent to ``cfd``:
    the mined rows are specializations whose tuples the original rows would
    have matched anyway, and Lemma 6 makes the σ assignment immaterial to
    the detected violations.
    """
    return instantiate_mined(mine_cluster(cluster, cfd), theta, max_patterns)

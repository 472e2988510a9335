"""The nine experiments of the paper's Figure 3, one function per subfigure.

Each function regenerates the corresponding series — same workloads, same
parameter sweeps, same algorithms — at ``REPRO_SCALE`` of the paper's data
sizes (see DESIGN.md §3 for the per-experiment index and expected shapes).
Response times are the simulated Section III-B cost model, in seconds.
"""

from __future__ import annotations

from functools import lru_cache

from ..core import CFD
from ..datagen import (
    ORGANISMS_XREFH,
    cust_overlapping_cfds,
    cust_street_cfd,
    generate_cust,
    generate_xref,
    xref_mining_fd,
    xref_overlapping_cfds,
    xref_priority_cfd,
)
from ..detect import (
    clust_detect,
    ctr_detect,
    pat_detect_rt,
    pat_detect_s,
    seq_detect,
)
from ..distributed import Cluster
from ..mining.patterns import instantiate_mined, mine_cluster
from ..partition import partition_by_attribute, partition_uniform
from ..relational import Relation
from .harness import ExperimentResult, scaled, sweep

#: paper dataset sizes (tuples)
CUST8_SIZE = 800_000
CUST16_SIZE = 1_600_000
XREF8_SIZE = 800_000
XREFH_SIZE = 2_700_000

SITE_COUNTS = (2, 3, 4, 5, 6, 7, 8)


@lru_cache(maxsize=8)
def _cust_cached(n_tuples: int, seed: int) -> Relation:
    return generate_cust(n_tuples, seed=seed)


@lru_cache(maxsize=8)
def _xref_cached(n_tuples: int, organisms: tuple, seed: int) -> Relation:
    return generate_xref(n_tuples, organisms=organisms, seed=seed)


def _cust8() -> Relation:
    return _cust_cached(scaled(CUST8_SIZE), 7)


def _cust16() -> Relation:
    return _cust_cached(scaled(CUST16_SIZE), 8)


def _xref8() -> Relation:
    from ..datagen import ORGANISMS_XREF8

    return _xref_cached(scaled(XREF8_SIZE), ORGANISMS_XREF8, 11)


def _xrefh() -> Relation:
    return _xref_cached(scaled(XREFH_SIZE), ORGANISMS_XREFH, 13)


def _subset(relation: Relation, fraction: float) -> Relation:
    n = int(len(relation) * fraction)
    return Relation(relation.schema, relation.rows[:n], copy=False)


def _single_cfd_point(
    cluster: Cluster, cfd: CFD, algorithms: dict[str, object]
) -> dict[str, float]:
    return {
        name: fn(cluster, cfd).response_time
        for name, fn in algorithms.items()
    }


# -- Exp-1: scalability with the number of fragments --------------------------


def fig3a() -> ExperimentResult:
    """Fig 3(a): response time vs |S| on cust8, single CFD (255 patterns)."""
    result = ExperimentResult(
        "fig3a",
        "Scalability with |S| (cust8)",
        "sites",
        "response time (s)",
    )
    data = _cust8()
    cfd = cust_street_cfd(255)
    algorithms = {
        "CTRDETECT": ctr_detect,
        "PATDETECTS": pat_detect_s,
        "PATDETECTRT": pat_detect_rt,
    }
    return sweep(
        result,
        SITE_COUNTS,
        lambda n: _single_cfd_point(
            partition_uniform(data, n), cfd, algorithms
        ),
    )


def fig3b() -> ExperimentResult:
    """Fig 3(b): response time vs |S| on xref8, single CFD (11 patterns)."""
    result = ExperimentResult(
        "fig3b",
        "Scalability with |S| (xref8)",
        "sites",
        "response time (s)",
    )
    data = _xref8()
    cfd = xref_priority_cfd()
    algorithms = {
        "CTRDETECT": ctr_detect,
        "PATDETECTS": pat_detect_s,
        "PATDETECTRT": pat_detect_rt,
    }
    return sweep(
        result,
        SITE_COUNTS,
        lambda n: _single_cfd_point(
            partition_uniform(data, n), cfd, algorithms
        ),
    )


# -- Exp-2: scalability with the data size -------------------------------------


def fig3c() -> ExperimentResult:
    """Fig 3(c): response time vs |D| (10%..100% of cust16, 8 sites)."""
    result = ExperimentResult(
        "fig3c",
        "Scalability with |D| (cust16, 8 sites)",
        "tuples (x 160K scaled)",
        "response time (s)",
    )
    data = _cust16()
    cfd = cust_street_cfd(255)

    def point(step: int) -> dict[str, float]:
        cluster = partition_uniform(_subset(data, step / 10), 8)
        return {
            "CTRDETECT": ctr_detect(cluster, cfd).response_time,
            "PATDETECTRT": pat_detect_rt(cluster, cfd).response_time,
        }

    return sweep(result, list(range(1, 11)), point)


# -- Exp-3: complexity of the CFD ----------------------------------------------


def fig3d() -> ExperimentResult:
    """Fig 3(d): response time vs |Tp| (50..255 patterns, cust8, 8 sites)."""
    result = ExperimentResult(
        "fig3d",
        "Scalability with |Tp| (cust8, 8 sites)",
        "patterns",
        "response time (s)",
    )
    cluster = partition_uniform(_cust8(), 8)

    def point(n_patterns: int) -> dict[str, float]:
        cfd = cust_street_cfd(n_patterns)
        return {
            "CTRDETECT": ctr_detect(cluster, cfd).response_time,
            "PATDETECTRT": pat_detect_rt(cluster, cfd).response_time,
        }

    return sweep(result, [50, 100, 150, 200, 255], point)


# -- Exp-4: impact of mining patterns -------------------------------------------


def fig3e() -> ExperimentResult:
    """Fig 3(e): shipment vs θ on xrefH (7 fragments), FD + mining."""
    result = ExperimentResult(
        "fig3e",
        "Impact of mining on shipment (xrefH, 7 fragments)",
        "theta",
        "tuples shipped",
        notes="PATDETECTS on an FD, with and without pattern mining",
    )
    cluster = partition_by_attribute(_xrefh(), "info_type")
    fd = xref_mining_fd()
    baseline = pat_detect_s(cluster, fd).tuples_shipped
    mining = mine_cluster(cluster, fd)  # once: closedness is θ-free

    def point(theta: float) -> dict[str, float]:
        mined = instantiate_mined(mining, theta)
        shipped = pat_detect_s(cluster, mined.cfd).tuples_shipped
        return {
            "PATDETECTS": float(baseline),
            "PATDETECTS+mining": float(shipped),
        }

    thetas = [0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    return sweep(result, thetas, point)


# -- Exp-5: multiple CFDs, varying |S| ------------------------------------------


def _multi_point(
    cluster: Cluster, cfds: list[CFD], metric: str
) -> dict[str, float]:
    seq = seq_detect(cluster, cfds, single="rt")
    clust = clust_detect(cluster, cfds, strategy="rt")
    if metric == "shipment":
        return {
            "SEQDETECT": float(seq.tuples_shipped),
            "CLUSTDETECT": float(clust.tuples_shipped),
        }
    return {
        "SEQDETECT": seq.response_time,
        "CLUSTDETECT": clust.response_time,
    }


def fig3f() -> ExperimentResult:
    """Fig 3(f): tuples shipped vs |S|, two overlapping CFDs (xref8)."""
    result = ExperimentResult(
        "fig3f",
        "Shipment with |S|, multiple CFDs (xref8)",
        "sites",
        "tuples shipped",
    )
    data = _xref8()
    cfds = xref_overlapping_cfds()
    return sweep(
        result,
        SITE_COUNTS,
        lambda n: _multi_point(partition_uniform(data, n), cfds, "shipment"),
    )


def fig3g() -> ExperimentResult:
    """Fig 3(g): response time vs |S|, two overlapping CFDs (xref8)."""
    result = ExperimentResult(
        "fig3g",
        "Scalability with |S|, multiple CFDs (xref8)",
        "sites",
        "response time (s)",
    )
    data = _xref8()
    cfds = xref_overlapping_cfds()
    return sweep(
        result,
        SITE_COUNTS,
        lambda n: _multi_point(partition_uniform(data, n), cfds, "time"),
    )


def fig3h() -> ExperimentResult:
    """Fig 3(h): response time vs |S|, two overlapping CFDs (cust8)."""
    result = ExperimentResult(
        "fig3h",
        "Scalability with |S|, multiple CFDs (cust8)",
        "sites",
        "response time (s)",
    )
    data = _cust8()
    cfds = cust_overlapping_cfds()
    return sweep(
        result,
        SITE_COUNTS,
        lambda n: _multi_point(partition_uniform(data, n), cfds, "time"),
    )


# -- Exp-6: multiple CFDs, varying |D| -------------------------------------------


def fig3i() -> ExperimentResult:
    """Fig 3(i): response time vs |D| (10%..100% of cust16), multiple CFDs."""
    result = ExperimentResult(
        "fig3i",
        "Scalability with |D|, multiple CFDs (cust16, 8 sites)",
        "tuples (x 160K scaled)",
        "response time (s)",
    )
    data = _cust16()
    cfds = cust_overlapping_cfds()

    def point(step: int) -> dict[str, float]:
        cluster = partition_uniform(_subset(data, step / 10), 8)
        return _multi_point(cluster, cfds, "time")

    return sweep(result, list(range(1, 11)), point)


ALL_FIGURES = {
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig3c": fig3c,
    "fig3d": fig3d,
    "fig3e": fig3e,
    "fig3f": fig3f,
    "fig3g": fig3g,
    "fig3h": fig3h,
    "fig3i": fig3i,
}


def run_all(save_dir: str | None = "results") -> dict[str, ExperimentResult]:
    """Run every Figure 3 experiment; optionally persist the tables."""
    results = {}
    for name, fn in ALL_FIGURES.items():
        result = fn()
        if save_dir:
            result.save(save_dir)
        results[name] = result
    return results

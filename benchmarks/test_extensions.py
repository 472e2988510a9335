"""Benches for the Section VIII extensions: replication and hybrid detection.

Not figures of the paper — they quantify the future-work directions the
paper names: replication should cut both shipment and response time as the
replication degree grows, and hybrid detection should stay within a small
factor of pure-horizontal detection despite the extra vertical gathers.
"""

from repro.datagen import cust_street_cfd
from repro.detect import hybrid_detect, pat_detect_s, replicated_pat_detect
from repro.distributed import HybridCluster, ReplicatedCluster
from repro.experiments import ExperimentResult
from repro.experiments.figures import _cust8
from repro.partition import partition_uniform
from repro.relational import InSet


def test_replication_degree_sweep(record_table):
    data = _cust8()
    base = partition_uniform(data, 8)
    cfd = cust_street_cfd(255)
    result = ExperimentResult(
        "ext_replication",
        "Replication-aware detection (cust8, 8 sites)",
        "replication degree",
        "tuples shipped / response (s)",
    )
    shipped, times = [], []
    for degree in (1, 2, 4, 8):
        cluster = ReplicatedCluster.replicate(base, degree)
        outcome = replicated_pat_detect(cluster, cfd)
        shipped.append(outcome.tuples_shipped)
        times.append(outcome.response_time)
        result.add_point(
            degree,
            {
                "shipped": float(outcome.tuples_shipped),
                "response": outcome.response_time,
            },
        )
    record_table(result)

    assert shipped == sorted(shipped, reverse=True)
    assert shipped[-1] == 0  # full replication ships nothing
    assert times[-1] < times[0]  # and is faster

    cluster = ReplicatedCluster.replicate(base, 4)
    replicated_pat_detect(cluster, cfd)


def test_hybrid_vs_horizontal(record_table):
    data = _cust8()
    cfd = cust_street_cfd(120)
    horizontal = partition_uniform(data, 6)
    plain = pat_detect_s(horizontal, cfd)

    ccs = sorted({row[2] for row in data.rows})
    split = len(ccs) // 2
    hybrid = HybridCluster.from_partitions(
        data,
        {
            "west": InSet("CC", ccs[:split]),
            "east": InSet("CC", ccs[split:]),
        },
        # street lives apart from the rule's LHS attributes, so every
        # region needs an intra-region vertical gather before the
        # cross-region σ detection
        {
            "address": ["CC", "AC", "city", "zip"],
            "orders": ["name", "phn", "street", "item", "price", "quantity"],
        },
    )
    outcome = hybrid_detect(hybrid, cfd)
    assert outcome.report.violations == plain.report.violations
    assert outcome.tuples_shipped > 0  # the vertical gathers

    result = ExperimentResult(
        "ext_hybrid",
        "Hybrid vs horizontal detection (cust8)",
        "deployment",
        "tuples shipped",
    )
    result.add_point("horizontal(6 sites)", {"shipped": float(plain.tuples_shipped)})
    result.add_point(
        "hybrid(2x4 sites)", {"shipped": float(outcome.tuples_shipped)}
    )
    record_table(result)

    hybrid_detect(hybrid, cfd)

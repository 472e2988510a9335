"""Ablation benches for the design choices of Section IV (DESIGN.md §4).

Each test isolates one ingredient of the detection algorithms and
quantifies its contribution against a degraded variant:

* coordinator selection (max-stat vs random vs worst-case min-stat);
* the generality ordering of the σ partition function;
* the ``F_i ∧ F_φ`` pruning rule for predicate-defined fragments;
* the naive ship-everything baseline of Section III-A.
"""

from repro.core import WILDCARD, normalize
from repro.datagen import (
    cust_street_cfd,
    generate_cust,
    xref_priority_cfd,
)
from repro.detect import (
    ctr_detect,
    naive_detect,
    pat_detect_s,
    pat_detect_with_strategy,
    select_min_stat,
    select_random,
)
from repro.detect.base import partition_cluster
from repro.experiments import scaled
from repro.experiments.figures import _cust8, _xref8
from repro.partition import partition_by_attribute, partition_uniform


def test_coordinator_choice_ablation(record_table):
    """Max-stat coordinators ship the least; worst-case choice the most."""
    from repro.experiments import ExperimentResult

    cluster = partition_uniform(_cust8(), 8)
    cfd = cust_street_cfd(255)

    best = pat_detect_s(cluster, cfd)
    rand = pat_detect_with_strategy(
        cluster, cfd, select_random(seed=1), name="PATDETECT-RANDOM"
    )
    worst = pat_detect_with_strategy(
        cluster, cfd, select_min_stat, name="PATDETECT-WORST"
    )
    result = ExperimentResult(
        "ablation_coordinator",
        "Coordinator selection ablation (cust8, 8 sites)",
        "strategy",
        "tuples shipped",
    )
    result.add_point("max-stat", {"shipped": float(best.tuples_shipped)})
    result.add_point("random", {"shipped": float(rand.tuples_shipped)})
    result.add_point("min-stat", {"shipped": float(worst.tuples_shipped)})
    record_table(result)

    assert best.tuples_shipped <= rand.tuples_shipped <= worst.tuples_shipped
    assert best.report.violations == worst.report.violations

    pat_detect_s(cluster, cfd)


def test_generality_ordering_keeps_sigma_deterministic():
    """σ assigns by first *most specific* match; a reversed tableau would
    send every tuple to the catch-all bucket and lose the distribution."""
    cluster = partition_uniform(_xref8(), 4)
    cfd = xref_priority_cfd()
    (variable,) = normalize(cfd).variables

    partitions, _ = partition_cluster(cluster, variable)
    sizes = [sum(part.lstat) for part in partitions]
    spread = [
        sum(1 for count in part.lstat if count) for part in partitions
    ]
    assert all(s > 0 for s in sizes)
    assert all(s > 1 for s in spread)  # tuples split across many patterns

    # With an artificial all-wildcard pattern *first*, everything collapses
    # into one bucket — the degeneration the mining step exists to fix.
    degenerate = variable.patterns + ((WILDCARD,) * len(variable.lhs),)
    from repro.core import PatternIndex

    index = PatternIndex(((WILDCARD,) * len(variable.lhs),))
    lhs_pos = cluster.schema.positions(variable.lhs)
    rows = cluster.fragment(0).rows
    assert all(
        index.first_match(tuple(r[p] for p in lhs_pos)) == 0 for r in rows
    )

    partition_cluster(cluster, variable)


def test_pruning_skips_inapplicable_sites(record_table):
    """F_i ∧ F_φ pruning: fragments whose predicate contradicts every
    pattern do not participate (no scan, no shipment)."""
    from repro.experiments import ExperimentResult

    data = generate_cust(scaled(200_000))
    cluster = partition_by_attribute(data, "CC")  # F_i: CC = value
    cfd = cust_street_cfd(60)  # patterns bind CC to the frequent countries
    (variable,) = normalize(cfd).variables

    partitions, _ = partition_cluster(cluster, variable)
    participating = [p for p in partitions if p.participated]
    pruned = [p for p in partitions if not p.participated]

    pattern_ccs = {row[0] for row in variable.patterns}
    result = ExperimentResult(
        "ablation_pruning",
        "F_i ∧ F_φ pruning (CUST fragmented by CC)",
        "metric",
        "sites",
    )
    result.add_point("participating", {"count": float(len(participating))})
    result.add_point("pruned", {"count": float(len(pruned))})
    record_table(result)

    assert pruned, "some CC fragment must fall outside the tableau"
    for part in pruned:
        cc = part.site.fragment.rows[0][data.schema.position("CC")]
        assert cc not in pattern_ccs
    outcome = pat_detect_s(cluster, cfd)
    pat_detect_s(cluster, cfd)
    assert outcome.tuples_shipped >= 0


def test_naive_baseline_ships_most(record_table):
    """Section III-A: the ship-everything baseline incurs the most traffic."""
    from repro.experiments import ExperimentResult

    cluster = partition_uniform(_cust8(), 8)
    cfd = cust_street_cfd(255)

    naive = naive_detect(cluster, cfd)
    ctr = ctr_detect(cluster, cfd)
    pat = pat_detect_s(cluster, cfd)
    result = ExperimentResult(
        "ablation_baseline",
        "Naive vs detection algorithms (cust8, 8 sites)",
        "algorithm",
        "tuples shipped",
    )
    result.add_point("NAIVE", {"shipped": float(naive.tuples_shipped)})
    result.add_point("CTRDETECT", {"shipped": float(ctr.tuples_shipped)})
    result.add_point("PATDETECTS", {"shipped": float(pat.tuples_shipped)})
    record_table(result)

    assert naive.tuples_shipped >= ctr.tuples_shipped >= pat.tuples_shipped
    assert naive.report.violations == pat.report.violations

    naive_detect(cluster, cfd)

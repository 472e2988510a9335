"""Genome cross-reference quality audit (the paper's XREF scenario).

A bioinformatics group keeps cross-references from genes/proteins to
external databases (UniProt, RefSeq, GO, ...) distributed across sites by
reference type — the xrefH deployment of the paper's Exp-4.  Two audits
run here:

1. detect violations of the priority rules with the pattern-based
   algorithms, and
2. show how mining closed frequent patterns slashes the network traffic of
   checking a plain FD whose LHS is all wildcards (Fig. 3(e)).

Run with::

    python examples/genome_quality.py
"""

from repro.core import detect_violations
from repro.datagen import (
    ORGANISMS_XREFH,
    generate_xref,
    xref_mining_fd,
    xref_priority_cfd,
)
from repro.detect import ctr_detect, pat_detect_s
from repro.mining.patterns import instantiate_mined, mine_cluster
from repro.partition import partition_by_attribute

N_TUPLES = 60_000  # scaled-down xrefH


def main() -> None:
    print(f"Generating {N_TUPLES} human cross-references ...")
    xrefh = generate_xref(N_TUPLES, organisms=ORGANISMS_XREFH, seed=13)
    cluster = partition_by_attribute(xrefh, "info_type")
    print(f"Fragmented by reference type: {cluster.n_sites} sites")
    for site in cluster.sites:
        print(f"  {site.name:<30} {len(site.fragment):>7} tuples")

    # -- audit 1: the priority CFD ---------------------------------------------
    cfd = xref_priority_cfd(ORGANISMS_XREFH)
    central = detect_violations(xrefh, cfd, collect_tuples=False)
    outcome = pat_detect_s(cluster, cfd)
    print(
        f"\nAudit of {cfd.name}: {len(outcome.report)} violating patterns "
        f"(centralized agrees: {outcome.report.violations == central.violations})"
    )
    print(
        f"  PATDETECTS shipped {outcome.tuples_shipped} tuples; "
        f"simulated response {outcome.response_time:.3f}s"
    )

    # -- audit 2: an FD, with and without pattern mining ------------------------
    fd = xref_mining_fd()
    print(f"\nAudit of the FD {fd.name} ([db_name, object_type] -> [priority]):")
    plain = pat_detect_s(cluster, fd)
    print(
        f"  without mining: {plain.tuples_shipped} tuples shipped "
        f"(the all-wildcard tableau degenerates to a single coordinator)"
    )
    mining = mine_cluster(cluster, fd)  # once; every θ filters it
    for theta in (0.05, 0.2, 0.6):
        mined = instantiate_mined(mining, theta)
        refined = pat_detect_s(cluster, mined.cfd)
        same = refined.report.violations == plain.report.violations
        reduction = 100.0 * (1 - refined.tuples_shipped / plain.tuples_shipped)
        print(
            f"  theta={theta:<5} mined {mined.n_mined_patterns:>3} patterns -> "
            f"{refined.tuples_shipped:>7} tuples shipped "
            f"({reduction:5.1f}% less; same violations: {same})"
        )

    print(
        "\nFrequent patterns correlate with the fragments (each external DB "
        "has a dominant reference type), so per-pattern coordinators receive "
        "their tuples mostly locally — the Fig. 3(e) effect."
    )

    # -- contrast: the single-coordinator plan on the mined CFD -----------------
    best = instantiate_mined(mining, 0.05)
    refined = pat_detect_s(cluster, best.cfd)
    ctr = ctr_detect(cluster, best.cfd)
    print(
        f"\nOn the mined CFD, CTRDETECT still ships {ctr.tuples_shipped} tuples "
        f"to its single coordinator, vs {refined.tuples_shipped} for PATDETECTS "
        "— per-pattern coordinators are what turn the mined patterns into savings."
    )


if __name__ == "__main__":
    main()

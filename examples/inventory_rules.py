"""Extended rules (eCFDs) on a distributed inventory — end to end.

A warehouse chain keeps stock records on one site per depot.  Its quality
rules need more than equality patterns: disjunctions ("a cold-chain item is
stored in zone C1 or C2"), negations ("non-discontinued items have a
supplier") and ranges ("bulk lots have quantity ≥ 100") — the eCFD
extension the paper's related work points to ([17]).  This example defines
such rules in the extended notation, detects violations both distributedly
and through the generated SQL (executed as printed on sqlite3), and shows
they agree.

Run with::

    python examples/inventory_rules.py
"""

import random

from repro.core import detect_violations, format_cfd, parse_cfd
from repro.core.sql import run_detection_on_sqlite, violation_sql
from repro.detect import clust_detect, pat_detect_s
from repro.partition import partition_by_attribute
from repro.relational import Relation, Schema

SCHEMA = Schema(
    "STOCK",
    ["sku", "depot", "category", "zone", "supplier", "status", "quantity"],
    key=["sku"],
)

RULES = [
    parse_cfd(
        "([category = 'cold-chain'] -> [zone = {'C1'|'C2'}])",
        name="cold-chain-zone",
    ),
    parse_cfd(
        "([status != 'discontinued'] -> [supplier != 'none'])",
        name="active-has-supplier",
    ),
    parse_cfd(
        "([category = 'bulk'] -> [quantity >= 100])",
        name="bulk-quantity",
    ),
    # classic variable CFD alongside: within a depot, a SKU's category
    # pins its zone
    parse_cfd("([depot, category] -> [zone])", name="depot-zone"),
]


def generate_stock(n: int, seed: int = 3) -> Relation:
    rng = random.Random(seed)
    depots = ["north", "south", "east"]
    zones = {"cold-chain": "C1", "bulk": "B1", "general": "G1"}
    rows = []
    for i in range(n):
        depot = rng.choice(depots)
        category = rng.choice(list(zones))
        zone = zones[category]
        supplier = f"sup{rng.randrange(5)}"
        status = "active"
        quantity = 150 if category == "bulk" else rng.randrange(1, 50)
        # inject rule violations
        roll = rng.random()
        if roll < 0.03:
            zone = "G9"
        elif roll < 0.06:
            supplier, status = "none", "active"
        elif roll < 0.09 and category == "bulk":
            quantity = rng.randrange(1, 99)
        rows.append((i, depot, category, zone, supplier, status, quantity))
    return Relation(SCHEMA, rows)


def main() -> None:
    stock = generate_stock(9000)
    print(f"{len(stock)} stock records across depots\n")
    print("Extended rules:")
    for rule in RULES:
        print(f"  {rule.name}: {format_cfd(rule)}")

    # -- centralized + SQL agreement ------------------------------------------
    report = detect_violations(stock, RULES, collect_tuples=False)
    sql_result = run_detection_on_sqlite(stock, RULES)
    ours = {(v.cfd, v.lhs_values) for v in report.violations}
    print(f"\nCentralized detection: {len(report)} violating patterns")
    for line in report.summary().splitlines():
        print(f"  {line}")
    print(f"Generated SQL on sqlite3 agrees: {sql_result == ours}")

    print("\nGenerated statements for cold-chain-zone, one per normal form:")
    for statement in violation_sql(RULES[0], "STOCK"):
        print(f"  {statement};")

    # -- distributed detection --------------------------------------------------
    cluster = partition_by_attribute(stock, "depot")
    print(f"\nDistributed over {cluster.n_sites} depot sites:")
    single = pat_detect_s(cluster, RULES[3])
    print(
        f"  depot-zone via PATDETECTS: shipped {single.tuples_shipped} tuples, "
        f"agrees: {single.report.violations == detect_violations(stock, RULES[3], collect_tuples=False).violations}"
    )
    multi = clust_detect(cluster, RULES)
    print(
        f"  all rules via CLUSTDETECT: shipped {multi.tuples_shipped} tuples, "
        f"{len(multi.report)} violating patterns, agrees: "
        f"{multi.report.violations == report.violations}"
    )
    print(
        "\nNote the semantics: a predicate RHS like {'C1'|'C2'} keeps the "
        "embedded FD's pairwise requirement (two cold-chain tuples with "
        "equal LHS must also agree on zone), unlike a constant RHS which "
        "implies it — so these rules ship data for their GROUP BY part, "
        "while their membership checks run locally like constant CFDs."
    )


if __name__ == "__main__":
    main()

"""A TPC-H-shaped multi-table violation workload with exact ground truth.

The 8-table TPC-H schema (region, nation, supplier, customer, part,
partsupp, orders, lineitem) generated clean-by-construction at a scale
factor, with per-table CFD families and **seeded violation injection at a
controlled ratio** — the ``build → inject → check`` pattern of the
TupleMeasure-style artifacts ROADMAP item 2 calls for.  This is the first
multi-table scenario tier and the natural workload for the ``sql`` engine
(each table loads once into its database handle; every engine must agree
with the manifest).

The generator's contract is an *exact* manifest, not a statistical one:

* data is clean by construction — every CFD family holds on the freshly
  built tables (functional maps like ``n_regionkey → n_region`` are
  applied, never sampled independently);
* injection corrupts the RHS of previously-clean tuples with fresh values
  that cannot collide with the domain (string corruptions carry a unique
  ``~bad{k}`` suffix, integer corruptions start at 99000), so each
  corruption creates exactly the violations it accounts for;
* for a *variable* family, each injection picks a distinct X-group with at
  least two members and corrupts one member: exactly one ``Vioπ`` entry
  per chosen group, and every group member becomes a violating tuple;
* for a *constant* family, each injection corrupts a distinct matching
  row: the expected ``Vioπ`` count is the number of distinct X projections
  among the corrupted rows (patterns sharing an X value merge, as in the
  paper's ``Vioπ`` semantics), and each corrupted row is one violating
  tuple.

``tests/test_datagen_tpch.py`` asserts the detected counts equal the
manifest across all three engines, seeds and scale factors.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from ..core import CFD, PatternTuple, normalize, tuple_matches
from ..relational import Relation, Schema, save_csv

#: the 8 TPC-H tables, in population order
TPCH_TABLES = (
    "region",
    "nation",
    "supplier",
    "customer",
    "part",
    "partsupp",
    "orders",
    "lineitem",
)

#: TPC-H cardinalities at SF 1 (region and nation are fixed-size)
_BASE_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
}

#: floors so tiny scale factors still exercise every family
_MIN_ROWS = {
    "supplier": 10,
    "customer": 20,
    "part": 20,
    "partsupp": 40,
    "orders": 30,
    "lineitem": 60,
}

TPCH_SCHEMAS = {
    "region": Schema(
        "region", ("r_regionkey", "r_name", "r_comment"), key=("r_regionkey",)
    ),
    "nation": Schema(
        "nation",
        ("n_nationkey", "n_name", "n_regionkey", "n_region"),
        key=("n_nationkey",),
    ),
    "supplier": Schema(
        "supplier",
        ("s_suppkey", "s_name", "s_nationkey", "s_nation", "s_acctbal"),
        key=("s_suppkey",),
    ),
    "customer": Schema(
        "customer",
        ("c_custkey", "c_name", "c_nationkey", "c_mktsegment", "c_segmentcode"),
        key=("c_custkey",),
    ),
    "part": Schema(
        "part",
        ("p_partkey", "p_name", "p_brand", "p_mfgr", "p_type"),
        key=("p_partkey",),
    ),
    "partsupp": Schema(
        "partsupp",
        ("ps_partkey", "ps_suppkey", "ps_availqty", "ps_suppnation"),
        key=("ps_partkey", "ps_suppkey"),
    ),
    "orders": Schema(
        "orders",
        (
            "o_orderkey",
            "o_custkey",
            "o_orderstatus",
            "o_statusdesc",
            "o_orderpriority",
            "o_shippriority",
        ),
        key=("o_orderkey",),
    ),
    "lineitem": Schema(
        "lineitem",
        (
            "l_orderkey",
            "l_linenumber",
            "l_shipmode",
            "l_shipcode",
            "l_returnflag",
            "l_returndesc",
        ),
        key=("l_orderkey", "l_linenumber"),
    ),
}

_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_SHIPMODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
_STATUSES = (("F", "finished"), ("O", "open"), ("P", "pending"))
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_RETURNFLAGS = (("A", "accepted"), ("N", "none"), ("R", "returned"))
_TYPES = ("ECONOMY", "STANDARD", "PROMO", "SMALL", "LARGE")


def _nation_name(nationkey: int) -> str:
    return f"nation_{nationkey:02d}"


def _brand(index: int) -> str:
    return f"Brand#{index // 5 + 1}{index % 5 + 1}"


def _mfgr(index: int) -> str:
    return f"Manufacturer#{index // 5 + 1}"


def tpch_rows(scale_factor: float) -> dict[str, int]:
    """Per-table row counts at a scale factor (with small-SF floors)."""
    counts = {"region": 5, "nation": 25}
    for table, base in _BASE_ROWS.items():
        if table in counts:
            continue
        counts[table] = max(_MIN_ROWS[table], int(base * scale_factor))
    return counts


def build_tpch(scale_factor: float = 0.01, seed: int = 7) -> dict[str, Relation]:
    """The 8 tables, clean by construction, deterministic given the seed."""
    rng = random.Random(seed)
    counts = tpch_rows(scale_factor)

    region = [
        (i, name, f"comment about {name.lower()}")
        for i, name in enumerate(_REGIONS)
    ]
    nation = [
        (i, _nation_name(i), i % 5, _REGIONS[i % 5]) for i in range(25)
    ]
    supplier = [
        (
            i + 1,
            f"Supplier#{i + 1:06d}",
            i % 25,
            _nation_name(i % 25),
            round(rng.uniform(-999.0, 9999.0), 2),
        )
        for i in range(counts["supplier"])
    ]
    customer = []
    for i in range(counts["customer"]):
        segment = rng.randrange(len(_SEGMENTS))
        customer.append(
            (
                i + 1,
                f"Customer#{i + 1:06d}",
                rng.randrange(25),
                _SEGMENTS[segment],
                f"SEG-{segment}",
            )
        )
    part = []
    for i in range(counts["part"]):
        brand = rng.randrange(25)
        part.append(
            (
                i + 1,
                f"part_{i + 1}",
                _brand(brand),
                _mfgr(brand),
                f"{rng.choice(_TYPES)} {rng.choice(('BRASS', 'STEEL', 'TIN'))}",
            )
        )
    n_part, n_supp = counts["part"], counts["supplier"]
    partsupp = []
    for j in range(counts["partsupp"]):
        partkey = j % n_part + 1
        suppkey = (j % n_part + j // n_part) % n_supp + 1
        partsupp.append(
            (
                partkey,
                suppkey,
                rng.randrange(1, 10_000),
                _nation_name((suppkey - 1) % 25),
            )
        )
    orders = []
    for i in range(counts["orders"]):
        status, description = rng.choice(_STATUSES)
        priority = rng.choice(_PRIORITIES)
        orders.append(
            (
                i + 1,
                rng.randrange(1, counts["customer"] + 1),
                status,
                description,
                priority,
                1 if priority == "1-URGENT" else 0,
            )
        )
    n_orders = counts["orders"]
    lineitem = []
    for j in range(counts["lineitem"]):
        shipmode = rng.randrange(len(_SHIPMODES))
        flag, description = rng.choice(_RETURNFLAGS)
        lineitem.append(
            (
                j % n_orders + 1,
                j // n_orders + 1,
                _SHIPMODES[shipmode],
                f"SM{shipmode}",
                flag,
                description,
            )
        )

    bodies = {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "customer": customer,
        "part": part,
        "partsupp": partsupp,
        "orders": orders,
        "lineitem": lineitem,
    }
    return {
        table: Relation(TPCH_SCHEMAS[table], bodies[table], copy=False)
        for table in TPCH_TABLES
    }


def tpch_cfds() -> dict[str, list[CFD]]:
    """Per-table CFD families (all hold on freshly built tables).

    Families sharing a table use disjoint attribute sets, so injections
    never interact and the manifest counts stay exact per family.
    """

    def fd(lhs, rhs, name):
        return CFD(lhs, rhs, name=name)

    region_tableau = [
        PatternTuple((name,), (key,)) for key, name in enumerate(_REGIONS)
    ]
    orders_urgent = CFD(
        ("o_orderpriority",),
        ("o_shippriority",),
        [PatternTuple(("1-URGENT",), (1,))],
        name="orders_urgent_priority",
    )
    lineitem_return = CFD(
        ("l_returnflag",),
        ("l_returndesc",),
        [PatternTuple(("N",), ("none",))],
        name="lineitem_return_none",
    )
    return {
        "region": [
            CFD(
                ("r_name",),
                ("r_regionkey",),
                region_tableau,
                name="region_name_key",
            )
        ],
        "nation": [fd(("n_regionkey",), ("n_region",), "nation_region")],
        "supplier": [fd(("s_nationkey",), ("s_nation",), "supplier_nation")],
        "customer": [
            fd(("c_mktsegment",), ("c_segmentcode",), "customer_segment")
        ],
        "part": [fd(("p_brand",), ("p_mfgr",), "part_brand_mfgr")],
        "partsupp": [
            fd(("ps_suppkey",), ("ps_suppnation",), "partsupp_supplier_nation")
        ],
        "orders": [
            fd(("o_orderstatus",), ("o_statusdesc",), "orders_status_desc"),
            orders_urgent,
        ],
        "lineitem": [
            fd(("l_shipmode",), ("l_shipcode",), "lineitem_shipmode_code"),
            lineitem_return,
        ],
    }


def _corrupt(value: object, counter: int) -> object:
    """A fresh value guaranteed outside the clean domain."""
    if isinstance(value, str):
        return f"{value}~bad{counter}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot corrupt {value!r}")
    return 99_000 + counter


def _inject_variable(rows, schema, cfd, ratio, rng, counter):
    """Corrupt one member each of ``ratio`` of the eligible X-groups."""
    normalized = normalize(cfd)
    (variable,) = normalized.variables
    lhs_pos = schema.positions(variable.lhs)
    rhs_attr = variable.rhs[0]
    rhs_pos = schema.position(rhs_attr)

    groups: dict[tuple, list[int]] = {}
    for index, row in enumerate(rows):
        x = tuple(row[p] for p in lhs_pos)
        if variable.matches_some_pattern(x):
            groups.setdefault(x, []).append(index)
    eligible = sorted(x for x, members in groups.items() if len(members) >= 2)
    n_inject = min(len(eligible), max(1, round(ratio * len(eligible))))
    chosen = rng.sample(eligible, n_inject) if n_inject else []

    violating_tuples = 0
    for x in chosen:
        members = groups[x]
        victim = rng.choice(members)
        row = list(rows[victim])
        row[rhs_pos] = _corrupt(row[rhs_pos], next(counter))
        rows[victim] = tuple(row)
        violating_tuples += len(members)
    return {
        "kind": "variable",
        "injected_rows": len(chosen),
        "expected_violations": len(chosen),
        "expected_violating_tuples": violating_tuples,
    }


def _inject_constant(rows, schema, cfd, ratio, rng, counter):
    """Corrupt ``ratio`` of the rows matching some constant pattern."""
    normalized = normalize(cfd)
    lhs_pos = schema.positions(cfd.lhs)
    eligible: dict[int, object] = {}  # row index -> the matched form
    for form in normalized.constants:
        cond_pos = schema.positions(form.lhs)
        rhs_pos = schema.position(form.rhs_attr)
        for index, row in enumerate(rows):
            if index in eligible:
                continue
            values = tuple(row[p] for p in cond_pos)
            if not tuple_matches(values, form.values):
                continue  # LHS does not match this pattern
            if row[rhs_pos] == form.rhs_value:
                eligible[index] = form
    indices = sorted(eligible)
    n_inject = min(len(indices), max(1, round(ratio * len(indices)))) if indices else 0
    chosen = rng.sample(indices, n_inject) if n_inject else []

    x_values = set()
    for index in chosen:
        form = eligible[index]
        rhs_pos = schema.position(form.rhs_attr)
        row = list(rows[index])
        row[rhs_pos] = _corrupt(row[rhs_pos], next(counter))
        rows[index] = tuple(row)
        x_values.add(tuple(rows[index][p] for p in lhs_pos))
    return {
        "kind": "constant",
        "injected_rows": len(chosen),
        "expected_violations": len(x_values),
        "expected_violating_tuples": len(chosen),
    }


def inject_violations(
    tables: dict[str, Relation],
    ratio: float = 0.02,
    seed: int = 7,
    families: dict[str, list[CFD]] | None = None,
) -> tuple[dict[str, Relation], dict]:
    """Seeded injection at a controlled ratio, with an exact manifest.

    Returns ``(dirty_tables, manifest)``; the input tables are untouched.
    The manifest records, per table and CFD family, the injected row count
    and the exact expected ``Vioπ`` and violating-tuple counts — detection
    with any engine must reproduce them (``tests/test_datagen_tpch.py``).
    """
    if families is None:
        families = tpch_cfds()
    dirty: dict[str, Relation] = {}
    manifest: dict = {
        "seed": seed,
        "ratio": ratio,
        "tables": {},
    }
    for table in TPCH_TABLES:
        relation = tables[table]
        schema = relation.schema
        rows = list(relation.rows)
        entry: dict = {"rows": len(rows), "families": {}}
        counter = iter(range(10**9))
        for cfd in families.get(table, ()):
            rng = random.Random(f"{seed}:{table}:{cfd.name}")
            normalized = normalize(cfd)
            if normalized.variables:
                stats = _inject_variable(
                    rows, schema, cfd, ratio, rng, counter
                )
            else:
                stats = _inject_constant(rows, schema, cfd, ratio, rng, counter)
            entry["families"][cfd.name] = stats
        dirty[table] = Relation(schema, rows, copy=False)
        manifest["tables"][table] = entry
    return dirty, manifest


def generate_tpch(
    scale_factor: float = 0.01, seed: int = 7, ratio: float = 0.02
) -> tuple[dict[str, Relation], dict]:
    """``build_tpch`` + ``inject_violations`` in one call."""
    tables = build_tpch(scale_factor, seed)
    dirty, manifest = inject_violations(tables, ratio, seed)
    manifest["scale_factor"] = scale_factor
    return dirty, manifest


def write_tpch(
    out_dir: str | Path,
    scale_factor: float = 0.01,
    seed: int = 7,
    ratio: float = 0.02,
) -> dict:
    """Write ``<table>.csv`` per table plus ``manifest.json``; returns the
    manifest (the ``repro datagen tpch`` CLI path)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables, manifest = generate_tpch(scale_factor, seed, ratio)
    for name, relation in tables.items():
        save_csv(relation, out / f"{name}.csv")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest

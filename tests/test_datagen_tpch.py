"""TPC-H workload ground truth: manifest counts == detected counts.

The generator's contract is *exact*: the injection manifest records, per
table and CFD family, how many ``Vioπ`` entries and violating tuples the
corruption created, and every engine — reference, fused and sql —
must detect exactly those numbers, at multiple seeds and scale
factors.  Also covers: clean-by-construction tables, deterministic
regeneration, and the CSV/manifest writer behind ``repro datagen tpch``.
"""

import json

import pytest

from repro.core import ENGINES, close_sql_handles, detect_violations
from repro.datagen import (
    TPCH_SCHEMAS,
    TPCH_TABLES,
    build_tpch,
    generate_tpch,
    inject_violations,
    tpch_cfds,
    tpch_rows,
    write_tpch,
)
from repro.relational import load_csv

#: two seeds x two scale factors (the acceptance criterion); ratio high
#: enough that most families inject more than one group
CASES = [(0.002, 11), (0.005, 7)]
RATIO = 0.1


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"sf{c[0]}-seed{c[1]}")
def workload(request):
    scale_factor, seed = request.param
    clean = build_tpch(scale_factor, seed=seed)
    dirty, manifest = inject_violations(clean, ratio=RATIO, seed=seed)
    yield clean, dirty, manifest
    close_sql_handles()


def test_clean_by_construction(workload):
    clean, _dirty, _manifest = workload
    for table, family in tpch_cfds().items():
        report = detect_violations(clean[table], family, engine="reference")
        assert report.is_clean(), (table, report.violations)


def test_schema_shape(workload):
    clean, _dirty, manifest = workload
    assert set(clean) == set(TPCH_TABLES) == set(TPCH_SCHEMAS)
    for table in TPCH_TABLES:
        assert len(clean[table].rows) == manifest["tables"][table]["rows"]


def test_manifest_counts_match_detection_on_every_engine(workload):
    _clean, dirty, manifest = workload
    checked = 0
    for table, family in tpch_cfds().items():
        for cfd in family:
            expected = manifest["tables"][table]["families"][cfd.name]
            for engine in ENGINES:
                report = detect_violations(dirty[table], cfd, engine=engine)
                assert len(report.for_cfd(cfd.name)) == (
                    expected["expected_violations"]
                ), (table, cfd.name, engine)
                assert len(report.tuple_keys) == (
                    expected["expected_violating_tuples"]
                ), (table, cfd.name, engine)
                checked += 1
    assert checked >= 10 * len(ENGINES)  # 10 families, every engine


def test_some_family_actually_fires(workload):
    _clean, _dirty, manifest = workload
    totals = [
        stats["expected_violations"]
        for entry in manifest["tables"].values()
        for stats in entry["families"].values()
    ]
    assert sum(totals) >= 8  # the workload is not trivially clean


def test_generation_is_deterministic():
    scale_factor, seed = CASES[0]
    first_tables, first_manifest = generate_tpch(scale_factor, seed, RATIO)
    second_tables, second_manifest = generate_tpch(scale_factor, seed, RATIO)
    assert first_manifest == second_manifest
    for table in TPCH_TABLES:
        assert first_tables[table].rows == second_tables[table].rows


def test_injection_leaves_input_untouched():
    clean = build_tpch(0.002, seed=3)
    snapshot = {table: tuple(clean[table].rows) for table in TPCH_TABLES}
    inject_violations(clean, ratio=RATIO, seed=3)
    for table in TPCH_TABLES:
        assert tuple(clean[table].rows) == snapshot[table]


def test_tpch_rows_scaling_and_floors():
    tiny = tpch_rows(0.0001)
    assert tiny["region"] == 5 and tiny["nation"] == 25
    assert tiny["supplier"] == 10  # floor
    sf1 = tpch_rows(1.0)
    assert sf1["lineitem"] == 6_000_000 and sf1["orders"] == 1_500_000


def test_write_tpch_round_trips(tmp_path):
    manifest = write_tpch(tmp_path, scale_factor=0.001, seed=5, ratio=RATIO)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    for table in TPCH_TABLES:
        path = tmp_path / f"{table}.csv"
        assert path.exists()
    nation = load_csv(
        tmp_path / "nation.csv",
        key=("n_nationkey",),
        converters={"n_nationkey": int, "n_regionkey": int},
    )
    assert len(nation.rows) == manifest["tables"]["nation"]["rows"]
    # the injected violation survives the CSV round trip
    cfd = next(
        c for c in tpch_cfds()["nation"] if c.name == "nation_region"
    )
    report = detect_violations(nation, cfd, engine="sql")
    expected = manifest["tables"]["nation"]["families"]["nation_region"]
    assert len(report.for_cfd(cfd.name)) == expected["expected_violations"]

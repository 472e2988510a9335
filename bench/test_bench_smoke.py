"""Smoke test of the benchmark command: names, determinism, oracles.

Runs ``bench/run.py --quick`` (2K rows, 10 ops per workload, the serve
child included) and asserts what must hold on any host.  No timing
assertions: the numbers of a quick run mean nothing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = [m.name for m in PER_LAYER if m.exact]


def bench(*args, cwd=ROOT, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def quick(workload, seed, trace, out):
    """One quick run -> (result line, full record)."""
    done = bench(
        "--workload", workload, "--seed", str(seed), "--quick",
        "--trace", str(trace), "--out", str(out),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((out / f"{workload}.trace{trace}.json").read_text())
    return result, record, done.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: seed 8 untraced and traced; one workload also with
    seed 9.  No timing is asserted, so the runs may share the host's cores."""
    jobs = {}
    with ThreadPoolExecutor(max_workers=3) as pool:
        for label, seed, trace, workloads in (
            ("plain", 8, 0, WORKLOADS), ("traced", 8, 1, WORKLOADS),
            ("other", 9, 1, ["oneshot_cold"]),
        ):
            for workload in workloads:
                out = tmp_path_factory.mktemp(f"{workload}-{label}")
                jobs[workload, label] = pool.submit(
                    quick, workload, seed, trace, out
                )
        return {key: job.result() for key, job in jobs.items()}


def test_benchmark_json_is_the_catalogue_and_fits_the_contract():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == benchmark_json(
        declared["command"], declared["paths"], declared["run_seconds"]
    )
    assert declared["paths"] == ["bench"]
    assert 1 <= declared["run_seconds"] <= 60
    assert len(declared["workloads"]) == 7
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in declared["workloads"]]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        names.append(metric["name"])
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(name.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        declared["end_to_end"][0].items()
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_and_nothing_else(runs, workload):
    for label, declared in (
        ("plain", [(n, u) for n, u, *_ in END_TO_END]),
        ("traced", [(m.name, m.unit) for m in PER_LAYER]),
    ):
        result, record, stdout = runs[workload, label]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert [
            (n, m["unit"]) for n, m in result["metrics"].items()
        ] == declared
        printed = [
            line.split()[0] for line in stdout.splitlines()[1:-1]
            if not line.startswith("note:")
        ]
        assert printed == [n for n, _unit in declared]
        # GammaResult-style provenance on every record
        for metric in record["metrics"].values():
            assert set(metric) == {"value", "unit", "n", "status"}
        assert record["size"]["rows"] == 2000
        assert {"git_sha", "seed", "host", "stripped_env"} <= set(
            record["provenance"]
        )
    on_path = [
        m.name for m in PER_LAYER if workload in m.workloads
    ]
    statuses = runs[workload, "traced"][1]["metrics"]
    assert [n for n, m in statuses.items() if m["status"] == "ok"] == on_path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream_and_counts(runs, workload):
    """Two processes, one seed: byte-identical op streams, equal counts."""
    plain, traced = (runs[workload, label][1] for label in ("plain", "traced"))
    assert plain["op_stream_sha256"] == traced["op_stream_sha256"]
    # the traced run counts at more boundaries, never differently
    assert plain["counts"].items() <= traced["counts"].items()
    assert not plain["problems"] and not traced["problems"]


def test_another_seed_another_stream_and_counts(runs):
    traced, other = (
        runs["oneshot_cold", label][1] for label in ("traced", "other")
    )
    assert traced["op_stream_sha256"] != other["op_stream_sha256"]
    assert traced["counts"] != other["counts"]


def test_a_corrupted_oracle_report_fails_the_run(tmp_path):
    done = bench(
        "--workload", "oneshot_warm", "--quick", "--corrupt-oracle",
        "--out", str(tmp_path),
    )
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "INCORRECT" in done.stdout


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench",
        ignore=shutil.ignore_patterns("OUT", "__pycache__"),
    )
    done = bench(
        "--workload", "oneshot_cold", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, run_py=tmp_path / "bench" / "run.py",
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

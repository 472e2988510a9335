"""Tests for the command-line interface and CSV io."""

import os

import pytest

from repro.cli import main
from repro.datagen import emp_instance
from repro.knobs import KNOBS, resolve
from repro.relational import Relation, Schema, infer_column_types, load_csv, save_csv


@pytest.fixture()
def emp_csv(tmp_path):
    path = tmp_path / "emp.csv"
    save_csv(emp_instance(), path)
    return str(path)


# -- CSV io -------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    original = emp_instance()
    path = tmp_path / "emp.csv"
    save_csv(original, path)
    loaded = infer_column_types(
        load_csv(path, name="EMP", key=["id"])
    )
    assert loaded.schema.attributes == original.schema.attributes
    assert loaded.rows == original.rows  # numeric columns restored


def test_load_csv_with_converters(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,v\n1,2.5\n2,3.5\n")
    loaded = load_csv(path, converters={"id": int, "v": float})
    assert loaded.rows == [(1, 2.5), (2, 3.5)]


def test_infer_column_types_mixed_column_stays_text():
    schema = Schema("R", ["a", "b"], key=["a"])
    relation = Relation(schema, [("1", "x"), ("2", "3")])
    inferred = infer_column_types(relation)
    assert inferred.rows == [(1, "x"), (2, "3")]  # only column a converts


def test_infer_column_types_float():
    schema = Schema("R", ["a"], key=["a"])
    relation = Relation(schema, [("1.5",), ("2",)])
    assert infer_column_types(relation).rows == [(1.5,), (2.0,)]


# -- check --------------------------------------------------------------------


def test_cli_check_reports_violations(emp_csv, capsys):
    code = main(["check", "--data", emp_csv, "--cfd", "([CC=44, zip] -> [street])"])
    output = capsys.readouterr().out
    assert code == 1
    assert "1 violating pattern" in output
    assert "(2,)" in output  # t2 among the violating keys


def test_cli_check_clean_exits_zero(emp_csv, capsys):
    code = main(["check", "--data", emp_csv, "--cfd", "([CC, title] -> [salary])"])
    assert code == 0
    assert "no violations" in capsys.readouterr().out


# -- detect -------------------------------------------------------------------


@pytest.mark.parametrize(
    "algorithm", ["ctr", "pat-s", "pat-rt", "seq", "clust", "naive"]
)
def test_cli_detect_all_algorithms(emp_csv, capsys, algorithm):
    code = main(
        [
            "detect",
            "--data", emp_csv,
            "--cfd", "([CC=44, zip] -> [street])",
            "--cfd", "([CC=31, zip] -> [street])",
            "--sites", "3",
            "--algorithm", algorithm,
        ]
    )
    output = capsys.readouterr().out
    assert code == 1
    assert "tuples shipped" in output


def test_cli_detect_partition_by_attribute(emp_csv, capsys):
    code = main(
        [
            "detect",
            "--data", emp_csv,
            "--cfd", "([CC=44, zip] -> [street])",
            "--partition-by", "title",
            "--algorithm", "pat-s",
        ]
    )
    output = capsys.readouterr().out
    assert code == 1
    assert "Cluster(3 sites" in output


@pytest.mark.parametrize("algorithm", ["clust", "pat-s"])
@pytest.mark.parametrize("kind", ["mixed", "insert", "delete"])
@pytest.mark.parametrize(
    "cfd",
    ["([CC=44, zip] -> [street])", "([CC, title] -> [salary])", "([CC, AC] -> [city])"],
)
def test_cli_detect_updates(emp_csv, capsys, algorithm, kind, cfd):
    """``detect --updates``: the update line reports the batch's violation
    delta, and the exit code is 1 iff violations remain after it — both
    checked against the reference engine on the same synthetic batch."""
    import re

    from repro.cli import _load_cfds, _synthetic_update_batch
    from repro.core import detect_violations_reference
    from repro.partition import partition_uniform

    code = main(
        [
            "detect",
            "--data", emp_csv,
            "--cfd", cfd,
            "--sites", "3",
            "--algorithm", algorithm,
            "--updates", "0.3",
            "--update-kind", kind,
        ]
    )
    output = capsys.readouterr().out

    relation = infer_column_types(load_csv(emp_csv))
    sigma = _load_cfds([cfd])
    cluster = partition_uniform(relation, 3)
    site, inserted, doomed = _synthetic_update_batch(
        cluster, sigma, 0.3, kind
    )
    gone = set(doomed)
    after = [row for row in relation.rows if (row[0],) not in gone] + inserted
    before = detect_violations_reference(relation, sigma).violations
    now = detect_violations_reference(
        Relation(relation.schema, after), sigma
    ).violations
    line = re.search(
        rf"  update \|ΔD\|={len(inserted) + len(doomed)} rows \({kind}\) "
        rf"at site {cluster.sites[site].name}: \+(\d+) / -(\d+) violations, "
        rf"\d+ delta codes shipped, response \d+\.\d{{3}}s\n",
        output,
    )
    assert line is not None, output
    assert (int(line[1]), int(line[2])) == (
        len(now - before),
        len(before - now),
    )
    assert code == (1 if now else 0)


# -- sql ------------------------------------------------------------------------


def test_cli_sql(capsys):
    code = main(["sql", "--cfd", "([a=1] -> [b='x'])", "--table", "T"])
    output = capsys.readouterr().out
    assert code == 0
    assert 'FROM "T"' in output and "IS NOT TRUE" in output
    assert "NOT (" not in output
    assert output.count(";") == 1  # one statement per normal form


# -- figures ----------------------------------------------------------------------


def test_cli_figures_subset(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.002")
    code = main(["figures", "--only", "fig3d", "--out", str(tmp_path)])
    output = capsys.readouterr().out
    assert code == 0
    assert "fig3d" in output
    assert (tmp_path / "fig3d.txt").exists()


def test_cli_figures_unknown(capsys):
    code = main(["figures", "--only", "fig9z"])
    assert code == 2
    assert "unknown figures" in capsys.readouterr().err


# -- --engine -------------------------------------------------------------------


def test_cli_check_engine_sql(emp_csv, capsys):
    code = main([
        "check", "--data", emp_csv, "--engine", "sql",
        "--cfd", "([CC=44, zip] -> [street])",
    ])
    output = capsys.readouterr().out
    assert code == 1
    assert "1 violating pattern" in output
    assert "(2,)" in output  # same keys as the reference engine
    assert os.environ.get("REPRO_ENGINE") is None  # override was scoped


def test_cli_detect_engine_sql(emp_csv, capsys):
    code = main([
        "detect", "--data", emp_csv, "--sites", "2", "--engine", "sql",
        "--cfd", "([CC=44, zip] -> [street])",
    ])
    output = capsys.readouterr().out
    assert code == 1
    assert "violating pattern" in output
    assert os.environ.get("REPRO_ENGINE") is None


def test_cli_engine_flag_restores_previous_value(emp_csv, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fused")
    main([
        "check", "--data", emp_csv, "--engine", "reference",
        "--cfd", "([CC, title] -> [salary])",
    ])
    capsys.readouterr()
    assert os.environ["REPRO_ENGINE"] == "fused"


def test_cli_unknown_engine_env_exits_2(emp_csv, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    code = main(["check", "--data", emp_csv, "--cfd", "([a] -> [b])"])
    assert code == 2
    assert "unknown REPRO_ENGINE" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", "0", "nan", "inf", ""])
def test_cli_bad_scale_env_exits_2(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", value)
    code = main(["figures", "--only", "fig3a", "--out", str(tmp_path)])
    assert code == 2
    assert "REPRO_SCALE must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_stale_scheduler_surface_exits_2(emp_csv, capsys, monkeypatch):
    """The scheduler's fault kinds and flags are gone, loudly."""
    monkeypatch.setenv("REPRO_FAULTS", "crash@0")
    assert main(["sql", "--cfd", "([a] -> [b])"]) == 2
    error = capsys.readouterr().err
    assert "unknown fault kind 'crash'" in error
    assert len(error.strip().splitlines()) == 1
    monkeypatch.delenv("REPRO_FAULTS")
    with pytest.raises(SystemExit) as exit_info:  # argparse's own exit
        main([
            "detect", "--data", emp_csv, "--cfd", "([a] -> [b])",
            "--workers", "4",
        ])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


def test_cli_removed_fused_numpy_engine_exits_2(emp_csv, capsys, monkeypatch):
    """``fused-numpy`` folded into ``fused``; the old name is gone, loudly."""
    monkeypatch.setenv("REPRO_ENGINE", "fused-numpy")
    assert main(["sql", "--cfd", "([a] -> [b])"]) == 2
    error = capsys.readouterr().err
    assert "unknown REPRO_ENGINE 'fused-numpy'" in error
    assert len(error.strip().splitlines()) == 1
    monkeypatch.delenv("REPRO_ENGINE")
    with pytest.raises(SystemExit) as exit_info:  # argparse's own exit
        main([
            "check", "--data", emp_csv, "--cfd", "([a] -> [b])",
            "--engine", "fused-numpy",
        ])
    assert exit_info.value.code == 2
    assert "invalid choice: 'fused-numpy'" in capsys.readouterr().err


def test_readme_knob_table_matches_the_knobs_src_reads():
    """A knob cannot be added or removed without its README row, and
    each row's default (first of "Values") is the table's default."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    rows = dict(
        re.findall(
            r"^\| `(REPRO_[A-Z_]+)` \| `?([^`,| ]+)",
            (root / "README.md").read_text(),
            re.MULTILINE,
        )
    )
    read = {
        name
        for source in (root / "src").rglob("*.py")
        # the lookahead skips glob mentions such as ``REPRO_SERVE_*``
        for name in re.findall(r"REPRO_[A-Z_]+(?![A-Z_*])", source.read_text())
    }
    assert read and set(rows) == read == set(KNOBS)
    for name, shown in rows.items():
        knob = KNOBS[name]
        default = None if shown == "unset" else knob.parse(name, shown)
        assert default == knob.default, name


#: one value per knob that its parser must reject
BAD_KNOB_VALUES = {
    "REPRO_ENGINE": "turbo",
    "REPRO_FAULTS": "bogus@0",
    "REPRO_SCALE": "0",
    "REPRO_SERVE_MAX_SESSIONS": "bogus",
    "REPRO_SERVE_QUEUE": "0",
    "REPRO_SERVE_COALESCE": "0",
    "REPRO_SERVE_FSYNC": "sometimes",
    "REPRO_SERVE_CHECKPOINT": "many",
    "REPRO_SERVE_TIMEOUT": "-1",
    "REPRO_SERVE_TENANT_SESSIONS": "-1",
    "REPRO_SERVE_RATE": "fast",
    "REPRO_SERVE_MAX_ROWS": "0",
    "REPRO_SERVE_DEADLINE": "-0.5",
    "REPRO_SERVE_BREAKER": "0",
    "REPRO_SERVE_COOLDOWN": "0",
    "REPRO_SERVE_MAX_BODY": "1.5",
    "REPRO_SERVE_SCRUB": "nan",
    "REPRO_SERVE_SCRUB_SAMPLE": "0",
}


def test_every_knob_has_a_bad_value_case():
    assert set(BAD_KNOB_VALUES) == set(KNOBS)


@pytest.mark.parametrize("knob", sorted(BAD_KNOB_VALUES))
def test_bad_knob_value_exits_2_naming_it(knob, capsys, monkeypatch):
    monkeypatch.setenv(knob, BAD_KNOB_VALUES[knob])
    assert main(["sql", "--cfd", "([a=1] -> [b])"]) == 2
    error = capsys.readouterr().err
    assert knob in error
    assert len(error.strip().splitlines()) == 1


SECONDS_KNOBS = [
    "REPRO_SERVE_TIMEOUT",
    "REPRO_SERVE_RATE",
    "REPRO_SERVE_DEADLINE",
    "REPRO_SERVE_COOLDOWN",
    "REPRO_SERVE_SCRUB",
]


@pytest.mark.parametrize("knob", SECONDS_KNOBS)
def test_non_finite_seconds_knob_exits_2(knob, capsys, monkeypatch):
    """``inf`` seconds would pass validation and then kill every
    connection (``settimeout``) or the scrubber thread (``Event.wait``)
    with ``OverflowError``; it is rejected up front instead."""
    monkeypatch.setenv(knob, "inf")
    assert main(["sql", "--cfd", "([a=1] -> [b])"]) == 2
    assert knob in capsys.readouterr().err
    monkeypatch.delenv(knob)
    with pytest.raises(ValueError, match=knob):
        resolve(knob, float("inf"))  # a flag override is checked alike


def test_non_serve_commands_do_not_import_the_service():
    """Validating the serve knobs needs only the knob table, so a plain
    ``repro sql`` leaves the service package unloaded."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['sql', '--cfd', '([a=1] -> [b])']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.serve')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "knob, value",
    [
        ("REPRO_SERVE_QUEUE", "0"),
        ("REPRO_SERVE_MAX_SESSIONS", "bogus"),
        ("REPRO_SERVE_RATE", "-1"),
        ("REPRO_SERVE_BREAKER", "0"),
        ("REPRO_SERVE_COOLDOWN", "0"),
        ("REPRO_SERVE_FSYNC", "bogus"),
        ("REPRO_SERVE_CHECKPOINT", "0"),
        ("REPRO_SERVE_TIMEOUT", "-1"),
    ],
)
def test_bad_serve_knob_exits_loudly(knob, value, tmp_path):
    """``repro serve`` with a bad knob exits 2 naming it, instead of
    serving misconfigured (a server that starts runs into the timeout)."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, **{knob: value})
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--data-dir", str(tmp_path / "data"),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 2, result.stderr
    assert knob in result.stderr


@pytest.mark.parametrize(
    "flag, value, knob",
    [
        ("--fsync", "bogus", "REPRO_SERVE_FSYNC"),
        ("--checkpoint", "0", "REPRO_SERVE_CHECKPOINT"),
    ],
)
def test_bad_durability_flag_exits_without_data_dir(flag, value, knob):
    """A bad ``--fsync`` / ``--checkpoint`` flag exits 2 naming its knob
    even without ``--data-dir`` (where the value would go unused), as
    the same bad value in the environment does."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0", flag, value],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 2, result.stderr
    assert knob in result.stderr


# -- datagen ------------------------------------------------------------------


def test_cli_datagen_tpch_writes_manifest_and_csvs(tmp_path, capsys):
    out = tmp_path / "tp"
    code = main([
        "datagen", "tpch", "--sf", "0.001", "--seed", "5",
        "--ratio", "0.05", "--out", str(out),
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "8 tables" in output
    assert "manifest.json" in output
    assert (out / "manifest.json").exists()
    assert (out / "lineitem.csv").exists()

    # the generated workload closes the loop through check --engine sql:
    # the injected nation violation is detected from the CSV on disk
    code = main([
        "check", "--data", str(out / "nation.csv"), "--engine", "sql",
        "--key", "n_nationkey", "--cfd", "([n_regionkey] -> [n_region])",
    ])
    capsys.readouterr()
    import json

    manifest = json.loads((out / "manifest.json").read_text())
    expected = manifest["tables"]["nation"]["families"]["nation_region"]
    assert (code == 1) == (expected["expected_violations"] > 0)

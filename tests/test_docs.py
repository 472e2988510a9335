"""The docs stay true: local links resolve, the README quickstart runs as
printed, and the CLI rejects bad knobs with a nonzero exit."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]


def test_local_links_resolve():
    bad = []
    for page in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = page.read_text()
        for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", text):
            if target.startswith(("http://", "https://")):
                continue
            if not (page.parent / target).exists():
                bad.append(f"{page.relative_to(ROOT)}: broken link -> {target}")
    assert not bad, "\n".join(bad)


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    quickstart = readme.split("## Quickstart", 1)[1]
    snippet = re.search(r"<<'PY'\n(.*?)\nPY\n", quickstart, re.S).group(1)
    namespace: dict = {}
    exec(compile(snippet, "README.md quickstart", "exec"), namespace)
    assert "tuples shipped:" in capsys.readouterr().out
    report, outcome = namespace["report"], namespace["outcome"]
    assert report.violations
    assert outcome.report.violations == report.violations


def run_cli(*args, **env):
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = f"{SRC}{os.pathsep}" + environ.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=environ,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0, result.stderr
    assert "usage" in result.stdout


@pytest.mark.parametrize(
    "knob, value", [("REPRO_ENGINE", "bogus"), ("REPRO_FAULTS", "bogus@0")]
)
def test_cli_rejects_bad_knob(knob, value):
    result = run_cli("sql", "--cfd", "([a=1] -> [b])", **{knob: value})
    assert result.returncode != 0, f"{knob}={value} should exit nonzero"


def _defines(source: str, symbol: str) -> bool:
    """Whether ``source`` defines ``symbol`` (``Class.attr`` part by part)
    as a function, a class or a module- or class-level name."""
    return all(
        re.search(rf"^\s*(?:(?:async\s+)?def|class)\s+{part}\b|^\s*{part}\s*[:=]", source, re.M)
        for part in symbol.split(".")
    )


def test_architecture_paths_and_symbols_resolve():
    """Every backticked ``path.py`` in the architecture doc names a file
    under ``src/repro/``, ``tests/`` or the repo root, and every
    ``path.py::Symbol`` one under ``src/repro/`` or ``tests/`` that
    defines ``Symbol`` — a doc naming a deleted helper fails here."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    bad = []
    for path, symbol in re.findall(r"`([\w/.]+\.py)(?:::([\w.]+))?", text):
        bases = [SRC / "repro", ROOT / "tests"] + ([] if symbol else [ROOT])
        found = [base / path for base in bases if (base / path).is_file()]
        if not found:
            bad.append(f"no file {path}")
        elif symbol and not any(_defines(f.read_text(), symbol) for f in found):
            bad.append(f"{path} does not define {symbol}")
    assert not bad, "\n".join(bad)

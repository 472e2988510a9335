"""Shared fixtures for the benchmark harness.

Every ``test_fig3*`` benchmark regenerates one subfigure of the paper's
Figure 3: it runs the parameter sweep once (printing and persisting the
series under ``results/``), asserts the paper's qualitative shape, and
runs one representative configuration once more.  Nothing here is
timed: ``bench/`` is the one timing instrument.

Dataset sizes follow ``REPRO_SCALE`` (default 0.1 of the paper's sizes).
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture()
def record_table():
    """Print a sweep result and persist it under ``results/``, pinned to
    the committed table at the default scale."""

    def _record(result):
        committed = RESULTS_DIR / f"{result.experiment_id}.txt"
        if "REPRO_SCALE" not in os.environ and committed.exists():
            # the sweeps are seeded, so at the default scale a table that
            # moved is a behaviour change; to re-record on purpose,
            # delete the file and rerun
            assert result.table() + "\n" == committed.read_text(), (
                f"{committed} no longer matches the regenerated table"
            )
        path = result.save(RESULTS_DIR)
        print("\n" + result.table())
        print(f"[saved to {path}]")
        return path

    return _record

"""Shared fixtures: the engine conformance matrix.

The library carries three centralized detection engines — ``reference``
(the executable spec), ``fused`` (single-pass columnar, vectorized folds)
and ``sql`` (the plan compiled to parameterized statements inside a stdlib
sqlite3 database).  Rather than maintaining ad-hoc per-engine copies of
behavioral tests, a test module opts into the matrix with::

    pytestmark = pytest.mark.usefixtures("detection_engine")

which reruns every test in the module once per leg, with ``REPRO_ENGINE``
exported so both the centralized dispatcher
(:func:`repro.core.detect_violations`) and the distributed detectors'
local checks (:mod:`repro.core.fused`) pick the engine up.

There is one leg per engine plus ``fused-numpy``, which is not an engine:
it runs ``fused`` with :data:`repro.relational.columnar.VECTORIZE_MIN_ROWS`
forced to 0, so the matrix's small relations also take the vectorized
composite-key combine (the dense first-seen table and the mixed-radix
``np.unique`` step) instead of the hash loop they get by default.  Columns
encode through the one dictionary loop on every leg.
"""

import pytest

from repro.relational import columnar

#: matrix leg -> (``REPRO_ENGINE`` value, forced ``VECTORIZE_MIN_ROWS``)
LEGS = {
    "reference": ("reference", None),
    "fused": ("fused", None),
    "fused-numpy": ("fused", 0),
    "sql": ("sql", None),
}


def enter_leg(patcher: pytest.MonkeyPatch, leg: str) -> str:
    """Apply one matrix leg to ``patcher``; returns the engine it runs."""
    engine, min_rows = LEGS[leg]
    patcher.setenv("REPRO_ENGINE", engine)
    if min_rows is not None:
        patcher.setattr(columnar, "VECTORIZE_MIN_ROWS", min_rows)
    return engine


@pytest.fixture(scope="module", params=list(LEGS))
def detection_engine(request):
    """Run the requesting module's tests once per matrix leg."""
    patcher = pytest.MonkeyPatch()
    yield enter_leg(patcher, request.param)
    patcher.undo()


@pytest.fixture
def fused_leg(request, monkeypatch):
    """One fused leg, for tests that read a fused session's internals:
    parametrize it indirectly with ``"fused"`` / ``"fused-numpy"``; the
    value is the engine to run."""
    return enter_leg(monkeypatch, request.param)

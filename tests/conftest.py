"""Shared fixtures: the engine conformance matrix.

The library carries four centralized detection engines — ``reference``
(the executable spec), ``fused`` (single-pass columnar, pure-Python folds),
``fused-numpy`` (the same pass with vectorized folds) and ``sql`` (the
plan compiled to parameterized statements inside a stdlib sqlite3
database).  Rather than maintaining ad-hoc per-engine copies of behavioral
tests, a test module opts into the matrix with::

    pytestmark = pytest.mark.usefixtures("detection_engine")

which reruns every test in the module once per engine, with
``REPRO_ENGINE`` exported so both the centralized dispatcher
(:func:`repro.core.detect_violations`) and the distributed detectors'
local checks (:mod:`repro.core.fused`) pick the engine up.  The
``fused-numpy`` leg skips automatically when numpy is not importable (or
is disabled via ``REPRO_NUMPY=0``), so the suite passes unchanged on a
numpy-less interpreter; every other leg runs on the standard library.
"""

import pytest

from repro.core import ENGINES
from repro.relational import numpy_enabled


@pytest.fixture(scope="module", params=ENGINES)
def detection_engine(request):
    """Run the requesting module's tests once per detection engine."""
    engine = request.param
    if engine == "fused-numpy" and not numpy_enabled():
        pytest.skip("numpy not importable (or disabled via REPRO_NUMPY=0)")
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_ENGINE", engine)
    yield engine
    patcher.undo()

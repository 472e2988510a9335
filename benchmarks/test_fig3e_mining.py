"""Exp-4 / Fig 3(e): impact of pattern mining on shipment (xrefH).

Paper shape: instantiating the FD's wildcards with mined closed frequent
patterns cuts the tuples shipped — up to ~80% at small θ — and the benefit
fades once θ exceeds ~0.6 (fewer patterns survive the threshold).
"""

from repro.datagen import xref_mining_fd
from repro.experiments import fig3e
from repro.experiments.figures import _xrefh
from repro.mining import instantiate_with_frequent_patterns
from repro.partition import partition_by_attribute


def test_fig3e(record_table):
    result = fig3e()
    record_table(result)

    baseline = result.series_by_label("PATDETECTS")
    mined = result.series_by_label("PATDETECTS+mining")
    assert all(m <= b for m, b in zip(mined, baseline))
    # strong reduction at the smallest threshold (paper: up to 80%)
    assert mined[0] < 0.5 * baseline[0]
    # the benefit fades for large thresholds
    assert mined[-1] > 0.9 * baseline[-1]
    # reduction fades monotonically in θ, up to small coordinator jitter
    assert all(a <= b * 1.05 for a, b in zip(mined, mined[1:]))

    cluster = partition_by_attribute(_xrefh(), "info_type")
    fd = xref_mining_fd()
    instantiate_with_frequent_patterns(cluster, fd, theta=0.1)

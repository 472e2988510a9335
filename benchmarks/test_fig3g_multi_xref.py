"""Exp-5 / Fig 3(g): response time vs |S|, two overlapping CFDs (xref8).

Paper shape: CLUSTDETECT outperforms SEQDETECT in response time at every
site count (one statistics pass and one shipment per CFD cluster).
"""

from repro.datagen import xref_overlapping_cfds
from repro.detect import seq_detect
from repro.experiments import fig3g
from repro.experiments.figures import _xref8
from repro.partition import partition_uniform


def test_fig3g(record_table):
    result = fig3g()
    record_table(result)

    seq = result.series_by_label("SEQDETECT")
    clust = result.series_by_label("CLUSTDETECT")
    assert all(c < s for c, s in zip(clust, seq))
    assert seq[-1] < seq[0]  # still scales with |S|

    cluster = partition_uniform(_xref8(), 8)
    cfds = xref_overlapping_cfds()
    seq_detect(cluster, cfds, single="rt")

"""Exp-5 / Fig 3(f): shipment vs |S|, two overlapping CFDs (xref8).

Paper shape: CLUSTDETECT constantly ships fewer tuples than SEQDETECT
(merged CFDs ship shared tuples once), and the gap widens with |S|.
"""

from repro.datagen import xref_overlapping_cfds
from repro.detect import clust_detect
from repro.experiments import fig3f
from repro.experiments.figures import _xref8
from repro.partition import partition_uniform


def test_fig3f(record_table):
    result = fig3f()
    record_table(result)

    seq = result.series_by_label("SEQDETECT")
    clust = result.series_by_label("CLUSTDETECT")
    assert all(c < s for c, s in zip(clust, seq))
    # the gap widens as the number of sites increases
    assert (seq[-1] - clust[-1]) > (seq[0] - clust[0])

    cluster = partition_uniform(_xref8(), 8)
    cfds = xref_overlapping_cfds()
    clust_detect(cluster, cfds, strategy="rt")

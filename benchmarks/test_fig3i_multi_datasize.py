"""Exp-6 / Fig 3(i): response time vs |D|, two overlapping CFDs (cust16).

Paper shape: near-linear growth in |D| for both; CLUSTDETECT outperforms
SEQDETECT, and the gap grows with the local fragment size (SEQDETECT
gathers statistics once per CFD, CLUSTDETECT once per cluster).
"""

from repro.datagen import cust_overlapping_cfds
from repro.detect import seq_detect
from repro.experiments import fig3i
from repro.experiments.figures import _cust16
from repro.partition import partition_uniform


def test_fig3i(record_table):
    result = fig3i()
    record_table(result)

    seq = result.series_by_label("SEQDETECT")
    clust = result.series_by_label("CLUSTDETECT")
    assert all(c < s for c, s in zip(clust, seq))
    assert seq == sorted(seq)
    assert clust == sorted(clust)
    # the gap grows with the data size
    assert (seq[-1] - clust[-1]) > (seq[0] - clust[0])

    cluster = partition_uniform(_cust16(), 8)
    cfds = cust_overlapping_cfds()
    seq_detect(cluster, cfds, single="rt")

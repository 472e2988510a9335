"""Exp-5 / Fig 3(h): response time vs |S|, two overlapping CFDs (cust8)."""

from repro.datagen import cust_overlapping_cfds
from repro.detect import clust_detect
from repro.experiments import fig3h
from repro.experiments.figures import _cust8
from repro.partition import partition_uniform


def test_fig3h(record_table):
    result = fig3h()
    record_table(result)

    seq = result.series_by_label("SEQDETECT")
    clust = result.series_by_label("CLUSTDETECT")
    assert all(c < s for c, s in zip(clust, seq))
    assert clust[-1] < clust[0]

    cluster = partition_uniform(_cust8(), 8)
    cfds = cust_overlapping_cfds()
    clust_detect(cluster, cfds, strategy="rt")

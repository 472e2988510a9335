"""Exp-2 / Fig 3(c): scalability with |D| on cust16, 8 sites.

Paper shape: both CTRDETECT and PATDETECTRT grow (near-)linearly with the
data size; at the largest size PATDETECTRT is more than two times faster.
"""

from repro.datagen import cust_street_cfd
from repro.detect import ctr_detect
from repro.experiments import fig3c
from repro.experiments.figures import _cust16
from repro.partition import partition_uniform


def test_fig3c(record_table):
    result = fig3c()
    record_table(result)

    ctr = result.series_by_label("CTRDETECT")
    pat_rt = result.series_by_label("PATDETECTRT")
    # monotone growth with |D|
    assert ctr == sorted(ctr)
    assert pat_rt == sorted(pat_rt)
    # roughly linear: doubling the data at most ~2.5x the time
    assert ctr[-1] / ctr[4] < 2.5
    # PATDETECTRT more than twice as fast at the largest dataset
    assert ctr[-1] / pat_rt[-1] > 2.0

    cluster = partition_uniform(_cust16(), 8)
    cfd = cust_street_cfd(255)
    ctr_detect(cluster, cfd)

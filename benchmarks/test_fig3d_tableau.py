"""Exp-3 / Fig 3(d): scalability with |Tp| on cust8, 8 sites.

Paper shape: response time grows (near-)linearly as the pattern tableau
grows from 50 to 255 pattern tuples — more patterns means more matching
tuples shipped — with PATDETECTRT doing much better than CTRDETECT.
"""

from repro.datagen import cust_street_cfd
from repro.detect import pat_detect_rt
from repro.experiments import fig3d
from repro.experiments.figures import _cust8
from repro.partition import partition_uniform


def test_fig3d(record_table):
    result = fig3d()
    record_table(result)

    ctr = result.series_by_label("CTRDETECT")
    pat_rt = result.series_by_label("PATDETECTRT")
    assert ctr == sorted(ctr)  # increasing in |Tp|
    assert pat_rt == sorted(pat_rt)
    assert all(c > p for c, p in zip(ctr, pat_rt))

    cluster = partition_uniform(_cust8(), 8)
    cfd = cust_street_cfd(50)
    pat_detect_rt(cluster, cfd)

"""Exp-1 / Fig 3(a): scalability with |S| on cust8, single CFD.

Paper shape: response time decreases as |S| grows; CTRDETECT is slowest
(its single coordinator's local database is largest); PATDETECTRT is the
fastest, by a factor of more than two at 8 sites.
"""

from repro.datagen import cust_street_cfd
from repro.detect import pat_detect_rt
from repro.experiments import fig3a
from repro.experiments.figures import _cust8
from repro.partition import partition_uniform


def test_fig3a(record_table):
    result = fig3a()
    record_table(result)

    ctr = result.series_by_label("CTRDETECT")
    pat_s = result.series_by_label("PATDETECTS")
    pat_rt = result.series_by_label("PATDETECTRT")
    # response time decreases with |S| for every algorithm
    for series in (ctr, pat_s, pat_rt):
        assert series[-1] < series[0]
    # CTRDETECT is outperformed throughout; PATDETECTRT wins at 8 sites
    assert all(c > p for c, p in zip(ctr, pat_rt))
    assert ctr[-1] / pat_rt[-1] > 2.0  # "by a factor of more than two"

    cluster = partition_uniform(_cust8(), 8)
    cfd = cust_street_cfd(255)
    pat_detect_rt(cluster, cfd)

"""Exp-1 / Fig 3(b): scalability with |S| on xref8, single CFD.

Same shape as Fig 3(a) on the genome workload: decreasing in |S|,
CTRDETECT slowest, the pattern-based algorithms ahead.
"""

from repro.datagen import xref_priority_cfd
from repro.detect import pat_detect_rt
from repro.experiments import fig3b
from repro.experiments.figures import _xref8
from repro.partition import partition_uniform


def test_fig3b(record_table):
    result = fig3b()
    record_table(result)

    ctr = result.series_by_label("CTRDETECT")
    pat_rt = result.series_by_label("PATDETECTRT")
    for series in (ctr, pat_rt):
        assert series[-1] < series[0]
    assert all(c > p for c, p in zip(ctr, pat_rt))

    cluster = partition_uniform(_xref8(), 8)
    cfd = xref_priority_cfd()
    pat_detect_rt(cluster, cfd)

"""Integration test: the full Figure 3 pipeline at micro scale.

Runs every experiment end to end (generation → partitioning → detection →
series capture → persistence) at REPRO_SCALE=0.002, checking structure
rather than shapes (shapes are asserted at full scale by the benchmarks).
"""

import pytest

from repro.experiments import ALL_FIGURES, run_all


@pytest.fixture(autouse=True)
def micro_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.002")


def test_run_all_produces_every_figure(tmp_path):
    results = run_all(save_dir=str(tmp_path))
    assert set(results) == set(ALL_FIGURES)
    for name, result in results.items():
        assert result.experiment_id == name
        assert result.xs, name
        assert result.series, name
        for series in result.series:
            assert len(series.ys) == len(result.xs), (name, series.label)
            assert all(y >= 0 for y in series.ys), (name, series.label)
        assert (tmp_path / f"{name}.txt").exists()


def test_site_sweeps_share_x_axis():
    for name in ("fig3a", "fig3b", "fig3f", "fig3g", "fig3h"):
        result = ALL_FIGURES[name]()
        assert result.xs == [2, 3, 4, 5, 6, 7, 8], name


def test_data_sweeps_cover_ten_steps():
    for name in ("fig3c", "fig3i"):
        result = ALL_FIGURES[name]()
        assert result.xs == list(range(1, 11)), name


#: the paper's multi-CFD figures at REPRO_SCALE=0.002, recorded on a5e3e62
#: (before CLUSTDETECT's coordinator check was rewritten): shipped tuples for
#: fig3f, modelled response time (s) for fig3g–i.  The cost model is plain
#: float arithmetic over exact counts, so the series repeat to the bit.
GOLDEN_MULTI_CFD_SERIES = {
    "fig3f": {
        "SEQDETECT": [936.0, 1232.0, 1404.0, 1507.0, 1556.0, 1563.0, 1599.0],
        "CLUSTDETECT": [610.0, 809.0, 914.0, 993.0, 1017.0, 1029.0, 1046.0],
    },
    "fig3g": {
        "SEQDETECT": [
            0.0452617601273987, 0.035465947442357114, 0.028735609437020887,
            0.023903501943234113, 0.02083654594254539, 0.018281419552204557,
            0.016716667579470577,
        ],
        "CLUSTDETECT": [
            0.034752593460732034, 0.02650463510290215, 0.02153790360387313,
            0.01749518725988937, 0.015631286405095278, 0.013659052764528693,
            0.01278250091280391,
        ],
    },
    "fig3h": {
        "SEQDETECT": [
            0.04792330445371545, 0.038028202698068836, 0.03357328134984901,
            0.028290887163698684, 0.025994392174099122, 0.024266892174099122,
            0.02297605884076579,
        ],
        "CLUSTDETECT": [
            0.03878413778704878, 0.030623229707149802, 0.02768161468318234,
            0.02353755383036535, 0.021949392174099122, 0.02087939217409912,
            0.020000225507432454,
        ],
    },
    "fig3i": {
        "SEQDETECT": [
            0.003986721201268866, 0.007960083051149286, 0.012346470850802135,
            0.01739830866437337, 0.022704464189147882, 0.027878831475142692,
            0.03284249801629876, 0.03750663423972315, 0.0423516884010536,
            0.04728425465794733,
        ],
        "CLUSTDETECT": [
            0.0033358878679355325, 0.0067509163844826185, 0.010573970850802136,
            0.015087475331040037, 0.019693630855814544, 0.024339664808476023,
            0.028742498016298756, 0.03271330090638981, 0.0370391884010536,
            0.041420921324614,
        ],
    },
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(GOLDEN_MULTI_CFD_SERIES))
def test_multi_cfd_figures_are_pinned(name):
    result = ALL_FIGURES[name]()
    series = {s.label: s.ys for s in result.series}
    assert series == GOLDEN_MULTI_CFD_SERIES[name]

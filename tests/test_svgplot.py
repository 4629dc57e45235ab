import numpy as np
import pytest

from hopgeo.errors import ArgumentError, NumericError
from hopgeo.infogeo import spectrum
from hopgeo.svgplot import FLAG_COLOR, _ramp_color, render_heatmap, render_spectrum_lines
from hopgeo.sweep import SweepCell


def make_cell(gamma, load, **overrides):
    kwargs = dict(
        gamma=gamma,
        load=load,
        P=int(round(load * 16)),
        N=16,
        seed=1,
        trials=2,
        lambda_max_mean=1.0,
        lambda_max_sd=0.0,
        d_eff_mean=2.0,
        d_eff_sd=0.0,
        euclid_norm_sq_mean=0.5,
        riemann_norm_sq_mean=3.0,
        rank1_residual_mean=0.2,
        recall_rate=1.0,
        degenerate_count=0,
        divergence_count=0,
    )
    kwargs.update(overrides)
    return SweepCell(**kwargs)


def grid_2x2(**overrides):
    return [
        make_cell(g, l, **overrides)
        for l in (0.25, 0.5)
        for g in (0.01, 0.1)
    ]


def test_ramp_endpoints_and_clipping():
    assert _ramp_color(0.0) == "#000004"
    assert _ramp_color(1.0) == "#fcffa4"
    assert _ramp_color(-3.0) == _ramp_color(0.0)
    assert _ramp_color(7.0) == _ramp_color(1.0)


def test_heatmap_basic_document():
    cells = grid_2x2()
    doc = render_heatmap(cells, "d_eff")
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<rect") >= 4
    assert "d_eff" in doc
    # axis labels for every gamma and load value
    for label in ("0.01", "0.1", "0.25", "0.5"):
        assert label in doc


def test_heatmap_single_cell():
    doc = render_heatmap([make_cell(0.1, 0.5)], "lambda_max")
    assert "<svg" in doc
    # constant field: min and max annotations agree
    assert "max 0" in doc
    assert "min 0" in doc


def test_heatmap_constant_field_midpoint_color():
    doc = render_heatmap(grid_2x2(), "recall_rate")
    assert _ramp_color(0.5) in doc


def test_heatmap_colorbar_annotations_span_data():
    cells = grid_2x2()
    cells[0].d_eff_mean = 1.0
    cells[3].d_eff_mean = 9.0
    doc = render_heatmap(cells, "d_eff")
    assert "min 1" in doc
    assert "max 9" in doc
    # log10 transform: annotations are exponents
    cells[0].lambda_max_mean = 1e-8
    cells[3].lambda_max_mean = 100.0
    doc = render_heatmap(cells, "lambda_max")
    assert "min -8" in doc
    assert "max 2" in doc


def test_heatmap_flags_fully_degenerate_cells():
    cells = grid_2x2()
    cells[1].degenerate_count = cells[1].trials * cells[1].N
    doc = render_heatmap(cells, "d_eff")
    assert FLAG_COLOR in doc


def test_heatmap_flags_nonpositive_under_log10():
    cells = grid_2x2()
    cells[2].lambda_max_mean = 0.0
    cells[2].rank1_residual_mean = 0.0
    doc = render_heatmap(cells, "lambda_max")
    assert FLAG_COLOR in doc
    # a zero on a linear scale is not flagged
    doc = render_heatmap(cells, "rank1_residual")
    assert FLAG_COLOR not in doc


def test_heatmap_nonfinite_unflagged_raises():
    cells = grid_2x2()
    cells[0].rank1_residual_mean = float("nan")
    with pytest.raises(NumericError):
        render_heatmap(cells, "rank1_residual")


def test_heatmap_nonfinite_flagged_cell_is_gray():
    cells = grid_2x2()
    cells[0].rank1_residual_mean = float("nan")
    cells[0].degenerate_count = cells[0].trials * cells[0].N
    doc = render_heatmap(cells, "rank1_residual")
    assert FLAG_COLOR in doc


def test_heatmap_ragged_grid_raises():
    cells = grid_2x2()[:3]
    with pytest.raises(ArgumentError, match="3 cells, 2 gammas x 2 loads"):
        render_heatmap(cells, "d_eff")
    dupes = grid_2x2() + [make_cell(0.01, 0.25)]
    with pytest.raises(ArgumentError, match="cells do not form a rectangle"):
        render_heatmap(dupes, "d_eff")


def test_heatmap_unknown_metric():
    with pytest.raises(ArgumentError, match="unknown metric 'bogus'"):
        render_heatmap(grid_2x2(), "bogus")


def test_spectrum_lines_document():
    specs = [
        spectrum(np.diag([4.0, 1.0, 0.25, 0.0])),
        spectrum(np.diag([2.0, 2.0, 1.0, 0.5])),
    ]
    doc = render_spectrum_lines(specs)
    assert doc.count("<polyline") == 2
    assert "mode index k" in doc


def test_spectrum_lines_zero_mode_hits_display_floor():
    specs = [spectrum(np.diag([1.0, 0.0]))]
    doc = render_spectrum_lines(specs)
    assert "-16" in doc


def test_spectrum_lines_skips_fully_degenerate_neuron():
    specs = [
        spectrum(np.zeros((3, 3))),
        spectrum(np.eye(3)),
    ]
    doc = render_spectrum_lines(specs)
    assert doc.count("<polyline") == 1


def test_heatmap_of_all_flagged_cells_is_gray():
    cells = grid_2x2(degenerate_count=2 * 16, d_eff_mean=float("nan"))
    doc = render_heatmap(cells, "d_eff")
    assert doc.count(f'fill="{FLAG_COLOR}"') == 4
    assert "max 0" in doc and "min 0" in doc  # no drawn value: the color bar spans 0 to 0

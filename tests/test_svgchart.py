"""SVG chart rendering: determinism, point filtering, escaping."""

import math

import pytest

from bct.svgchart import line_chart


def test_same_input_same_bytes():
    series = [("a", [1, 2, 3], [0.5, 0.25, 0.125])]
    assert line_chart(series, title="t") == line_chart(series, title="t")


def test_one_polyline_per_series_and_legend():
    svg = line_chart(
        [("train", [1, 2], [0.1, 0.2]), ("val", [1, 2], [0.3, 0.4])],
        title="curves", x_label="epoch", y_label="value",
    )
    assert svg.count("<polyline") == 2
    assert ">train</text>" in svg
    assert ">val</text>" in svg
    assert ">curves</text>" in svg
    assert ">epoch</text>" in svg
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_non_finite_points_dropped():
    svg = line_chart([("a", [1, 2, 3], [0.1, math.nan, 0.3])])
    line = next(l for l in svg.splitlines() if l.startswith("<polyline"))
    assert line.count(",") == 2  # two surviving points


def test_all_nan_series_dropped_entirely():
    svg = line_chart([("good", [1, 2], [0.1, 0.2]), ("bad", [1, 2], [math.nan, math.nan])])
    assert svg.count("<polyline") == 1
    assert ">bad</text>" not in svg


def test_empty_chart_raises():
    with pytest.raises(ValueError, match="nothing to plot"):
        line_chart([("a", [1.0], [math.nan])])
    with pytest.raises(ValueError, match="nothing to plot"):
        line_chart([])


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="length mismatch"):
        line_chart([("a", [1, 2], [0.1])])


def test_single_point_gets_a_marker():
    svg = line_chart([("a", [5], [1.0])])
    assert "<circle" in svg


def test_constant_series_has_no_degenerate_scale():
    svg = line_chart([("flat", [1, 2, 3], [0.5, 0.5, 0.5])])
    assert "<polyline" in svg
    assert "nan," not in svg and ",nan" not in svg  # all coordinates finite


def test_span_that_overflows_raises():
    with pytest.raises(ValueError, match="overflows"):
        line_chart([("a", [1, 2], [1e308, -1e308])])
    with pytest.raises(ValueError, match="overflows"):
        line_chart([("a", [-1.7e308, 1.7e308], [0.0, 1.0])])


def test_text_is_escaped():
    svg = line_chart([("a<b&c", [1, 2], [0.0, 1.0])], title='x "y" <z>')
    assert "a&lt;b&amp;c" in svg
    assert "&lt;z&gt;" in svg
    assert "<b" not in svg.replace("<bct", "")

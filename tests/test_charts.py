"""SVG chart emitter checks: structure and byte determinism."""

from xml.dom import minidom

import numpy as np
import pytest

from cpdhr.charts import ChartPanel, line_chart, save_chart


def test_constant_series_single_horizontal_polyline():
    svg = line_chart([ChartPanel("flat", [("s", np.full(10, 2.5))])])
    polys = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
    assert len(polys) == 1
    ys = {pt.split(",")[1] for pt in polys[0].split('points="')[1].split('"')[0].split()}
    assert len(ys) == 1


def test_overlay_two_polylines_per_panel():
    x = np.linspace(0, 1, 15)
    panels = [
        ChartPanel("src 1", [("truth", np.sin(x)), ("recovered", np.cos(x))]),
        ChartPanel("src 2", [("truth", x), ("recovered", -x)]),
    ]
    svg = line_chart(panels)
    assert svg.count("<polyline") == 4
    assert 'height="600"' in svg.splitlines()[0]
    assert "src 1" in svg and "recovered" in svg


def test_byte_identical_for_identical_inputs(tmp_path):
    x = np.linspace(0, 2, 40)
    panels = lambda: [{"title": "p", "series": [("a", np.sin(x)), ("b", np.sin(2 * x))]}]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    save_chart(panels(), p1)
    save_chart(panels(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_input_validation():
    with pytest.raises(ValueError):
        line_chart([])
    with pytest.raises(ValueError):
        ChartPanel("t", [])
    with pytest.raises(ValueError):
        ChartPanel("t", [("a", np.array([]))])
    with pytest.raises(ValueError):
        ChartPanel("t", [("a", np.ones(3)), ("b", np.ones(4))])
    with pytest.raises(ValueError):
        ChartPanel("t", [("a", np.array([1.0, np.nan]))])


def test_single_point_series():
    svg = line_chart([ChartPanel("one", [("a", np.array([3.0]))])])
    assert svg.count("<polyline") == 1


def test_markup_characters_in_titles_and_labels_are_escaped():
    svg = line_chart([ChartPanel("R&D <a>", [("x>y & z<w", np.arange(4.0))])])
    texts = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
    assert "R&D <a>" in texts and "x>y & z<w" in texts

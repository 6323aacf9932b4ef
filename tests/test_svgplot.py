import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.copulas import fit_gaussian, sample
from riskfuse.metrics import roc_points
from riskfuse.survival import kaplan_meier
from riskfuse import svgplot

from oracles import marching_squares_per_cell


def svg_root(doc):
    return ET.fromstring(doc)


def all_elements(root):
    yield root
    for child in root:
        yield from all_elements(child)


def assert_self_contained(doc):
    root = svg_root(doc)
    for el in all_elements(root):
        tag = el.tag.split("}")[-1]
        assert tag not in ("image", "script", "use", "link", "foreignObject")
        for attr in el.attrib:
            assert "href" not in attr.lower()


def first_polyline_points(doc):
    root = svg_root(doc)
    for el in all_elements(root):
        if el.tag.split("}")[-1] == "polyline":
            pts = el.attrib["points"].split()
            return [tuple(float(c) for c in p.split(",")) for p in pts]
    raise AssertionError("no polyline found")


def test_roc_polyline_spans_corners(rng):
    scores = rng.uniform(size=60)
    y = (rng.uniform(size=60) < 0.5).astype(int)
    y[0], y[1] = 0, 1
    fpr, tpr = roc_points(scores, y)
    doc = svgplot.render_roc({"clinical": (fpr, tpr, 0.5)})
    pts = first_polyline_points(doc)
    axes = svgplot.Axes((0, 1), (0, 1), 70, 40, 420, 420)
    assert pts[0] == (pytest.approx(axes.px(0.0), abs=0.01), pytest.approx(axes.py(0.0), abs=0.01))
    assert pts[-1] == (pytest.approx(axes.px(1.0), abs=0.01), pytest.approx(axes.py(1.0), abs=0.01))
    assert_self_contained(doc)


def test_km_steps_are_horizontal_then_vertical():
    curve = kaplan_meier([5, 10, 10, 15, 20], [1, 1, 1, 0, 1])
    doc = svgplot.render_km({"low_low": curve})
    pts = first_polyline_points(doc)
    assert len(pts) >= 2 * len(curve.times)
    for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:]):
        assert x1 == pytest.approx(x2, abs=1e-9) or y1 == pytest.approx(y2, abs=1e-9)
    # first move away from (0, 1) must be horizontal: survival stays 1 until
    # the first event
    assert pts[0][1] == pytest.approx(pts[1][1])
    assert_self_contained(doc)


def test_copula_lattice_top_right_cell(rng):
    model = fit_gaussian(0.43)
    u, v = sample(model, 300, seed=2)
    g, emp, fit = svgplot.copula_lattice(u, v, model)
    assert g[-1] == 1.0
    assert emp[-1, -1] == pytest.approx(1.0, abs=1.0 / 300.0)
    assert fit[-1, -1] == pytest.approx(1.0, abs=1e-12)


def test_heat_and_contours_and_hist_are_valid_xml(rng):
    model = fit_gaussian(0.43)
    u, v = sample(model, 150, seed=2)
    heat = svgplot.render_copula_heat(u, v, model)
    contours = svgplot.render_copula_contours(u, v, model)
    hist = svgplot.render_score_hist(rng.uniform(size=80), rng.uniform(size=80))
    scatter = svgplot.render_scatter(rng.uniform(size=80), rng.uniform(size=80), rng.integers(0, 2, 80))
    for doc in (heat, contours, hist, scatter):
        assert_self_contained(doc)


def test_heat_has_two_panels_of_cells(rng):
    model = fit_gaussian(0.3)
    u, v = sample(model, 100, seed=5)
    root = svg_root(svgplot.render_copula_heat(u, v, model))
    cells = [el for el in all_elements(root) if el.tag.split("}")[-1] == "rect" and "fill-opacity" not in el.attrib]
    # background + frame rects plus 2 * HEAT_GRID**2 lattice cells
    assert len(cells) >= 2 * svgplot.HEAT_GRID**2


def test_marching_squares_on_known_saddle():
    g = np.array([0.0, 1.0])
    z = np.array([[0.0, 1.0], [1.0, 0.0]])
    segs = svgplot._marching_squares(g, z, 0.5)
    assert len(segs) == 2  # saddle cell resolves into two segments


# few distinct values, so that grids hold ties, flat edges (zq == zp) and
# levels equal to grid values
_FEW_VALUES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.booleans(), st.data())
def test_marching_squares_matches_the_per_cell_tracer(G, few, data):
    values = _FEW_VALUES if few else st.floats(-1.0, 2.0)
    z = np.array(data.draw(st.lists(values, min_size=G * G, max_size=G * G))).reshape(G, G)
    level = data.draw(st.sampled_from(z.ravel().tolist()) | values)
    g = np.array(sorted(data.draw(st.sets(st.floats(0.0, 1.0), min_size=G, max_size=G))))
    assert svgplot._marching_squares(g, z, level) == marching_squares_per_cell(g, z, level)


@pytest.mark.parametrize("z, level", [
    ([[1.0, 0.0], [0.0, 1.0]], 0.5),  # saddle with its center on the level, corner 0 above
    ([[0.0, 1.0], [1.0, 0.0]], 0.5),  # the same, corner 0 below
    ([[1.0, 0.0], [0.0, 0.9]], 0.6),  # saddle with its center below the level
    ([[0.5, 0.5], [0.0, 0.0]], 0.5),  # a flat edge on the level
    ([[0.5, 0.5, 0.2], [0.5, 0.9, 0.5], [0.2, 0.5, 0.5]], 0.5),  # ties at the level on a 3 x 3 grid
])
def test_marching_squares_on_saddles_and_flat_edges(z, level):
    z = np.array(z)
    g = np.linspace(0.0, 1.0, len(z))
    segs = svgplot._marching_squares(g, z, level)
    assert segs == marching_squares_per_cell(g, z, level)
    assert segs

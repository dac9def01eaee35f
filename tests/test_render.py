import random

import pytest

from arclat import arcs_b
from arclat.permutations import SignedPermutation
from arclat.render import RenderSpec, layout, render


def stroke_point_clearance(diagram) -> float:
    """Smallest horizontal distance between a stroke node and a point glyph
    at the same height; positive means boxes are disjoint."""
    lay = layout(diagram)
    glyphs = {float(i): 0.0 for i in range(1, diagram.n + 1)}
    best = float("inf")
    for nodes in lay["paths"].values():
        for x, y in nodes:
            if y in glyphs and x != 0.0:
                best = min(best, abs(x) - 0.2)
    return best


def test_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(format="png")
    with pytest.raises(ValueError):
        RenderSpec(width=0)


def test_empty_diagram_renders_points_only():
    d = arcs_b.DiagramB(3, frozenset())
    svg = render(d, RenderSpec())
    assert svg.count("<circle") == 3
    assert "<polyline" not in svg


def test_single_orbifold_arc():
    d = arcs_b.diagram_of_signed(SignedPermutation((-1, 2)))
    svg = render(d, RenderSpec())
    assert svg.count("<polyline") == 1


@pytest.mark.parametrize("fmt", ["svg", "ascii", "tikz"])
def test_deterministic_output(fmt):
    d = arcs_b.diagram_of_signed(SignedPermutation((-4, 3, 5, 2, -1)))
    spec = RenderSpec(format=fmt)
    assert render(d, spec) == render(d, spec)


def test_all_formats_nonempty_for_all_rank3_diagrams():
    for d in arcs_b.all_diagrams(3):
        for fmt in ("svg", "ascii", "tikz"):
            assert render(d, RenderSpec(format=fmt))


def test_clearance_rank_three():
    for d in arcs_b.all_diagrams(3):
        if d.arcs:
            assert stroke_point_clearance(d) > 0


def test_clearance_sampled_rank_six():
    rng = random.Random(23)
    base = list(range(1, 7))
    for _ in range(40):
        rng.shuffle(base)
        word = tuple(v * rng.choice((1, -1)) for v in base)
        d = arcs_b.diagram_of_signed(SignedPermutation(word))
        if d.arcs:
            assert stroke_point_clearance(d) > 0


def _circle_ys(svg):
    return [float(part.split('"')[1]) for part in svg.split(" cy=")[1:]]


def test_svg_grows_to_fit_the_top_point():
    svg = render(arcs_b.DiagramB(8, frozenset()), RenderSpec())
    assert 'height="400" viewBox="0 0 360 400"' in svg
    assert min(_circle_ys(svg)) == 0.0 and max(_circle_ys(svg)) == 280.0
    # seven points still fit the default canvas, which keeps its size
    svg = render(arcs_b.DiagramB(7, frozenset()), RenderSpec())
    assert 'height="360" viewBox="0 0 360 360"' in svg
    assert min(_circle_ys(svg)) == 0.0

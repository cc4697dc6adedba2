import math

import numpy as np
import pytest

from leakyfem import geometry as geo
from leakyfem.errors import DomainError


def test_broken_line_slope_pi4():
    g = geo.make_broken_line(math.pi / 4, 10.0)
    assert len(g.segments) == 2
    for s in g.segments:
        dx = s.b[0] - s.a[0]
        dy = s.b[1] - s.a[1]
        assert abs(abs(dy / dx) - 1.0) < 1e-14  # cot(pi/4) = 1


def test_broken_line_slope_pi6():
    g = geo.make_broken_line(math.pi / 6, 10.0)
    s = g.segments[1]
    slope = (s.b[1] - s.a[1]) / (s.b[0] - s.a[0])
    assert abs(slope - math.sqrt(3.0)) < 1e-12  # cot(pi/6) = sqrt(3)


def test_broken_line_rejects_bad_angles():
    with pytest.raises(DomainError):
        geo.make_broken_line(math.pi / 2, 10.0)
    with pytest.raises(DomainError):
        geo.make_broken_line(0.0, 10.0)
    with pytest.raises(DomainError):
        geo.make_broken_line(math.pi / 4, -1.0)


def test_broken_line_classify():
    g = geo.make_broken_line(math.pi / 4, 10.0)
    pts = [(0.0, 1.0), (2.0, 2.0), (0.0, -1.0)]
    assert g.classify_points(pts).tolist() == [geo.OMEGA1, geo.ON_INTERFACE,
                                               geo.OMEGA2]


def test_circle_polygon_perimeter():
    g = geo.make_circle(1.0, (0.0, 0.0), 8.0, 64)
    assert len(g.segments) == 64
    per = sum(s.length for s in g.segments)
    assert per < 2 * math.pi  # inscribed polygon is shorter


def test_circle_perimeter_quadratic_convergence():
    R = 1.0
    errs = []
    for n in (32, 64, 128):
        g = geo.make_circle(R, (0.0, 0.0), 8.0, n)
        per = sum(s.length for s in g.segments)
        errs.append(2 * math.pi * R - per)
    # halving the chord length divides the perimeter defect by ~4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.01)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.01)


def test_circle_rejections():
    with pytest.raises(DomainError):
        geo.make_circle(1.0, (0.0, 0.0), 1.0, 64)  # not strictly inside
    with pytest.raises(DomainError):
        geo.make_circle(1.0, (0.0, 0.0), 8.0, 8)   # too few chords


def test_circle_classify_center():
    g = geo.make_circle(1.0, (0.0, 0.0), 8.0, 64)
    assert g.classify_points([(0.0, 0.0), (3.0, 3.0)]).tolist() == [
        geo.OMEGA1, geo.OMEGA2]


def test_line_plus_circle_components_and_sides():
    g = geo.make_line_plus_circle(3.0, 1.0, 12.0, 64)
    # the last two: the circle interior, and between line and circle
    pts = [(0.0, -1.0), (5.0, 5.0), (0.0, 3.0), (0.0, 1.5)]
    assert g.classify_points(pts).tolist() == [geo.OMEGA1, geo.OMEGA2,
                                               geo.OMEGA1, geo.OMEGA2]


def test_line_plus_circle_rejects_contact():
    with pytest.raises(DomainError):
        geo.make_line_plus_circle(1.0, 1.0, 12.0, 64)


def test_cone_meridian_construction():
    g = geo.make_cone_meridian(math.pi / 4, 10.0)
    assert len(g.segments) == 1
    assert g.radial_weight
    g3 = geo.make_cone_meridian(math.pi / 3, 10.0)
    s = g3.segments[0]
    slope = (s.b[1] - s.a[1]) / (s.b[0] - s.a[0])
    assert slope == pytest.approx(1 / math.sqrt(3.0), rel=1e-12)  # cot(pi/3)
    for s in g.segments:
        assert s.a[0] >= 0 and s.b[0] >= 0
    with pytest.raises(DomainError):
        geo.make_cone_meridian(math.pi / 2, 10.0)


def test_cone_meridian_box_and_dirichlet_sides():
    g = geo.make_cone_meridian(math.pi / 4, 5.0)
    (x0, y0), (x1, y1) = g.box
    assert (x0, y0, x1, y1) == (0.0, -5.0, 5.0, 5.0)
    assert geo.SIDE_LEFT not in g.dirichlet_sides


@pytest.mark.parametrize("make", [
    lambda: geo.make_broken_line(math.pi / 4, 10.0),
    lambda: geo.make_broken_line(math.pi / 6, 10.0),
    lambda: geo.make_broken_line(1.2, 10.0),
    lambda: geo.make_circle(1.0, (0.2, -0.3), 8.0, 48),
    lambda: geo.make_line_plus_circle(3.0, 1.0, 12.0, 32),
    lambda: geo.make_cone_meridian(math.pi / 3, 10.0),
])
def test_orientation_consistency(make):
    # offsetting a segment midpoint along +-normal lands in Omega1/Omega2
    g = make()
    eps = 1e-6 * g.halfwidth
    for s in g.segments:
        mx, my = 0.5 * (s.a[0] + s.b[0]), 0.5 * (s.a[1] + s.b[1])
        # unit normal pointing into Omega1: the direction turned left
        dx, dy = s.b[0] - s.a[0], s.b[1] - s.a[1]
        nx, ny = -dy / s.length, dx / s.length
        pts = [(mx + eps * nx, my + eps * ny), (mx - eps * nx, my - eps * ny)]
        assert g.classify_points(pts).tolist() == [geo.OMEGA1, geo.OMEGA2]


def test_material_validation():
    g = geo.make_broken_line(math.pi / 4, 10.0)
    m = geo.MaterialData.constant(g, alpha=2.0, beta=1.5)
    assert m.n_segments() == 2
    with pytest.raises(DomainError):
        geo.MaterialData.constant(g, alpha=-1.0, beta=1.0)
    with pytest.raises(DomainError):
        geo.MaterialData.constant(g, alpha=2.0, beta=0.0)
    b = geo.MaterialData.borderline(g, alpha=2.0)
    assert np.allclose(b.beta, 2.0)

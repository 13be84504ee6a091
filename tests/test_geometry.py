from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from poolsim.geometry import (PSA_OPEN, PSA_SINGLE, PSA_UNION, Point,
                              VehiclePsa, euclid, make_psa_rect, psa_contains,
                              rect_bbox, rect_contains, rect_corners)
from test_analysis import rect_and_points


def ellipse_contains(f1: Point, f2: Point, sum_bound: float, p: Point) -> bool:
    """Exact (closed) test on the ellipse the rectangle circumscribes."""
    return euclid(f1, p) + euclid(p, f2) <= sum_bound


def test_euclid_values():
    assert euclid(Point(1, 1), Point(4, 5)) == pytest.approx(5.0)
    assert euclid(Point(0, 0), Point(0, 0)) == 0.0
    assert euclid(Point(2, 3), Point(2, 3.5)) == pytest.approx(0.5)


class TestMakePsaRect:
    def test_basic_rect(self):
        r = make_psa_rect(Point(0, 0), Point(4, 0), 6.0)
        assert r is not None
        assert (r.cx, r.cy) == (2, 0)
        assert (r.ax, r.ay) == (1.0, 0.0)
        assert r.half_len == pytest.approx(3.0)
        assert r.half_wid == pytest.approx(math.sqrt(20) / 2)
        assert r.area == pytest.approx(6.0 * math.sqrt(20))

    def test_degenerate_segment(self):
        # bound equals the focal distance: the rectangle collapses to the
        # segment between the foci
        r = make_psa_rect(Point(0, 0), Point(4, 0), 4.0)
        assert r is not None
        assert r.half_wid == 0.0
        assert r.area == 0.0
        assert rect_contains(r, 2, 0)
        assert rect_contains(r, 4, 0)
        assert not rect_contains(r, 2, 1e-3)

    def test_infeasible_bound(self):
        assert make_psa_rect(Point(0, 0), Point(4, 0), 3.0) is None

    def test_coincident_foci_square(self):
        r = make_psa_rect(Point(1, 2), Point(1, 2), 2.0)
        assert r is not None
        assert (r.ax, r.ay) == (1.0, 0.0)
        assert r.half_len == pytest.approx(1.0)
        assert r.half_wid == pytest.approx(1.0)
        assert r.area == pytest.approx(4.0)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            make_psa_rect(Point(0, 0), Point(1, 0), -1.0)

    def test_rotated_axis_unit(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f1 = Point(*rng.uniform(-5, 5, 2))
            f2 = Point(*rng.uniform(-5, 5, 2))
            e = euclid(f1, f2)
            r = make_psa_rect(f1, f2, e * rng.uniform(1.0, 2.0) + 1e-12)
            assert r is not None
            assert math.hypot(r.ax, r.ay) == pytest.approx(1.0)


class TestContainment:
    def setup_method(self):
        self.f1 = Point(0, 0)
        self.f2 = Point(4, 0)
        self.sb = 6.0
        self.rect = make_psa_rect(self.f1, self.f2, self.sb)

    def test_inside_both(self):
        assert rect_contains(self.rect, 2, 0)
        assert ellipse_contains(self.f1, self.f2, self.sb, Point(2, 0))

    def test_corner_gap(self):
        # in the rectangle but outside the ellipse: the filter over-admits here
        p = Point(0, 2)
        assert rect_contains(self.rect, *p)
        assert euclid(self.f1, p) + euclid(p, self.f2) > self.sb
        assert not ellipse_contains(self.f1, self.f2, self.sb, p)

    def test_outside_both(self):
        assert not rect_contains(self.rect, 6, 0)
        assert not ellipse_contains(self.f1, self.f2, self.sb, Point(6, 0))

    def test_foci_always_inside(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            f1 = Point(*rng.uniform(-10, 10, 2))
            f2 = Point(*rng.uniform(-10, 10, 2))
            sb = euclid(f1, f2) * rng.uniform(1.0, 1.8)
            r = make_psa_rect(f1, f2, sb)
            if r is None:
                continue
            mid = Point((f1.x + f2.x) / 2, (f1.y + f2.y) / 2)
            for p in (f1, f2, mid):
                assert rect_contains(r, *p)
                assert ellipse_contains(f1, f2, sb, p)


def inline_scan(rect, p) -> bool:
    """The closed test of one point as the gate's scans wrote it inline."""
    cx, cy, ax, ay, half_len, half_wid, _ = rect
    dx = p.x - cx
    dy = p.y - cy
    return (abs(dx * ax + dy * ay) <= half_len
            and abs(-dx * ay + dy * ax) <= half_wid)


@settings(max_examples=300, deadline=None)
@given(case=rect_and_points())
def test_one_membership_predicate_matches_the_inline_scan(case):
    # coincident foci, zero widths and points one ulp past each corner
    rect, pts = case
    far = make_psa_rect(Point(100.0, 100.0), Point(101.0, 100.0), 2.0)
    for p in pts:
        want = inline_scan(rect, p)
        assert rect_contains(rect, p.x, p.y) == want
        assert psa_contains(VehiclePsa(PSA_SINGLE, None, rect, 0), p) == want
        assert psa_contains(VehiclePsa(PSA_UNION, rect, far, 0), p) == want
        assert psa_contains(VehiclePsa(PSA_UNION, None, rect, 0), p) == want


def test_circumscription_property():
    # every point of the ellipse is in the rectangle
    rng = np.random.default_rng(42)
    for _ in range(2000):
        f1 = Point(*rng.uniform(-10, 10, 2))
        f2 = Point(*rng.uniform(-10, 10, 2))
        sb = euclid(f1, f2) * rng.uniform(1.0, 2.5) + rng.uniform(0, 1)
        r = make_psa_rect(f1, f2, sb)
        assert r is not None
        x0, y0, x1, y1 = rect_bbox(r)
        for _ in range(5):
            p = Point(rng.uniform(x0, x1), rng.uniform(y0, y1))
            if ellipse_contains(f1, f2, sb, p):
                assert rect_contains(r, *p)


def test_area_identity():
    # area = sum_bound * sqrt(sum_bound^2 - E^2), and = 4 * half_len * half_wid
    rng = np.random.default_rng(5)
    for _ in range(500):
        f1 = Point(*rng.uniform(-20, 20, 2))
        f2 = Point(*rng.uniform(-20, 20, 2))
        e = euclid(f1, f2)
        sb = e * rng.uniform(1.0, 3.0)
        r = make_psa_rect(f1, f2, sb)
        assert r is not None
        assert r.area == pytest.approx(sb * math.sqrt(max(sb * sb - e * e, 0)),
                                       abs=1e-9)
        assert r.area == pytest.approx(4 * r.half_len * r.half_wid, abs=1e-12)


def test_frame_invariance():
    # membership is preserved under rigid motions, away from the boundary
    rng = np.random.default_rng(17)
    for _ in range(300):
        f1 = Point(*rng.uniform(-5, 5, 2))
        f2 = Point(*rng.uniform(-5, 5, 2))
        sb = euclid(f1, f2) * rng.uniform(1.01, 2.0) + 0.1
        r = make_psa_rect(f1, f2, sb)
        ang = rng.uniform(0, 2 * math.pi)
        ca, sa = math.cos(ang), math.sin(ang)
        tx, ty = rng.uniform(-30, 30, 2)

        def move(p: Point) -> Point:
            return Point(ca * p.x - sa * p.y + tx, sa * p.x + ca * p.y + ty)

        r2 = make_psa_rect(move(f1), move(f2), sb)
        for _ in range(10):
            p = Point(*rng.uniform(-8, 8, 2))
            dx = p.x - r.cx
            dy = p.y - r.cy
            ax, ay = r.ax, r.ay
            u = abs(dx * ax + dy * ay)
            v = abs(-dx * ay + dy * ax)
            margin = min(abs(u - r.half_len), abs(v - r.half_wid))
            if margin < 1e-9:
                continue
            assert rect_contains(r, *p) == rect_contains(r2, *move(p))


def test_rect_corners_on_boundary():
    # corners pulled a hair inward must be contained; float round-trip through
    # the rotated frame can push an exact corner one ulp outside
    r = make_psa_rect(Point(1, 1), Point(3, 4), 5.0)
    shrink = 1 - 1e-9
    for c in rect_corners(r):
        inner = Point(r.cx + (c.x - r.cx) * shrink,
                      r.cy + (c.y - r.cy) * shrink)
        assert rect_contains(r, *inner)


def test_monte_carlo_area_ratio():
    # rectangle over ellipse area converges to 4/pi
    rng = np.random.default_rng(23)
    f1, f2, sb = Point(0, 0), Point(4, 0), 6.0
    r = make_psa_rect(f1, f2, sb)
    x0, y0, x1, y1 = rect_bbox(r)
    n = 100_000
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    in_rect = (np.abs(xs - r.cx) <= r.half_len) & \
              (np.abs(ys - r.cy) <= r.half_wid)
    in_ell = np.hypot(xs - f1.x, ys - f1.y) + np.hypot(xs - f2.x, ys - f2.y) <= sb
    ratio = in_rect.sum() / in_ell.sum()
    assert ratio == pytest.approx(4 / math.pi, rel=0.02)


class TestVehiclePsa:
    def test_single_is_its_rect(self):
        rect = make_psa_rect(Point(0, 0), Point(4, 0), 6.0)
        psa = VehiclePsa(PSA_SINGLE, None, rect, 3)
        assert psa_contains(psa, Point(2, 0))
        assert not psa_contains(psa, Point(6, 0))
        assert psa.furthest_request_id == 3

    def test_union_membership(self):
        # point only in the pickup rectangle still counts
        alpha = make_psa_rect(Point(-3, 0), Point(0, 0), 4.0)
        beta = make_psa_rect(Point(0, 0), Point(4, 0), 6.0)
        psa = VehiclePsa(PSA_UNION, alpha, beta, 1)
        p = Point(-2, 0)
        assert not rect_contains(beta, *p)
        assert rect_contains(alpha, *p)
        assert psa_contains(psa, p)
        assert psa_contains(psa, Point(3, 0))
        assert not psa_contains(psa, Point(-6, 0))

    def test_union_with_infeasible_alpha(self):
        beta = make_psa_rect(Point(0, 0), Point(4, 0), 6.0)
        psa = VehiclePsa(PSA_UNION, None, beta, 2)
        assert psa_contains(psa, Point(2, 0))
        assert not psa_contains(psa, Point(-2, 0))

    def test_open_contains_everything(self):
        psa = VehiclePsa(PSA_OPEN, None, None, 5)
        assert psa.furthest_request_id == 5
        for p in (Point(0, 0), Point(1e6, -1e6), Point(-3.5, 0.25)):
            assert psa_contains(psa, p)

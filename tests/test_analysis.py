from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim.analysis import (_MC_CHUNK, FOUR_OVER_PI, EtaBounds,
                              EtaEstimate, RrccRow, _rect_mask, eta_closed,
                              eta_monte_carlo, expected_rrcc, fleet_km,
                              rrcc_gate_harness, traffic_metrics)
from poolsim.geometry import (Point, euclid, make_psa_rect, rect_bbox,
                              rect_contains, rect_corners)
from poolsim.insertion import path_table
from poolsim.model import (Request, RequestState, Stop, StopKind, Vehicle,
                           WorldState)
from poolsim.seeds import substream
from test_acceptance import four_over_pi_monte_carlo


class TestEtaClosed:
    def test_disjoint_regions_give_four_over_pi(self):
        b = eta_closed(2.0, 4.0, 0.0, 0.0)
        assert b.exact == pytest.approx(FOUR_OVER_PI, rel=1e-12)
        assert b.lo == pytest.approx(FOUR_OVER_PI, rel=1e-12)
        assert b.hi == pytest.approx(FOUR_OVER_PI, rel=1e-12)

    def test_single_region(self):
        b = eta_closed(0.0, 7.5, 0.0, 0.0)
        assert b.exact == pytest.approx(FOUR_OVER_PI, rel=1e-12)
        assert b.lo == b.hi == pytest.approx(FOUR_OVER_PI, rel=1e-12)

    def test_hand_computed_overlapping_case(self):
        alpha, beta, mu, nu = 2.0, 4.0, 1.0, 0.9
        b = eta_closed(alpha, beta, mu, nu)
        opt = math.pi / 4.0 * (alpha + beta)
        assert b.exact == pytest.approx((alpha + beta - mu) / (opt - nu))
        assert b.hi == pytest.approx(
            FOUR_OVER_PI + (4.0 - math.pi) * mu / (math.pi * (opt - nu)))
        assert b.lo == pytest.approx(max(
            1.0, FOUR_OVER_PI + (4.0 * nu - math.pi * mu) / (math.pi * opt)))

    def test_lower_bound_floors_at_one(self):
        # heavy rectangle overlap with tiny ellipse overlap drags the raw
        # bound under 1, where the floor takes over
        b = eta_closed(4.0, 4.0, 3.0, 0.1)
        assert b.lo == 1.0

    @pytest.mark.parametrize("alpha,beta,mu,nu", [
        (-1.0, 2.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (1.0, 2.0, 1.5, 0.0),     # mu > min(alpha, beta)
        (1.0, 2.0, 0.5, 0.6),     # nu > mu
        (1.0, 100.0, 1.0, 0.9),   # nu > pi/4 * alpha
    ])
    def test_invalid_inputs_raise(self, alpha, beta, mu, nu):
        with pytest.raises(ValueError):
            eta_closed(alpha, beta, mu, nu)


def random_union_config(rng):
    o = Point(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
    d = Point(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
    e_od = math.hypot(o.x - d.x, o.y - d.y)
    if e_od < 0.5:
        return None
    direct = e_od * float(rng.uniform(1.0, 1.4))
    f_beta = (o, d, (1.0 + float(rng.uniform(0.05, 0.5))) * direct)
    p_s = Point(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
    e_ps = math.hypot(p_s.x - o.x, p_s.y - o.y)
    if e_ps < 0.3:
        return None
    f_alpha = (p_s, o, e_ps * float(rng.uniform(1.05, 2.0)))
    return f_alpha, f_beta


class TestEtaMonteCarlo:
    def test_single_region_converges_to_four_over_pi(self):
        est = four_over_pi_monte_carlo(200_000, seed=0)
        assert est == pytest.approx(FOUR_OVER_PI, abs=0.01)

    def test_seeded_runs_identical(self):
        f_beta = (Point(0, 0), Point(3, 1), 5.0)
        f_alpha = (Point(-2, 0), Point(0, 0), 4.0)
        a = eta_monte_carlo(f_alpha, f_beta, 50_000, seed=13)
        b = eta_monte_carlo(f_alpha, f_beta, 50_000, seed=13)
        assert a == b

    def test_different_seeds_differ(self):
        f_beta = (Point(0, 0), Point(3, 1), 5.0)
        a = eta_monte_carlo(None, f_beta, 20_000, seed=1)
        b = eta_monte_carlo(None, f_beta, 20_000, seed=2)
        assert a.eta != b.eta

    def test_estimate_never_below_one(self):
        # the ellipse union is contained in the rectangle union pointwise,
        # so the ratio cannot dip under 1 even with sampling noise
        for seed in range(5):
            est = eta_monte_carlo(
                (Point(-1, 0), Point(0, 0), 2.0),
                (Point(0, 0), Point(2, 2), 4.0), 5_000, seed=seed)
            assert est.eta >= 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_estimate_within_closed_form_bounds(self, seed):
        rng = np.random.default_rng(1000 + seed)
        cfg = None
        while cfg is None:
            cfg = random_union_config(rng)
        f_alpha, f_beta = cfg
        if seed % 5 == 0:
            f_alpha = None
        est = eta_monte_carlo(f_alpha, f_beta, 100_000, seed=seed)
        slack = 5.0 * est.se + 1e-9
        assert est.lo - slack <= est.eta <= est.hi + slack

    def test_overlap_estimates_feasible(self):
        f_beta = (Point(0, 0), Point(1, 0), 2.0)
        f_alpha = (Point(-0.5, 0), Point(0, 0), 1.5)
        est = eta_monte_carlo(f_alpha, f_beta, 50_000, seed=3)
        assert 0.0 <= est.mu <= min(est.alpha_area, est.beta_area)
        assert 0.0 <= est.nu <= est.mu

    def test_rejects_bad_inputs(self):
        f_beta = (Point(0, 0), Point(3, 0), 5.0)
        with pytest.raises(ValueError):
            eta_monte_carlo(None, f_beta, 0, seed=0)
        with pytest.raises(ValueError):
            eta_monte_carlo(None, (Point(0, 0), Point(6, 0), 5.0), 100,
                            seed=0)


def full_array_eta(f_alpha, f_beta, samples, seed):
    """Reference estimator: all x, then all y drawn at once, full-size masks."""
    rect_b = make_psa_rect(*f_beta)
    rect_a = make_psa_rect(*f_alpha) if f_alpha is not None else None
    boxes = [rect_bbox(rect_b)]
    if rect_a is not None:
        boxes.append(rect_bbox(rect_a))
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    x1 = max(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    box_area = (x1 - x0) * (y1 - y0)
    rng = substream(seed, "eta-mc")
    xs = rng.uniform(x0, x1, size=samples)
    ys = rng.uniform(y0, y1, size=samples)

    def rect_mask(rect):
        dx = xs - rect.cx
        dy = ys - rect.cy
        ax, ay = rect.ax, rect.ay
        u = dx * ax + dy * ay
        v = -dx * ay + dy * ax
        return (np.abs(u) <= rect.half_len) & (np.abs(v) <= rect.half_wid)

    def ellipse_mask(f1, f2, sum_bound):
        dx1 = xs - f1.x
        dy1 = ys - f1.y
        dx2 = xs - f2.x
        dy2 = ys - f2.y
        return (np.sqrt(dx1 * dx1 + dy1 * dy1)
                + np.sqrt(dx2 * dx2 + dy2 * dy2)) <= sum_bound

    in_rect = mask_b = rect_mask(rect_b)
    in_ell = emask_b = ellipse_mask(*f_beta)
    mu_hat = nu_hat = alpha_area = 0.0
    if rect_a is not None:
        mask_a = rect_mask(rect_a)
        emask_a = ellipse_mask(*f_alpha)
        in_rect = mask_a | mask_b
        in_ell = emask_a | emask_b
        mu_hat = float(np.count_nonzero(mask_a & mask_b)) / samples * box_area
        nu_hat = float(np.count_nonzero(emask_a & emask_b)) / samples * box_area
        alpha_area = rect_a.area
    p = int(np.count_nonzero(in_rect)) / samples
    q = int(np.count_nonzero(in_ell)) / samples
    eta = p / q
    var = (p * (1 - p) / samples / p**2
           + q * (1 - q) / samples / q**2
           - 2 * q * (1 - p) / samples / (p * q)) * eta * eta
    mu = min(mu_hat, alpha_area, rect_b.area)
    nu = min(nu_hat, min(math.pi / 4.0 * alpha_area,
                         math.pi / 4.0 * rect_b.area, mu))
    bounds = eta_closed(alpha_area, rect_b.area, mu, nu)
    return EtaEstimate(eta=eta, se=math.sqrt(max(var, 0.0)), lo=bounds.lo,
                       hi=bounds.hi, alpha_area=alpha_area,
                       beta_area=rect_b.area, mu=mu, nu=nu, samples=samples)


class TestEtaKernelEquivalence:
    """The chunked kernel draws the same numbers as the full-array one."""

    O = Point(0.3, -1.2)
    REGIONS = {
        "single": (None, (O, Point(3.1, 1.4), 5.0)),
        "union": ((Point(-2.0, 0.5), O, 4.0), (O, Point(3.1, 1.4), 5.0)),
        "union-no-shared-focus": ((Point(-2.0, 0.5), Point(0.0, -1.0), 4.0),
                                  (O, Point(3.1, 1.4), 5.0)),
    }

    @pytest.mark.parametrize("samples", [_MC_CHUNK // 3 + 1,
                                         2 * _MC_CHUNK + 777])
    @pytest.mark.parametrize("kind", sorted(REGIONS))
    def test_every_field_identical(self, kind, samples):
        f_alpha, f_beta = self.REGIONS[kind]
        got = eta_monte_carlo(f_alpha, f_beta, samples, seed=5)
        want = full_array_eta(f_alpha, f_beta, samples, seed=5)
        for name in EtaEstimate.__dataclass_fields__:
            assert getattr(got, name) == getattr(want, name), name


@st.composite
def rect_and_points(draw):
    """A rectangle, points around it, its corners, each nudged one ulp out."""
    coord = st.floats(-20.0, 20.0)
    f1 = Point(draw(coord), draw(coord))
    f2 = draw(st.one_of(st.just(f1), st.builds(Point, coord, coord)))
    e = euclid(f1, f2)
    rect = make_psa_rect(f1, f2, draw(st.one_of(st.just(e),
                                                st.floats(e, 2 * e + 10))))
    x0, y0, x1, y1 = rect_bbox(rect)
    pts = draw(st.lists(st.builds(Point, st.floats(x0 - 1, x1 + 1),
                                  st.floats(y0 - 1, y1 + 1)), max_size=30))
    for c in rect_corners(rect):
        pts.append(c)
        pts.append(Point(
            math.nextafter(c.x, math.copysign(math.inf, c.x - rect.cx)),
            math.nextafter(c.y, math.copysign(math.inf, c.y - rect.cy))))
    return rect, pts


@settings(max_examples=300, deadline=None)
@given(case=rect_and_points())
def test_rect_mask_matches_rect_contains_bit_for_bit(case):
    # the Monte Carlo kernel and the scheduler's gate must agree on every
    # point, boundary included
    rect, pts = case
    n = len(pts)
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    out = np.empty(n, dtype=bool)
    _rect_mask(rect, xs, ys, [np.empty(n) for _ in range(4)],
               np.empty(n, dtype=bool), out)
    assert out.tolist() == [rect_contains(rect, *p) for p in pts]


class TestExpectedRrcc:
    def test_extremes(self):
        assert expected_rrcc(100.0, 100.0) == (0.0, 0.0)
        assert expected_rrcc(0.0, 100.0) == (1.0, 1.0)

    def test_reference_fraction(self):
        psi_a, psi_b = expected_rrcc(30.0, 100.0)
        assert psi_a == pytest.approx(0.91)
        assert psi_b == pytest.approx(0.70)

    @pytest.mark.parametrize("area,s", [(1.0, 0.0), (1.0, -2.0),
                                        (-0.1, 1.0), (1.1, 1.0)])
    def test_domain_errors(self, area, s):
        with pytest.raises(ValueError):
            expected_rrcc(area, s)


class TestCandidateCounts:
    def test_matches_brute_force(self):
        for k in range(1, 51):
            pairs = [(i, j) for i in range(1, k + 1)
                     for j in range(i + 1, k + 2)]
            n_a = sum(1 for i, j in pairs if j <= k)
            n_b = sum(1 for i, j in pairs if j == k + 1 and i < k)
            n_c = sum(1 for i, j in pairs if j == k + 1 and i == k)
            assert path_table(k).counts == (n_a, n_b, n_c)


class TestRrccGateHarness:
    def test_reference_rates(self):
        row = rrcc_gate_harness(0.3, samples=20_000, seed=0)
        assert row.area == pytest.approx(30.0)
        assert row.s == pytest.approx(100.0)
        assert row.expected_psi_a == pytest.approx(0.91)
        assert row.expected_psi_b == pytest.approx(0.70)
        assert row.psi_a == pytest.approx(0.91, abs=0.02)
        assert row.psi_b == pytest.approx(0.70, abs=0.02)

    def test_full_coverage_never_rejects(self):
        row = rrcc_gate_harness(1.0, samples=2_000, seed=1)
        assert row.psi_a == 0.0
        assert row.psi_b == 0.0

    def test_seeded_reproducibility(self):
        a = rrcc_gate_harness(0.1, samples=5_000, seed=4)
        b = rrcc_gate_harness(0.1, samples=5_000, seed=4)
        assert a == b

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5])
    def test_bad_fraction_raises(self, fraction):
        with pytest.raises(ValueError):
            rrcc_gate_harness(fraction, samples=100, seed=0)


def _mk_request(rid, state, n=1, direct=1.0, t=0.0):
    return Request(id=rid, t=t, n=n, o=0, d=1, direct_dist=direct,
                   state=state)


def _stop(rid):
    return Stop(StopKind.DESTINATION, rid, 0)


class TestTrafficMetrics:
    def test_snapshot_rates(self):
        vehicles = {
            0: Vehicle(id=0, capacity=5, node=0, odometer=50.0,
                       path=[_stop(1)]),
            1: Vehicle(id=1, capacity=5, node=0, odometer=40.0,
                       path=[_stop(2)]),
            2: Vehicle(id=2, capacity=5, node=0, odometer=30.0,
                       path=[_stop(3)]),
            3: Vehicle(id=3, capacity=5, node=0),
        }
        requests = {
            1: _mk_request(1, RequestState.ONBOARD, n=2),
            2: _mk_request(2, RequestState.ONBOARD, n=3),
            3: _mk_request(3, RequestState.ONBOARD, n=1),
            4: _mk_request(4, RequestState.COMPLETED, direct=100.0),
            5: _mk_request(5, RequestState.UNSCHEDULED, t=10.0),
            6: _mk_request(6, RequestState.UNSCHEDULED, t=500.0),
        }
        tm = traffic_metrics(WorldState(clock=20.0, vehicles=vehicles,
                                        requests=requests))
        assert tm.moving == 3
        assert tm.onboard_riders == 6
        assert tm.sharing_rate == pytest.approx(2.0)
        assert tm.utilization == pytest.approx(0.75)
        assert tm.saved_km == pytest.approx(100.0 - 120.0)
        assert tm.completed_total == 1
        assert tm.unserved == 1   # the 500 s release is not out yet

    def test_idle_fleet_has_no_sharing_rate(self):
        vehicles = {0: Vehicle(id=0, capacity=5, node=0)}
        tm = traffic_metrics(WorldState(clock=0.0, vehicles=vehicles,
                                        requests={}))
        assert tm.sharing_rate is None
        assert tm.moving == 0
        assert tm.utilization == 0.0

    def test_odometers_add_left_to_right(self):
        # compensated summation (the built-in sum() from Python 3.12 on)
        # would give 1.0; the reports keep the plain left-to-right total
        vehicles = {k: Vehicle(id=k, capacity=5, node=0, odometer=0.1)
                    for k in range(10)}
        requests = {1: _mk_request(1, RequestState.COMPLETED, direct=3.0)}
        tm = traffic_metrics(WorldState(clock=0.0, vehicles=vehicles,
                                        requests=requests))
        assert fleet_km(vehicles.values()) == 0.9999999999999999
        assert tm.saved_km == 3.0 - 0.9999999999999999

    def test_empty_world(self):
        tm = traffic_metrics(WorldState(clock=0.0, vehicles={}, requests={}))
        assert tm.utilization == 0.0
        assert tm.saved_km == 0.0

"""Complexity-reduction analysis and traffic metrics.

The rectangle filter admits more than the exact ellipse filter would; the
area ratio eta quantifies the overhead.  For a single region it is exactly
4/pi.  For a union of a pickup region (alpha) and a ride region (beta) with
rectangle overlap mu and ellipse overlap nu,

    eta = (alpha + beta - mu) / (alpha_opt + beta_opt - nu)

with alpha_opt = pi/4 * alpha, beta_opt = pi/4 * beta, and closed-form bounds

    lo = max(1, 4/pi + (4 nu - pi mu) / (pi (alpha_opt + beta_opt)))
    hi = 4/pi + (4 - pi) mu / (pi (alpha_opt + beta_opt - nu))

Under uniform request endpoints over a city of area S, a filter region of
area A rejects interior candidates (case A, both endpoints tested) at rate
1 - (A/S)^2 and append candidates (case B, origin tested) at rate 1 - A/S.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import (Point, PsaRect, VehiclePsa, make_psa_rect, rect_bbox)
from .model import Vehicle, WorldState
from .scheduler import MODE_INCLUSIVE, area_admits
from .seeds import substream

FOUR_OVER_PI = 4.0 / math.pi


@dataclass(frozen=True)
class EtaBounds:
    exact: float
    lo: float
    hi: float


def eta_closed(alpha: float, beta: float, mu: float, nu: float) -> EtaBounds:
    """Exact area-ratio overhead and its closed-form bounds.

    ``alpha``/``beta`` are rectangle areas (alpha 0 when there is no pickup
    region), ``mu`` their overlap, ``nu`` the ellipse overlap.

    The exact ratio rewrites as 4/pi + (4 nu - pi mu)/(pi (a + b - nu)) with
    a, b the ellipse areas.  Bounding it means replacing the denominator by
    its extreme consistent with the numerator's sign: a + b when the surplus
    4 nu - pi mu is nonnegative, max(a, b) when it is negative (nu never
    exceeds the smaller ellipse, so a + b - nu >= max(a, b)).  Both branches
    keep lo at or below the exact value for every feasible (mu, nu).
    """
    if alpha < 0 or beta <= 0:
        raise ValueError(f"region areas must be alpha >= 0, beta > 0, "
                         f"got alpha={alpha}, beta={beta}")
    tol = 1e-9 * max(alpha, beta, 1.0)
    if not (0.0 <= mu <= min(alpha, beta) + tol):
        raise ValueError(f"mu={mu} outside [0, min(alpha, beta)]")
    if not (0.0 <= nu <= mu + tol):
        raise ValueError(f"nu={nu} outside [0, mu]")
    alpha_opt = math.pi / 4.0 * alpha
    beta_opt = math.pi / 4.0 * beta
    if nu > min(alpha_opt, beta_opt) + tol:
        raise ValueError(f"nu={nu} exceeds the smaller ellipse area")
    exact = (alpha + beta - mu) / (alpha_opt + beta_opt - nu)
    surplus = 4.0 * nu - math.pi * mu
    lo_denom = (alpha_opt + beta_opt) if surplus >= 0.0 \
        else max(alpha_opt, beta_opt)
    lo = max(1.0, FOUR_OVER_PI + surplus / (math.pi * lo_denom))
    hi = (FOUR_OVER_PI
          + (4.0 - math.pi) * mu / (math.pi * (alpha_opt + beta_opt - nu)))
    return EtaBounds(exact=exact, lo=lo, hi=hi)


@dataclass(frozen=True)
class EtaEstimate:
    eta: float
    se: float
    lo: float          # closed-form bounds at the estimated overlaps
    hi: float
    alpha_area: float
    beta_area: float
    mu: float
    nu: float
    samples: int


# samples per Monte Carlo chunk: the kernel's scratch buffers at this length
# stay cache-resident instead of streaming ten full-size temporaries
_MC_CHUNK = 1 << 14


def _rect_mask(rect: PsaRect, xs: np.ndarray, ys: np.ndarray,
               scratch: list[np.ndarray], spare: np.ndarray,
               out: np.ndarray) -> None:
    """Rectangle membership of (xs, ys) into ``out``.

    ``scratch`` holds four float buffers and ``spare`` one bool buffer, all
    of the samples' length.  The rotated coordinates are u = dx*ax + dy*ay
    and v = dy*ax - dx*ay; the latter equals -dx*ay + dy*ax bit for bit.
    """
    dx, dy, u, t = scratch
    cx, cy, ax, ay, half_len, half_wid, _ = rect
    np.subtract(xs, cx, out=dx)
    np.subtract(ys, cy, out=dy)
    np.multiply(dx, ax, out=u)
    np.multiply(dy, ay, out=t)
    np.add(u, t, out=u)
    np.abs(u, out=u)
    np.less_equal(u, half_len, out=out)
    np.multiply(dy, ax, out=u)
    np.multiply(dx, ay, out=t)
    np.subtract(u, t, out=u)
    np.abs(u, out=u)
    np.less_equal(u, half_wid, out=spare)
    np.logical_and(out, spare, out=out)


def _focus_dist(focus: Point, xs: np.ndarray, ys: np.ndarray, t: np.ndarray,
                out: np.ndarray) -> None:
    """Straight-line distance of (xs, ys) to a focus into ``out``."""
    # sqrt of the expanded square is ~2.5x faster than np.hypot at this
    # scale and the coordinates are km-sized, far from overflow territory
    np.subtract(xs, focus.x, out=out)
    np.multiply(out, out, out=out)
    np.subtract(ys, focus.y, out=t)
    np.multiply(t, t, out=t)
    np.add(out, t, out=out)
    np.sqrt(out, out=out)


def _union_and_overlap(masks: np.ndarray, spare: np.ndarray) -> tuple[int, int]:
    """Counts of samples in either and in both of two membership masks."""
    np.logical_or(masks[0], masks[1], out=spare)
    union = int(np.count_nonzero(spare))
    np.logical_and(masks[0], masks[1], out=spare)
    return union, int(np.count_nonzero(spare))


Region = tuple[Point, Point, float]  # foci and path-length budget


def eta_monte_carlo(f_alpha: Region | None, f_beta: Region, samples: int,
                    seed: int) -> EtaEstimate:
    """Monte Carlo area-ratio overhead of the rectangle filter.

    Samples uniformly over the bounding box of the rectangle union and
    estimates eta = |rect union| / |ellipse union|, the overlaps mu (rect)
    and nu (ellipse), and closed-form bounds at those overlaps.  Seeded and
    bit-reproducible.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rect_b = make_psa_rect(*f_beta)
    if rect_b is None or rect_b.area <= 0.0:
        raise ValueError("beta region is empty or degenerate")
    rect_a = make_psa_rect(*f_alpha) if f_alpha is not None else None

    boxes = [rect_bbox(rect_b)]
    if rect_a is not None:
        boxes.append(rect_bbox(rect_a))
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    x1 = max(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    box_area = (x1 - x0) * (y1 - y0)

    # uniform(lo, hi, size) is lo + (hi - lo) * random() drawn in sequence,
    # first every x, then every y; chunk j takes its x draws from the
    # generator itself and its y draws from a copy advanced past all x draws
    rng = substream(seed, "eta-mc")
    y_rng = np.random.Generator(
        copy.deepcopy(rng.bit_generator).advance(samples))
    x_span = x1 - x0
    y_span = y1 - y0

    # ellipse tests share per-focus distances; the pickup and ride regions
    # usually share the request origin as a focus
    regions = [(rect_b, f_beta)]
    if rect_a is not None:
        regions.append((rect_a, f_alpha))

    size = min(samples, _MC_CHUNK)
    xs_buf, ys_buf, t_buf = (np.empty(size) for _ in range(3))
    rect_buf = [np.empty(size) for _ in range(4)]
    dist_buf = {p: np.empty(size) for _, f in regions for p in f[:2]}
    in_rect_buf = np.empty((len(regions), size), dtype=bool)
    in_ell_buf = np.empty((len(regions), size), dtype=bool)
    spare_buf = np.empty(size, dtype=bool)
    n_rect = n_ell = n_mu = n_nu = 0
    for start in range(0, samples, size):
        n = min(size, samples - start)
        xs, ys, t, spare = xs_buf[:n], ys_buf[:n], t_buf[:n], spare_buf[:n]
        rng.random(out=xs)
        np.multiply(xs, x_span, out=xs)
        np.add(xs, x0, out=xs)
        y_rng.random(out=ys)
        np.multiply(ys, y_span, out=ys)
        np.add(ys, y0, out=ys)
        dist = {p: buf[:n] for p, buf in dist_buf.items()}
        for p, out in dist.items():
            _focus_dist(p, xs, ys, t, out)
        scratch = [a[:n] for a in rect_buf]
        in_rect = in_rect_buf[:, :n]
        in_ell = in_ell_buf[:, :n]
        for r, (rect, (f1, f2, sum_bound)) in enumerate(regions):
            _rect_mask(rect, xs, ys, scratch, spare, in_rect[r])
            np.add(dist[f1], dist[f2], out=t)
            np.less_equal(t, sum_bound, out=in_ell[r])
        if rect_a is None:
            n_rect += int(np.count_nonzero(in_rect[0]))
            n_ell += int(np.count_nonzero(in_ell[0]))
            continue
        union, both = _union_and_overlap(in_rect, spare)
        n_rect += union
        n_mu += both
        union, both = _union_and_overlap(in_ell, spare)
        n_ell += union
        n_nu += both

    if rect_a is not None:
        mu_hat = float(n_mu) / samples * box_area
        nu_hat = float(n_nu) / samples * box_area
        alpha_area = rect_a.area
    else:
        mu_hat = 0.0
        nu_hat = 0.0
        alpha_area = 0.0

    if n_ell == 0:
        raise ValueError("no samples landed in the ellipse union; "
                         "degenerate regions or too few samples")
    p = n_rect / samples
    q = n_ell / samples
    eta = p / q
    # delta method; the ellipse union is a subset of the rectangle union, so
    # cov(indicators) = q(1 - p)
    var = (p * (1 - p) / samples / p**2
           + q * (1 - q) / samples / q**2
           - 2 * q * (1 - p) / samples / (p * q)) * eta * eta
    se = math.sqrt(max(var, 0.0))

    # estimated overlaps can poke past the exact areas by sampling noise;
    # project back onto the feasible set before the closed forms
    mu = min(mu_hat, alpha_area, rect_b.area)
    nu_cap = min(math.pi / 4.0 * alpha_area, math.pi / 4.0 * rect_b.area, mu)
    nu = min(nu_hat, nu_cap)
    bounds = eta_closed(alpha_area, rect_b.area, mu, nu)
    return EtaEstimate(eta=eta, se=se, lo=bounds.lo, hi=bounds.hi,
                       alpha_area=alpha_area, beta_area=rect_b.area,
                       mu=mu, nu=nu, samples=samples)


# -- rejection-rate model --------------------------------------------------


def expected_rrcc(area: float, s: float) -> tuple[float, float]:
    """Expected gate rejection rates (case A, case B) for region area over S."""
    if s <= 0:
        raise ValueError("city area must be positive")
    if not (0.0 <= area <= s):
        raise ValueError(f"region area {area} outside [0, {s}]")
    frac = area / s
    return 1.0 - frac * frac, 1.0 - frac


# side of the square city the gate harness draws its points in
HARNESS_SIDE_KM = 10.0


@dataclass(frozen=True)
class RrccRow:
    area: float
    s: float
    samples: int
    psi_a: float
    psi_b: float
    expected_psi_a: float
    expected_psi_b: float


def rrcc_gate_harness(area_fraction: float, samples: int,
                      seed: int) -> RrccRow:
    """Measured gate rejection rates with a frozen square search area.

    Pins a vehicle search area of the given fractional size in a square city,
    draws uniform origin-destination pairs, and counts how often the real
    gate's area test (``area_admits``) rejects case A and case B.  It runs in
    inclusive mode, whose case B is the origin-membership test the
    expectation model tracks; case A does not depend on the mode.
    """
    if not (0.0 < area_fraction <= 1.0):
        raise ValueError("area_fraction must be in (0, 1]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    s = HARNESS_SIDE_KM * HARNESS_SIDE_KM
    area = area_fraction * s
    c = HARNESS_SIDE_KM / 2.0
    pos = Point(c, c)
    # coincident foci: the axis-aligned square of side sqrt(area)
    psa = VehiclePsa.single(make_psa_rect(pos, pos, math.sqrt(area)),
                            request_id=0)

    rng = substream(seed, f"rrcc-{area_fraction:.6f}")
    pts = rng.uniform(0.0, HARNESS_SIDE_KM, size=(samples, 4))
    pass_a = 0
    pass_b = 0
    for ox, oy, dx, dy in pts:
        o = Point(ox, oy)
        d = Point(dx, dy)
        admit_a, admit_b = area_admits(psa, o, d, MODE_INCLUSIVE)
        pass_a += admit_a
        pass_b += admit_b
    exp_a, exp_b = expected_rrcc(area, s)
    return RrccRow(area=area, s=s, samples=samples,
                   psi_a=1.0 - pass_a / samples,
                   psi_b=1.0 - pass_b / samples,
                   expected_psi_a=exp_a, expected_psi_b=exp_b)


# -- traffic metrics -------------------------------------------------------


@dataclass(frozen=True)
class TrafficMetrics:
    moving: int
    onboard_riders: int
    sharing_rate: float | None
    utilization: float
    saved_km: float
    completed_total: int
    unserved: int


def fleet_km(vehicles: Iterable[Vehicle]) -> float:
    """Sum of the vehicles' odometers, added left to right.

    The built-in ``sum()`` compensates float rounding from Python 3.12 on,
    which would make the reported km depend on the interpreter.
    """
    km = 0
    for v in vehicles:
        km += v.odometer
    return km


def traffic_metrics(state: WorldState) -> TrafficMetrics:
    """Instantaneous fleet metrics for a world snapshot.

    Sharing rate is passengers onboard per moving vehicle and is absent
    (None) when nothing moves.  Saved distance is the direct-route total of
    completed requests minus all fleet travel so far; negative while pickup
    legs dominate.  The request counts come from the state's running
    totals, so only the vehicles are scanned.  The totals are counted when
    the state is built and kept current by ``run_epoch``, which moves the
    clock and commits, and by the simulator's pickup and drop-off events;
    a request changed any other way needs a freshly built state.
    """
    vehicles = state.vehicles.values()
    moving = sum(1 for v in vehicles if v.path)
    onboard_riders = state.onboard_riders
    travel = fleet_km(vehicles)
    fleet = len(state.vehicles)
    return TrafficMetrics(
        moving=moving, onboard_riders=onboard_riders,
        sharing_rate=(onboard_riders / moving) if moving else None,
        utilization=moving / fleet if fleet else 0.0,
        saved_km=state.direct_done_km - travel,
        completed_total=state.completed,
        unserved=state.unserved)

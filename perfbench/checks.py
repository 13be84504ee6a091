"""Output checks that hold the program to facts computed apart from it.

A simulated period is checked from the files ``write_report_files`` wrote,
against the request stream the benchmark generated and the lattice's
closed-form distances.  A Monte Carlo estimate is checked against the
rectangle areas and overhead bounds recomputed here from the search areas.

Each check returns ``(failed, errors)``: ``failed`` counts operations that
did not complete (an unserved request, an estimate outside its bounds) and
``errors`` lists every wrong output among the operations that did.
"""

from __future__ import annotations

import csv
import json
import math
import os

from inputs import Foci, GridCity
from poolsim.model import SimConfig

TOL_KM = 1e-6
TOL_RATIO = 1e-6
FOUR_OVER_PI = 4.0 / math.pi


def _num(cell: str) -> float | None:
    return float(cell) if cell else None


def read_report(report_dir: str) -> dict:
    with open(os.path.join(report_dir, "report.json")) as f:
        return json.load(f)


def check_period(city: GridCity, requests: list[tuple[int, float, int, int]],
                 report_dir: str, cfg: SimConfig) -> tuple[int, list[str]]:
    """Service guarantees of one simulated period, request by request.

    Between pickup and drop-off the vehicle never stops, so the in-vehicle
    km of a trip is its ride time times the speed; likewise the km driven
    between scheduling and pickup.
    """
    speed_km_s = cfg.speed_kmh / 3600.0
    with open(os.path.join(report_dir, "requests.csv"), newline="") as f:
        by_id = {int(row["id"]): row for row in csv.DictReader(f)}
    errors: list[str] = []
    failed = 0
    if sorted(by_id) != sorted(rid for rid, *_ in requests):
        return 0, [f"{report_dir}: requests.csv does not list each request "
                   f"exactly once"]
    for rid, t, o, d in requests:
        row = by_id[rid]
        where = f"{report_dir} request {rid}"
        direct = city.grid_km(o, d)
        reported = float(row["direct_km"])
        if abs(reported - direct) > TOL_KM:
            errors.append(f"{where}: direct_km {reported!r} but the grid "
                          f"distance is {direct!r}")
        if row["state"] != "completed":
            failed += 1
            continue
        released = float(row["t_s"])
        sched = _num(row["schedule_s"])
        pick = _num(row["pickup_s"])
        drop = _num(row["dropoff_s"])
        detour = _num(row["realized_detour"])
        if released != t:
            errors.append(f"{where}: released at {released!r}, not {t!r}")
        if None in (sched, pick, drop, detour):
            errors.append(f"{where}: completed without its times or detour")
            continue
        if not released <= sched <= pick <= drop:
            errors.append(f"{where}: times out of order: release {released} "
                          f"schedule {sched} pickup {pick} dropoff {drop}")
            continue
        ride_km = (drop - pick) * speed_km_s
        bound_km = (1.0 + cfg.max_detour) * direct
        if ride_km > bound_km + TOL_KM:
            errors.append(f"{where}: rode {ride_km:.6f} km, over the detour "
                          f"bound {bound_km:.6f} km")
        if abs(ride_km / direct - 1.0 - detour) > TOL_RATIO:
            errors.append(f"{where}: realized_detour {detour!r} but the ride "
                          f"time gives {ride_km / direct - 1.0!r}")
        guarded = row["under_wait_branch"] == "true"
        if guarded != (sched - released <= cfg.wait_threshold_s):
            errors.append(f"{where}: under_wait_branch {guarded} after "
                          f"waiting {sched - released:.3f} s to be scheduled")
        pickup_km = (pick - sched) * speed_km_s
        if guarded and pickup_km > cfg.buffer_km + TOL_KM:
            errors.append(f"{where}: drove {pickup_km:.6f} km to the pickup, "
                          f"over the buffer {cfg.buffer_km} km")
    return failed, errors


def check_full_search(report_dir: str) -> list[str]:
    """Exhaustive search evaluates every candidate: M equals N."""
    c = read_report(report_dir)["counters"]
    m = c["m_a"] + c["m_b"] + c["m_c"]
    n = c["n_a"] + c["n_b"] + c["n_c"]
    return [] if m == n else [f"{report_dir}: es evaluated M={m} of N={n}"]


def rect_area(f1: tuple[float, float], f2: tuple[float, float],
              budget: float) -> float:
    """Area of the rectangle circumscribing a detour ellipse."""
    e = math.dist(f1, f2)
    return budget * math.sqrt(budget * budget - e * e)


def eta_bounds(alpha: float, beta: float, mu: float,
               nu: float) -> tuple[float, float]:
    """Closed-form (lo, hi) of the area ratio of a united search area."""
    a_opt = math.pi / 4.0 * alpha
    b_opt = math.pi / 4.0 * beta
    surplus = 4.0 * nu - math.pi * mu
    lo_denom = a_opt + b_opt if surplus >= 0.0 else max(a_opt, b_opt)
    lo = max(1.0, FOUR_OVER_PI + surplus / (math.pi * lo_denom))
    hi = FOUR_OVER_PI + (4.0 - math.pi) * mu / (math.pi * (a_opt + b_opt - nu))
    return lo, hi


def check_estimate(pickup: Foci | None, ride: Foci, est,
                   samples: int) -> tuple[int, list[str]]:
    """One Monte Carlo estimate against its closed forms.

    The rectangle areas and the bounds at the estimated overlaps must match
    the ones recomputed here.  A single area must read 4/pi and a united one
    must fall within its bounds, each to five standard errors; otherwise the
    estimate failed.
    """
    errors = []
    alpha = rect_area(*pickup) if pickup is not None else 0.0
    beta = rect_area(*ride)
    if est.samples != samples:
        errors.append(f"estimate drew {est.samples} samples, not {samples}")
    if (abs(est.alpha_area - alpha) > 1e-9 * max(alpha, 1.0)
            or abs(est.beta_area - beta) > 1e-9 * beta):
        errors.append(f"rectangle areas ({est.alpha_area!r}, "
                      f"{est.beta_area!r}), not ({alpha!r}, {beta!r})")
    if not (est.se > 0.0 and math.isfinite(est.eta)):
        errors.append(f"estimate {est.eta!r} has standard error {est.se!r}")
        return 0, errors
    # a single area has no overlap, and both of its bounds are 4/pi
    mu, nu = (est.mu, est.nu) if pickup is not None else (0.0, 0.0)
    lo, hi = eta_bounds(alpha, beta, mu, nu)
    if abs(est.lo - lo) > 1e-9 or abs(est.hi - hi) > 1e-9:
        errors.append(f"bounds ({est.lo!r}, {est.hi!r}), not ({lo!r}, {hi!r})")
    slack = 5.0 * est.se
    return int(not lo - slack <= est.eta <= hi + slack), errors

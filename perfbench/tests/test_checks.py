"""Each output check must catch the fault it exists for."""

import csv
import dataclasses
import math
import shutil

import pytest

import checks
import workloads as wl
from inputs import GridCity, draw_requests

SMALL = GridCity(nx=8, ny=8, spacing_km=0.5, vehicles=4, requests=24,
                 duration_s=900.0, min_trip_km=1.0)
WORKLOAD = wl.SimWorkload(SMALL, 1, "psap", "inclusive")
SEED = 5


@pytest.fixture(scope="module")
def period(tmp_path_factory):
    """One simulated period of the small city and its generated requests."""
    rnd = wl.sim_round(WORKLOAD, SEED, str(tmp_path_factory.mktemp("run")))
    pseed = wl.period_seeds(SEED, 1)[0]
    return rnd.report_dirs[0], draw_requests(SMALL, pseed)


def _check(report_dir, requests):
    return checks.check_period(SMALL, requests, report_dir,
                               wl.sim_config(WORKLOAD, 0))


def _corrupt(period, tmp_path, edit):
    """Copy the report, let ``edit`` change one row of requests.csv, check."""
    report_dir, requests = period
    bad = tmp_path / "report"
    shutil.copytree(report_dir, bad)
    with open(bad / "requests.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    edit(rows)
    with open(bad / "requests.csv", "w", newline="") as f:
        out = csv.DictWriter(f, fieldnames=list(rows[0]))
        out.writeheader()
        out.writerows(rows)
    return _check(str(bad), requests)


def _first(rows, pred):
    return next(r for r in rows if pred(r))


def test_clean_period_passes(period):
    assert _check(*period) == (0, [])


def test_ride_over_detour_bound(period, tmp_path):
    def edit(rows):
        r = _first(rows, lambda r: r["state"] == "completed")
        ride_s = float(r["dropoff_s"]) - float(r["pickup_s"])
        r["dropoff_s"] = repr(float(r["dropoff_s"]) + 0.25 * ride_s + 60.0)

    failed, errors = _corrupt(period, tmp_path, edit)
    assert failed == 0
    assert any("over the detour bound" in e for e in errors)


def test_pickup_over_buffer(period, tmp_path):
    def edit(rows):
        r = _first(rows, lambda r: r["under_wait_branch"] == "true")
        late = 6.5 / (30.0 / 3600.0)  # 6.5 km at 30 km/h
        shift = float(r["schedule_s"]) + late - float(r["pickup_s"])
        r["pickup_s"] = repr(float(r["pickup_s"]) + shift)
        r["dropoff_s"] = repr(float(r["dropoff_s"]) + shift)

    failed, errors = _corrupt(period, tmp_path, edit)
    assert failed == 0
    assert any("over the buffer" in e for e in errors)


def test_wrong_direct_distance(period, tmp_path):
    def edit(rows):
        rows[0]["direct_km"] = repr(float(rows[0]["direct_km"]) + 0.5)

    failed, errors = _corrupt(period, tmp_path, edit)
    assert any("grid distance" in e for e in errors)


def test_unserved_request_counts_as_failed(period, tmp_path):
    def edit(rows):
        r = rows[-1]
        r["state"] = "unscheduled"
        for key in ("vehicle_id", "schedule_s", "pickup_s", "dropoff_s",
                    "waiting_s", "realized_detour", "realized_buffer_km",
                    "under_wait_branch"):
            r[key] = ""

    assert _corrupt(period, tmp_path, edit) == (1, [])


def test_full_search_must_evaluate_everything(period):
    report_dir, _ = period
    # the period ran psap, which skips candidates
    assert checks.check_full_search(report_dir)


def test_eta_estimates_are_held_to_their_bounds():
    pickup, ride = wl.eta_cases(3)[0]
    single = wl.eta_cases(3)[-1][1]
    samples = 20_000
    est = wl.analysis.eta_monte_carlo(wl._region(pickup), wl._region(ride),
                                      samples, seed=1)
    one = wl.analysis.eta_monte_carlo(None, wl._region(single), samples,
                                      seed=2)
    assert checks.check_estimate(pickup, ride, est, samples) == (0, [])
    assert checks.check_estimate(None, single, one, samples) == (0, [])
    far = dataclasses.replace(est, eta=est.hi + 6.0 * est.se)
    assert checks.check_estimate(pickup, ride, far, samples) == (1, [])
    off = dataclasses.replace(one, eta=4.0 / math.pi + 6.0 * one.se)
    assert checks.check_estimate(None, single, off, samples) == (1, [])
    wrong = dataclasses.replace(est, beta_area=est.beta_area * 1.01)
    assert checks.check_estimate(pickup, ride, wrong, samples)[1]

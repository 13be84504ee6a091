"""The benchmark's workloads: one round of each, and the checks of its output.

A simulation round does for each of its periods what ``poolsim simulate``
does: the inputs are generated as CSV files and loaded with
``load_network`` and ``load_requests`` (the set-up), then ``run`` and
``write_report_files`` turn them into report files (the timed run).  An
``eta-sweep`` round draws a batch of search areas (the set-up) and estimates
the area-ratio overhead of each with ``eta_monte_carlo`` (the timed run).

Rounds of one run repeat the same inputs, so their outputs must be
byte-identical; the checks in :mod:`checks` run on the last round's output.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass, field

from checks import check_estimate, check_full_search, check_period, read_report
from inputs import (GridCity, draw_requests, draw_single_areas,
                    draw_union_areas, rng_for, write_city)
from poolsim import analysis, model, roadnet, simulator
from poolsim.geometry import Point
from poolsim.model import SimConfig

REPORT_FILES = ("report.json", "metrics.csv", "requests.csv", "events.jsonl")

# The acceptance dense city (20x20 grid at 0.3 km, 70 vehicles, 900 requests
# per hour, trips of at least 2.5 km) in 15-minute periods.  A whole hour
# takes about 30 s to simulate, too long to repeat within one run, and its
# amount of work swings widely between seeds as the fleet saturates; three
# independent periods per round keep the work per round steady across seeds.
DENSE = GridCity(nx=20, ny=20, spacing_km=0.3, vehicles=70, requests=225,
                 duration_s=900.0, min_trip_km=2.5)
DENSE_PERIODS = 3
# A lightly loaded city of 3600 nodes at 500 requests per hour for half an
# hour: short stop paths, Dijkstra rows over thousands of sources.
CITY = GridCity(nx=60, ny=60, spacing_km=0.2, vehicles=120, requests=250,
                duration_s=1800.0)
ETA_SAMPLES = 1_000_000
ETA_UNIONS = 48
ETA_SINGLES = 16


@dataclass(frozen=True)
class SimWorkload:
    city: GridCity
    periods: int
    scheduler: str
    gating: str = "literal"


@dataclass
class Round:
    setup_s: list[float] = field(default_factory=list)  # per period or batch
    run_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    digests: list[str] = field(default_factory=list)
    report_dirs: list[str] = field(default_factory=list)
    report_bytes: int = 0


def period_seeds(seed: int, periods: int) -> list[int]:
    """The seed of each independent period of a round."""
    rng = rng_for(seed, "periods")
    return [int(s) for s in rng.integers(0, 2**31, size=periods)]


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def sim_config(w: SimWorkload, period_seed: int) -> SimConfig:
    # every other setting at the `poolsim simulate` default
    return SimConfig(n_vehicles=w.city.vehicles, seed=period_seed,
                     gating=w.gating)


def sim_round(w: SimWorkload, seed: int, outdir: str,
              scheduler: str | None = None) -> Round:
    """Generate, load, simulate and write each period of one round."""
    out = Round()
    clock = time.perf_counter
    for k, pseed in enumerate(period_seeds(seed, w.periods)):
        pdir = os.path.join(outdir, f"period{k}")
        report_dir = os.path.join(pdir, "report")
        t0 = clock()
        paths = write_city(w.city, pseed, os.path.join(pdir, "inputs"))
        net = roadnet.load_network(paths["nodes"], paths["edges"])
        requests = model.load_requests(paths["requests"], net)
        t1 = clock()
        report = simulator.run(net, requests, sim_config(w, pseed),
                               scheduler=scheduler or w.scheduler)
        written = simulator.write_report_files(report, report_dir)
        t2 = clock()
        out.setup_s.append(t1 - t0)
        out.run_s += t2 - t1
        out.attempted += len(requests)
        out.digests.append(_digest(written))
        out.report_dirs.append(report_dir)
        out.report_bytes += sum(os.path.getsize(p) for p in written)
        # drop this period's network and its row cache before the next one
        del net, requests, report
        gc.collect()
    return out


def check_sim(w: SimWorkload, seed: int, last: Round,
              ref_dirs: list[str] | None) -> tuple[int, list[str]]:
    """Check every period of a round; ``ref_dirs`` hold an es run to match."""
    failed = 0
    errors: list[str] = []
    for k, pseed in enumerate(period_seeds(seed, w.periods)):
        n_failed, errs = check_period(w.city, draw_requests(w.city, pseed),
                                      last.report_dirs[k], sim_config(w, pseed))
        failed += n_failed
        errors.extend(errs)
        if w.scheduler == "es":
            errors.extend(check_full_search(last.report_dirs[k]))
        if ref_dirs is not None:
            ours = read_report(last.report_dirs[k])["assignments"]
            theirs = read_report(ref_dirs[k])["assignments"]
            if ours != theirs:
                errors.append(f"{last.report_dirs[k]}: assignments differ "
                              f"from es on the same inputs")
    return failed, errors


def sim_outcomes(last: Round) -> dict[str, float]:
    """Counters and service figures of a round, summed over its periods."""
    n = {"a": 0, "b": 0, "c": 0}
    m = {"a": 0, "b": 0, "c": 0}
    completed = 0
    fleet_km = 0.0
    waits: list[float] = []
    for report_dir in last.report_dirs:
        rep = read_report(report_dir)
        for case in n:
            n[case] += rep["counters"][f"n_{case}"]
            m[case] += rep["counters"][f"m_{case}"]
        completed += rep["totals"]["completed"]
        fleet_km += rep["totals"]["total_travel_km"]
        waits.extend(r["waiting_s"] for r in rep["requests"]
                     if r["waiting_s"] is not None)
    n_total, m_total = sum(n.values()), sum(m.values())
    out = {
        "scheduler.candidates_full": n_total,
        "scheduler.candidates_evaluated": m_total,
        "scheduler.prune_ratio": 1.0 - m_total / n_total if n_total else 0.0,
        "simulator.trips_completed": completed,
        "simulator.fleet_km": fleet_km,
        "simulator.mean_wait_s": sum(waits) / len(waits) if waits else 0.0,
    }
    for case in n:
        out[f"scheduler.psi_{case}"] = ((n[case] - m[case]) / n[case]
                                        if n[case] else 0.0)
    return out


# -- eta-sweep ---------------------------------------------------------------


def _region(foci) -> tuple[Point, Point, float]:
    f1, f2, budget = foci
    return Point(*f1), Point(*f2), budget


def eta_cases(seed: int) -> list[tuple]:
    """(pickup area or None, ride area) per estimate of one round."""
    return (list(draw_union_areas(seed, ETA_UNIONS))
            + [(None, ride) for ride in draw_single_areas(seed, ETA_SINGLES)])


def eta_round(seed: int, samples: int = ETA_SAMPLES) -> tuple[Round, list]:
    """Estimate the overhead of every area of the batch; return the estimates."""
    out = Round()
    clock = time.perf_counter
    t0 = clock()
    cases = eta_cases(seed)
    regions = [(None if p is None else _region(p), _region(r))
               for p, r in cases]
    t1 = clock()
    estimates = []
    for k, (pickup, ride) in enumerate(regions):
        t2 = clock()
        estimates.append(analysis.eta_monte_carlo(pickup, ride, samples,
                                                  seed=seed * 64 + k))
        out.op_s.append(clock() - t2)
    out.setup_s.append(t1 - t0)
    out.run_s = clock() - t1
    out.attempted = len(estimates)
    out.digests = [hashlib.sha256(repr(estimates).encode()).hexdigest()]
    return out, estimates


def check_eta(seed: int, estimates: list,
              samples: int = ETA_SAMPLES) -> tuple[int, list[str]]:
    failed = 0
    errors: list[str] = []
    for k, ((pickup, ride), est) in enumerate(zip(eta_cases(seed), estimates)):
        n_failed, errs = check_estimate(pickup, ride, est, samples)
        failed += n_failed
        errors.extend(f"estimate {k}: {e}" for e in errs)
    return failed, errors

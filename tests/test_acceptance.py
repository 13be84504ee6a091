"""Whole-library acceptance gate.

Every test prints one verdict line (``ACCEPTANCE <n> (<name>): PASS|FAIL``)
with its measured numbers, then asserts it.  The geometry block pins the
closed-form constants the pruning rests on: the rectangle-over-ellipse area
ratio, the overhead bounds for united search areas, and the rejection-rate
model for a frozen area.  The simulation block pins candidate tallies,
scheduler equivalence against exhaustive search, filter soundness, the
per-request service guarantees, pruning and sharing effects under load, and
byte-level determinism of the written reports.  Heavy simulation fixtures are
session-scoped and shared across tests.
"""
import math
import time
from dataclasses import dataclass

import pytest

from poolsim.analysis import eta_monte_carlo, rrcc_gate_harness
from poolsim.geometry import Point, euclid
from poolsim.insertion import CASE_A, CASE_B, CASE_C, VehicleTrial
from poolsim.model import (Request, RequestState, SimConfig, Stop, StopKind,
                           Vehicle, check_request, sample_requests,
                           waiting_time)
from poolsim.roadnet import RoadNetwork, gen_grid
from poolsim.seeds import substream
from poolsim.simulator import run, write_report_files
from test_insertion import (closed_form_counts, enumerate_all,
                            reference_positions, trial_for)

FOUR_OVER_PI = 4.0 / math.pi

ORACLE_SEEDS = tuple(range(50))
ORACLE_GRID = (10, 10, 0.5)
ORACLE_DURATION_S = 1500.0
ORACLE_TRIP_CAP_KM = 1.5
ORACLE_TIME_BUDGET_S = 30.0

DENSE_GRID = (20, 20, 0.3)
DENSE_REQUESTS = 900
DENSE_DURATION_S = 3600.0
DENSE_VEHICLES = 70
DENSE_SEED = 7
DENSE_MIN_TRIP_KM = 2.5

DETOUR_TOL = 0.2 + 1e-6
BUFFER_TOL_KM = 6.0 + 1e-6


def _verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def oracle_instance(net, seed):
    n_veh = 3 + seed % 3
    n_req = 20 + (seed * 7) % 21
    reqs = sample_requests(net, substream(seed, "requests"), n_req,
                           ORACLE_DURATION_S, max_e_km=ORACLE_TRIP_CAP_KM)
    return n_veh, reqs


class SubsetObserver:
    """Pruned-mode trials against exhaustive evaluation on the same state.

    Every admitted position must be legal (subset of the complete position
    set), and its unbounded evaluation on the visit's shared parts must
    carry the exact cost and case that a trial on parts built afresh from
    the same vehicle state gives, so a stale shared part shows up as a
    mismatch.  The aggregate admitted and complete counts feed the
    strictness check.
    """

    def __init__(self, net, config):
        self.net = net
        self.config = config
        self.evaluated = 0
        self.full = 0
        self.escaped = 0
        self.cost_mismatches = 0

    def __call__(self, now, path, ends, positions):
        r = ends.request
        check_buffer = waiting_time(r, now) <= self.config.wait_threshold_s
        legal = {(i, j) for i, j, _ in reference_positions(path.k)}
        self.evaluated += len(positions)
        self.full += len(legal)
        if not check_buffer or not positions:
            return
        shared = VehicleTrial(path, ends)
        fresh = trial_for(self.net, path.v, path.requests, r, self.config,
                          check_buffer)
        for i, j, _ in positions:
            if (i, j) not in legal:
                self.escaped += 1
                continue
            c = shared.evaluate(i, j)
            again = fresh.evaluate(i, j)
            if again.cost != c.cost or again.case != c.case:
                self.cost_mismatches += 1


class SoundnessObserver:
    """Every candidate the pruned planner drops must fail the full QoS check.

    Counts the candidates missing from a visit's admitted positions, with
    out-of-reach vehicles included: A and B dropped by the search area,
    the tail append C by its pickup bound, and every case by the reach
    bound.
    """

    def __init__(self, net, config):
        self.net = net
        self.config = config
        self.rejected = 0
        self.false_exclusions = 0

    def __call__(self, now, path, ends, positions):
        if len(positions) == sum(closed_form_counts(path.k)):
            return
        r = ends.request
        check_buffer = waiting_time(r, now) <= self.config.wait_threshold_s
        admitted = {(i, j) for i, j, _ in positions}
        for c in enumerate_all(self.net, path.v, path.requests, r,
                               self.config, check_buffer):
            if (c.i, c.j) not in admitted:
                self.rejected += 1
                if c.cost != math.inf:
                    self.false_exclusions += 1


@pytest.fixture(scope="session")
def oracle_bundle():
    """50 seeded instances: equivalence, subset, soundness, QoS evidence."""
    net = gen_grid(*ORACLE_GRID)
    reports = []
    mismatched = []
    timed = 0.0
    evaluated = full = escaped = cost_mismatches = 0
    rejected = false_exclusions = 0
    for seed in ORACLE_SEEDS:
        n_veh, reqs = oracle_instance(net, seed)
        t0 = time.perf_counter()
        rep_incl = run(net, reqs,
                       SimConfig(n_vehicles=n_veh, seed=seed,
                                 gating="inclusive"), scheduler="psap")
        rep_es = run(net, reqs,
                     SimConfig(n_vehicles=n_veh, seed=seed),
                     scheduler="es")
        cfg_lit = SimConfig(n_vehicles=n_veh, seed=seed, gating="literal")
        subset = SubsetObserver(net, cfg_lit)
        rep_lit = run(net, reqs, cfg_lit, scheduler="psap",
                      trial_observer=subset)
        timed += time.perf_counter() - t0
        if ([vars(a) for a in rep_incl.assignments]
                != [vars(a) for a in rep_es.assignments]):
            mismatched.append(seed)
        evaluated += subset.evaluated
        full += subset.full
        escaped += subset.escaped
        cost_mismatches += subset.cost_mismatches
        cfg_sound = SimConfig(n_vehicles=n_veh, seed=seed,
                              gating="inclusive")
        soundness = SoundnessObserver(net, cfg_sound)
        rep_sound = run(net, reqs, cfg_sound, scheduler="psap",
                        trial_observer=soundness)
        rejected += soundness.rejected
        false_exclusions += soundness.false_exclusions
        reports.extend((rep_incl, rep_es, rep_lit, rep_sound))
    return {
        "reports": reports,
        "mismatched": mismatched,
        "timed_s": timed,
        "evaluated": evaluated,
        "full": full,
        "escaped": escaped,
        "cost_mismatches": cost_mismatches,
        "rejected": rejected,
        "false_exclusions": false_exclusions,
    }


@pytest.fixture(scope="session")
def dense_results():
    """Saturated scenario: pruned planner and exhaustive search side by side."""
    net = gen_grid(*DENSE_GRID)
    reqs = sample_requests(net, substream(DENSE_SEED, "requests"),
                           DENSE_REQUESTS, DENSE_DURATION_S,
                           min_e_km=DENSE_MIN_TRIP_KM)
    out = {"net": net, "requests": reqs}
    for label, sched in (("literal", "psap"), ("es", "es")):
        cfg = SimConfig(n_vehicles=DENSE_VEHICLES, seed=DENSE_SEED,
                        gating="literal")
        t0 = time.perf_counter()
        rep = run(net, reqs, cfg, scheduler=sched)
        out[label] = rep
        out[f"{label}_wall_s"] = time.perf_counter() - t0
    return out


def four_over_pi_monte_carlo(samples: int, seed: int) -> float:
    """Single-region sanity estimate of the rectangle/ellipse area ratio."""
    est = eta_monte_carlo(None, (Point(0.0, 0.0), Point(4.0, 0.0), 6.0),
                          samples, seed)
    return est.eta


def test_01_area_ratio(capsys):
    t0 = time.perf_counter()
    ratio = four_over_pi_monte_carlo(1_000_000, seed=1)
    elapsed = time.perf_counter() - t0
    rel_err = abs(ratio / FOUR_OVER_PI - 1.0)
    ok = rel_err <= 0.005 and elapsed <= 5.0
    _verdict(capsys, 1, "rectangle-over-ellipse area ratio", ok,
             f"ratio={ratio:.5f} target={FOUR_OVER_PI:.5f} "
             f"rel_err={rel_err:.2e} elapsed={elapsed:.2f}s")


def _union_config(rng):
    """One random trip with a pruning-feasible united search area."""
    while True:
        o = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        e = euclid(o, d)
        if e < 0.5:
            continue
        direct = e * rng.uniform(1.0, 1.4)
        sum_bound = (1.0 + rng.uniform(0.05, 0.5)) * direct
        p_s = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        e2 = euclid(p_s, o)
        if e2 < 0.3:
            continue
        buffer_bound = e2 * rng.uniform(1.05, 2.0)
        return (p_s, o, buffer_bound), (o, d, sum_bound)


def test_02_overhead_bounds(capsys):
    t0 = time.perf_counter()
    rng = substream(20260822, "eta-configs")
    configs = [_union_config(rng) for _ in range(1000)]
    fails = 0
    worst_se = 0.0
    sum_eta = sum_lo = sum_hi = sum_se = 0.0
    for k, (f_alpha, f_beta) in enumerate(configs):
        est = eta_monte_carlo(f_alpha, f_beta, samples=1_000_000, seed=k)
        slack = 5.0 * est.se + 1e-9
        if not (est.lo - slack <= est.eta <= est.hi + slack):
            fails += 1
        if est.se > 0.0:
            excess = max(est.lo - est.eta, est.eta - est.hi)
            worst_se = max(worst_se, excess / est.se)
        sum_eta += est.eta
        sum_lo += est.lo
        sum_hi += est.hi
        sum_se += est.se
    elapsed = time.perf_counter() - t0
    mean_slack = 5.0 * (sum_se / 1000.0)
    batch_ok = (sum_lo / 1000.0 - mean_slack
                <= sum_eta / 1000.0
                <= sum_hi / 1000.0 + mean_slack)
    ok = fails == 0 and batch_ok and elapsed <= 60.0
    _verdict(capsys, 2, "overhead bounds on 1000 configurations", ok,
             f"fails={fails}/1000 worst_excess={worst_se:.2f}se "
             f"batch_mean_ok={batch_ok} elapsed={elapsed:.1f}s")


def test_03_rejection_rate_model(capsys):
    worst_a = worst_b = 0.0
    for idx, frac in enumerate((0.1, 0.3, 0.5)):
        row = rrcc_gate_harness(frac, samples=200_000, seed=31 + idx)
        worst_a = max(worst_a, abs(row.psi_a - row.expected_psi_a))
        worst_b = max(worst_b, abs(row.psi_b - row.expected_psi_b))
    ok = worst_a <= 0.02 and worst_b <= 0.02
    _verdict(capsys, 3, "gate rejection-rate model", ok,
             f"max|psi_a err|={worst_a:.4f} max|psi_b err|={worst_b:.4f} "
             f"tolerance=0.02 at 2e5 samples")


def test_04_candidate_tallies(capsys):
    net = gen_grid(2, 2, 1.0)
    cfg = SimConfig()
    bad = []
    for k in range(1, 51):
        riders = {rid: Request(id=rid, t=0.0, n=1, o=0, d=1, direct_dist=1.0,
                               state=RequestState.ONBOARD, schedule_time=0.0,
                               pickup_time=0.0, vehicle_id=0,
                               odometer_at_schedule=0.0,
                               traveled_at_pickup=0.0,
                               scheduled_under_wait=True)
                  for rid in range(1, k + 1)}
        v = Vehicle(id=0, capacity=10 ** 9, node=0,
                    path=[Stop(StopKind.DESTINATION, rid, 1)
                          for rid in range(1, k + 1)])
        new = Request(id=0, t=0.0, n=1, o=0, d=1, direct_dist=1.0)
        tallies = {CASE_A: 0, CASE_B: 0, CASE_C: 0}
        for c in enumerate_all(net, v, riders, new, cfg, True):
            tallies[c.case] += 1
        want = (k * (k - 1) // 2, k - 1, 1)
        if (tallies[CASE_A], tallies[CASE_B], tallies[CASE_C]) != want:
            bad.append(k)
    ok = not bad
    _verdict(capsys, 4, "candidate tallies for K=1..50", ok,
             "all exact: A=K(K-1)/2 B=K-1 C=1" if ok
             else f"wrong tallies at K={bad}")


def test_05_scheduler_equivalence(capsys, oracle_bundle):
    b = oracle_bundle
    ok = (not b["mismatched"] and b["escaped"] == 0
          and b["cost_mismatches"] == 0 and b["evaluated"] < b["full"]
          and b["timed_s"] <= ORACLE_TIME_BUDGET_S)
    _verdict(capsys, 5, "scheduler equivalence on 50 instances", ok,
             f"inclusive-vs-exhaustive mismatches={len(b['mismatched'])} "
             f"subset_escapes={b['escaped']} "
             f"cost_mismatches={b['cost_mismatches']} "
             f"pruned={b['evaluated']}/{b['full']} "
             f"timed={b['timed_s']:.1f}s budget={ORACLE_TIME_BUDGET_S:.0f}s")


def test_06_filter_soundness(capsys, oracle_bundle):
    b = oracle_bundle
    ok = b["false_exclusions"] == 0 and b["rejected"] > 0
    _verdict(capsys, 6, "filter soundness on 50 instances", ok,
             f"dropped candidates={b['rejected']} "
             f"false_exclusions={b['false_exclusions']}")


def test_07_service_guarantees(capsys, oracle_bundle, dense_results):
    reports = list(oracle_bundle["reports"])
    reports.extend((dense_results["literal"], dense_results["es"]))
    completed = 0
    detour_bad = buffer_bad = 0
    worst_detour = worst_buffer = 0.0
    for rep in reports:
        for oc in rep.requests:
            if oc.state != "completed":
                continue
            completed += 1
            if oc.realized_detour is not None:
                worst_detour = max(worst_detour, oc.realized_detour)
                if oc.realized_detour > DETOUR_TOL:
                    detour_bad += 1
            if oc.under_wait_branch and oc.realized_buffer_km is not None:
                worst_buffer = max(worst_buffer, oc.realized_buffer_km)
                if oc.realized_buffer_km > BUFFER_TOL_KM:
                    buffer_bad += 1
    ok = completed > 0 and detour_bad == 0 and buffer_bad == 0
    _verdict(capsys, 7, "service guarantees on every completed trip", ok,
             f"completed={completed} over-detour={detour_bad} "
             f"over-buffer={buffer_bad} worst_detour={worst_detour:.6f} "
             f"worst_buffer={worst_buffer:.3f}km")


def _counter_totals(rep):
    c = rep.counters
    return c.m_a + c.m_b + c.m_c, c.n_a + c.n_b + c.n_c


def test_08_pruning_effect(capsys, dense_results):
    m_lit, _ = _counter_totals(dense_results["literal"])
    m_es, _ = _counter_totals(dense_results["es"])
    ratio = m_lit / m_es
    c = dense_results["literal"].counters
    psi = {case: c.psi(case) for case in (CASE_A, CASE_B, CASE_C)}
    psi_txt = " ".join(f"psi_{case.lower()}={psi[case]:.3f}"
                       for case in (CASE_A, CASE_B, CASE_C))
    ok = ratio <= 0.85
    _verdict(capsys, 8, "pruning effect in the dense scenario", ok,
             f"evaluated {m_lit}/{m_es} ratio={ratio:.3f} (bound 0.85) "
             f"walls: literal={dense_results['literal_wall_s']:.1f}s "
             f"es={dense_results['es_wall_s']:.1f}s (reported, not asserted); "
             f"{psi_txt} vs reference ordering "
             f"psi_a 0.402 > psi_c 0.318 > psi_b 0.151")


@dataclass(frozen=True)
class PoevBaseline:
    """Private-vehicle counterfactual: every rider drives the direct route."""
    total_km: float
    fleet_size: int
    sharing_rate: float = 1.0


def poev_fleet_size(n_requests: int) -> int:
    return math.ceil(n_requests / 2)


def poev_baseline(net: RoadNetwork, requests: list[Request]) -> PoevBaseline:
    total = 0.0
    for r in requests:
        total += check_request(net, r)
    return PoevBaseline(total_km=total,
                        fleet_size=poev_fleet_size(len(requests)))


def test_09_sharing_benefit(capsys, dense_results):
    rep = dense_results["literal"]
    reqs = dense_results["requests"]
    net = dense_results["net"]
    saved = rep.epochs[-1].saved_km
    peak = max(e.sharing_rate for e in rep.epochs
               if e.sharing_rate is not None)
    baseline = poev_baseline(net, reqs)
    direct_sum = sum(rc.direct_km for rc in rep.requests)
    ok = (saved > 0.0 and peak > 1.0
          and baseline.total_km == direct_sum
          and baseline.fleet_size == math.ceil(len(reqs) / 2)
          and rep.total_travel_km < baseline.total_km)
    _verdict(capsys, 9, "sharing benefit in the dense scenario", ok,
             f"saved={saved:.1f}km peak_sharing={peak:.2f} "
             f"fleet_travel={rep.total_travel_km:.1f}km < "
             f"baseline={baseline.total_km:.1f}km exact "
             f"(fleet_size={baseline.fleet_size})")


def test_10_determinism(capsys, tmp_path):
    seed = 17
    net = gen_grid(*ORACLE_GRID)
    blobs = []
    for attempt in ("a", "b"):
        n_veh, reqs = oracle_instance(net, seed)
        cfg = SimConfig(n_vehicles=n_veh, seed=seed, gating="literal")
        rep = run(net, reqs, cfg, scheduler="psap")
        outdir = tmp_path / attempt
        paths = sorted(write_report_files(rep, outdir))
        blobs.append([(p.rsplit("/", 1)[-1], open(p, "rb").read())
                      for p in paths])
    names = [name for name, _ in blobs[0]]
    ok = blobs[0] == blobs[1] and len(names) == 4
    _verdict(capsys, 10, "byte-identical reports on repeated runs", ok,
             f"seed={seed} files={names} "
             f"identical={blobs[0] == blobs[1]}")

"""Epoch scheduling: exhaustive insertion search and its search-area-pruned twin.

Each epoch processes the released, still-unassigned requests in descending
waiting-time order.  Per request, every vehicle with spare capacity is tried;
the pruned scheduler first gates whole candidate cases by cheap rectangle
membership and only cost-evaluates survivors, while the exhaustive scheduler
evaluates everything.  Both share the same cost algebra, QoS checks, and
tie-breaking, so with the inclusive case-B gate they provably commit identical
assignments; the literal gate trades a sliver of optimality for a stronger
prune.

Once a rider's waiting time passes the threshold W the gates (and the pickup
buffer guarantee) are dropped for that rider: any detour-feasible insertion
anywhere is acceptable rather than leaving them stranded.

Counters: N tallies what the exhaustive search would evaluate (closed form per
vehicle path length), M tallies what was actually cost-evaluated.  The
per-case rejection ratio (N - M) / N is the measured pruning power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .geometry import (PSA_OPEN, PSA_SINGLE, Point, VehiclePsa, make_psa_rect,
                       psa_contains, rect_contains)
from .insertion import (CASE_A, CASE_B, CASE_C, QOS_EPS, Candidate,
                        RequestRows, VehiclePath, VehicleTrial,
                        candidate_positions, splice)
from .model import (Request, RequestState, SimConfig, StopKind, Vehicle,
                    WorldState, waiting_time)
from .roadnet import RoadNetwork

MODE_LITERAL = "literal"
MODE_INCLUSIVE = "inclusive"
MODE_ES = "es"

TrialObserver = Callable[
    [float, Request, Vehicle, list[Candidate], dict[int, Request]], None]


def counts_for_path(k: int) -> tuple[int, int, int]:
    """Candidates the exhaustive search evaluates per case for path length K."""
    if k == 0:
        return (0, 0, 1)
    return (k * (k - 1) // 2, k - 1, 1)


@lru_cache(maxsize=512)
def admitted_positions(k: int, admit: tuple[bool, bool, bool],
                       ) -> tuple[tuple[int, int, str], ...]:
    """(i, j, case) of the admitted cases (A, B, C) for K stops, in order."""
    keep = dict(zip((CASE_A, CASE_B, CASE_C), admit))
    return tuple(p for p in candidate_positions(k) if keep[p[2]])


_ADMIT_ALL = (True, True, True)


@dataclass
class EpochCounters:
    n_a: int = 0
    n_b: int = 0
    n_c: int = 0
    m_a: int = 0
    m_b: int = 0
    m_c: int = 0

    def add(self, other: "EpochCounters") -> None:
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)

    @property
    def n_total(self) -> int:
        return self.n_a + self.n_b + self.n_c

    @property
    def m_total(self) -> int:
        return self.m_a + self.m_b + self.m_c

    def psi(self, case: str) -> float | None:
        n, m = {CASE_A: (self.n_a, self.m_a), CASE_B: (self.n_b, self.m_b),
                CASE_C: (self.n_c, self.m_c)}[case]
        if n == 0:
            return None
        return (n - m) / n


@dataclass(frozen=True)
class Assignment:
    t_s: float
    request_id: int
    vehicle_id: int
    i: int
    j: int
    case: str
    cost: float


def furthest_psa(net: RoadNetwork, v: Vehicle, requests: dict[int, Request],
                 buffer_km: float, max_detour: float) -> VehiclePsa:
    """Search area derived from the request whose destination closes the path.

    Onboard furthest rider: one rectangle around their origin-destination
    detour ellipse.  Still-waiting furthest rider with the pickup-buffer
    guarantee: that rectangle united with the pickup rectangle anchored at the
    vehicle position frozen when the rider was scheduled (infeasible pickup
    rectangles degrade the union to the ride rectangle alone).  Still-waiting
    furthest rider without the guarantee: open, because nothing bounds the leg
    up to its pickup and any rectangle would prune feasible insertions.  No
    committed riders: empty.  Both budgets carry the QoS check's slack
    ``QOS_EPS``, so a plan that lies exactly on a bound is never gated out.
    """
    if not v.path:
        return VehiclePsa.empty()
    last = v.path[-1]
    assert last.kind == StopKind.DESTINATION, "path must end at a destination"
    r = requests[last.request_id]
    if (r.state == RequestState.WAITING
            and not r.scheduled_under_wait):
        return VehiclePsa.open_area(r.id)
    beta = make_psa_rect(net.point(r.o), net.point(r.d),
                         (1.0 + max_detour + QOS_EPS) * r.direct_dist)
    assert beta is not None  # (1+detour)*D >= D >= E always holds
    if r.state == RequestState.ONBOARD:
        return VehiclePsa.single(beta, r.id)
    alpha = make_psa_rect(r.p_s, net.point(r.o), buffer_km + QOS_EPS)
    return VehiclePsa.union(alpha, beta, r.id)


def search_area(net: RoadNetwork, v: Vehicle, requests: dict[int, Request],
                config: SimConfig) -> VehiclePsa:
    """The vehicle's search area, rebuilt only when it no longer fits the path.

    The area depends only on the furthest rider and on whether they are
    onboard, which the stored area records as ``furthest_request_id`` and as
    ``kind == single``.  It is rebuilt here, where the gate reads it, once a
    commit, pickup or drop-off has changed either; nothing else updates it.
    """
    psa = v.psa
    furthest = v.path[-1].request_id if v.path else None
    onboard = (furthest is not None
               and requests[furthest].state == RequestState.ONBOARD)
    if (furthest, onboard) != (psa.furthest_request_id,
                               psa.kind == PSA_SINGLE):
        psa = v.psa = furthest_psa(net, v, requests, config.buffer_km,
                                   config.max_detour)
    return psa


def gate(psa: VehiclePsa, o_pt: Point, d_pt: Point, path_pts: list[Point],
         vehicle_pos: Point, buffer_km: float,
         mode: str) -> tuple[bool, bool, bool]:
    """Cheap geometric admission test of the cases (A, B, C) of one vehicle.

    Case A keeps candidates whose origin and destination both lie in the
    vehicle's search area.  Case B requires the origin in the area; literal
    mode additionally requires the destination outside (strict case
    separation), inclusive mode drops that exclusion, and an open area admits
    case B in both modes because it has no boundary to separate the cases on.
    Case C bounds the new rider's pickup buffer: every committed stop must lie
    in the rectangle spanned by the vehicle position and the new origin with
    the buffer, plus the QoS check's slack, as path budget; an empty path
    passes vacuously.
    """
    o_in = psa_contains(psa, o_pt)
    d_in = o_in and psa_contains(psa, d_pt)
    admit_b = o_in and (mode != MODE_LITERAL or psa.kind == PSA_OPEN
                        or not d_in)
    if not path_pts:
        return d_in, admit_b, True
    rect = make_psa_rect(vehicle_pos, o_pt, buffer_km + QOS_EPS)
    admit_c = rect is not None and all(rect_contains(rect, p)
                                       for p in path_pts)
    return d_in, admit_b, admit_c


def run_epoch(net: RoadNetwork, state: WorldState, config: SimConfig,
              now: float, mode: str,
              trial_observer: TrialObserver | None = None,
              ) -> tuple[list[Assignment], EpochCounters]:
    """One scheduling pass over the released unassigned requests.

    The requests are the state's running ``tally.pool``, in release
    order.  Mutates ``state`` in place: its clock moves to ``now``,
    winning insertions are committed (path, request bookkeeping and the
    state's running tally), and gated vehicles read their search area
    through ``search_area``.  Requests with no feasible insertion stay
    unassigned and are retried next epoch.  Returns the committed
    assignments, stamped with ``now``, and the per-case candidate counters.

    No vehicle moves during the pass, so each vehicle's ``VehiclePath`` is
    built on its first visit and shared by every later request of the
    pass, until a commit to that vehicle changes its path and drops it.
    Each request's ``RequestRows`` is built once, before its vehicle loop.
    """
    if mode not in (MODE_LITERAL, MODE_INCLUSIVE, MODE_ES):
        raise ValueError(f"unknown scheduler mode {mode!r}")
    counters = EpochCounters()
    assignments: list[Assignment] = []
    state.advance_clock(now)

    requests = state.requests
    vehicle_ids = sorted(state.vehicles)
    # the vehicle part of every trial, built on the vehicle's first visit
    # and dropped when a commit changes its path
    paths: dict[int, VehiclePath] = {}
    observing = trial_observer is not None
    # longest-waiting first: the pool is in release order, and a commit
    # removes its request from it
    for r in list(state.tally.pool.values()):
        w = waiting_time(r, now)
        check_buffer = w <= config.wait_threshold_s
        o_pt = net.point(r.o)
        d_pt = net.point(r.d)
        ends = RequestRows(net, r.o, r.d)
        best: tuple[float, int, int, int] | None = None  # cost, vid, i, j
        best_case = ""
        for vid in vehicle_ids:
            v = state.vehicles[vid]
            path = paths.get(vid)
            if path is None:
                path = paths[vid] = VehiclePath(net, v, requests)
            if path.seats + r.n > v.capacity:
                continue
            k = path.k
            n_a, n_b, n_c = counts_for_path(k)
            counters.n_a += n_a
            counters.n_b += n_b
            counters.n_c += n_c

            if mode != MODE_ES and check_buffer:
                position, stop_points = path.gate_points()
                admit = gate(search_area(net, v, requests, config),
                             o_pt, d_pt, stop_points, position,
                             config.buffer_km, mode)
            else:
                admit = _ADMIT_ALL
            positions = admitted_positions(k, admit)
            counters.m_a += n_a if admit[0] else 0
            counters.m_b += n_b if admit[1] else 0
            counters.m_c += n_c if admit[2] else 0

            evaluated: list[Candidate] = []
            if positions:
                evaluate = VehicleTrial(path, ends, r, config,
                                        check_buffer).evaluate
                for i, j, case in positions:
                    cand = evaluate(i, j, case)
                    if observing:
                        evaluated.append(cand)
                    if cand.cost != math.inf:
                        key = (cand.cost, vid, i, j)
                        if best is None or key < best:
                            best = key
                            best_case = cand.case
            if observing:
                trial_observer(now, r, v, evaluated, requests)

        if best is not None:
            cost, vid, i, j = best
            v = state.vehicles[vid]
            v.path = splice(v.path, r.o, r.d, i, j, r.id)
            del paths[vid]
            r.state = RequestState.WAITING
            r.vehicle_id = vid
            r.schedule_time = now
            r.p_s = v.position_point(net)
            r.odometer_at_schedule = v.odometer
            r.scheduled_under_wait = check_buffer
            state.tally.schedule(r)
            assignments.append(Assignment(now, r.id, vid, i, j, best_case,
                                          cost))
    return assignments, counters


def psap_epoch(net: RoadNetwork, state: WorldState, config: SimConfig,
               now: float, trial_observer: TrialObserver | None = None,
               ) -> tuple[list[Assignment], EpochCounters]:
    """Pruned scheduler epoch; gating mode comes from the config."""
    return run_epoch(net, state, config, now, config.gating, trial_observer)


def es_epoch(net: RoadNetwork, state: WorldState, config: SimConfig,
             now: float, trial_observer: TrialObserver | None = None,
             ) -> tuple[list[Assignment], EpochCounters]:
    """Exhaustive-search epoch: every candidate of every vehicle evaluated."""
    return run_epoch(net, state, config, now, MODE_ES, trial_observer)

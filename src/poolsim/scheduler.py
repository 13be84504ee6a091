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

from .geometry import (PSA_EMPTY, PSA_OPEN, Point, VehiclePsa, make_psa_rect,
                       psa_contains, rect_contains)
from .insertion import (CASE_A, CASE_B, CASE_C, Candidate, VehicleTrial,
                        classify_case, candidate_positions, splice)
from .model import (Request, RequestState, SimConfig, StopKind, Vehicle,
                    WorldState, passengers_committed, waiting_time)
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
                       ) -> tuple[tuple[int, int], ...]:
    """Positions of the admitted cases (A, B, C) for path length K, in order."""
    keep = dict(zip((CASE_A, CASE_B, CASE_C), admit))
    return tuple((i, j) for i, j in candidate_positions(k)
                 if keep[classify_case(i, j, k)])


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
        self.n_a += other.n_a
        self.n_b += other.n_b
        self.n_c += other.n_c
        self.m_a += other.m_a
        self.m_b += other.m_b
        self.m_c += other.m_c

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
    committed riders: empty.
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
                         (1.0 + max_detour) * r.direct_dist)
    assert beta is not None  # (1+detour)*D >= D >= E always holds
    if r.state == RequestState.ONBOARD:
        return VehiclePsa.single(beta, r.id)
    alpha = make_psa_rect(r.p_s, net.point(r.o), buffer_km)
    return VehiclePsa.union(alpha, beta, r.id)


def gate(psa: VehiclePsa, case: str, o_pt: Point, d_pt: Point,
         path_pts: list[Point], vehicle_pos: Point | None, buffer_km: float,
         mode: str) -> bool:
    """Cheap geometric admission test for one candidate case.

    Case A keeps candidates whose origin and destination both lie in the
    vehicle's search area.  Case B requires the origin in the area; literal
    mode additionally requires the destination outside (strict case
    separation), inclusive mode drops that exclusion, and an open area admits
    case B in both modes because it has no boundary to separate the cases on.
    Case C bounds the new rider's pickup buffer: every committed stop must lie
    in the rectangle spanned by the vehicle position and the new origin with
    the buffer as path budget; an empty path passes vacuously.  Only case C
    reads ``path_pts`` and ``vehicle_pos``.
    """
    if case == CASE_C:
        if not path_pts:
            return True
        rect = make_psa_rect(vehicle_pos, o_pt, buffer_km)
        if rect is None:
            return False
        return all(rect_contains(rect, p) for p in path_pts)
    if case == CASE_A:
        return psa_contains(psa, o_pt) and psa_contains(psa, d_pt)
    if case == CASE_B:
        if not psa_contains(psa, o_pt):
            return False
        if mode == MODE_LITERAL and psa.kind != PSA_OPEN:
            return not psa_contains(psa, d_pt)
        return True
    raise ValueError(f"unknown case {case!r}")


def refresh_psa_on_event(net: RoadNetwork, v: Vehicle,
                         requests: dict[int, Request], event_kind: str,
                         request_id: int, config: SimConfig) -> None:
    """Keep the vehicle search area consistent across pickup/dropoff events.

    A pickup of the furthest rider collapses the union to the single ride
    rectangle; a dropoff only matters when it empties the path (the furthest
    rider's destination is by construction the last stop).  Everything else
    leaves the area untouched.
    """
    new_furthest = v.path[-1].request_id if v.path else None
    if event_kind == "pickup":
        if request_id == new_furthest:
            v.psa = furthest_psa(net, v, requests, config.buffer_km,
                                 config.max_detour)
    elif event_kind == "dropoff":
        if new_furthest is None:
            if v.psa.kind != PSA_EMPTY:
                v.psa = VehiclePsa.empty()
        elif new_furthest != v.psa.furthest_request_id:
            v.psa = furthest_psa(net, v, requests, config.buffer_km,
                                 config.max_detour)
    else:
        raise ValueError(f"unknown event kind {event_kind!r}")


def run_epoch(net: RoadNetwork, state: WorldState, config: SimConfig,
              now: float, mode: str,
              trial_observer: TrialObserver | None = None,
              ) -> tuple[list[Assignment], EpochCounters]:
    """One scheduling pass over the released unassigned requests.

    Mutates ``state`` in place: winning insertions are committed (path,
    service list, request bookkeeping, search-area refresh).  Requests with no
    feasible insertion stay unassigned and are retried next epoch.  Returns
    the committed assignments and the per-case candidate counters.
    """
    if mode not in (MODE_LITERAL, MODE_INCLUSIVE, MODE_ES):
        raise ValueError(f"unknown scheduler mode {mode!r}")
    counters = EpochCounters()
    assignments: list[Assignment] = []

    pool = [r for r in state.requests.values()
            if r.state == RequestState.UNSCHEDULED and r.t <= now]
    # longest-waiting first; release time rises as waiting falls
    pool.sort(key=lambda r: (r.t, r.id))

    vehicle_ids = sorted(state.vehicles)
    observing = trial_observer is not None
    for r in pool:
        w = waiting_time(r, now)
        check_buffer = w <= config.wait_threshold_s
        o_pt = net.point(r.o)
        d_pt = net.point(r.d)
        best: tuple[float, int, int, int] | None = None  # cost, vid, i, j
        best_case = ""
        for vid in vehicle_ids:
            v = state.vehicles[vid]
            if (not config.strict_occupancy
                    and passengers_committed(v, state.requests) + r.n
                    > v.capacity):
                continue
            k = len(v.path)
            n_a, n_b, n_c = counts_for_path(k)
            counters.n_a += n_a
            counters.n_b += n_b
            counters.n_c += n_c

            if mode != MODE_ES and check_buffer:
                psa = v.psa
                buffer_km = config.buffer_km
                # only case C looks at the committed stops and the position
                admit = (
                    gate(psa, CASE_A, o_pt, d_pt, [], None, buffer_km, mode),
                    gate(psa, CASE_B, o_pt, d_pt, [], None, buffer_km, mode),
                    gate(psa, CASE_C, o_pt, d_pt,
                         [net.point(s.node) for s in v.path],
                         v.position_point(net), buffer_km, mode),
                )
            else:
                admit = _ADMIT_ALL
            positions = admitted_positions(k, admit)
            counters.m_a += n_a if admit[0] else 0
            counters.m_b += n_b if admit[1] else 0
            counters.m_c += n_c if admit[2] else 0

            evaluated: list[Candidate] = []
            if positions:
                evaluate = VehicleTrial(net, v, state.requests, r, config,
                                        check_buffer).evaluate
                for i, j in positions:
                    cand = evaluate(i, j)
                    if observing:
                        evaluated.append(cand)
                    if cand.cost != math.inf:
                        key = (cand.cost, vid, i, j)
                        if best is None or key < best:
                            best = key
                            best_case = cand.case
            if observing:
                trial_observer(now, r, v, evaluated, state.requests)

        if best is not None:
            cost, vid, i, j = best
            v = state.vehicles[vid]
            v.path = splice(v.path, r.o, r.d, i, j, r.id)
            v.service_list.append(r.id)
            v.route = None
            r.state = RequestState.WAITING
            r.vehicle_id = vid
            r.schedule_time = now
            r.p_s = v.position_point(net)
            r.odometer_at_schedule = v.odometer
            r.scheduled_under_wait = check_buffer
            assignments.append(Assignment(r.id, vid, i, j, best_case, cost))
            if best_case in (CASE_B, CASE_C):
                # destination became the new last stop: furthest rider changed
                v.psa = furthest_psa(net, v, state.requests, config.buffer_km,
                                     config.max_detour)
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

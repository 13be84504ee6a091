"""Epoch scheduling: exhaustive insertion search and its search-area-pruned twin.

Each epoch processes the released, still-unassigned requests in descending
waiting-time order.  Per request, every vehicle with spare capacity is tried;
the pruned scheduler first gates whole candidate cases cheaply and only
cost-evaluates survivors, while the exhaustive scheduler evaluates
everything.  Both share the same cost algebra, QoS checks, and tie-breaking,
so with the inclusive gate they provably commit identical assignments; the
literal gate, the paper's, trades a sliver of optimality for a stronger prune.

Once a rider's waiting time passes the threshold W the gates (and the pickup
buffer guarantee) are dropped for that rider: any detour-feasible insertion
anywhere is acceptable rather than leaving them stranded.

Before its gate, the pruned scheduler skips a vehicle that cannot reach the
new origin within the pickup buffer (``out_of_reach``), and admits an idle
vehicle's one candidate, the tail append, without the gate.  Both evaluate a
candidate against the cheapest cost found so far; none of this changes a
commit.

Counters: N tallies what the exhaustive search would evaluate (closed form per
vehicle path length), M tallies what was actually cost-evaluated.  The
per-case rejection ratio (N - M) / N is the measured pruning power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .geometry import (PSA_OPEN, PSA_SINGLE, Point, VehiclePsa, make_psa_rect,
                       psa_contains)
from .insertion import (CASE_A, CASE_B, CASE_C, INFEASIBLE, QOS_EPS,
                        Candidate, RequestRows, VehiclePath, VehicleTrial,
                        candidate_positions, splice)
from .model import (GATINGS, Request, RequestState, SimConfig, StopKind,
                    Vehicle, WorldState, waiting_time)
from .roadnet import RoadNetwork

MODE_LITERAL, MODE_INCLUSIVE = GATINGS
MODE_ES = "es"

# now, the visit's shared vehicle part and request part, and the admitted
# positions, () for a reach skip
TrialObserver = Callable[
    [float, VehiclePath, RequestRows, tuple[tuple[int, int, str], ...]], None]


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
_ADMIT_NONE = (False, False, False)
# float slack of the reach bound: the network's float distances obey the
# triangle inequality only up to rounding
_REACH_SLACK = 1e-9


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
    up to its pickup and any rectangle would prune feasible insertions.  Both
    budgets carry the QoS check's slack ``QOS_EPS``, so a plan that lies
    exactly on a bound is never gated out.  The path must not be empty.
    """
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
    ``kind == single``.  It is built here, where the gate reads it, when
    there is none yet or a commit, pickup or drop-off has changed either;
    nothing else updates it.  Only a vehicle with committed stops has one.
    """
    psa = v.psa
    furthest = v.path[-1].request_id
    onboard = requests[furthest].state == RequestState.ONBOARD
    if psa is None or (furthest, onboard) != (psa.furthest_request_id,
                                              psa.kind == PSA_SINGLE):
        psa = v.psa = furthest_psa(net, v, requests, config.buffer_km,
                                   config.max_detour)
    return psa


def area_admits(psa: VehiclePsa, o_pt: Point, d_pt: Point,
                mode: str) -> tuple[bool, bool]:
    """Whether the vehicle's search area admits cases A and B.

    A needs the origin and the destination in the area, B the origin.
    Literal mode's B also needs the destination outside (strict case
    separation); inclusive mode drops that exclusion, and an open area,
    which has no boundary to separate the cases on, drops it in both modes.
    """
    o_in = psa_contains(psa, o_pt)
    d_in = o_in and psa_contains(psa, d_pt)
    return d_in, o_in and (mode != MODE_LITERAL or psa.kind == PSA_OPEN
                           or not d_in)


def gate(psa: VehiclePsa, o_pt: Point, d_pt: Point, path: VehiclePath,
         ends: RequestRows, mode: str) -> tuple[bool, bool, bool]:
    """Cheap admission test of the cases (A, B, C) of one vehicle.

    A and B come from the search area (``area_admits``).  C is the tail
    append (K, K + 1) of a path of K >= 1 stops; an idle vehicle's append
    is admitted without the gate.  Both modes admit it exactly when
    ``VehicleTrial._screen(K)`` passes its pickup, from the same floats:
    appending moves no committed stop and leaves no detour, so this is the
    append's own verdict while the committed plan holds.  It is tighter
    than the paper's case-C rectangle, spanned by the vehicle and the new
    origin with the buffer as path budget: no edge is shorter than its
    straight line, so every stop of an append it admits lies in that
    rectangle.
    """
    admit_a, admit_b = area_admits(psa, o_pt, d_pt, mode)
    k = path.k
    path.legs()
    return admit_a, admit_b, not (path.at[k] + ends.to_o[path.ix[k]]
                                  > ends.max_pickup)


def out_of_reach(path: VehiclePath, ends: RequestRows) -> bool:
    """True when no candidate of the vehicle can meet the pickup buffer.

    Every candidate's km to the new origin is at least the km to the
    vehicle's first origin slot plus the network km from there to the
    origin (``VehiclePath.reach``), so past the buffer with its slack
    (``RequestRows.max_buffer``) and a hair for float rounding every
    candidate fails the new rider's pickup screen.  The test reads one
    entry of the origin's reverse row.
    """
    ix, km = path.reach()
    return km + ends.to_o[ix] > ends.max_buffer + _REACH_SLACK


def run_epoch(net: RoadNetwork, state: WorldState, config: SimConfig,
              now: float, mode: str,
              trial_observer: TrialObserver | None = None,
              ) -> tuple[list[Assignment], EpochCounters]:
    """One scheduling pass over the released unassigned requests.

    The requests are the state's running ``pool``, in release order.
    Mutates ``state`` in place: its clock moves to ``now``, winning
    insertions are committed (path, request bookkeeping and the state's
    running totals), and a gated vehicle with stops reads its area
    (``search_area``) once per ``VehiclePath``.  Requests with no feasible
    insertion stay unassigned and are retried next epoch.  Returns the
    committed assignments, stamped with ``now``, and the per-case candidate
    counters.

    No vehicle moves during the pass, so each vehicle's ``VehiclePath`` is
    built on its first visit and shared by every later request of the
    pass, until a commit to that vehicle changes its path and drops it.
    Each request's ``RequestRows`` is built once, before its vehicle loop.

    The pruned planner counts an ``out_of_reach`` vehicle as a gate
    rejection of all three cases.  Vehicles, then positions, are tried in
    ``(vid, i, j)`` order, each against the cheapest cost so far, and only
    a lower cost wins, so the first of equal costs stays.  An observer is
    called once per vehicle with seats for the party, after its positions
    are tried, with the visit's parts and the admitted positions; it
    changes no work.
    """
    if mode not in (MODE_LITERAL, MODE_INCLUSIVE, MODE_ES):
        raise ValueError(f"unknown scheduler mode {mode!r}")
    n_a = n_b = n_c = m_a = m_b = m_c = 0
    assignments: list[Assignment] = []
    state.advance_clock(now)

    requests = state.requests
    vehicles = state.vehicles
    vehicle_ids = sorted(vehicles)
    # the vehicle part of every trial, built on the vehicle's first visit
    # and dropped when a commit changes its path
    paths: dict[int, VehiclePath] = {}
    pruning = mode != MODE_ES
    wait_threshold_s = config.wait_threshold_s
    # longest-waiting first: the pool is in release order, and a commit
    # removes its request from it
    for r in list(state.pool.values()):
        check_buffer = waiting_time(r, now) <= wait_threshold_s
        gated = pruning and check_buffer
        if gated:
            o_pt = net.point(r.o)
            d_pt = net.point(r.d)
        party = r.n
        ends = RequestRows(net, r, config, check_buffer)
        best: tuple[int, Candidate] | None = None
        bound = INFEASIBLE
        for vid in vehicle_ids:
            v = vehicles[vid]
            path = paths.get(vid)
            if path is None:
                path = paths[vid] = VehiclePath(net, v, requests)
            if path.seats + party > v.capacity:
                continue
            k = path.k
            na, nb, nc = counts_for_path(k)
            n_a += na
            n_b += nb
            n_c += nc

            if not gated:
                admit = _ADMIT_ALL
            elif out_of_reach(path, ends):
                admit = _ADMIT_NONE
            elif k == 0:
                # an idle vehicle's one candidate is the tail append, which
                # the reach test has just screened
                admit = _ADMIT_ALL
            else:
                psa = path.psa
                if psa is None:
                    psa = path.psa = search_area(net, v, requests, config)
                admit = gate(psa, o_pt, d_pt, path, ends, mode)
            positions = admitted_positions(k, admit)
            m_a += na if admit[0] else 0
            m_b += nb if admit[1] else 0
            m_c += nc if admit[2] else 0

            if positions:
                evaluate = VehicleTrial(path, ends).evaluate
                for i, j, _ in positions:
                    cand = evaluate(i, j, bound)
                    if cand.cost < bound:
                        bound = cand.cost
                        best = (vid, cand)
            if trial_observer is not None:
                trial_observer(now, path, ends, positions)

        if best is not None:
            vid, cand = best
            v = vehicles[vid]
            v.path = splice(v.path, r.o, r.d, cand.i, cand.j, r.id)
            del paths[vid]
            r.state = RequestState.WAITING
            r.vehicle_id = vid
            r.schedule_time = now
            r.p_s = v.position_point(net)
            r.odometer_at_schedule = v.odometer
            r.scheduled_under_wait = check_buffer
            state.schedule(r)
            assignments.append(Assignment(now, r.id, vid, *cand))
    return assignments, EpochCounters(n_a, n_b, n_c, m_a, m_b, m_c)


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

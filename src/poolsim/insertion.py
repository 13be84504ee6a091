"""Origin-destination insertion into a vehicle's planned stop path.

A candidate is a pair (i, j): the new origin is spliced in at position i and
the new destination at position j of the o-augmented path, 0 <= i < j <= K+1
for a path of K stops.  Position 0 is immediately after the vehicle's current
head node.  Candidates fall into three cases by where the destination lands:

  A  destination between existing stops (j <= K)
  B  destination appended, origin interior (i < K, j = K+1)
  C  both appended at the tail (i = K, j = K+1)

The added driving distance has a closed form per case built from at most six
shortest-path lookups, so cost never re-sums the whole path.  Costing and the
quality-of-service check share one ``VehicleTrial`` per (vehicle, request),
which reads every distance they need once from the network's cached rows.

Most candidates fail on the new rider's own bounds, and those two bounds
read only the km to the new origin and to the new destination.  The km to
the origin depends on i alone, and the km to the destination is one running
sum per i, so ``VehicleTrial.evaluate`` settles the new rider's pickup
buffer in O(1) and its detour in O(1) amortised, from the very floats the
full check would sum.  Only a candidate that passes both pays the O(K)
check: cost, the re-summed stops from its origin on, and every committed
rider's bounds.  No margin or fallback is involved; the verdict is the full
check's, bit for bit.

Enumeration for K >= 1 starts at i = 1: the per-case closed-form candidate
counts (K(K-1)/2, K-1, 1) count slots between and after committed stops
only, so the slot ahead of the in-progress head leg is not enumerated
(insertion_cost and splice themselves accept i = 0).  A K = 0 path has the
single append candidate (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .model import Request, RequestState, SimConfig, Stop, StopKind, Vehicle
from .roadnet import NoPathError, RoadNetwork

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

INFEASIBLE = math.inf


class Candidate(NamedTuple):
    i: int
    j: int
    case: str
    cost: float  # added km, INFEASIBLE when the splice fails QoS


@dataclass(frozen=True)
class QosViolation:
    request_id: int
    kind: str  # detour | buffer | capacity


# feasibility comparisons carry a hair of slack so exact-boundary plans
# (planned/direct landing on the threshold) survive float rounding
_QOS_EPS = 1e-9

_ORIGIN = StopKind.ORIGIN

# a committed rider as the full check reads it, see VehicleTrial._rider_table
_Rider = tuple[int, int, int, float, float, bool]


def classify_case(i: int, j: int, k: int) -> str:
    if not (0 <= i < j <= k + 1):
        raise ValueError(f"bad insertion positions ({i}, {j}) for K={k}")
    if i == k and j == k + 1:
        return CASE_C
    if j == k + 1:
        return CASE_B
    return CASE_A


def candidate_positions(k: int) -> list[tuple[int, int]]:
    """All (i, j) insertion positions for a path of K stops, lexicographic."""
    if k == 0:
        return [(0, 1)]
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 2)]


class SpliceLegs:
    """Distances around one stop path and one new origin-destination pair.

    ``theta(m)`` is the head node for m = 0, else the node of stop m - 1.
    Holds the path's legs and prefix distances and the distance rows of
    every theta(m) and of the new stops, read straight from the network's
    cache, so costing or prefix-summing an (i, j) splice touches only what
    the splice changes.  An unreachable leg shows up as an infinite (or
    NaN) result rather than an exception.
    """

    def __init__(self, net: RoadNetwork, head: int, stops: list[Stop],
                 o: int, d: int, offset_km: float = 0.0) -> None:
        dists_from = net.dists_from
        index_of = net.index_of
        theta = [head] + [s.node for s in stops]
        self.k = len(stops)
        self.rows = rows = [dists_from(t) for t in theta]
        self.ix = ix = [index_of(t) for t in theta]
        self.o_ix = index_of(o)
        self.d_ix = index_of(d)
        self.row_o = dists_from(o)
        self.row_d = dists_from(d)
        # leg[m] = D(theta(m), theta(m+1)); at[m] = km to theta(m) with at[0]
        # the remainder of the in-progress edge
        self.leg = [r[x] for r, x in zip(rows, ix[1:])]
        self.at = list(accumulate(self.leg, initial=offset_km))

    def cost(self, i: int, j: int) -> float:
        """Added driving distance of splicing o at i and d at j."""
        k = self.k
        rows, ix, leg = self.rows, self.ix, self.leg
        to_o = rows[i][self.o_ix]
        if i == k and j == k + 1:
            # both appended after the last stop
            return to_o + self.row_o[self.d_ix]
        if j == i + 1:
            # o and d adjacent inside the path
            return (to_o + self.row_o[self.d_ix] + self.row_d[ix[i + 1]]
                    - leg[i])
        if j == k + 1:
            # o interior, d appended
            return (to_o + self.row_o[ix[i + 1]] - leg[i]
                    + rows[k][self.d_ix])
        # o and d both interior, non-adjacent; d lands between the stops at
        # positions j-1 and j of the o-augmented path
        return (to_o + self.row_o[ix[i + 1]] - leg[i]
                + rows[j - 1][self.d_ix] + self.row_d[ix[j]] - leg[j - 1])

    def prefix(self, i: int, j: int) -> list[float]:
        """q[t + 1] = km from the current position to stop t of the splice.

        q[0] is the in-progress edge remainder.  Sums run stop by stop from
        the front exactly as re-summing the spliced path would, and the
        entries before the origin are the committed path's own, bit for bit.
        """
        rows, ix, leg = self.rows, self.ix, self.leg
        if j == i + 1:
            legs = [rows[i][self.o_ix], self.row_o[self.d_ix]]
        else:
            legs = [rows[i][self.o_ix], self.row_o[ix[i + 1]]]
            legs.extend(leg[i + 1:j - 1])
            legs.append(rows[j - 1][self.d_ix])
        if j <= self.k:
            legs.append(self.row_d[ix[j]])
            legs.extend(leg[j:])
        q = self.at[:i]
        q.extend(accumulate(legs, initial=self.at[i]))
        return q


class VehicleTrial(SpliceLegs):
    """One request tried against one vehicle: the (i, j)-independent work.

    Built once per (vehicle, request) on top of the splice distances.
    ``evaluate`` first decides the new rider's pickup buffer and detour
    from the km to its two stops, which it sums exactly as ``prefix``
    does: the km to the origin from the committed prefix, and the km to
    the destination from one running sum per origin position i, built on
    the first candidate with that i.  A candidate that fails either bound
    is infeasible without an O(K) step.  A survivor gets its cost and the
    full check: the re-summed prefix and every bound, committed riders
    included.  The committed riders' table (stop positions and the parts
    of their bounds that do not depend on the splice) is built on first
    use, so a trial whose every candidate fails on the new rider never
    builds it.  ``violation`` is always the full check.  Both decide with
    the same float operations in the same order as re-summing the whole
    spliced path, so every verdict is bit-identical to that.
    """

    def __init__(self, net: RoadNetwork, v: Vehicle,
                 requests: dict[int, Request], new_request: Request,
                 config: SimConfig, check_buffer: bool) -> None:
        super().__init__(net, v.node, v.path, new_request.o, new_request.d,
                         v.offset_km)
        self.v = v
        self.requests = requests
        self.new_request = new_request
        self.config = config
        self.check_buffer = check_buffer
        self.max_detour = config.max_detour + _QOS_EPS
        self.max_buffer = config.buffer_km + _QOS_EPS
        # _chain[m] = km to stop i + m of the splice before its destination
        # goes in (the new origin, then the committed stops after it), for
        # the origin position i = _chain_i
        self._chain_i = -1
        self._chain: list[float] = []
        # the committed riders' table, built when the full check first runs
        self.riders: list[_Rider] | None = None

    def _rider_table(self) -> list[_Rider]:
        """Committed riders in service-list order.

        Per rider: (id, origin position or -1 once onboard, destination
        position, direct km, km already counted against the bound,
        buffer-guarded).
        """
        v = self.v
        requests = self.requests
        origin_at = {s.request_id: m for m, s in enumerate(v.path)
                     if s.kind is _ORIGIN}
        dest_at = {s.request_id: m for m, s in enumerate(v.path)
                   if s.kind is not _ORIGIN}
        riders = []
        for rid in v.service_list:
            r = requests[rid]
            if r.state == RequestState.WAITING:
                guarded = bool(r.scheduled_under_wait)
                since = v.odometer - r.odometer_at_schedule if guarded else 0.0
                riders.append((rid, origin_at[rid], dest_at[rid],
                               r.direct_dist, since, guarded))
            else:  # onboard
                riders.append((rid, -1, dest_at[rid], r.direct_dist,
                               v.odometer - r.traveled_at_pickup, False))
        return riders

    def violation(self, i: int, j: int) -> QosViolation | None:
        """First quality-of-service violation of the (i, j) splice, or None.

        Checks the new request first, then committed requests in service-list
        order; per request the detour bound comes before the pickup buffer.
        Raises NoPathError if a leg of the spliced path has no route.
        """
        q = self.prefix(i, j)
        if q[-1] == INFEASIBLE:
            raise NoPathError("a leg of the spliced path has no route")
        return self._first_violation(q, i, j)

    def _first_violation(self, q: list[float], i: int,
                         j: int) -> QosViolation | None:
        max_detour = self.max_detour
        max_buffer = self.max_buffer
        new = self.new_request
        at_o = q[i + 1]
        if (q[j + 1] - at_o) / new.direct_dist - 1.0 > max_detour:
            return QosViolation(new.id, "detour")
        # the new request has driven nothing since its scheduling
        if self.check_buffer and 0.0 + at_o > max_buffer:
            return QosViolation(new.id, "buffer")
        # committed stop m sits at splice position m + (m >= i) + (m >= j-1)
        jm = j - 1
        riders = self.riders
        if riders is None:
            riders = self.riders = self._rider_table()
        for rid, oi, di, direct, counted, guarded in riders:
            at_d = q[di + 1 + (di >= i) + (di >= jm)]
            if oi < 0:  # onboard: km ridden plus km still to its drop-off
                if (counted + at_d) / direct - 1.0 > max_detour:
                    return QosViolation(rid, "detour")
                continue
            at_o = q[oi + 1 + (oi >= i) + (oi >= jm)]
            if (at_d - at_o) / direct - 1.0 > max_detour:
                return QosViolation(rid, "detour")
            if guarded and counted + at_o > max_buffer:
                return QosViolation(rid, "buffer")
        if self.config.strict_occupancy:
            v = self.v
            requests = self.requests
            onboard_now = sum(requests[rid].n for rid in v.service_list
                              if requests[rid].state == RequestState.ONBOARD)
            trial = splice(v.path, new.o, new.d, i, j, new.id)
            if (_max_occupancy(trial, requests, new, onboard_now)
                    > v.capacity):
                return QosViolation(new.id, "capacity")
        return None

    def evaluate(self, i: int, j: int) -> Candidate:
        """Cost one (i, j) splice and QoS-check it; infeasible carries inf."""
        case = classify_case(i, j, self.k)
        rows = self.rows
        # the new rider's own bounds, from q[i + 1] and q[j + 1] of prefix()
        at_o = self.at[i] + rows[i][self.o_ix]
        if self.check_buffer and 0.0 + at_o > self.max_buffer:
            return Candidate(i, j, case, INFEASIBLE)
        if j == i + 1:
            at_d = at_o + self.row_o[self.d_ix]
        else:
            if self._chain_i != i:
                self._chain_i = i
                self._chain = list(accumulate(
                    [at_o, self.row_o[self.ix[i + 1]], *self.leg[i + 1:]]))
            at_d = self._chain[j - i - 1] + rows[j - 1][self.d_ix]
        if ((at_d - at_o) / self.new_request.direct_dist - 1.0
                > self.max_detour):
            return Candidate(i, j, case, INFEASIBLE)
        cost = self.cost(i, j)
        q = self.prefix(i, j)
        # any unreachable leg leaves an infinite or NaN cost or prefix
        if (not math.isfinite(cost) or q[-1] == INFEASIBLE
                or self._first_violation(q, i, j) is not None):
            cost = INFEASIBLE
        return Candidate(i, j, case, cost)


def insertion_cost(net: RoadNetwork, head: int, stops: list[Stop], o: int,
                   d: int, i: int, j: int) -> float:
    """Added driving distance of splicing o at i and d at j.

    ``head`` stands in as position 0 (the vehicle's current head node).
    Raises NoPathError if a needed leg has no route.
    """
    k = len(stops)
    if not (0 <= i < j <= k + 1):
        raise ValueError(f"bad insertion positions ({i}, {j}) for K={k}")
    cost = SpliceLegs(net, head, stops, o, d).cost(i, j)
    if not math.isfinite(cost):
        raise NoPathError(f"a leg of inserting {o} -> {d} has no route")
    return cost


def splice(stops: list[Stop], o: int, d: int, i: int, j: int,
           request_id: int) -> list[Stop]:
    """New stop list with o at position i, then d at position j."""
    k = len(stops)
    if not (0 <= i < j <= k + 1):
        raise ValueError(f"bad insertion positions ({i}, {j}) for K={k}")
    out = list(stops)
    out.insert(i, Stop(StopKind.ORIGIN, request_id, o))
    out.insert(j, Stop(StopKind.DESTINATION, request_id, d))
    return out


def _max_occupancy(path: list[Stop], requests: dict[int, Request],
                   new_request: Request, onboard_now: int) -> int:
    load = onboard_now
    peak = load
    for s in path:
        r = new_request if s.request_id == new_request.id else requests[s.request_id]
        if s.kind == StopKind.ORIGIN:
            load += r.n
            peak = max(peak, load)
        else:
            load -= r.n
    return peak


def qos_check(net: RoadNetwork, v: Vehicle, requests: dict[int, Request],
              path: list[Stop], new_request: Request, config: SimConfig,
              check_buffer: bool) -> QosViolation | None:
    """First quality-of-service violation of a candidate path, or None.

    ``path`` is the vehicle's committed path with the new request's origin
    and destination spliced in.  Checks the new request first, then committed
    requests in service-list order; per request the detour bound comes before
    the pickup buffer.  The buffer guarantee is per request and only applies
    before pickup: the new request is buffer-checked when ``check_buffer`` is
    set (an assignment past the waiting threshold trades its own buffer
    guarantee for coverage), and a committed waiting rider is buffer-checked
    exactly when it was scheduled under the threshold, so a late-arriving
    request can never stretch a guaranteed rider's pickup past the buffer.
    """
    i = j = -1
    for m, s in enumerate(path):
        if s.request_id == new_request.id:
            if s.kind is _ORIGIN:
                i = m
            else:
                j = m
    if (i < 0 or j < 0 or j < i
            or path[:i] + path[i + 1:j] + path[j + 1:] != v.path):
        raise ValueError("path is not the vehicle path with the new "
                         "request's origin and destination spliced in")
    return VehicleTrial(net, v, requests, new_request, config,
                        check_buffer).violation(i, j)


def evaluate_candidate(net: RoadNetwork, v: Vehicle,
                       requests: dict[int, Request], new_request: Request,
                       config: SimConfig, check_buffer: bool, i: int,
                       j: int) -> Candidate:
    """Cost one (i, j) splice and QoS-check it; infeasible carries inf."""
    return VehicleTrial(net, v, requests, new_request, config,
                        check_buffer).evaluate(i, j)


def enumerate_all(net: RoadNetwork, v: Vehicle, requests: dict[int, Request],
                  new_request: Request, config: SimConfig,
                  check_buffer: bool) -> list[Candidate]:
    """Every insertion candidate with its cost; infeasible ones carry inf.

    This is the exhaustive-search per-vehicle step: no geometric filtering.
    """
    trial = VehicleTrial(net, v, requests, new_request, config, check_buffer)
    return [trial.evaluate(i, j) for i, j in candidate_positions(len(v.path))]

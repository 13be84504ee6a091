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
quality-of-service check share one ``VehicleTrial`` per (vehicle, request).
It joins two parts that it reads without copying: the vehicle's
``VehiclePath`` (its seats and, each built on first use, the legs of its
committed path, its rider table and gate points), built once per vehicle per
scheduling epoch, and the request's ``RequestRows`` (the forward and reverse
rows of the new origin and destination), built once per request.

Every distance a trial reads comes from a row of a request endpoint: the km
from a path node to the new origin or destination from that endpoint's
reverse row, the km from it onwards from its forward row, a committed leg
from the forward row of the stop it leaves, and the head leg from the first
stop's reverse row.  No row is built from a vehicle's head node, which
changes every epoch.

Most candidates fail on the new rider's own bounds, and those two bounds
read only the km to the new origin and to the new destination.  The km to
the origin depends on i alone, and the km to the destination is one running
sum per i, so ``VehicleTrial.evaluate`` settles the new rider's pickup
buffer in O(1) and its detour in O(1) amortised, from the very floats the
full check would sum.  Only a candidate that passes both pays the O(K)
check: cost, the re-summed stops from its origin on, and every committed
rider's bounds.  No margin or fallback is involved; the verdict is the full
check's, bit for bit.  A caller that only wants a cheaper candidate than
the best it holds passes that cost as a bound, and a survivor whose O(1)
cost is not below it is infeasible without the O(K) check.

Enumeration for K >= 1 starts at i = 1: the per-case closed-form candidate
counts (K(K-1)/2, K-1, 1) count slots between and after committed stops
only, so the slot ahead of the in-progress head leg is not enumerated.  A
K = 0 path has the single append candidate (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .geometry import Point
from .model import (Request, SimConfig, Stop, StopKind, Vehicle,
                    passengers_committed)
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
    kind: str  # detour | buffer


# feasibility comparisons carry a hair of slack so exact-boundary plans
# (planned/direct landing on the threshold) survive float rounding
QOS_EPS = 1e-9

_ORIGIN = StopKind.ORIGIN

# a committed rider as the full check reads it, see VehiclePath.riders
_Rider = tuple[int, int, int, float, float, bool]


def classify_case(i: int, j: int, k: int) -> str:
    if not (0 <= i < j <= k + 1):
        raise ValueError(f"bad insertion positions ({i}, {j}) for K={k}")
    if i == k and j == k + 1:
        return CASE_C
    if j == k + 1:
        return CASE_B
    return CASE_A


def candidate_positions(k: int) -> list[tuple[int, int, str]]:
    """All (i, j, case) insertion positions for K stops, lexicographic."""
    if k == 0:
        return [(0, 1, CASE_C)]
    return [(i, j, classify_case(i, j, k))
            for i in range(1, k + 1) for j in range(i + 1, k + 2)]


class VehiclePath:
    """One vehicle's committed path as its trials and its gate read it.

    Holds the seats its committed riders hold and, each built on first use,
    its reach (the km to its first origin slot), the path's legs, the
    committed riders' table the full QoS check walks, and the position and
    stop points the gate tests.  A vehicle that is full, out of reach or
    gated out never builds the legs, so no forward row is fetched for its
    stops.  All of it is fixed while the vehicle stands between two
    moves and keeps its path, so ``run_epoch`` builds one per vehicle on the
    vehicle's first visit of an epoch, shares it among that epoch's
    requests, and drops it when a commit splices a new rider into the path.
    """

    def __init__(self, net: RoadNetwork, v: Vehicle,
                 requests: dict[int, Request]) -> None:
        self.net = net
        self.v = v
        self.requests = requests
        self.k = len(v.path)
        self.seats = passengers_committed(v, requests)
        self.ix: list[int] | None = None
        self._reach: tuple[int, float] | None = None
        self._riders: list[_Rider] | None = None
        self._gate_points: tuple[Point, list[Point]] | None = None

    def reach(self) -> tuple[int, float]:
        """Row index of the first origin slot's node, and the km to it.

        Every candidate puts the new origin after stop 0 (enumeration
        starts at i = 1), or after the head when idle.  The km is ``at[1]``
        (``at[0]`` when idle), the same float, read without ``legs``.
        """
        if self._reach is None:
            net, v = self.net, self.v
            head = net.index_of(v.node)
            if v.path:
                first = v.path[0].node
                self._reach = (net.index_of(first),
                               v.offset_km + net.dists_to(first)[head])
            else:
                self._reach = (head, v.offset_km)
        return self._reach

    def legs(self) -> None:
        """Set ``ix``, ``leg`` and ``at`` on first use.

        ``theta(m)`` is the head node for m = 0, else the node of stop
        m - 1.  ``ix[m]`` is the row index of theta(m), ``leg[m]`` the km
        from theta(m) to theta(m + 1) and ``at[m]`` the km to theta(m), with
        ``at[0]`` the remainder of the in-progress edge.  Every stop is a
        request endpoint, so every leg is read from an endpoint's row: the
        head leg from the first stop's reverse row, every other leg from the
        forward row of the stop it leaves.
        """
        if self.ix is not None:
            return
        net, v = self.net, self.v
        dists_from = net.dists_from
        index_of = net.index_of
        stops = v.path
        self.ix = ix = [index_of(v.node)] + [index_of(s.node) for s in stops]
        self.leg = leg = [net.dists_to(stops[0].node)[ix[0]]] if stops else []
        leg.extend(dists_from(s.node)[x] for s, x in zip(stops, ix[2:]))
        self.at = list(accumulate(leg, initial=v.offset_km))

    def gate_points(self) -> tuple[Point, list[Point]]:
        """The vehicle's position point and the points of its stops."""
        if self._gate_points is None:
            net = self.net
            self._gate_points = (self.v.position_point(net),
                                 [net.point(s.node) for s in self.v.path])
        return self._gate_points

    def riders(self) -> list[_Rider]:
        """Committed riders in drop-off order, read off the path in one pass.

        Per rider: (id, origin position or -1 once onboard, destination
        position, direct km, km already counted against the bound,
        buffer-guarded).  A rider whose origin stop precedes its destination
        stop is waiting; one with only a destination stop is onboard.
        """
        if self._riders is not None:
            return self._riders
        v = self.v
        requests = self.requests
        origin_at: dict[int, int] = {}
        riders = self._riders = []
        for m, s in enumerate(v.path):
            rid = s.request_id
            if s.kind is _ORIGIN:
                origin_at[rid] = m
                continue
            r = requests[rid]
            oi = origin_at.pop(rid, -1)
            if oi < 0:  # onboard
                riders.append((rid, -1, m, r.direct_dist,
                               v.odometer - r.traveled_at_pickup, False))
            else:
                guarded = bool(r.scheduled_under_wait)
                since = v.odometer - r.odometer_at_schedule if guarded else 0.0
                riders.append((rid, oi, m, r.direct_dist, since, guarded))
        return riders


class RequestRows:
    """The new origin's and destination's distance rows.

    The request part of a splice: built once per request, before any
    vehicle is tried.  ``row_o`` and ``row_d`` are the endpoints' forward
    rows (km from o and from d), ``to_o`` and ``to_d`` their reverse rows
    (km to o and to d), all indexed by ``RoadNetwork.index_of``.
    """

    def __init__(self, net: RoadNetwork, o: int, d: int) -> None:
        self.d_ix = net.index_of(d)
        self.row_o = net.dists_from(o)
        self.row_d = net.dists_from(d)
        self.to_o = net.dists_to(o)
        self.to_d = net.dists_to(d)


class VehicleTrial:
    """One request tried against one vehicle: the (i, j)-independent work.

    Built once per (vehicle, request) from the vehicle's ``VehiclePath``
    and the request's ``RequestRows``, which it reads without copying, so
    costing or prefix-summing an (i, j) splice touches only what the splice
    changes.  An unreachable leg shows up as an infinite (or NaN) cost or
    prefix rather than an exception.  ``evaluate`` first decides the new
    rider's pickup buffer and detour from the km to its two stops, which it
    sums exactly as ``prefix`` does: the km to the origin from the
    committed prefix, and the km to the destination from one running sum
    per origin position i, built on the first candidate with that i.  A
    candidate that fails either bound is infeasible without an O(K) step.
    A survivor gets its cost and, when that is below the caller's bound,
    the full check: the re-summed prefix and every bound, committed riders
    included.  Only the full check reads the committed-rider table, which
    the vehicle part builds on first use, so a vehicle whose every
    candidate fails on the new rider never builds it.
    ``violation`` is always the full check.  Both decide with the same float
    operations in the same order as re-summing the whole spliced path, so
    every verdict under the default, infinite bound is bit-identical to
    that.
    """

    def __init__(self, path: VehiclePath, new: RequestRows,
                 new_request: Request, config: SimConfig,
                 check_buffer: bool) -> None:
        path.legs()
        self.k = path.k
        self.ix = path.ix
        self.leg = path.leg
        self.at = path.at
        self.d_ix = new.d_ix
        self.row_o = new.row_o
        self.row_d = new.row_d
        self.to_o = new.to_o
        self.to_d = new.to_d
        self.path = path
        self.new_request = new_request
        self.check_buffer = check_buffer
        self.max_detour = config.max_detour + QOS_EPS
        self.max_buffer = config.buffer_km + QOS_EPS
        # _chain[m] = km to stop i + m of the splice before its destination
        # goes in (the new origin, then the committed stops after it), for
        # the origin position i = _chain_i
        self._chain_i = -1
        self._chain: list[float] = []

    @classmethod
    def for_vehicle(cls, net: RoadNetwork, v: Vehicle,
                    requests: dict[int, Request], new_request: Request,
                    config: SimConfig, check_buffer: bool) -> "VehicleTrial":
        """A trial on parts of its own, for a caller outside an epoch."""
        return cls(VehiclePath(net, v, requests),
                   RequestRows(net, new_request.o, new_request.d),
                   new_request, config, check_buffer)

    def cost(self, i: int, j: int) -> float:
        """Added driving distance of splicing o at i and d at j."""
        k = self.k
        ix, leg = self.ix, self.leg
        to_o = self.to_o[ix[i]]
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
                    + self.to_d[ix[k]])
        # o and d both interior, non-adjacent; d lands between the stops at
        # positions j-1 and j of the o-augmented path
        return (to_o + self.row_o[ix[i + 1]] - leg[i]
                + self.to_d[ix[j - 1]] + self.row_d[ix[j]] - leg[j - 1])

    def prefix(self, i: int, j: int) -> list[float]:
        """q[t + 1] = km from the current position to stop t of the splice.

        q[0] is the in-progress edge remainder.  Sums run stop by stop from
        the front exactly as re-summing the spliced path would, and the
        entries before the origin are the committed path's own, bit for bit.
        """
        ix, leg = self.ix, self.leg
        if j == i + 1:
            legs = [self.to_o[ix[i]], self.row_o[self.d_ix]]
        else:
            legs = [self.to_o[ix[i]], self.row_o[ix[i + 1]]]
            legs.extend(leg[i + 1:j - 1])
            legs.append(self.to_d[ix[j - 1]])
        if j <= self.k:
            legs.append(self.row_d[ix[j]])
            legs.extend(leg[j:])
        q = self.at[:i]
        q.extend(accumulate(legs, initial=self.at[i]))
        return q

    def violation(self, i: int, j: int) -> QosViolation | None:
        """First quality-of-service violation of the (i, j) splice, or None.

        Checks the new request first, then committed requests in drop-off
        order; per request the detour bound comes before the pickup buffer.
        The buffer guarantee is per request and only applies before pickup:
        the new request is buffer-checked when ``check_buffer`` is set (an
        assignment past the waiting threshold trades its own buffer
        guarantee for coverage), and a committed waiting rider is
        buffer-checked exactly when it was scheduled under the threshold, so
        a late-arriving request can never stretch a guaranteed rider's
        pickup past the buffer.  Raises NoPathError if a leg of the spliced
        path has no route.
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
        for rid, oi, di, direct, counted, guarded in self.path.riders():
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
        return None

    def evaluate(self, i: int, j: int, case: str | None = None,
                 bound: float = INFEASIBLE) -> Candidate:
        """Cost one (i, j) splice and QoS-check it; infeasible carries inf.

        ``case`` is the position's case as ``candidate_positions`` hands it
        out; without it the position is checked and classified here.  A
        splice whose cost is not below ``bound`` is infeasible without the
        full check: a caller that keeps the cheapest candidate so far passes
        its cost, since nothing that costs as much can replace it.
        """
        if case is None:
            case = classify_case(i, j, self.k)
        ix = self.ix
        # the new rider's own bounds, from q[i + 1] and q[j + 1] of prefix()
        at_o = self.at[i] + self.to_o[ix[i]]
        if self.check_buffer and 0.0 + at_o > self.max_buffer:
            return Candidate(i, j, case, INFEASIBLE)
        if j == i + 1:
            at_d = at_o + self.row_o[self.d_ix]
        else:
            if self._chain_i != i:
                self._chain_i = i
                self._chain = list(accumulate(
                    [at_o, self.row_o[ix[i + 1]], *self.leg[i + 1:]]))
            at_d = self._chain[j - i - 1] + self.to_d[ix[j - 1]]
        if ((at_d - at_o) / self.new_request.direct_dist - 1.0
                > self.max_detour):
            return Candidate(i, j, case, INFEASIBLE)
        cost = self.cost(i, j)
        # any unreachable leg leaves an infinite or NaN cost, which is below
        # no bound, or an infinite prefix
        if not cost < bound:
            return Candidate(i, j, case, INFEASIBLE)
        q = self.prefix(i, j)
        if (q[-1] == INFEASIBLE
                or self._first_violation(q, i, j) is not None):
            cost = INFEASIBLE
        return Candidate(i, j, case, cost)


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


def enumerate_all(net: RoadNetwork, v: Vehicle, requests: dict[int, Request],
                  new_request: Request, config: SimConfig,
                  check_buffer: bool) -> list[Candidate]:
    """Every insertion candidate with its cost; infeasible ones carry inf.

    This is the exhaustive-search per-vehicle step: no geometric filtering.
    """
    trial = VehicleTrial.for_vehicle(net, v, requests, new_request, config,
                                     check_buffer)
    return [trial.evaluate(i, j, case)
            for i, j, case in candidate_positions(len(v.path))]

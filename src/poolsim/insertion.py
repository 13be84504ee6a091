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
committed path with its table of rejections, its rider table and its
search area), built once per vehicle per scheduling epoch, and the
request's ``RequestRows`` (the forward and reverse rows of the new origin
and destination, and the request's own QoS limits), built once per request.

Every distance a trial reads comes from a row of a request endpoint: the km
from a path node to the new origin or destination from that endpoint's
reverse row, the km from it onwards from its forward row, a committed leg
from the forward row of the stop it leaves, and the head leg from the first
stop's reverse row.  No row is built from a vehicle's head node, which
changes every epoch.

Most candidates fail on the new rider's own bounds, and those two bounds
read only the km to the new origin and to the new destination.  The km to
the origin depends on the origin slot i alone, and the km to the
destination is one running sum along the slot.  So on the first candidate
of a slot a trial screens the slot's positions in one pass, from the very
floats that re-summing the spliced path gives, and ``VehicleTrial.evaluate``
then reads each candidate's verdict.  A rejection is a prebuilt
``Candidate``, one table per path length K (``rejections``), so a rejected
candidate costs a table read and allocates nothing.  Only a candidate that
passes both bounds pays the O(K) check: cost, the re-summed stops from its
origin on, and every committed rider's bounds.  No margin or fallback is
involved: each bound is decided once, bit for bit as re-summing the whole
spliced path decides it, and ``evaluate`` is the one QoS check.  A caller
that only wants a cheaper candidate than the best it holds passes that cost
as a bound, and a survivor whose O(1) cost is not below it is infeasible
without the O(K) check.

Enumeration for K >= 1 starts at i = 1: the per-case closed-form candidate
counts (K(K-1)/2, K-1, 1) count slots between and after committed stops
only, so the slot ahead of the in-progress head leg is not enumerated.  A
K = 0 path has the single append candidate (0, 1).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .geometry import VehiclePsa
from .model import (Request, SimConfig, Stop, StopKind, Vehicle,
                    passengers_committed)
from .roadnet import RoadNetwork

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

INFEASIBLE = math.inf


class Candidate(NamedTuple):
    i: int
    j: int
    case: str
    cost: float  # added km, INFEASIBLE when the splice fails QoS


# feasibility comparisons carry a hair of slack so exact-boundary plans
# (planned/direct landing on the threshold) survive float rounding
QOS_EPS = 1e-9

_ORIGIN = StopKind.ORIGIN

# a committed rider as the O(K) check reads it, see VehiclePath.riders
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


@lru_cache(maxsize=64)
def rejections(k: int) -> tuple[Mapping[int, Candidate], ...]:
    """The infeasible ``Candidate`` of every position for K stops.

    Entry ``[i][j]`` is ``Candidate(i, j, case, INFEASIBLE)`` for every
    0 <= i < j <= K + 1, so a rejected candidate is returned, never built.
    The table is shared by every path of K stops, so its rows are read-only.
    """
    return tuple(MappingProxyType(
        {j: Candidate(i, j, classify_case(i, j, k), INFEASIBLE)
         for j in range(i + 1, k + 2)}) for i in range(k + 1))


class VehiclePath:
    """One vehicle's committed path as its trials and its gate read it.

    Holds the seats its committed riders hold and, each built on first use,
    its reach (the km to its first origin slot), the path's legs, which the
    gate's case C reads too, with the shared table of its positions'
    rejections, the committed riders' table the full QoS check walks, and
    the vehicle's search area ``psa``, which ``run_epoch`` stores on the
    first visit that gates it.  A vehicle that is full or out of reach
    never builds the legs, so no forward row is fetched for its stops.  All
    of it is fixed while the vehicle stands between two moves and keeps its
    path, so ``run_epoch`` builds one per vehicle on the vehicle's first
    visit of an epoch, shares it among that epoch's requests, and drops it
    when a commit splices a new rider into the path.
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
        self.psa: VehiclePsa | None = None

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
        """Set ``ix``, ``leg``, ``at`` and ``rejected`` on first use.

        ``theta(m)`` is the head node for m = 0, else the node of stop
        m - 1.  ``ix[m]`` is the row index of theta(m), ``leg[m]`` the km
        from theta(m) to theta(m + 1) and ``at[m]`` the km to theta(m), with
        ``at[0]`` the remainder of the in-progress edge.  Every stop is a
        request endpoint, so every leg is read from an endpoint's row: the
        head leg from the first stop's reverse row, every other leg from the
        forward row of the stop it leaves.  ``rejected`` is the shared
        table of the path's rejections (``rejections``).
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
        self.rejected = rejections(self.k)

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
    """The request part of every splice: its rows and its own limits.

    Built once per request, before any vehicle is tried.  ``row_o`` and
    ``row_d`` are the endpoints' forward rows (km from o and from d),
    ``to_o`` and ``to_d`` their reverse rows (km to o and to d), all
    indexed by ``RoadNetwork.index_of``.  ``max_detour`` and ``max_buffer``
    are the detour and buffer bounds with the check's slack, and
    ``max_pickup`` is the new rider's own pickup bound: ``max_buffer`` when
    its buffer is checked, else infinite, which no pickup km exceeds.
    """

    def __init__(self, net: RoadNetwork, request: Request, config: SimConfig,
                 check_buffer: bool) -> None:
        o, d = request.o, request.d
        self.request = request
        self.d_ix = net.index_of(d)
        self.row_o = net.dists_from(o)
        self.row_d = net.dists_from(d)
        self.to_o = net.dists_to(o)
        self.to_d = net.dists_to(d)
        self.max_detour = config.max_detour + QOS_EPS
        self.max_buffer = config.buffer_km + QOS_EPS
        self.max_pickup = self.max_buffer if check_buffer else INFEASIBLE


class VehicleTrial:
    """One request tried against one vehicle, a candidate (i, j) at a time.

    Built once per (vehicle, request) from the vehicle's ``VehiclePath``
    and the request's ``RequestRows``, which it reads without copying, so
    costing or prefix-summing an (i, j) splice touches only what the splice
    changes.  An unreachable leg shows up as an infinite (or NaN) cost or
    prefix rather than an exception.

    ``evaluate`` first decides the new rider's pickup buffer and detour
    from the km to its two stops, which it sums exactly as ``prefix`` does.
    The km to the origin depends on the origin slot i alone and the km to
    the destination is one running sum along the slot, so on the first
    candidate of a slot one pass (``_screen``) settles every position of
    the slot, and a candidate reads its verdict from the pass.  A rejected
    candidate is the path's prebuilt ``Candidate`` (``rejections``):
    nothing is allocated for it.  A survivor gets its cost and, when that
    is below the caller's bound, the committed riders' check: the
    re-summed prefix and every committed rider's bounds.  Only that check
    reads the committed-rider table, which the vehicle part builds on
    first use, so a vehicle whose every candidate fails on the new rider
    never builds it.  The screen and that check decide with the same float
    operations in the same order as re-summing the whole spliced path, so
    every verdict under the default, infinite bound is bit-identical to
    that.
    """

    __slots__ = ("path", "new", "_slot", "_verdicts")

    def __init__(self, path: VehiclePath, new: RequestRows) -> None:
        path.legs()
        self.path = path
        self.new = new
        # the origin slot last screened, and its verdict per position j:
        # the prebuilt rejection, or None for a survivor
        self._slot = -1
        self._verdicts: Mapping[int, Candidate | None] = {}

    def cost(self, i: int, j: int) -> float:
        """Added driving distance of splicing o at i and d at j."""
        path, new = self.path, self.new
        k = path.k
        ix, leg = path.ix, path.leg
        to_o = new.to_o[ix[i]]
        if i == k and j == k + 1:
            # both appended after the last stop
            return to_o + new.row_o[new.d_ix]
        if j == i + 1:
            # o and d adjacent inside the path
            return (to_o + new.row_o[new.d_ix] + new.row_d[ix[i + 1]]
                    - leg[i])
        if j == k + 1:
            # o interior, d appended
            return (to_o + new.row_o[ix[i + 1]] - leg[i]
                    + new.to_d[ix[k]])
        # o and d both interior, non-adjacent; d lands between the stops at
        # positions j-1 and j of the o-augmented path
        return (to_o + new.row_o[ix[i + 1]] - leg[i]
                + new.to_d[ix[j - 1]] + new.row_d[ix[j]] - leg[j - 1])

    def prefix(self, i: int, j: int) -> list[float]:
        """q[t + 1] = km from the current position to stop t of the splice.

        q[0] is the in-progress edge remainder.  Sums run stop by stop from
        the front exactly as re-summing the spliced path would, and the
        entries before the origin are the committed path's own, bit for bit.
        """
        path, new = self.path, self.new
        ix, leg = path.ix, path.leg
        if j == i + 1:
            legs = [new.to_o[ix[i]], new.row_o[new.d_ix]]
        else:
            legs = [new.to_o[ix[i]], new.row_o[ix[i + 1]]]
            legs.extend(leg[i + 1:j - 1])
            legs.append(new.to_d[ix[j - 1]])
        if j <= path.k:
            legs.append(new.row_d[ix[j]])
            legs.extend(leg[j:])
        q = path.at[:i]
        q.extend(accumulate(legs, initial=path.at[i]))
        return q

    def _breaks_committed(self, q: list[float], i: int, j: int) -> bool:
        """Whether the (i, j) splice breaks a committed rider's bound.

        ``q`` is the splice's ``prefix``.  Riders are read in drop-off order
        from the path's rider table.  An onboard rider has only the detour
        bound.  A waiting rider's buffer applies before pickup and only when
        it was scheduled under the waiting threshold, so a late-arriving
        request can never stretch a guaranteed rider's pickup past the
        buffer.  The new rider's own bounds are ``_screen``'s.
        """
        max_detour = self.new.max_detour
        max_buffer = self.new.max_buffer
        # committed stop m sits at splice position m + (m >= i) + (m >= j-1)
        jm = j - 1
        for _, oi, di, direct, counted, guarded in self.path.riders():
            at_d = q[di + 1 + (di >= i) + (di >= jm)]
            if oi < 0:  # onboard: km ridden plus km still to its drop-off
                if (counted + at_d) / direct - 1.0 > max_detour:
                    return True
                continue
            at_o = q[oi + 1 + (oi >= i) + (oi >= jm)]
            if (at_d - at_o) / direct - 1.0 > max_detour:
                return True
            if guarded and counted + at_o > max_buffer:
                return True
        return False

    def _screen(self, i: int) -> None:
        """Settle the new rider's bounds for every position of slot i.

        The km to the origin is q[i + 1] of ``prefix`` and the km to the
        destination at position j is q[j + 1], summed here with the same
        floats in the same order: ``at[i]`` plus the km to the origin, then
        for j > i + 1 a running sum on through the committed legs plus the
        km from the stop before j to the destination.  A slot whose pickup
        fails the buffer takes the path's whole row of rejections.  Either
        way the slot's verdicts are keyed by exactly its positions j.
        """
        path, new = self.path, self.new
        k = path.k
        if not 0 <= i <= k:
            raise ValueError(f"bad origin position {i} for K={k}")
        ix = path.ix
        rejected = path.rejected[i]
        at_o = path.at[i] + new.to_o[ix[i]]
        self._slot = i
        if 0.0 + at_o > new.max_pickup:
            self._verdicts = rejected
            return
        direct = new.request.direct_dist
        max_detour = new.max_detour
        j = i + 1
        at_d = at_o + new.row_o[new.d_ix]
        verdicts = self._verdicts = {
            j: rejected[j] if (at_d - at_o) / direct - 1.0 > max_detour
            else None}
        if i == k:
            return
        leg, to_d = path.leg, new.to_d
        # km to the stop before the destination at position j
        at_prev = at_o + new.row_o[ix[j]]
        while True:
            j += 1
            verdicts[j] = (rejected[j] if (at_prev + to_d[ix[j - 1]] - at_o)
                           / direct - 1.0 > max_detour else None)
            if j > k:
                return
            at_prev += leg[j - 1]

    def evaluate(self, i: int, j: int,
                 bound: float = INFEASIBLE) -> Candidate:
        """Cost one (i, j) splice and QoS-check it; infeasible carries inf.

        Raises ValueError unless 0 <= i < j <= K + 1.  A splice whose cost
        is not below ``bound`` is infeasible without the O(K) check: a
        caller that keeps the cheapest candidate so far passes its cost,
        since nothing that costs as much can replace it.
        """
        if i != self._slot:
            self._screen(i)
        try:
            verdict = self._verdicts[j]
        except KeyError:
            raise ValueError(f"bad insertion positions ({i}, {j}) "
                             f"for K={self.path.k}") from None
        if verdict is not None:
            return verdict
        rejected = self.path.rejected[i][j]
        cost = self.cost(i, j)
        # any unreachable leg leaves an infinite or NaN cost, which is below
        # no bound, or an infinite prefix
        if not cost < bound:
            return rejected
        q = self.prefix(i, j)
        if q[-1] == INFEASIBLE or self._breaks_committed(q, i, j):
            return rejected
        return Candidate(i, j, rejected.case, cost)


def splice(stops: list[Stop], o: int, d: int, i: int, j: int,
           request_id: int) -> list[Stop]:
    """New stop list with o at position i, then d at position j."""
    classify_case(i, j, len(stops))
    out = list(stops)
    out.insert(i, Stop(StopKind.ORIGIN, request_id, o))
    out.insert(j, Stop(StopKind.DESTINATION, request_id, d))
    return out

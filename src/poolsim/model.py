"""Domain model: requests, vehicles, world state, run configuration.

Request lifecycle: Unscheduled -> Waiting (assigned, not yet picked up) ->
Onboard -> Completed.  A vehicle's planned path is an ordered stop list the
vehicle serves front to back and the only record of its riders: each has a
destination stop there, plus an origin stop until pickup.

Quality-of-service quantities:
  waiting time  seconds since release, frozen at pickup
  detour ratio  extra in-vehicle distance over the direct o->d distance
  pickup buffer km the vehicle drives between scheduling and the pickup
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import Point, VehiclePsa, euclid
from .roadnet import (NetworkError, NoPathError, RoadNetwork, atomic_write,
                      csv_text, read_csv)


class RequestState(enum.Enum):
    UNSCHEDULED = "unscheduled"
    WAITING = "waiting"
    ONBOARD = "onboard"
    COMPLETED = "completed"


class StopKind(enum.Enum):
    ORIGIN = "o"
    DESTINATION = "d"


@dataclass(frozen=True)
class Stop:
    kind: StopKind
    request_id: int
    node: int


@dataclass
class Request:
    id: int
    t: float                     # release time, s
    n: int                       # party size
    o: int                       # origin node
    d: int                       # destination node
    direct_dist: float = 0.0     # D(o, d), km, set at ingestion
    state: RequestState = RequestState.UNSCHEDULED
    vehicle_id: int | None = None
    schedule_time: float | None = None
    p_s: Point | None = None     # vehicle position at scheduling
    odometer_at_schedule: float | None = None
    scheduled_under_wait: bool | None = None  # w <= W when assigned
    pickup_time: float | None = None
    traveled_at_pickup: float | None = None
    dropoff_time: float | None = None
    traveled_at_dropoff: float | None = None


@dataclass
class Vehicle:
    id: int
    capacity: int
    node: int                    # node the vehicle is at or moving toward
    offset_km: float = 0.0       # km remaining to reach `node`; 0 means at it
    prev_node: int | None = None  # edge tail while mid-edge
    odometer: float = 0.0
    path: list[Stop] = field(default_factory=list)
    # search area as last built, None before the first; read it through
    # scheduler.search_area
    psa: VehiclePsa | None = None
    route: list[int] = field(default_factory=list)  # hops after `node`

    def position_point(self, net: RoadNetwork) -> Point:
        """Planar position, interpolated along the current edge if mid-edge."""
        if self.offset_km <= 0.0 or self.prev_node is None:
            return net.point(self.node)
        a = net.point(self.prev_node)
        b = net.point(self.node)
        hop = net.hop_length(self.prev_node, self.node)
        frac = 1.0 - self.offset_km / hop
        return Point(a.x + (b.x - a.x) * frac, a.y + (b.y - a.y) * frac)


# km at or below which a step's driving budget moves no vehicle
STILL_KM = 1e-15
# the psap gate's modes, SimConfig.gating's values; the first is the default
GATINGS = ("literal", "inclusive")


@dataclass
class SimConfig:
    max_detour: float = 0.2          # Delta, ratio
    wait_threshold_s: float = 240.0  # W
    buffer_km: float = 6.0           # B
    capacity: int = 5                # C, seats per vehicle
    speed_kmh: float = 30.0
    epoch_s: float = 10.0
    n_vehicles: int = 1
    seed: int = 0
    gating: str = GATINGS[0]         # one of GATINGS
    horizon_s: float | None = None   # hard stop; None runs to completion

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison below
        for name in ("max_detour", "wait_threshold_s", "buffer_km",
                     "speed_kmh", "epoch_s", "horizon_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_detour < 0:
            raise ValueError("max_detour must be >= 0")
        if self.wait_threshold_s < 0:
            raise ValueError("wait_threshold_s must be >= 0")
        if self.buffer_km < 0:
            raise ValueError("buffer_km must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (self.speed_kmh > 0):
            raise ValueError("speed_kmh must be positive")
        if not (self.epoch_s > 0):
            raise ValueError("epoch_s must be positive")
        # the km one epoch's step lets a vehicle drive, as advance_vehicle
        # computes it: at or below STILL_KM nothing ever moves, and a run
        # without a horizon never ends
        if self.speed_kmh / 3600.0 * self.epoch_s <= STILL_KM:
            raise ValueError(f"an epoch's drive, speed_kmh * epoch_s / 3600 "
                             f"km, must exceed {STILL_KM} km, or no vehicle "
                             f"moves")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.horizon_s is not None and self.horizon_s < 0:
            raise ValueError("horizon_s must be >= 0")
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be >= 1")
        if self.gating not in GATINGS:
            raise ValueError(f"gating must be {' or '.join(GATINGS)}, "
                             f"got {self.gating!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WorldState:
    """Fleet and requests at ``clock``, with their running request totals.

    The one owner of release order, ``(t, id)``.  The totals are counted
    once from the requests' states at construction, then moved by the code
    that changes a request's state: ``advance_clock`` as the clock passes
    release times, ``schedule`` at commit, ``pickup`` and ``dropoff`` from
    the vehicles' stop events, so no epoch rescans every request.  ``pool``
    holds the released requests still unscheduled, the requests an epoch
    tries to place, by id in release order.  ``direct_done_km`` adds the
    direct km of the requests completed at construction, in ``requests``
    order, then of each drop-off as it is tallied.  Time only moves forward.
    """
    clock: float
    vehicles: dict[int, Vehicle]
    requests: dict[int, Request]

    def __post_init__(self) -> None:
        # latest release last, so releasing pops from the end
        self._unreleased = sorted(self.requests.values(),
                                  key=lambda r: (r.t, r.id), reverse=True)
        self.pool: dict[int, Request] = {}
        self.advance_clock(self.clock)
        self.onboard_riders = 0
        self.completed = 0
        self.direct_done_km = 0
        for r in self.requests.values():
            if r.state is RequestState.ONBOARD:
                self.onboard_riders += r.n
            elif r.state is RequestState.COMPLETED:
                self.completed += 1
                self.direct_done_km += r.direct_dist

    @property
    def unserved(self) -> int:
        return len(self.pool)

    @property
    def all_released(self) -> bool:
        return not self._unreleased

    def advance_clock(self, now: float) -> list[Request]:
        """Move the clock forward to ``now`` and pool the unscheduled
        requests released up to it.

        Returns every request released on the way, in release order.  A
        request once released stays released.
        """
        self.clock = now
        pending = self._unreleased
        released = []
        while pending and pending[-1].t <= now:
            r = pending.pop()
            released.append(r)
            if r.state is RequestState.UNSCHEDULED:
                self.pool[r.id] = r
        return released

    def schedule(self, r: Request) -> None:
        del self.pool[r.id]

    def pickup(self, r: Request) -> None:
        self.onboard_riders += r.n

    def dropoff(self, r: Request) -> None:
        self.onboard_riders -= r.n
        self.completed += 1
        self.direct_done_km += r.direct_dist


def waiting_time(r: Request, now: float) -> float:
    """Seconds the rider has waited; frozen at pickup."""
    if r.state in (RequestState.ONBOARD, RequestState.COMPLETED):
        assert r.pickup_time is not None
        return r.pickup_time - r.t
    return max(0.0, now - r.t)


def passengers_committed(v: Vehicle, requests: dict[int, Request]) -> int:
    """Seats held by the riders (waiting plus onboard), one drop-off each."""
    return sum(requests[s.request_id].n for s in v.path
               if s.kind is StopKind.DESTINATION)


# -- request I/O -----------------------------------------------------------

REQUEST_HEADER = "id,t_s,n,o_node,d_node"


class RequestError(ValueError):
    """Malformed request input."""


def check_request(net: RoadNetwork, r: Request) -> float:
    """D(o, d) of a request the fleet can serve; ``RequestError`` if not.

    The party size must be at least 1, the release time finite and at least
    0, and o and d two different known nodes with a path from o to d.  A
    ``direct_dist`` already set to a positive finite km is returned as it
    is, without a row query.
    """
    if r.n < 1:
        raise RequestError(f"request {r.id}: party size must be >= 1")
    if not 0.0 <= r.t < math.inf:
        raise RequestError(f"request {r.id}: release time must be finite "
                           f"and >= 0, got {r.t!r}")
    if r.o == r.d:
        raise RequestError(f"request {r.id}: origin equals destination")
    for nd in (r.o, r.d):
        if nd not in net.nodes:
            raise RequestError(f"request {r.id}: unknown node {nd}")
    if 0.0 < r.direct_dist < math.inf:
        return r.direct_dist
    try:
        return net.shortest_dist(r.o, r.d)
    except NoPathError as exc:
        raise RequestError(f"request {r.id}: {exc}") from None


def load_requests(path: str | os.PathLike, net: RoadNetwork) -> list[Request]:
    """Read requests CSV (header ``id,t_s,n,o_node,d_node``) and resolve D(o,d).

    A duplicate id, or a request ``check_request`` rejects, is a hard error
    at ingestion.
    """
    seen: set[int] = set()

    def request_row(row: list[str]) -> Request:
        r = Request(id=int(row[0]), t=float(row[1]), n=int(row[2]),
                    o=int(row[3]), d=int(row[4]))
        if r.id in seen:
            raise RequestError(f"duplicate request id {r.id}")
        seen.add(r.id)
        r.direct_dist = check_request(net, r)
        return r

    return read_csv(path, "requests", (REQUEST_HEADER,), RequestError,
                    request_row)[1]


def save_requests(requests: list[Request], path: str | os.PathLike) -> None:
    atomic_write(path, csv_text(REQUEST_HEADER, (
        (r.id, r.t, r.n, r.o, r.d) for r in requests)))


def sample_requests(net: RoadNetwork, rng: np.random.Generator, count: int,
                    duration_s: float, min_e_km: float = 0.0,
                    max_e_km: float = math.inf,
                    party_n: int = 1) -> list[Request]:
    """Seeded request stream: uniform release times and node pairs.

    Draws ``count`` sorted release times in [0, duration_s), then one
    origin-destination pair per request, redrawing pairs with o == d or a
    straight-line separation outside [min_e_km, max_e_km].  ``direct_dist``
    is left unset, to be resolved at ingestion.  Raises NetworkError when
    the pairs keep failing the separation bounds.
    """
    times = sorted(float(t) for t in rng.uniform(0.0, duration_s, size=count))
    node_ids = sorted(net.nodes)
    pts = {nid: net.point(nid) for nid in node_ids}
    out: list[Request] = []
    max_attempts = 10000 * max(count, 1)
    attempts = 0
    for idx in range(count):
        while True:
            attempts += 1
            if attempts > max_attempts:
                raise NetworkError(
                    f"could not draw an O/D pair with E >= {min_e_km} km "
                    f"after {max_attempts} attempts; separation infeasible "
                    f"for this network")
            o, d = (node_ids[int(k)]
                    for k in rng.integers(0, len(node_ids), size=2))
            if o == d:
                continue
            e = euclid(pts[o], pts[d])
            if e < min_e_km or e > max_e_km:
                continue
            break
        out.append(Request(id=idx, t=times[idx], n=party_n, o=o, d=d))
    return out

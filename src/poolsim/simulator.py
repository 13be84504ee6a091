"""Time-stepped fleet simulation around the epoch schedulers.

Vehicles drive their planned stop paths at constant speed along shortest
routes; pickups and dropoffs fire at exact times inside each step (distance
budget accounting, no sub-stepping error).  Scheduling runs at fixed epoch
boundaries.  A run terminates when every request is completed, when the
configured horizon is reached, or when it can be proven nothing will ever
change again (all vehicles idle, everything released, every leftover request
already past the waiting threshold, and the epoch assigned nothing).

Reports are plain-data and contain no wall-clock or environment values, so a
rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from .analysis import fleet_km, traffic_metrics
from .model import (Request, RequestError, RequestState, SimConfig, StopKind,
                    Vehicle, WorldState, check_request, waiting_time)
from .roadnet import RoadNetwork
from .scheduler import (Assignment, EpochCounters, es_epoch, psap_epoch,
                        TrialObserver)
from .seeds import substream


@dataclass(frozen=True)
class SimEvent:
    t: float
    kind: str  # release | schedule | pickup | dropoff
    req: int | None
    veh: int | None


_EVENT_ORDER = {"release": 0, "schedule": 1, "pickup": 2, "dropoff": 3}


@dataclass
class EpochRow:
    """One epoch's ``metrics.csv`` row.

    ``unserved`` counts the released requests still unscheduled after the
    scheduling pass, unlike ``SimReport.unserved``.
    """
    epoch: int
    t_s: float
    n_a: int
    n_b: int
    n_c: int
    m_a: int
    m_b: int
    m_c: int
    psi_a: float | None
    psi_b: float | None
    psi_c: float | None
    sharing_rate: float | None
    utilization: float
    saved_km: float
    assigned: int
    unserved: int
    onboard_riders: int
    moving: int
    completed_total: int


@dataclass
class RequestOutcome:
    id: int
    state: str
    vehicle_id: int | None
    t_s: float
    direct_km: float
    schedule_s: float | None
    pickup_s: float | None
    dropoff_s: float | None
    waiting_s: float | None
    realized_detour: float | None
    realized_buffer_km: float | None
    under_wait_branch: bool | None
    assign_i: int | None
    assign_j: int | None
    assign_case: str | None
    assign_cost_km: float | None


@dataclass
class SimReport:
    """A whole run, as ``write_report_files`` writes it.

    ``unserved`` (``report.json`` ``totals.unserved``) counts every request
    not completed when the run stopped, waiting and onboard riders included.
    """
    scheduler: str
    mode: str
    config: dict
    n_requests: int
    n_vehicles: int
    area_km2: float
    end_time_s: float
    total_travel_km: float
    sum_direct_completed_km: float
    saved_km: float
    completed: int
    unserved: int
    counters: EpochCounters
    epochs: list[EpochRow] = field(default_factory=list)
    assignments: list[Assignment] = field(default_factory=list)
    requests: list[RequestOutcome] = field(default_factory=list)
    events: list[SimEvent] = field(default_factory=list)

    def to_dict(self) -> dict:
        c = self.counters
        return {
            "scheduler": self.scheduler,
            "mode": self.mode,
            "config": self.config,
            "n_requests": self.n_requests,
            "n_vehicles": self.n_vehicles,
            "area_km2": self.area_km2,
            "end_time_s": self.end_time_s,
            "totals": {
                "total_travel_km": self.total_travel_km,
                "sum_direct_completed_km": self.sum_direct_completed_km,
                "saved_km": self.saved_km,
                "completed": self.completed,
                "unserved": self.unserved,
            },
            "counters": {**vars(c), **{f"psi_{case.lower()}": c.psi(case)
                                       for case in "ABC"}},
            "epochs": [vars(row) for row in self.epochs],
            "assignments": [vars(a) for a in self.assignments],
            "requests": [vars(r) for r in self.requests],
            "events": [vars(e) for e in self.events],
        }


def advance_vehicle(net: RoadNetwork, v: Vehicle, requests: dict[int, Request],
                    dt_s: float, config: SimConfig,
                    t0: float) -> list[SimEvent]:
    """Drive one vehicle for dt seconds, firing stop events at exact times.

    The vehicle finishes its in-progress edge before any rerouting takes
    effect; consecutive stops at the same node fire back to back in path
    order.  Mutates the vehicle and the touched requests.

    This is the one place that decides when ``v.route`` is stale: it is
    rebuilt unless it still ends at the first stop's node.  A route walks
    its target's reverse row by a memoryless rule, so the hops still ahead
    are the ones a fresh walk from the vehicle's node would take.
    """
    events: list[SimEvent] = []
    speed_km_s = config.speed_kmh / 3600.0
    budget = speed_km_s * dt_s
    moved = 0.0
    while True:
        if v.offset_km <= 0.0:
            v.offset_km = 0.0
            v.prev_node = None
            while v.path and v.path[0].node == v.node:
                stop = v.path.pop(0)
                t = t0 + moved / speed_km_s
                r = requests[stop.request_id]
                if stop.kind == StopKind.ORIGIN:
                    r.state = RequestState.ONBOARD
                    r.pickup_time = t
                    r.traveled_at_pickup = v.odometer
                    events.append(SimEvent(t, "pickup", r.id, v.id))
                else:
                    r.state = RequestState.COMPLETED
                    r.dropoff_time = t
                    r.traveled_at_dropoff = v.odometer
                    events.append(SimEvent(t, "dropoff", r.id, v.id))
        if budget <= 1e-15:
            break
        if v.offset_km > 0.0:
            step = min(v.offset_km, budget)
            v.offset_km -= step
            budget -= step
            v.odometer += step
            moved += step
            if v.offset_km <= 1e-12:
                v.offset_km = 0.0
            continue
        if not v.path:
            break
        target = v.path[0].node
        if not v.route or v.route[-1] != target:
            v.route = net.shortest_path_nodes(v.node, target)[1:]
        nxt = v.route.pop(0)
        v.prev_node = v.node
        v.node = nxt
        v.offset_km = net.hop_length(v.prev_node, nxt)
    return events


def _fresh_requests(net: RoadNetwork,
                    requests: list[Request]) -> dict[int, Request]:
    out: dict[int, Request] = {}
    for r in requests:
        if r.id in out:
            raise RequestError(f"duplicate request id {r.id}")
        out[r.id] = Request(id=r.id, t=r.t, n=r.n, o=r.o, d=r.d,
                            direct_dist=check_request(net, r))
    return out


def _place_vehicles(net: RoadNetwork, config: SimConfig) -> dict[int, Vehicle]:
    rng = substream(config.seed, "vehicles")
    node_ids = sorted(net.nodes)
    picks = rng.integers(0, len(node_ids), size=config.n_vehicles)
    return {i: Vehicle(id=i, capacity=config.capacity,
                       node=node_ids[int(picks[i])])
            for i in range(config.n_vehicles)}


def run(net: RoadNetwork, requests: list[Request], config: SimConfig,
        scheduler: str = "psap",
        trial_observer: TrialObserver | None = None) -> SimReport:
    """Simulate the full request set and return the run report.

    ``scheduler`` is "psap" (search-area pruned; gating per config) or "es"
    (exhaustive).  Input request objects are never mutated.  The release
    events and the epoch's ``traffic_metrics`` come from the state's
    running tally, which the clock, the commits and each step's pickup and
    drop-off events, tallied in ``events.jsonl`` order, keep current.
    """
    if scheduler == "psap":
        sched_fn = psap_epoch
        mode = config.gating
    elif scheduler == "es":
        sched_fn = es_epoch
        mode = "es"
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}")

    reqs = _fresh_requests(net, requests)
    vehicles = _place_vehicles(net, config)
    state = WorldState(clock=0.0, vehicles=vehicles, requests=reqs)
    area = net.area_km2()

    tally = state.tally
    # a fresh state has pooled exactly the requests released at time 0
    released = list(tally.pool.values())
    events: list[SimEvent] = []
    rows: list[EpochRow] = []
    assignment_log: list[Assignment] = []
    totals = EpochCounters()

    now = 0.0
    epoch_idx = 0
    while True:
        events.extend(SimEvent(r.t, "release", r.id, None)
                      for r in released)

        assignments, counters = sched_fn(net, state, config, now,
                                         trial_observer)
        totals.add(counters)
        assignment_log.extend(assignments)
        for a in assignments:
            events.append(SimEvent(now, "schedule", a.request_id, a.vehicle_id))

        tm = traffic_metrics(state)
        rows.append(EpochRow(
            epoch=epoch_idx, t_s=now, **vars(counters),
            psi_a=counters.psi("A"), psi_b=counters.psi("B"),
            psi_c=counters.psi("C"),
            sharing_rate=tm.sharing_rate,
            utilization=tm.utilization,
            saved_km=tm.saved_km,
            assigned=len(assignments), unserved=tm.unserved,
            onboard_riders=tm.onboard_riders, moving=tm.moving,
            completed_total=tm.completed))

        if tm.completed == len(reqs):
            break
        if config.horizon_s is not None and now >= config.horizon_s:
            break
        if tally.all_released and tm.moving == 0 and not assignments:
            # everything is released, so the pool holds every unscheduled
            # request
            if all(waiting_time(r, now) > config.wait_threshold_s
                   for r in tally.pool.values()):
                # frozen state: no motion, no future releases, and the
                # past-threshold pass just failed; later epochs are identical
                break

        step_events: list[SimEvent] = []
        for vid in sorted(vehicles):
            step_events.extend(advance_vehicle(net, vehicles[vid], reqs,
                                               config.epoch_s, config, now))
        step_events.sort(key=lambda e: (e.t, _EVENT_ORDER[e.kind],
                                        e.veh if e.veh is not None else -1,
                                        e.req if e.req is not None else -1))
        # tallied in events.jsonl order, which orders the sum of direct km
        for e in step_events:
            if e.kind == "pickup":
                tally.pickup(reqs[e.req])
            else:
                tally.dropoff(reqs[e.req])
        events.extend(step_events)
        now += config.epoch_s
        epoch_idx += 1
        released = state.advance_clock(now)

    outcomes: list[RequestOutcome] = []
    assign_by_req = {a.request_id: a for a in assignment_log}
    for rid in sorted(reqs):
        r = reqs[rid]
        a = assign_by_req.get(rid)
        picked = r.pickup_time is not None
        done = r.state == RequestState.COMPLETED
        outcomes.append(RequestOutcome(
            id=rid, state=r.state.value, vehicle_id=r.vehicle_id,
            t_s=r.t, direct_km=r.direct_dist,
            schedule_s=r.schedule_time, pickup_s=r.pickup_time,
            dropoff_s=r.dropoff_time,
            waiting_s=(r.pickup_time - r.t) if picked else None,
            realized_detour=((r.traveled_at_dropoff - r.traveled_at_pickup)
                             / r.direct_dist - 1.0) if done else None,
            realized_buffer_km=(r.traveled_at_pickup - r.odometer_at_schedule)
            if picked else None,
            under_wait_branch=r.scheduled_under_wait,
            assign_i=a.i if a else None, assign_j=a.j if a else None,
            assign_case=a.case if a else None,
            assign_cost_km=a.cost if a else None))

    travel = fleet_km(vehicles.values())
    direct_done = tally.direct_done_km
    return SimReport(
        scheduler=scheduler, mode=mode, config=config.to_dict(),
        n_requests=len(reqs), n_vehicles=len(vehicles), area_km2=area,
        end_time_s=now,
        total_travel_km=travel,
        sum_direct_completed_km=direct_done,
        saved_km=direct_done - travel,
        completed=tm.completed,
        unserved=len(reqs) - tm.completed,
        counters=totals, epochs=rows, assignments=assignment_log,
        requests=outcomes, events=events)


# -- baseline and report files --------------------------------------------


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
    return PoevBaseline(total_km=total, fleet_size=poev_fleet_size(len(requests)))


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


METRICS_HEADER = ("epoch,t_s,psi_A,psi_B,psi_C,sharing_rate,utilization,"
                  "saved_km,assigned,unserved")


def write_report_files(report: SimReport, outdir: str | os.PathLike) -> list[str]:
    """Write report.json, metrics.csv, requests.csv, events.jsonl atomically."""
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []

    path = os.path.join(outdir, "report.json")
    _atomic_write(path, json.dumps(report.to_dict(), indent=2,
                                   allow_nan=False) + "\n")
    written.append(path)

    lines = [METRICS_HEADER]
    for row in report.epochs:
        lines.append(",".join(_csv_cell(x) for x in (
            row.epoch, row.t_s, row.psi_a, row.psi_b, row.psi_c,
            row.sharing_rate, row.utilization, row.saved_km, row.assigned,
            row.unserved)))
    path = os.path.join(outdir, "metrics.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)

    lines = [",".join(f.name for f in fields(RequestOutcome))]
    lines.extend(",".join(_csv_cell(x) for x in vars(rc).values())
                 for rc in report.requests)
    path = os.path.join(outdir, "requests.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)

    path = os.path.join(outdir, "events.jsonl")
    _atomic_write(path, "".join(json.dumps(vars(e)) + "\n"
                                for e in report.events))
    written.append(path)
    return written

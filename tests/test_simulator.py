from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from poolsim import simulator
from poolsim.insertion import QOS_EPS, splice
from poolsim.model import (Request, RequestError, RequestState, SimConfig,
                           Stop, StopKind, Vehicle, WorldState,
                           sample_requests)
from poolsim.roadnet import (Edge, RoadNetwork, gen_grid, load_network,
                             save_network)
from poolsim.scheduler import run_epoch
from poolsim.seeds import substream
from poolsim.simulator import (METRICS_HEADER, SimEvent, advance_vehicle, run,
                               write_report_files)
from test_acceptance import (ORACLE_GRID, PoevBaseline, oracle_instance,
                             poev_baseline, poev_fleet_size)
from test_golden import PLANNERS, reorder_rows, report_digests
from test_roadnet import one_way_grid

SPEED_KM_S = 30.0 / 3600.0


def stops(*pairs) -> list[Stop]:
    kinds = {"o": StopKind.ORIGIN, "d": StopKind.DESTINATION}
    return [Stop(kinds[k], rid, node) for k, rid, node in pairs]


def onboard(rid, o, d, direct, picked_at=0.0):
    return Request(id=rid, t=0.0, n=1, o=o, d=d, direct_dist=direct,
                   state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                   traveled_at_pickup=picked_at, pickup_time=0.0,
                   schedule_time=0.0, vehicle_id=0, scheduled_under_wait=True)


def waiting(rid, o, d, direct, p_s):
    return Request(id=rid, t=0.0, n=1, o=o, d=d, direct_dist=direct,
                   state=RequestState.WAITING, odometer_at_schedule=0.0,
                   p_s=p_s, schedule_time=0.0, vehicle_id=0,
                   scheduled_under_wait=True)


class TestAdvanceVehicle:
    def test_idle_vehicle_is_a_no_op(self):
        net = gen_grid(13, 2, 0.5)
        v = Vehicle(id=0, capacity=5, node=3)
        events = advance_vehicle(net, v, {}, 60.0, SimConfig(), 0.0)
        assert events == []
        assert v.node == 3 and v.odometer == 0.0

    def test_reaches_stop_at_exact_time(self):
        net = gen_grid(13, 2, 0.5)
        r = waiting(1, o=1, d=3, direct=1.0, p_s=net.point(0))
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("o", 1, 1), ("d", 1, 3)))
        events = advance_vehicle(net, v, {1: r}, 60.0, SimConfig(), 100.0)
        assert [e.kind for e in events] == ["pickup"]
        assert events[0].t == pytest.approx(160.0)
        assert r.state == RequestState.ONBOARD
        assert r.pickup_time == pytest.approx(160.0)
        assert r.traveled_at_pickup == pytest.approx(0.5)
        assert v.node == 1 and v.offset_km == 0.0
        assert [s.node for s in v.path] == [3]

    def test_multiple_stops_fire_in_one_step(self):
        net = gen_grid(21, 2, 0.1)
        reqs = {1: onboard(1, 0, 2, 0.2), 2: onboard(2, 0, 4, 0.4)}
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("d", 1, 2), ("d", 2, 4)))
        events = advance_vehicle(net, v, reqs, 60.0, SimConfig(), 0.0)
        assert [(e.kind, e.req) for e in events] == [("dropoff", 1),
                                                    ("dropoff", 2)]
        assert events[0].t == pytest.approx(0.2 / SPEED_KM_S)
        assert events[1].t == pytest.approx(0.4 / SPEED_KM_S)
        assert v.path == []
        assert v.odometer == pytest.approx(0.4)

    def test_same_node_stops_fire_in_path_order(self):
        net = gen_grid(13, 2, 0.5)
        rider = onboard(2, 0, 5, 2.5)
        joiner = waiting(1, o=5, d=8, direct=1.5, p_s=net.point(0))
        reqs = {1: joiner, 2: rider}
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("o", 1, 5), ("d", 2, 5), ("d", 1, 8)))
        events = advance_vehicle(net, v, reqs, 300.0, SimConfig(), 0.0)
        assert [(e.kind, e.req) for e in events] == [("pickup", 1),
                                                    ("dropoff", 2)]
        assert events[0].t == events[1].t == pytest.approx(2.5 / SPEED_KM_S)

    def test_finishes_current_edge_before_rerouting(self):
        # mid-edge toward node 3 when the plan turns around: the edge is
        # completed first, then the vehicle doubles back
        net = gen_grid(13, 2, 0.5)
        r = onboard(1, 4, 0, 2.0)
        v = Vehicle(id=0, capacity=5, node=2, prev_node=1, offset_km=0.3,
                    odometer=0.2, path=stops(("d", 1, 0)))
        events = advance_vehicle(net, v, {1: r}, 12.0, SimConfig(), 0.0)
        assert events == []
        assert v.node == 2 and v.offset_km == pytest.approx(0.2)

        events = advance_vehicle(net, v, {1: r}, 600.0, SimConfig(), 12.0)
        assert [(e.kind, e.req) for e in events] == [("dropoff", 1)]
        # 0.2 km left on the edge, then 1.0 km back from node 2 to node 0
        assert events[0].t == pytest.approx(12.0 + 1.2 / SPEED_KM_S)
        assert v.node == 0
        assert v.odometer == pytest.approx(0.2 + 0.1 + 0.2 + 1.0)

    def test_substep_equivalence(self):
        net = gen_grid(13, 2, 0.5)

        def fresh():
            reqs = {1: waiting(1, o=3, d=9, direct=3.0,
                        p_s=net.point(0)),
                    2: onboard(2, 0, 6, 3.0)}
            v = Vehicle(id=0, capacity=5, node=0,
                        path=stops(("o", 1, 3), ("d", 2, 6), ("d", 1, 9)))
            return v, reqs

        v_one, reqs_one = fresh()
        events_one = advance_vehicle(net, v_one, reqs_one, 480.0,
                                     SimConfig(), 0.0)
        v_sub, reqs_sub = fresh()
        events_sub = []
        for k in range(16):
            events_sub.extend(advance_vehicle(net, v_sub, reqs_sub, 30.0,
                                              SimConfig(), 30.0 * k))
        assert v_one.node == v_sub.node
        assert v_one.odometer == pytest.approx(v_sub.odometer, abs=1e-9)
        assert v_one.offset_km == pytest.approx(v_sub.offset_km, abs=1e-9)
        assert [(e.kind, e.req) for e in events_one] == [
            (e.kind, e.req) for e in events_sub]
        for a, b in zip(events_one, events_sub):
            assert a.t == pytest.approx(b.t, abs=1e-6)


def drive_to_next_stop(net, v, reqs) -> list[int]:
    """The nodes a vehicle reaches, from the one it heads for, up to a stop."""
    nodes = [v.node]
    t = 0.0
    while True:
        events = advance_vehicle(net, v, reqs, 1.0, SimConfig(), t)
        t += 1.0
        if v.node != nodes[-1]:
            nodes.append(v.node)
        if events:
            return nodes


class TestRouteStaleness:
    """Only ``advance_vehicle`` decides when a vehicle's route is stale."""

    def mid_route(self):
        # an onboard rider bound for the far corner; after 75 s the vehicle
        # is mid-edge on its second hop
        net = gen_grid(6, 6, 0.5)
        reqs = {1: onboard(1, 0, 35, 5.0)}
        v = Vehicle(id=0, capacity=5, node=0, path=stops(("d", 1, 35)))
        advance_vehicle(net, v, reqs, 75.0, SimConfig(), 0.0)
        assert v.offset_km > 0.0 and v.route
        return net, v, reqs

    def test_commit_keeping_the_first_stop_keeps_the_route(self):
        net, v, reqs = self.mid_route()
        route = v.route
        reqs[2] = Request(id=2, t=0.0, n=1, o=34, d=28, direct_dist=0.5)
        state = WorldState(clock=75.0, vehicles={0: v}, requests=reqs)
        assignments, _ = run_epoch(net, state, SimConfig(), 75.0, "es")
        assert [(a.request_id, a.i, a.j) for a in assignments] == [(2, 1, 2)]
        assert v.route is route
        stood = v.node
        assert drive_to_next_stop(net, v, reqs) == net.shortest_path_nodes(
            stood, 35)

    def test_commit_changing_the_first_stop_reroutes(self):
        net, v, reqs = self.mid_route()
        # a pickup behind the vehicle, spliced in ahead of its first stop
        reqs[2] = waiting(2, o=6, d=11, direct=2.5, p_s=net.point(0))
        v.path = splice(v.path, 6, 11, 0, 1, 2)
        stood = v.node
        assert drive_to_next_stop(net, v, reqs) == net.shortest_path_nodes(
            stood, 6)
        assert reqs[2].state == RequestState.ONBOARD


class TestRun:
    def test_single_ride_duration(self):
        net = gen_grid(13, 2, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=6)]
        report = run(net, reqs, SimConfig(n_vehicles=1, seed=0))
        assert report.completed == 1 and report.unserved == 0
        rc = report.requests[0]
        assert rc.state == "completed"
        assert rc.direct_km == pytest.approx(3.0)
        assert rc.dropoff_s - rc.pickup_s == pytest.approx(360.0, abs=1e-6)
        assert rc.realized_detour == pytest.approx(0.0, abs=1e-9)

    def test_zero_requests(self):
        net = gen_grid(5, 5, 0.5)
        report = run(net, [], SimConfig(n_vehicles=2, seed=1))
        assert report.n_requests == 0
        assert report.total_travel_km == 0.0
        assert report.end_time_s == 0.0
        assert report.events == []

    def test_inputs_not_mutated(self):
        net = gen_grid(13, 2, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=6)]
        run(net, reqs, SimConfig(n_vehicles=1, seed=0))
        assert reqs[0].state == RequestState.UNSCHEDULED
        assert reqs[0].direct_dist == 0.0

    def test_duplicate_request_ids_rejected(self):
        net = gen_grid(5, 5, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=6),
                Request(id=1, t=10.0, n=1, o=2, d=8)]
        with pytest.raises(ValueError, match="duplicate"):
            run(net, reqs, SimConfig())

    def test_report_byte_determinism(self):
        net = gen_grid(8, 8, 0.5)
        reqs = [Request(id=i, t=20.0 * i, n=1, o=i, d=63 - i)
                for i in range(8)]
        cfg = SimConfig(n_vehicles=3, seed=7)
        a = run(net, list(reqs), cfg)
        b = run(net, list(reqs), cfg)
        assert (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))

    def test_event_causality_and_qos(self):
        net = gen_grid(10, 10, 0.5)
        reqs = [Request(id=i, t=15.0 * i, n=1,
                        o=(i * 17) % 100, d=(i * 29 + 41) % 100)
                for i in range(20)]
        cfg = SimConfig(n_vehicles=3, seed=3)
        report = run(net, reqs, cfg)
        assert report.completed == 20

        by_req: dict[int, dict[str, float]] = {}
        for e in report.events:
            if e.req is not None:
                by_req.setdefault(e.req, {})[e.kind] = e.t
        for rid, ts in by_req.items():
            assert ts["release"] <= ts["schedule"] <= ts["pickup"]
            assert ts["pickup"] < ts["dropoff"]

        for rc in report.requests:
            assert rc.waiting_s >= 0.0
            assert rc.realized_detour <= cfg.max_detour + 1e-6
            if rc.under_wait_branch:
                assert rc.realized_buffer_km <= cfg.buffer_km + 1e-6
            assert rc.realized_buffer_km >= -1e-9

    def test_saved_km_identity_and_counts(self):
        net = gen_grid(10, 10, 0.5)
        reqs = [Request(id=i, t=10.0 * i, n=1,
                        o=(i * 13) % 100, d=(i * 31 + 7) % 100)
                for i in range(12)]
        report = run(net, reqs, SimConfig(n_vehicles=2, seed=5))
        assert report.saved_km == pytest.approx(
            report.sum_direct_completed_km - report.total_travel_km)
        assert report.completed + report.unserved == report.n_requests

    def test_oversized_party_triggers_frozen_termination(self):
        # a party larger than any vehicle can never be scheduled; the run
        # must prove itself stuck and stop instead of spinning forever
        net = gen_grid(5, 5, 0.5)
        reqs = [Request(id=1, t=0.0, n=6, o=0, d=24)]
        cfg = SimConfig(n_vehicles=2, seed=2)
        report = run(net, reqs, cfg)
        assert report.completed == 0 and report.unserved == 1
        assert report.end_time_s > cfg.wait_threshold_s
        assert report.requests[0].state == "unscheduled"

    def test_horizon_cuts_run_short(self):
        net = gen_grid(13, 2, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=6),
                Request(id=2, t=5000.0, n=1, o=6, d=0)]
        report = run(net, reqs, SimConfig(n_vehicles=1, seed=0,
                                          horizon_s=50.0))
        assert report.end_time_s == 50.0
        assert report.unserved >= 1

    def test_unknown_scheduler_rejected(self):
        net = gen_grid(5, 5, 0.5)
        with pytest.raises(ValueError):
            run(net, [], SimConfig(), scheduler="magic")

    def test_inclusive_gating_matches_exhaustive_run(self):
        net = gen_grid(8, 8, 0.5)
        reqs = [Request(id=i, t=25.0 * i, n=1,
                        o=(i * 11) % 64, d=(i * 23 + 17) % 64)
                for i in range(10)]
        psap = run(net, list(reqs),
                   SimConfig(n_vehicles=2, seed=9, gating="inclusive"),
                   scheduler="psap")
        es = run(net, list(reqs), SimConfig(n_vehicles=2, seed=9),
                 scheduler="es")
        assert psap.assignments == es.assignments
        assert [vars(r) for r in psap.requests] == [vars(r)
                                                    for r in es.requests]
        assert psap.total_travel_km == pytest.approx(es.total_travel_km)
        assert psap.counters.m_total <= es.counters.m_total

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_release_time_rejected(self, t):
        net = gen_grid(5, 5, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=24),
                Request(id=2, t=t, n=1, o=4, d=20)]
        # the horizon ends a run that lets the request through, which
        # otherwise never ends (inf)
        with pytest.raises(RequestError, match="request 2: release time"):
            run(net, reqs, SimConfig(horizon_s=600.0))

    def test_release_events_logged_at_release_times(self):
        net = gen_grid(5, 5, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=20),
                Request(id=2, t=33.0, n=1, o=4, d=24)]
        report = run(net, reqs, SimConfig(n_vehicles=1, seed=4))
        releases = {e.req: e.t for e in report.events if e.kind == "release"}
        assert releases == {1: 0.0, 2: 33.0}
        for e in report.events:
            if e.kind == "schedule":
                assert e.t % 10.0 == 0.0


class TestPoevBaseline:
    def test_fleet_size_halves_requests(self):
        assert poev_fleet_size(75014) == 37507
        assert poev_fleet_size(5) == 3
        assert poev_fleet_size(0) == 0

    def test_totals_are_direct_distances(self):
        net = gen_grid(13, 2, 0.5)
        reqs = [Request(id=1, t=0.0, n=1, o=0, d=6),
                Request(id=2, t=0.0, n=1, o=6, d=12)]
        base = poev_baseline(net, reqs)
        assert base == PoevBaseline(total_km=6.0, fleet_size=1,
                                    sharing_rate=1.0)

    def test_unservable_request_rejected(self):
        net = gen_grid(13, 2, 0.5)
        with pytest.raises(RequestError, match="origin equals destination"):
            poev_baseline(net, [Request(id=1, t=0.0, n=1, o=6, d=6)])


class TestReportFiles:
    def make_report(self):
        net = gen_grid(8, 8, 0.5)
        reqs = [Request(id=i, t=20.0 * i, n=1, o=i, d=63 - i)
                for i in range(6)]
        return run(net, reqs, SimConfig(n_vehicles=2, seed=7))

    def test_files_written_and_consistent(self, tmp_path):
        report = self.make_report()
        written = write_report_files(report, tmp_path)
        assert sorted(os.path.basename(p) for p in written) == [
            "events.jsonl", "metrics.csv", "report.json", "requests.csv"]

        with open(tmp_path / "report.json") as f:
            assert json.load(f) == report.to_dict()
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + len(report.epochs)
        req_lines = (tmp_path / "requests.csv").read_text().splitlines()
        assert len(req_lines) == 1 + report.n_requests
        ev_lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(ev_lines) == len(report.events)
        assert json.loads(ev_lines[0])["kind"] == "release"

    def test_infinite_preset_direct_distance_is_resolved(self, tmp_path):
        # only a positive finite preset is trusted; an infinite one would
        # reach report.json, which refuses it
        net = gen_grid(4, 4, 0.5)
        req = Request(id=0, t=0.0, n=1, o=0, d=15, direct_dist=math.inf)
        report = run(net, [req], SimConfig(n_vehicles=1))
        write_report_files(report, tmp_path)
        with open(tmp_path / "report.json") as f:
            (outcome,) = json.load(f)["requests"]
        assert outcome["direct_km"] == net.shortest_dist(0, 15) == 3.0

    def test_rewrites_are_byte_identical(self, tmp_path):
        report = self.make_report()
        write_report_files(report, tmp_path / "a")
        write_report_files(report, tmp_path / "b")
        for name in ("report.json", "metrics.csv", "requests.csv",
                     "events.jsonl"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestRunningTotals:
    @staticmethod
    def check_tally_against_rescans(monkeypatch, net, n_veh, reqs, seed,
                                    planner, gating):
        shipped = simulator.traffic_metrics
        epochs = []

        def rescanned(state):
            tm = shipped(state)
            everyone = list(state.requests.values())
            done = [r for r in everyone
                    if r.state == RequestState.COMPLETED]
            assert tm.onboard_riders == sum(
                r.n for r in everyone if r.state == RequestState.ONBOARD)
            assert tm.completed_total == len(done)
            assert tm.unserved == sum(
                1 for r in everyone if r.state == RequestState.UNSCHEDULED
                and r.t <= state.clock)
            pooled = sorted((r for r in everyone
                             if r.state == RequestState.UNSCHEDULED
                             and r.t <= state.clock),
                            key=lambda r: (r.t, r.id))
            assert list(state.pool.keys()) == [r.id for r in pooled]
            # direct km add up in drop-off order, as events.jsonl lists
            # them, and odometers left to right
            direct = 0
            for r in sorted(done, key=lambda r: (r.dropoff_time,
                                                 r.vehicle_id, r.id)):
                direct += r.direct_dist
            travel = 0
            for v in state.vehicles.values():
                travel += v.odometer
            assert tm.saved_km == direct - travel
            epochs.append(state.clock)
            return tm

        monkeypatch.setattr(simulator, "traffic_metrics", rescanned)
        report = run(net, reqs, SimConfig(n_vehicles=n_veh, seed=seed,
                                          gating=gating), scheduler=planner)
        assert len(epochs) == len(report.epochs) > 1
        assert report.completed > 0
        return report

    @pytest.mark.parametrize("planner,gating", [
        ("es", "literal"), ("psap", "literal")])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_tally_equals_a_rescan_every_epoch(self, monkeypatch, seed,
                                               planner, gating):
        net = gen_grid(*ORACLE_GRID)
        self.check_tally_against_rescans(monkeypatch, net,
                                         *oracle_instance(net, seed), seed,
                                         planner, gating)

    @pytest.mark.parametrize("planner,gating", [
        ("es", "literal"), ("psap", "inclusive")])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_tally_equals_a_rescan_off_the_half_km_grid(self, monkeypatch,
                                                        seed, planner,
                                                        gating):
        # the oracle's direct km are multiples of 0.5, so every summation
        # order gives the same total; multiples of 0.3 do not.  Twelve
        # vehicles drop riders off in the same step, so an order by vehicle
        # differs from drop-off order as well as request-file order does
        net = gen_grid(10, 10, 0.3)
        reqs = sample_requests(net, substream(seed, "requests"), 60, 600.0)
        report = self.check_tally_against_rescans(
            monkeypatch, net, 12, reqs, seed, planner, gating)
        in_file_order = 0
        for rc in report.requests:
            if rc.state == RequestState.COMPLETED.value:
                in_file_order += rc.direct_km
        assert report.sum_direct_completed_km != in_file_order


class TestOneWayStreets:
    """The acceptance invariants off the lattice.

    An 8x8 city of one-way streets with 0.4 x 0.3 km blocks, and a copy
    with every length scaled by U(1, 1.3): D(a, b) differs from D(b, a),
    and few routes tie.
    """

    @staticmethod
    def city(lengths: str, seed: int) -> RoadNetwork:
        net = one_way_grid(8, 8, 0.4, 0.3)
        if lengths == "blocks":
            return net
        rng = np.random.default_rng(seed)
        return RoadNetwork(nodes=net.nodes, edges=[
            Edge(e.id, e.u, e.v, e.length_km * float(rng.uniform(1.0, 1.3)),
                 e.bidirectional) for e in net.edges])

    @staticmethod
    def requests(net: RoadNetwork, seed: int) -> list[Request]:
        return sample_requests(net, substream(seed, "requests"), 60, 1200.0,
                               min_e_km=0.8)

    @staticmethod
    def config(seed: int, gating: str) -> SimConfig:
        return SimConfig(n_vehicles=6, seed=seed, gating=gating,
                         buffer_km=1.5)

    @pytest.mark.parametrize("lengths", ["blocks", "scaled"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inclusive_commits_what_es_commits_within_qos(self, lengths,
                                                          seed):
        net = self.city(lengths, seed)
        reqs = self.requests(net, seed)
        reports = {planner: run(net, reqs, self.config(seed, gating),
                                scheduler=scheduler)
                   for planner, (scheduler, gating) in PLANNERS.items()}
        es = [vars(a) for a in reports["es"].assignments]
        assert es
        assert [vars(a) for a in reports["psap-inclusive"].assignments] == es
        for planner, report in reports.items():
            detours = [rc.realized_detour for rc in report.requests
                       if rc.realized_detour is not None]
            buffers = [rc.realized_buffer_km for rc in report.requests
                       if rc.under_wait_branch
                       and rc.realized_buffer_km is not None]
            assert detours and buffers, planner
            assert max(detours) <= report.config["max_detour"] + QOS_EPS
            assert max(buffers) <= report.config["buffer_km"] + QOS_EPS

    @pytest.mark.parametrize("lengths", ["blocks", "scaled"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reports_do_not_depend_on_network_row_order(self, tmp_path,
                                                        lengths, seed):
        base = self.city(lengths, seed)
        reqs = self.requests(base, seed)
        nets = {}
        for order in ("file", "reversed", "shuffled"):
            nodes = tmp_path / f"{order}-nodes.csv"
            edges = tmp_path / f"{order}-edges.csv"
            save_network(base, nodes, edges)
            if order != "file":
                reorder_rows(nodes, order)
                reorder_rows(edges, order)
            nets[order] = load_network(nodes, edges)
        for planner, (scheduler, gating) in PLANNERS.items():
            digests = {
                order: report_digests(
                    run(net, reqs, self.config(seed, gating),
                        scheduler=scheduler),
                    tmp_path / f"{planner}-{order}")
                for order, net in nets.items()}
            assert digests["reversed"] == digests["file"], planner
            assert digests["shuffled"] == digests["file"], planner

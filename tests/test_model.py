from __future__ import annotations

import math

import pytest

from poolsim.geometry import Point, euclid
from poolsim.model import (STILL_KM, Request, RequestError, RequestState,
                           SimConfig, Stop, StopKind, Vehicle, load_requests,
                           passengers_committed, sample_requests,
                           save_requests, waiting_time)
from poolsim.roadnet import NetworkError, gen_grid
from poolsim.seeds import substream


def line_net(n=61, spacing=0.1):
    # row 0 of a two-row grid acts as a line; node k sits at x = k * spacing
    return gen_grid(n, 2, spacing)


class TestWaitingTime:
    def test_unscheduled_counts_from_release(self):
        r = Request(id=0, t=100.0, n=1, o=0, d=1)
        assert waiting_time(r, 160.0) == pytest.approx(60.0)

    def test_before_release_is_zero(self):
        r = Request(id=0, t=100.0, n=1, o=0, d=1)
        assert waiting_time(r, 50.0) == 0.0

    def test_waiting_keeps_accruing(self):
        r = Request(id=0, t=100.0, n=1, o=0, d=1,
                    state=RequestState.WAITING, schedule_time=110.0)
        assert waiting_time(r, 300.0) == pytest.approx(200.0)

    def test_frozen_at_pickup(self):
        r = Request(id=0, t=100.0, n=1, o=0, d=1,
                    state=RequestState.ONBOARD, pickup_time=250.0)
        assert waiting_time(r, 900.0) == pytest.approx(150.0)
        r.state = RequestState.COMPLETED
        assert waiting_time(r, 2000.0) == pytest.approx(150.0)


def test_passengers_committed():
    # rider 1 waits (origin and destination stops), rider 2 rides (its
    # destination stop only): each party counts once
    reqs = {1: Request(id=1, t=0, n=2, o=3, d=5,
                       state=RequestState.WAITING),
            2: Request(id=2, t=0, n=3, o=0, d=4,
                       state=RequestState.ONBOARD)}
    path = [Stop(StopKind.ORIGIN, 1, 3), Stop(StopKind.DESTINATION, 2, 4),
            Stop(StopKind.DESTINATION, 1, 5)]
    v = Vehicle(id=0, capacity=5, node=0, path=path)
    assert passengers_committed(v, reqs) == 5
    assert passengers_committed(Vehicle(id=1, capacity=5, node=0), reqs) == 0


def test_position_point_interpolates():
    net = line_net(11, 1.0)
    v = Vehicle(id=0, capacity=5, node=3, offset_km=0.25, prev_node=2)
    p = v.position_point(net)
    assert p == pytest.approx(Point(2.75, 0.0))
    v2 = Vehicle(id=0, capacity=5, node=3)
    assert v2.position_point(net) == Point(3.0, 0.0)


class TestSampleRequests:
    def test_draws_respect_the_separation_bounds(self):
        net = gen_grid(6, 6, 0.5)
        reqs = sample_requests(net, substream(3, "requests"), 80, 600.0,
                               min_e_km=1.0, max_e_km=2.0, party_n=2)
        assert [r.id for r in reqs] == list(range(80))
        times = [r.t for r in reqs]
        assert times == sorted(times)
        assert all(0.0 <= t < 600.0 for t in times)
        for r in reqs:
            e = euclid(net.point(r.o), net.point(r.d))
            assert r.o != r.d and 1.0 <= e <= 2.0
            assert r.n == 2 and r.direct_dist == 0.0
            assert r.state == RequestState.UNSCHEDULED

    def test_unsatisfiable_separation_raises(self):
        # pair distances on this grid are 1, 2, sqrt 2 and sqrt 5 km
        net = gen_grid(3, 2, 1.0)
        with pytest.raises(NetworkError, match="separation infeasible"):
            sample_requests(net, substream(0, "requests"), 1, 60.0,
                            min_e_km=1.5, max_e_km=1.9)


class TestSimConfig:
    def test_defaults_match_reference_settings(self):
        c = SimConfig()
        assert c.max_detour == 0.2
        assert c.wait_threshold_s == 240.0
        assert c.buffer_km == 6.0
        assert c.capacity == 5
        assert c.speed_kmh == 30.0
        assert c.epoch_s == 10.0

    @pytest.mark.parametrize("kw", [
        {"max_detour": -0.1}, {"wait_threshold_s": -1}, {"buffer_km": -2},
        {"capacity": 0}, {"speed_kmh": 0}, {"epoch_s": 0},
        {"n_vehicles": 0}, {"gating": "both"}, {"seed": -3},
        {"horizon_s": -5.0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    def test_horizon_zero_is_accepted(self):
        assert SimConfig(horizon_s=0.0).horizon_s == 0.0

    @pytest.mark.parametrize("speed_kmh,epoch_s", [
        (1e-13, 10.0), (3.6e-13, 10.0), (30.0, 1e-16)])
    def test_step_that_moves_nothing_rejected(self, speed_kmh, epoch_s):
        # advance_vehicle drives nothing on a budget at or below STILL_KM,
        # so without a horizon such a run would never end
        assert speed_kmh / 3600.0 * epoch_s <= STILL_KM
        with pytest.raises(ValueError, match="no vehicle moves"):
            SimConfig(speed_kmh=speed_kmh, epoch_s=epoch_s)

    def test_smallest_moving_step_accepted(self):
        speed_kmh = 3.7e-13
        assert speed_kmh / 3600.0 * 10.0 > STILL_KM
        assert SimConfig(speed_kmh=speed_kmh).speed_kmh == speed_kmh

    @pytest.mark.parametrize("name", [
        "max_detour", "wait_threshold_s", "buffer_km", "speed_kmh",
        "epoch_s", "horizon_s",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig(**{name: value})


class TestRequestIO:
    def test_round_trip(self, tmp_path):
        net = gen_grid(4, 4, 1.0)
        reqs = [Request(id=0, t=0.0, n=1, o=0, d=15),
                Request(id=1, t=12.5, n=2, o=3, d=12)]
        p = tmp_path / "requests.csv"
        save_requests(reqs, p)
        back = load_requests(p, net)
        assert [(r.id, r.t, r.n, r.o, r.d) for r in back] == \
               [(0, 0.0, 1, 0, 15), (1, 12.5, 2, 3, 12)]
        assert back[0].direct_dist == pytest.approx(6.0)
        assert all(r.state == RequestState.UNSCHEDULED for r in back)

    @pytest.mark.parametrize("row,msg", [
        ("0,0.0,1,2,2", "origin equals destination"),
        ("0,0.0,1,0,99", "unknown node"),
        ("0,0.0,0,0,3", "party size"),
        ("0,-5.0,1,0,3", "release time"),
        ("0,nan,1,0,3", r"requests\.csv:2: request 0: release time"),
        ("0,inf,1,0,3", r"requests\.csv:2: request 0: release time"),
        ("0,-inf,1,0,3", r"requests\.csv:2: request 0: release time"),
    ])
    def test_bad_rows(self, tmp_path, row, msg):
        net = gen_grid(2, 2, 1.0)
        p = tmp_path / "requests.csv"
        p.write_text(f"id,t_s,n,o_node,d_node\n{row}\n")
        with pytest.raises(RequestError, match=msg):
            load_requests(p, net)

    def test_duplicate_id(self, tmp_path):
        net = gen_grid(2, 2, 1.0)
        p = tmp_path / "requests.csv"
        p.write_text("id,t_s,n,o_node,d_node\n0,0,1,0,3\n0,1,1,1,2\n")
        with pytest.raises(RequestError, match="duplicate"):
            load_requests(p, net)

    def test_bad_header(self, tmp_path):
        net = gen_grid(2, 2, 1.0)
        p = tmp_path / "requests.csv"
        p.write_text("id,t,n,o,d\n0,0,1,0,3\n")
        with pytest.raises(RequestError, match="header"):
            load_requests(p, net)

    def test_unreachable_pair(self, tmp_path):
        from poolsim.roadnet import Edge, RoadNetwork
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        net = RoadNetwork(nodes=nodes,
                          edges=[Edge(0, 0, 1, 1.0, bidirectional=False)])
        p = tmp_path / "requests.csv"
        p.write_text("id,t_s,n,o_node,d_node\n0,0,1,1,0\n")
        with pytest.raises(RequestError, match="no path"):
            load_requests(p, net)

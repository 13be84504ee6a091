from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim.geometry import (PSA_EMPTY, PSA_OPEN, PSA_SINGLE, PSA_UNION,
                              Point, VehiclePsa, make_psa_rect, psa_contains)
from poolsim.insertion import (CASE_A, CASE_B, CASE_C, INFEASIBLE,
                               VehiclePath, VehicleTrial, candidate_positions,
                               enumerate_all)
from poolsim.model import (Request, RequestState, SimConfig, Stop, StopKind,
                           Vehicle, WorldState, passengers_committed,
                           waiting_time)
from poolsim.roadnet import Edge, RoadNetwork, gen_grid
from poolsim import scheduler
from poolsim.scheduler import (Assignment, EpochCounters, counts_for_path,
                               es_epoch, furthest_psa, gate, psap_epoch,
                               run_epoch, search_area)
from poolsim.analysis import traffic_metrics
from poolsim.simulator import run, write_report_files
from test_acceptance import ORACLE_GRID, oracle_instance
from test_insertion import full_check_candidate


def two_node_net():
    # one 5 km edge between points 4 km apart: network distance beats euclid
    return RoadNetwork(nodes={0: Point(0.0, 0.0), 1: Point(4.0, 0.0)},
                       edges=[Edge(0, 0, 1, 5.0)])


def stops(*pairs) -> list[Stop]:
    kinds = {"o": StopKind.ORIGIN, "d": StopKind.DESTINATION}
    return [Stop(kinds[k], rid, node) for k, rid, node in pairs]


class TestCountsForPath:
    @pytest.mark.parametrize("k,want", [
        (0, (0, 0, 1)), (1, (0, 0, 1)), (2, (1, 1, 1)), (3, (3, 2, 1)),
        (5, (10, 4, 1)),
    ])
    def test_values(self, k, want):
        assert counts_for_path(k) == want

    def test_sums_to_enumeration_size(self):
        from poolsim.insertion import candidate_positions
        for k in range(0, 15):
            assert sum(counts_for_path(k)) == len(candidate_positions(k))


class TestEpochCounters:
    def test_totals_and_psi(self):
        c = EpochCounters(n_a=10, n_b=4, n_c=2, m_a=3, m_b=4, m_c=1)
        assert c.n_total == 16
        assert c.m_total == 8
        assert c.psi(CASE_A) == pytest.approx(0.7)
        assert c.psi(CASE_B) == 0.0
        assert c.psi(CASE_C) == pytest.approx(0.5)

    def test_psi_none_when_unobserved(self):
        assert EpochCounters().psi(CASE_A) is None

    def test_add(self):
        a = EpochCounters(n_a=1, m_c=2)
        a.add(EpochCounters(n_a=3, n_b=1, m_c=1))
        assert (a.n_a, a.n_b, a.m_c) == (4, 1, 3)


class TestFurthestPsa:
    def test_idle_vehicle_empty(self):
        net = two_node_net()
        v = Vehicle(id=0, capacity=5, node=0)
        psa = furthest_psa(net, v, {}, 6.0, 0.2)
        assert psa.kind == PSA_EMPTY

    def test_onboard_single_rectangle(self):
        net = two_node_net()
        r = Request(id=7, t=0, n=1, o=0, d=1, direct_dist=5.0,
                    state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                    traveled_at_pickup=0.0)
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("d", 7, 1)))
        psa = furthest_psa(net, v, {7: r}, 6.0, 0.2)
        assert psa.kind == PSA_SINGLE
        assert psa.furthest_request_id == 7
        assert psa.alpha is None
        # ride budget (1 + 0.2) * 5 = 6 around foci 4 apart
        assert psa.beta.half_len == pytest.approx(3.0)
        assert psa.beta.half_wid == pytest.approx(math.sqrt(20.0) / 2)
        assert psa.beta.area == pytest.approx(6.0 * math.sqrt(20.0))

    def test_waiting_union_both_rectangles(self):
        net = two_node_net()
        r = Request(id=7, t=0, n=1, o=0, d=1, direct_dist=5.0,
                    state=RequestState.WAITING, odometer_at_schedule=0.0,
                    scheduled_under_wait=True, p_s=Point(-3.0, 0.0))
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("o", 7, 0), ("d", 7, 1)))
        psa = furthest_psa(net, v, {7: r}, 6.0, 0.2)
        assert psa.kind == PSA_UNION
        assert psa.alpha is not None
        assert psa.alpha.half_len == pytest.approx(3.0)
        assert psa.alpha.half_wid == pytest.approx(math.sqrt(27.0) / 2)
        assert psa.beta.half_len == pytest.approx(3.0)

    def test_waiting_union_infeasible_pickup_rect(self):
        # scheduled position 7 km from the origin exceeds the 6 km budget
        net = two_node_net()
        r = Request(id=7, t=0, n=1, o=0, d=1, direct_dist=5.0,
                    state=RequestState.WAITING, odometer_at_schedule=0.0,
                    scheduled_under_wait=True, p_s=Point(-7.0, 0.0))
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("o", 7, 0), ("d", 7, 1)))
        psa = furthest_psa(net, v, {7: r}, 6.0, 0.2)
        assert psa.kind == PSA_UNION
        assert psa.alpha is None

    def test_waiting_without_guarantee_open(self):
        # a furthest rider committed past the waiting threshold has no pickup
        # buffer, so no rectangle bounds the leg up to its pickup
        net = two_node_net()
        r = Request(id=7, t=0, n=1, o=0, d=1, direct_dist=5.0,
                    state=RequestState.WAITING, odometer_at_schedule=0.0,
                    scheduled_under_wait=False, p_s=Point(-3.0, 0.0))
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("o", 7, 0), ("d", 7, 1)))
        psa = furthest_psa(net, v, {7: r}, 6.0, 0.2)
        assert psa.kind == PSA_OPEN
        assert psa.furthest_request_id == 7

    def test_furthest_is_last_stop_owner(self):
        net = gen_grid(5, 2, 1.0)
        r1 = Request(id=1, t=0, n=1, o=0, d=2, direct_dist=2.0,
                     state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                     traveled_at_pickup=0.0)
        r2 = Request(id=2, t=0, n=1, o=0, d=4, direct_dist=4.0,
                     state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                     traveled_at_pickup=0.0)
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("d", 1, 2), ("d", 2, 4)))
        psa = furthest_psa(net, v, {1: r1, 2: r2}, 6.0, 0.2)
        assert psa.furthest_request_id == 2


class TestGate:
    def setup_method(self):
        self.beta = make_psa_rect(Point(0, 0), Point(4, 0), 6.0)
        self.single = VehiclePsa.single(self.beta, 7)
        self.inside = Point(2.0, 0.0)
        self.corner = Point(4.8, 2.2)    # in the rectangle, off the ellipse
        self.outside = Point(10.0, 0.0)

    def admit(self, psa, o, d, mode, path_pts=(), pos=Point(0, 0)):
        return gate(psa, o, d, list(path_pts), pos, 6.0, mode)

    def test_case_a_needs_both(self):
        for mode in ("literal", "inclusive"):
            assert self.admit(self.single, self.inside, self.corner, mode)[0]
            assert not self.admit(self.single, self.inside, self.outside,
                                  mode)[0]
            assert not self.admit(self.single, self.outside, self.inside,
                                  mode)[0]

    def test_case_b_literal_excludes_inner_destination(self):
        assert self.admit(self.single, self.inside, self.outside,
                          "literal")[1]
        assert not self.admit(self.single, self.inside, self.corner,
                              "literal")[1]
        assert not self.admit(self.single, self.outside, self.inside,
                              "literal")[1]

    def test_case_b_inclusive_keeps_inner_destination(self):
        assert self.admit(self.single, self.inside, self.corner,
                          "inclusive")[1]
        assert self.admit(self.single, self.inside, self.outside,
                          "inclusive")[1]
        assert not self.admit(self.single, self.outside, self.inside,
                              "inclusive")[1]

    def test_case_a_union_alpha_only_point(self):
        alpha = make_psa_rect(Point(-3, 0), Point(0, 0), 6.0)
        union = VehiclePsa.union(alpha, self.beta, 7)
        o = Point(-2.0, 0.0)    # alpha rectangle only
        assert self.admit(union, o, self.inside, "literal")[0]
        assert not self.admit(self.single, o, self.inside, "literal")[0]

    def test_case_c_empty_path_vacuous(self):
        # even an infeasible pickup rectangle admits an idle vehicle
        for mode in ("literal", "inclusive"):
            assert self.admit(self.single, self.outside, self.inside,
                              mode)[2]

    def test_case_c_bounds_committed_stops(self):
        o = Point(3.0, 0.0)
        near = [Point(1.0, 0.5)]
        far = [Point(1.0, 0.5), Point(0.0, 4.0)]
        assert self.admit(self.single, o, self.inside, "literal", near)[2]
        assert not self.admit(self.single, o, self.inside, "literal", far)[2]

    def test_case_c_infeasible_rect_nonempty_path(self):
        assert not self.admit(self.single, self.outside, self.inside,
                              "literal", [Point(1.0, 0.0)])[2]

    def test_empty_area_rejects_a_and_b(self):
        empty = VehiclePsa.empty()
        assert self.admit(empty, self.inside, self.inside,
                          "literal")[:2] == (False, False)
        assert self.admit(empty, self.inside, self.outside,
                          "literal")[:2] == (False, False)

    def test_open_area_admits_everything_inclusive(self):
        area = VehiclePsa.open_area(7)
        assert self.admit(area, self.outside, self.outside,
                          "inclusive") == (True, True, True)

    def test_open_area_admits_everything_literal(self):
        # strict case separation needs a boundary; an open area has none, so
        # literal mode admits case B alongside case A instead of starving the
        # vehicle of appends
        area = VehiclePsa.open_area(7)
        assert self.admit(area, self.inside, self.outside, "literal")[:2] \
            == (True, True)
        assert self.admit(area, self.inside, self.corner, "literal")[:2] \
            == (True, True)


DENSE_NET = gen_grid(20, 20, 0.3)


def dense_node(x_km: float, y_km: float) -> int:
    return round(y_km / 0.3) * 20 + round(x_km / 0.3)


class TestGateSlack:
    """The gate admits every plan the QoS check accepts, bounds included."""

    def seed_703_world(self):
        # the dense workload's geometry at seed 703, period 0, t = 130 s:
        # rider 23 rides (5.7, 5.7) -> (5.7, 2.7) over a direct distance of
        # 2.9999999999999996 km, and request 38's origin (5.7, 2.4) lies
        # 0.3 km past that destination, where the ride rectangle ends
        net = DENSE_NET
        top, drop, mid = (dense_node(5.7, 5.7), dense_node(5.7, 2.7),
                          dense_node(5.7, 4.2))
        riders = {
            rid: Request(id=rid, t=0.0, n=1, o=top, d=d,
                         direct_dist=net.shortest_dist(top, d),
                         state=RequestState.ONBOARD, traveled_at_pickup=0.0)
            for rid, d in ((22, mid), (23, drop))}
        assert riders[23].direct_dist == 2.9999999999999996
        v = Vehicle(id=0, capacity=5, node=top,
                    path=stops(("d", 22, mid), ("d", 23, drop)))
        o, d = dense_node(5.7, 2.4), dense_node(4.8, 2.7)
        new = Request(id=38, t=0.0, n=1, o=o, d=d,
                      direct_dist=net.shortest_dist(o, d))
        return net, v, {**riders, 38: new}

    def test_seed_703_plan_on_the_detour_bound_is_admitted(self):
        net, v, requests = self.seed_703_world()
        new = requests[38]
        cfg = SimConfig()
        # o before rider 23's drop-off, d appended: rider 23 rides 3.6 km,
        # exactly (1 + 0.2) times the direct distance
        trial = VehicleTrial.for_vehicle(net, v, requests, new, cfg, True)
        assert trial.evaluate(1, 3).cost != INFEASIBLE
        psa = furthest_psa(net, v, requests, cfg.buffer_km, cfg.max_detour)
        assert psa.kind == PSA_SINGLE and psa.furthest_request_id == 23
        assert psa_contains(psa, net.point(new.o))
        _, admit_b, _ = gate(psa, net.point(new.o), net.point(new.d),
                             [net.point(s.node) for s in v.path],
                             v.position_point(net), cfg.buffer_km,
                             "inclusive")
        assert admit_b

    def test_seed_703_inclusive_commits_what_es_commits(self):
        committed = {}
        for mode in ("inclusive", "es"):
            net, v, requests = self.seed_703_world()
            state = WorldState(clock=0.0, vehicles={0: v}, requests=requests)
            assignments, _ = run_epoch(net, state, SimConfig(), 0.0, mode)
            committed[mode] = (assignments, _path_snapshot(state))
        assert committed["inclusive"] == committed["es"]
        assert committed["es"][0]

    def test_pickup_on_the_buffer_bound_is_admitted(self):
        # case C: the committed stop sits on the straight pickup route, and
        # the buffer equals the km to the new origin exactly
        net = gen_grid(8, 2, 0.3)
        rider = Request(id=1, t=0.0, n=1, o=0, d=3,
                        direct_dist=net.shortest_dist(0, 3),
                        state=RequestState.ONBOARD, traveled_at_pickup=0.0)
        v = Vehicle(id=0, capacity=5, node=0, path=stops(("d", 1, 3)))
        new = Request(id=2, t=0.0, n=1, o=7, d=15,
                      direct_dist=net.shortest_dist(7, 15))
        buffer_km = net.shortest_dist(0, 3) + net.shortest_dist(3, 7)
        cfg = SimConfig(buffer_km=buffer_km)
        trial = VehicleTrial.for_vehicle(net, v, {1: rider}, new, cfg, True)
        assert trial.evaluate(1, 2).cost != INFEASIBLE
        psa = furthest_psa(net, v, {1: rider}, cfg.buffer_km, cfg.max_detour)
        assert gate(psa, net.point(7), net.point(15), [net.point(3)],
                    v.position_point(net), buffer_km, "inclusive")[2]


    def test_waiting_riders_pickup_bound_is_admitted(self):
        # the furthest rider waits at x = 1.0 with the pickup guarantee;
        # the vehicle overshoots to the new origin at x = 1.2 and comes
        # back, which puts that origin on the far end of the pickup
        # rectangle, outside the ride rectangle, with the buffer equal to
        # the rider's planned pickup km
        net = gen_grid(8, 2, 0.2)
        riders = {
            1: Request(id=1, t=0.0, n=1, o=5, d=13,
                       direct_dist=net.shortest_dist(5, 13),
                       state=RequestState.WAITING, p_s=net.point(0),
                       odometer_at_schedule=20.0, scheduled_under_wait=True),
            2: Request(id=2, t=0.0, n=1, o=0, d=2,
                       direct_dist=net.shortest_dist(0, 2),
                       state=RequestState.ONBOARD, traveled_at_pickup=20.0),
        }
        v = Vehicle(id=0, capacity=5, node=0, odometer=20.0,
                    path=stops(("d", 2, 2), ("o", 1, 5), ("d", 1, 13)))
        new = Request(id=3, t=0.0, n=1, o=6, d=5,
                      direct_dist=net.shortest_dist(6, 5))
        requests = {**riders, 3: new}
        pickup_km = VehicleTrial.for_vehicle(
            net, v, requests, new, SimConfig(), True).prefix(1, 2)[4]
        cfg = SimConfig(buffer_km=pickup_km)
        trial = VehicleTrial.for_vehicle(net, v, requests, new, cfg, True)
        assert trial.evaluate(1, 2).cost != INFEASIBLE
        psa = furthest_psa(net, v, requests, cfg.buffer_km, cfg.max_detour)
        assert psa.kind == PSA_UNION
        assert gate(psa, net.point(6), net.point(5),
                    [net.point(s.node) for s in v.path],
                    v.position_point(net), cfg.buffer_km, "inclusive")[0]


# a block of streets, and a two-lane strip where routes run collinear
GATE_NETS = (gen_grid(5, 4, 0.3), gen_grid(7, 2, 0.3))


@st.composite
def bound_states(draw):
    """A vehicle whose committed plans lie exactly on their bounds.

    Riders are onboard or waiting, with or without the pickup guarantee,
    and the km each has driven since pickup or scheduling is at least the
    network distance from where that began, so the search area is sound.
    Each rider's direct distance is its planned ride, so with a zero detour
    bound its plan sits exactly on it; the detour bound may instead be
    pinned to one candidate's exact new-rider ratio, and the buffer to the
    new rider's or a guarded rider's exact pickup km.
    """
    net = draw(st.sampled_from(GATE_NETS))
    node = st.sampled_from(sorted(net.nodes))
    head = draw(node)
    v = Vehicle(id=0, capacity=9, node=head, odometer=20.0)
    requests: dict[int, Request] = {}
    path: list[Stop] = []
    for rid in range(1, draw(st.integers(1, 3)) + 1):
        began = draw(node)
        since = net.shortest_dist(began, head) + draw(
            st.sampled_from([0.0, 0.3]))
        d = draw(node.filter(lambda x: x != began))
        if draw(st.booleans()):
            r = Request(id=rid, t=0.0, n=1, o=began, d=d,
                        state=RequestState.ONBOARD,
                        traveled_at_pickup=v.odometer - since)
            at = draw(st.integers(0, len(path)))
            path.insert(at, Stop(StopKind.DESTINATION, rid, d))
        else:
            o = draw(node.filter(lambda x: x != d))
            r = Request(id=rid, t=0.0, n=1, o=o, d=d,
                        state=RequestState.WAITING, p_s=net.point(began),
                        odometer_at_schedule=v.odometer - since,
                        scheduled_under_wait=draw(st.booleans()))
            a = draw(st.integers(0, len(path)))
            path.insert(a, Stop(StopKind.ORIGIN, rid, o))
            b = draw(st.integers(a + 1, len(path)))
            path.insert(b, Stop(StopKind.DESTINATION, rid, d))
        requests[rid] = r
    if path[-1].kind != StopKind.DESTINATION:
        path.append(path.pop(next(m for m in range(len(path) - 1, -1, -1)
                                  if path[m].kind == StopKind.DESTINATION)))
    v.path = path
    vehicle_path = VehiclePath(net, v, requests)
    vehicle_path.legs()
    at = vehicle_path.at
    pickups = []
    for r in requests.values():
        di = next(m for m, s in enumerate(path) if s.request_id == r.id
                  and s.kind == StopKind.DESTINATION)
        if r.state == RequestState.ONBOARD:
            planned = v.odometer - r.traveled_at_pickup + at[di + 1]
        else:
            oi = next(m for m, s in enumerate(path) if s.request_id == r.id)
            planned = at[di + 1] - at[oi + 1]
            if r.scheduled_under_wait:
                pickups.append(v.odometer - r.odometer_at_schedule
                               + at[oi + 1])
        r.direct_dist = max(planned, net.shortest_dist(r.o, r.d))

    o = draw(node)
    d = draw(node.filter(lambda x: x != o))
    new = Request(id=99, t=0.0, n=1, o=o, d=d,
                  direct_dist=net.shortest_dist(o, d))
    k = len(path)
    i, j, _ = draw(st.sampled_from(candidate_positions(k)))
    legs = VehicleTrial.for_vehicle(net, v, requests, new, SimConfig(), True)
    q = legs.prefix(i, j)
    max_detour = draw(st.sampled_from(
        [0.0, 0.2, (q[j + 1] - q[i + 1]) / new.direct_dist - 1.0]))
    # the km to the new origin of this candidate and of the tail append
    pickups += [q[i + 1], legs.prefix(k, k + 1)[k + 1]]
    buffer_km = draw(st.sampled_from([6.0, *pickups]))
    cfg = SimConfig(max_detour=max(max_detour, 0.0), buffer_km=buffer_km)
    return net, v, requests, new, cfg


class TestGateSoundness:
    @settings(max_examples=400, deadline=None)
    @given(case=bound_states())
    def test_inclusive_gate_admits_every_feasible_candidate(self, case):
        net, v, requests, new, cfg = case
        requests = {**requests, new.id: new}
        psa = furthest_psa(net, v, requests, cfg.buffer_km, cfg.max_detour)
        admit = dict(zip((CASE_A, CASE_B, CASE_C), gate(
            psa, net.point(new.o), net.point(new.d),
            [net.point(s.node) for s in v.path], v.position_point(net),
            cfg.buffer_km, "inclusive")))
        for cand in enumerate_all(net, v, requests, new, cfg, True):
            if cand.cost != INFEASIBLE:
                assert admit[cand.case], cand


class TestSearchArea:
    def world(self):
        net = gen_grid(5, 2, 1.0)
        cfg = SimConfig()
        near = Request(id=1, t=0, n=1, o=1, d=2, direct_dist=1.0,
                       state=RequestState.WAITING, odometer_at_schedule=0.0,
                       scheduled_under_wait=True, p_s=Point(0.0, 0.0))
        far = Request(id=2, t=0, n=1, o=1, d=4, direct_dist=3.0,
                      state=RequestState.WAITING, odometer_at_schedule=0.0,
                      scheduled_under_wait=True, p_s=Point(0.0, 0.0))
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("o", 1, 1), ("o", 2, 1), ("d", 1, 2),
                               ("d", 2, 4)))
        return net, cfg, v, {1: near, 2: far}

    def pick_up(self, v, reqs, rid):
        reqs[rid].state = RequestState.ONBOARD
        v.path = [s for s in v.path
                  if not (s.request_id == rid and s.kind == StopKind.ORIGIN)]

    def test_pickup_of_furthest_collapses_union(self):
        net, cfg, v, reqs = self.world()
        assert search_area(net, v, reqs, cfg).kind == PSA_UNION
        self.pick_up(v, reqs, 2)
        psa = search_area(net, v, reqs, cfg)
        assert psa is v.psa
        assert psa.kind == PSA_SINGLE
        assert psa.furthest_request_id == 2

    def test_pickup_of_other_rider_keeps_area(self):
        net, cfg, v, reqs = self.world()
        before = search_area(net, v, reqs, cfg)
        self.pick_up(v, reqs, 1)
        assert search_area(net, v, reqs, cfg) is before

    def test_intermediate_dropoff_keeps_area(self):
        net, cfg, v, reqs = self.world()
        for rid in (1, 2):
            self.pick_up(v, reqs, rid)
        before = search_area(net, v, reqs, cfg)
        assert before.kind == PSA_SINGLE
        reqs[1].state = RequestState.COMPLETED
        v.path = stops(("d", 2, 4))
        assert search_area(net, v, reqs, cfg) is before

    def test_final_dropoff_empties_area(self):
        net, cfg, v, reqs = self.world()
        search_area(net, v, reqs, cfg)
        for rid in (1, 2):
            reqs[rid].state = RequestState.COMPLETED
        v.path = []
        assert search_area(net, v, reqs, cfg).kind == PSA_EMPTY


class TestSearchAreaInRuns:
    """The area the gate reads is always the one a fresh build gives."""

    @pytest.fixture(scope="class")
    def oracle_net(self):
        return gen_grid(*ORACLE_GRID)

    @pytest.mark.parametrize("gating", ["inclusive", "literal"])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_gated_area_equals_fresh_build(self, oracle_net, seed, gating):
        n_veh, reqs = oracle_instance(oracle_net, seed)
        cfg = SimConfig(n_vehicles=n_veh, seed=seed, gating=gating)
        checked = 0

        def observer(now, r, v, evaluated, requests):
            nonlocal checked
            if waiting_time(r, now) > cfg.wait_threshold_s:
                return
            assert v.psa == furthest_psa(oracle_net, v, requests,
                                         cfg.buffer_km, cfg.max_detour)
            checked += 1

        run(oracle_net, reqs, cfg, scheduler="psap", trial_observer=observer)
        assert checked > 0

    def test_es_never_builds_an_area(self, oracle_net, monkeypatch):
        calls = 0
        original = scheduler.furthest_psa

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(scheduler, "furthest_psa", counting)
        n_veh, reqs = oracle_instance(oracle_net, 1)
        run(oracle_net, reqs, SimConfig(n_vehicles=n_veh, seed=1),
            scheduler="es")
        assert calls == 0
        # the counter sees the pruned planner's builds
        run(oracle_net, reqs, SimConfig(n_vehicles=n_veh, seed=1),
            scheduler="psap")
        assert calls > 0


class TestRunEpochBasics:
    def line(self, n=21, spacing=0.5):
        return gen_grid(n, 2, spacing)

    def one_request_world(self, net, o, d, t=0.0, n=1, node=0):
        r = Request(id=1, t=t, n=n, o=o, d=d,
                    direct_dist=net.shortest_dist(o, d))
        v = Vehicle(id=0, capacity=5, node=node)
        return WorldState(clock=0.0, vehicles={0: v}, requests={1: r})

    def test_idle_vehicle_gets_append_assignment(self):
        net = self.line()
        state = self.one_request_world(net, o=2, d=6)
        cfg = SimConfig()
        assignments, counters = psap_epoch(net, state, cfg, now=0.0)
        assert assignments == [Assignment(0.0, 1, 0, 0, 1, CASE_C,
                                          pytest.approx(3.0))]
        assert (counters.n_a, counters.n_b, counters.n_c) == (0, 0, 1)
        assert (counters.m_a, counters.m_b, counters.m_c) == (0, 0, 1)
        r = state.requests[1]
        v = state.vehicles[0]
        assert r.state == RequestState.WAITING
        assert r.vehicle_id == 0
        assert r.schedule_time == 0.0
        assert r.p_s == net.point(0)
        assert r.odometer_at_schedule == 0.0
        assert r.scheduled_under_wait is True
        assert [s.node for s in v.path] == [2, 6]
        psa = search_area(net, v, state.requests, cfg)
        assert psa.kind == PSA_UNION
        assert psa.furthest_request_id == 1

    def test_unreleased_request_ignored(self):
        net = self.line()
        state = self.one_request_world(net, o=2, d=6, t=50.0)
        assignments, counters = psap_epoch(net, state, SimConfig(), now=0.0)
        assert assignments == []
        assert counters.n_total == 0
        assert state.requests[1].state == RequestState.UNSCHEDULED

    def test_capacity_precheck_skips_vehicle_and_counters(self):
        net = self.line()
        state = self.one_request_world(net, o=2, d=6, n=6)
        assignments, counters = psap_epoch(net, state, SimConfig(), now=0.0)
        assert assignments == []
        assert counters.n_total == 0 and counters.m_total == 0

    def test_committed_seats_come_from_the_path(self):
        # a waiting party of 2 (origin and destination stops) and an onboard
        # rider (destination stop only) hold 3 of the 5 seats
        net = self.line()
        riders = {
            7: Request(id=7, t=0, n=2, o=4, d=10,
                       direct_dist=net.shortest_dist(4, 10),
                       state=RequestState.WAITING, odometer_at_schedule=0.0,
                       scheduled_under_wait=True, p_s=net.point(0)),
            8: Request(id=8, t=0, n=1, o=0, d=12,
                       direct_dist=net.shortest_dist(0, 12),
                       state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                       traveled_at_pickup=0.0),
        }
        cfg = SimConfig(max_detour=10.0, buffer_km=100.0)
        for n, fits in ((3, False), (2, True)):
            v = Vehicle(id=0, capacity=5, node=0,
                        path=stops(("o", 7, 4), ("d", 7, 10), ("d", 8, 12)))
            new = Request(id=1, t=0, n=n, o=2, d=6,
                          direct_dist=net.shortest_dist(2, 6))
            state = WorldState(clock=0.0, vehicles={0: v},
                               requests={**riders, 1: new})
            assignments, counters = es_epoch(net, state, cfg, now=0.0)
            assert (len(assignments) == 1) is fits, n
            assert (counters.n_total > 0) is fits, n
        assert passengers_committed(v, state.requests) == 5

    def test_vehicle_tie_breaks_by_id(self):
        net = self.line()
        r = Request(id=1, t=0, n=1, o=2, d=6,
                    direct_dist=net.shortest_dist(2, 6))
        vehicles = {vid: Vehicle(id=vid, capacity=5, node=0)
                    for vid in (3, 1, 2)}
        state = WorldState(clock=0.0, vehicles=vehicles, requests={1: r})
        assignments, _ = psap_epoch(net, state, SimConfig(), now=0.0)
        assert assignments[0].vehicle_id == 1

    def test_waiting_threshold_flips_buffer_rule(self):
        # pickup 7 km out: stranded under the 6 km buffer until the rider
        # has waited past the threshold, then served detour-only
        net = self.line()
        cfg = SimConfig()
        state = self.one_request_world(net, o=14, d=16)
        assignments, _ = psap_epoch(net, state, cfg, now=0.0)
        assert assignments == []
        assert state.requests[1].state == RequestState.UNSCHEDULED

        late = self.one_request_world(net, o=14, d=16)
        assignments, counters = psap_epoch(net, late, cfg, now=241.0)
        assert len(assignments) == 1
        assert assignments[0].cost == pytest.approx(8.0)
        assert late.requests[1].scheduled_under_wait is False
        # the exhaustive branch evaluates everything it counts
        assert counters.m_total == counters.n_total == 1

    def test_longest_waiting_request_served_first(self):
        net = self.line()
        old = Request(id=5, t=0.0, n=1, o=2, d=6,
                      direct_dist=net.shortest_dist(2, 6))
        fresh = Request(id=1, t=30.0, n=1, o=4, d=8,
                        direct_dist=net.shortest_dist(4, 8))
        v = Vehicle(id=0, capacity=1, node=0)
        state = WorldState(clock=0.0, vehicles={0: v},
                           requests={5: old, 1: fresh})
        assignments, _ = psap_epoch(net, state, SimConfig(capacity=1),
                                    now=60.0)
        assert [a.request_id for a in assignments] == [5]

    def test_pass_moves_the_clock_and_the_running_totals(self):
        net = self.line()
        early = Request(id=1, t=0.0, n=1, o=2, d=6,
                        direct_dist=net.shortest_dist(2, 6))
        late = Request(id=2, t=30.0, n=1, o=4, d=8,
                       direct_dist=net.shortest_dist(4, 8))
        state = WorldState(clock=0.0,
                           vehicles={0: Vehicle(id=0, capacity=1, node=0)},
                           requests={1: early, 2: late})
        assert traffic_metrics(state).unserved == 1
        assignments, _ = psap_epoch(net, state, SimConfig(capacity=1),
                                    now=60.0)
        assert [a.request_id for a in assignments] == [1]
        assert state.clock == 60.0
        assert traffic_metrics(state).unserved == 1  # request 2, now out

    def test_pool_holds_the_released_unscheduled_requests(self):
        # a hand-built state: one rider already committed, one released,
        # one still to come
        net = self.line()
        waiting = Request(id=3, t=0.0, n=1, o=2, d=6, direct_dist=2.0,
                          state=RequestState.WAITING, vehicle_id=0)
        out = Request(id=1, t=10.0, n=1, o=4, d=8, direct_dist=2.0)
        later = Request(id=2, t=90.0, n=1, o=4, d=8, direct_dist=2.0)
        state = WorldState(clock=20.0,
                           vehicles={0: Vehicle(id=0, capacity=3, node=0)},
                           requests={3: waiting, 1: out, 2: later})
        tally = state.tally
        assert tally.pool.keys() == {1}
        assert not tally.all_released
        assert state.advance_clock(50.0) == []
        assert state.advance_clock(100.0) == [later]
        assert list(tally.pool.keys()) == [1, 2] and tally.all_released
        assignments, _ = es_epoch(net, state, SimConfig(), now=100.0)
        assert sorted(a.request_id for a in assignments) == [1, 2]
        assert tally.pool == {} and tally.unserved == 0

    def test_unknown_mode_raises(self):
        net = self.line()
        state = self.one_request_world(net, o=2, d=6)
        with pytest.raises(ValueError):
            run_epoch(net, state, SimConfig(), 0.0, "greedy")


class TestPruning:
    def test_far_request_prunes_interior_positions(self):
        # onboard corridor along the bottom row, new request at the top
        # edge: origin sits outside the ride rectangle, so cases A and B
        # are gated and only the tail append is priced
        net = gen_grid(6, 6, 0.5)
        cfg = SimConfig()
        riders = {
            8: Request(id=8, t=0, n=1, o=0, d=2,
                       direct_dist=net.shortest_dist(0, 2),
                       state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                       traveled_at_pickup=0.0),
            9: Request(id=9, t=0, n=1, o=0, d=5,
                       direct_dist=net.shortest_dist(0, 5),
                       state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                       traveled_at_pickup=0.0),
        }
        v = Vehicle(id=0, capacity=5, node=0,
                    path=stops(("d", 8, 2), ("d", 9, 5)))
        new = Request(id=1, t=0, n=1, o=35, d=33,
                      direct_dist=net.shortest_dist(35, 33))
        state = WorldState(clock=0.0, vehicles={0: v},
                           requests={**riders, 1: new})
        _, counters = run_epoch(net, state, cfg, 0.0, "literal")
        assert (counters.n_a, counters.n_b, counters.n_c) == (1, 1, 1)
        assert counters.m_a == 0 and counters.m_b == 0
        assert counters.m_c == 1

    def test_es_mode_never_prunes(self):
        net = gen_grid(6, 6, 0.5)
        cfg = SimConfig()
        state = _random_state(net, seed=3)
        _, counters = run_epoch(net, state, cfg, 0.0, "es")
        assert counters.m_total == counters.n_total


def _random_state(net, seed, n_vehicles=None, n_requests=None,
                  horizon=300.0):
    rng = np.random.default_rng(seed)
    ids = sorted(net.nodes)
    nv = n_vehicles if n_vehicles is not None else 2 + seed % 3
    nr = n_requests if n_requests is not None else 8 + (seed * 3) % 7
    vehicles = {vid: Vehicle(id=vid, capacity=5,
                             node=int(rng.choice(ids)))
                for vid in range(nv)}
    requests = {}
    rid = 0
    while len(requests) < nr:
        o, d = (int(x) for x in rng.choice(ids, 2, replace=False))
        t = float(rng.uniform(0.0, horizon))
        requests[rid] = Request(id=rid, t=t, n=1, o=o, d=d,
                                direct_dist=net.shortest_dist(o, d))
        rid += 1
    return WorldState(clock=0.0, vehicles=vehicles, requests=requests)


def _run_epochs(net, state, cfg, mode, epochs, observer=None):
    out = []
    for now in epochs:
        assignments, counters = run_epoch(net, state, cfg, now, mode,
                                          observer)
        out.append((assignments, counters))
    return out


def _path_snapshot(state):
    return {vid: [(s.kind.value, s.request_id, s.node) for s in v.path]
            for vid, v in state.vehicles.items()}


EPOCHS = [0.0, 60.0, 120.0, 180.0, 240.0, 300.0, 360.0]


class TestModeAgreement:
    @pytest.mark.parametrize("seed", range(20))
    def test_inclusive_matches_exhaustive(self, seed):
        net = gen_grid(6, 6, 0.5)
        cfg = SimConfig()
        base = _random_state(net, seed)
        inc_state = copy.deepcopy(base)
        es_state = copy.deepcopy(base)
        inc = _run_epochs(net, inc_state, cfg, "inclusive", EPOCHS)
        es = _run_epochs(net, es_state, cfg, "es", EPOCHS)
        for (a_inc, _), (a_es, _) in zip(inc, es):
            assert a_inc == a_es
        assert _path_snapshot(inc_state) == _path_snapshot(es_state)
        # the pruned run never evaluates more than the exhaustive one
        assert sum(c.m_total for _, c in inc) <= sum(c.m_total
                                                     for _, c in es)

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_literal_evaluates_subset_with_equal_costs(self, seed):
        net = gen_grid(6, 6, 0.5)
        cfg = SimConfig(gating="literal")
        state = _random_state(net, seed)
        shared = 0
        evaluated_total = 0
        brute_total = 0

        def observer(now, r, v, evaluated, requests):
            nonlocal shared, evaluated_total, brute_total
            check_buffer = (waiting_time(r, now)
                            <= cfg.wait_threshold_s)
            brute = {(c.i, c.j): c for c in enumerate_all(
                net, v, requests, r, cfg, check_buffer)}
            brute_total += len(brute)
            evaluated_total += len(evaluated)
            for cand in evaluated:
                ref = brute[(cand.i, cand.j)]
                assert cand.case == ref.case
                if math.isinf(cand.cost):
                    assert math.isinf(ref.cost)
                else:
                    assert cand.cost == pytest.approx(ref.cost, abs=1e-12)
                shared += 1

        _run_epochs(net, state, cfg, "literal", EPOCHS, observer)
        assert shared == evaluated_total
        assert evaluated_total <= brute_total

    def test_epochs_are_deterministic(self):
        net = gen_grid(6, 6, 0.5)
        cfg = SimConfig()
        runs = []
        for _ in range(2):
            state = _random_state(net, seed=11)
            out = _run_epochs(net, state, cfg, "literal", EPOCHS)
            runs.append([a for assignments, _ in out for a in assignments])
        assert runs[0] == runs[1]


class TestCounterAccounting:
    def test_n_matches_closed_form_per_trial(self):
        net = gen_grid(6, 6, 0.5)
        cfg = SimConfig()
        state = _random_state(net, seed=5)
        expected_n = 0
        observed_m = 0

        def observer(now, r, v, evaluated, requests):
            nonlocal expected_n, observed_m
            expected_n += sum(counts_for_path(len(v.path)))
            observed_m += len(evaluated)

        totals = EpochCounters()
        for assignments, counters in _run_epochs(net, state, cfg, "literal",
                                                 EPOCHS, observer):
            totals.add(counters)
        assert totals.n_total == expected_n
        assert totals.m_total == observed_m
        assert totals.m_total <= totals.n_total


class TestScreenedEvaluation:
    """The new-rider screen in ``VehicleTrial.evaluate`` changes no output."""

    @pytest.fixture(scope="class")
    def oracle_net(self):
        return gen_grid(*ORACLE_GRID)

    @pytest.mark.parametrize("scheduler,gating", [
        ("es", "literal"), ("psap", "inclusive"), ("psap", "literal")])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_reports_byte_identical_to_full_check(self, oracle_net, tmp_path,
                                                  monkeypatch, seed,
                                                  scheduler, gating):
        n_veh, reqs = oracle_instance(oracle_net, seed)
        cfg = SimConfig(n_vehicles=n_veh, seed=seed, gating=gating)
        shipped = run(oracle_net, reqs, cfg, scheduler=scheduler)
        with monkeypatch.context() as m:
            m.setattr(VehicleTrial, "evaluate", full_check_candidate)
            reference = run(oracle_net, reqs, cfg, scheduler=scheduler)
        assert shipped.counters == reference.counters
        ours = write_report_files(shipped, tmp_path / "shipped")
        theirs = write_report_files(reference, tmp_path / "reference")
        assert len(ours) == 4
        for a, b in zip(ours, theirs):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), a


class FreshPath:
    """Stands in for the epoch's shared vehicle part: every read rebuilds it.

    So seats, gate points and every trial's legs and rider table are
    read off the vehicle as it is at that moment, as if nothing were kept
    between requests.
    """

    def __init__(self, net, v, requests):
        self.parts = (net, v, requests)

    def __getattr__(self, name):
        return getattr(VehiclePath(*self.parts), name)


def fresh_trial(path, ends, new_request, config, check_buffer):
    net, v, requests = path.parts
    return VehicleTrial.for_vehicle(net, v, requests, new_request, config,
                                    check_buffer)


class TestSharedVehicleParts:
    """Sharing one vehicle part per epoch changes no output."""

    @pytest.fixture(scope="class")
    def oracle_net(self):
        return gen_grid(*ORACLE_GRID)

    @pytest.mark.parametrize("planner,gating", [
        ("es", "literal"), ("psap", "inclusive"), ("psap", "literal")])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_reports_byte_identical_to_fresh_parts(self, oracle_net,
                                                   tmp_path, monkeypatch,
                                                   seed, planner, gating):
        n_veh, reqs = oracle_instance(oracle_net, seed)
        cfg = SimConfig(n_vehicles=n_veh, seed=seed, gating=gating)
        shipped = run(oracle_net, reqs, cfg, scheduler=planner)
        with monkeypatch.context() as m:
            m.setattr(scheduler, "VehiclePath", FreshPath)
            m.setattr(scheduler, "VehicleTrial", fresh_trial)
            reference = run(oracle_net, reqs, cfg, scheduler=planner)
        assert shipped.counters == reference.counters
        ours = write_report_files(shipped, tmp_path / "shipped")
        theirs = write_report_files(reference, tmp_path / "reference")
        assert len(ours) == 4
        for a, b in zip(ours, theirs):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), a

    def test_second_request_sees_the_first_splice(self):
        # one vehicle, two requests in one epoch: the second is tried
        # against the path the first was just spliced into
        net = gen_grid(21, 2, 0.5)
        first = Request(id=1, t=0.0, n=1, o=2, d=10,
                        direct_dist=net.shortest_dist(2, 10))
        second = Request(id=2, t=5.0, n=1, o=4, d=8,
                         direct_dist=net.shortest_dist(4, 8))
        v = Vehicle(id=0, capacity=5, node=0)
        state = WorldState(clock=0.0, vehicles={0: v},
                           requests={1: first, 2: second})
        cfg = SimConfig()
        seen = []

        def observer(now, r, v, evaluated, requests):
            fresh = enumerate_all(net, v, requests, r, cfg, True)
            seen.append((r.id, len(v.path), evaluated, fresh))

        assignments, counters = run_epoch(net, state, cfg, 10.0, "es",
                                          observer)
        assert [a.request_id for a in assignments] == [1, 2]
        assert [(rid, k) for rid, k, _, _ in seen] == [(1, 0), (2, 2)]
        for _, _, evaluated, fresh in seen:
            assert evaluated == fresh
        # the second rides inside the first's trip: o after o1, d before d1
        assert (assignments[1].i, assignments[1].j) == (1, 2)
        assert [s.request_id for s in v.path] == [1, 2, 2, 1]
        assert counters.n_total == 1 + sum(counts_for_path(2))


class TestEndpointRows:
    """Trials read rows of request endpoints only, never of a vehicle head."""

    @pytest.mark.parametrize("planner,gating", [
        ("es", "literal"), ("psap", "inclusive"), ("psap", "literal")])
    def test_trials_fetch_rows_of_endpoints_only(self, monkeypatch, planner,
                                                 gating):
        net = gen_grid(*ORACLE_GRID)
        n_veh, reqs = oracle_instance(net, 1)
        endpoints = {x for r in reqs for x in (r.o, r.d)}
        fetched: set[int] = set()
        heads: set[int] = set()
        in_trial = []

        def recording(fetch):
            def row(net, node):
                if in_trial:
                    fetched.add(node)
                return fetch(net, node)
            return row

        def inside(fn):
            def call(*args):
                in_trial.append(fn)
                try:
                    return fn(*args)
                finally:
                    in_trial.pop()
            return call

        def trial(path, *args):
            heads.add(path.v.node)
            return inside(VehicleTrial)(path, *args)

        monkeypatch.setattr(RoadNetwork, "dists_from",
                            recording(RoadNetwork.dists_from))
        monkeypatch.setattr(RoadNetwork, "dists_to",
                            recording(RoadNetwork.dists_to))
        monkeypatch.setattr(VehicleTrial, "evaluate",
                            inside(VehicleTrial.evaluate))
        monkeypatch.setattr(scheduler, "VehicleTrial", trial)
        run(net, reqs, SimConfig(n_vehicles=n_veh, seed=1, gating=gating),
            scheduler=planner)
        assert fetched and fetched <= endpoints
        # trials did start from heads that are no endpoint
        assert heads - endpoints

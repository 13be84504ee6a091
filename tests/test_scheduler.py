from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from poolsim.geometry import (PSA_EMPTY, PSA_OPEN, PSA_SINGLE, PSA_UNION,
                              Point, VehiclePsa, make_psa_rect)
from poolsim.insertion import (CASE_A, CASE_B, CASE_C, VehicleTrial,
                               enumerate_all)
from poolsim.model import (Request, RequestState, SimConfig, Stop, StopKind,
                           Vehicle, WorldState, passengers_committed,
                           waiting_time)
from poolsim.roadnet import Edge, RoadNetwork, gen_grid
from poolsim import scheduler
from poolsim.scheduler import (Assignment, EpochCounters, counts_for_path,
                               es_epoch, furthest_psa, gate, psap_epoch,
                               run_epoch, search_area)
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

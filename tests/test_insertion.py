from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolsim.geometry import Point
from poolsim.insertion import (_QOS_EPS, CASE_A, CASE_B, CASE_C, INFEASIBLE,
                               Candidate, SpliceLegs, VehicleTrial,
                               candidate_positions, classify_case,
                               enumerate_all, insertion_cost, qos_check,
                               splice)
from poolsim.model import Request, RequestState, SimConfig, Stop, StopKind, Vehicle
from poolsim.roadnet import Edge, NoPathError, RoadNetwork, gen_grid


def line_net(n=61, spacing=0.1):
    return gen_grid(n, 2, spacing)


def stops(*pairs) -> list[Stop]:
    kinds = {"o": StopKind.ORIGIN, "d": StopKind.DESTINATION}
    return [Stop(kinds[k], rid, node) for k, rid, node in pairs]


def seq_length(net, head: int, path: list[Stop]) -> float:
    nodes = [head] + [s.node for s in path]
    return net.stop_sequence_length(nodes)


class TestClassifyCase:
    def test_reference_predicates(self):
        for k in range(0, 7):
            for i in range(0, k + 1):
                for j in range(i + 1, k + 2):
                    got = classify_case(i, j, k)
                    if i == k and j == k + 1:
                        assert got == CASE_C
                    elif j == k + 1:
                        assert got == CASE_B
                    else:
                        assert got == CASE_A

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            classify_case(2, 2, 3)
        with pytest.raises(ValueError):
            classify_case(0, 5, 3)
        with pytest.raises(ValueError):
            classify_case(-1, 1, 3)


class TestCandidatePositions:
    def test_empty_path_single_append(self):
        assert candidate_positions(0) == [(0, 1)]

    @pytest.mark.parametrize("k,total", [(1, 1), (2, 3), (3, 6), (5, 15)])
    def test_totals(self, k, total):
        assert len(candidate_positions(k)) == total

    def test_matches_brute_force_pairs(self):
        for k in range(1, 13):
            brute = {(i, j) for i in range(1, k + 1)
                     for j in range(i + 1, k + 2)}
            assert set(candidate_positions(k)) == brute

    def test_lexicographic_order(self):
        pos = candidate_positions(4)
        assert pos == sorted(pos)

    def test_per_case_tallies(self):
        for k in range(1, 20):
            cases = [classify_case(i, j, k) for i, j in candidate_positions(k)]
            assert cases.count(CASE_A) == k * (k - 1) // 2
            assert cases.count(CASE_B) == k - 1
            assert cases.count(CASE_C) == 1


class TestInsertionCost:
    def test_adjacent_on_the_way(self):
        # head 0, one stop at node 4; o=1, d=3 slot straight onto the route
        net = line_net(11, 1.0)
        path = stops(("d", 9, 4))
        cost = insertion_cost(net, 0, path, 1, 3, 0, 1)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_append_to_empty(self):
        net = line_net(11, 1.0)
        cost = insertion_cost(net, 0, [], 2, 5, 0, 1)
        assert cost == pytest.approx(5.0)

    def test_perpendicular_pair(self):
        # head mid-left, stop mid-right; o one block up, d one block down
        net = gen_grid(5, 3, 1.0)
        head = 5          # (0, 1)
        path = stops(("d", 9, 9))   # (4, 1)
        o, d = 12, 2      # (2, 2) and (2, 0)
        cost = insertion_cost(net, head, path, o, d, 0, 1)
        assert cost == pytest.approx(4.0)

    def test_tail_append_case(self):
        net = line_net(11, 1.0)
        path = stops(("d", 9, 4))
        cost = insertion_cost(net, 0, path, 6, 8, 1, 2)
        assert cost == pytest.approx(4.0)

    def test_origin_interior_destination_appended(self):
        net = line_net(11, 1.0)
        path = stops(("d", 8, 4), ("d", 9, 8))
        # o=5 between stops, d=10 appended
        cost = insertion_cost(net, 0, path, 5, 10, 1, 3)
        want = (net.shortest_dist(4, 5) + net.shortest_dist(5, 8)
                - net.shortest_dist(4, 8) + net.shortest_dist(8, 10))
        assert cost == pytest.approx(want)
        assert cost == pytest.approx(2.0)

    def test_split_interior_uses_shifted_indices(self):
        # regression for the index frame of the far destination term: the
        # d legs read positions of the o-augmented path
        net = line_net(11, 1.0)
        path = stops(("o", 2, 6), ("d", 2, 9))
        cost = insertion_cost(net, 0, path, 2, 4, 0, 2)
        spliced = splice(path, 2, 4, 0, 2, request_id=3)
        want = seq_length(net, 0, spliced) - seq_length(net, 0, path)
        assert cost == pytest.approx(want)
        assert cost == pytest.approx(4.0)

    def test_rejects_bad_positions(self):
        net = line_net(11, 1.0)
        with pytest.raises(ValueError):
            insertion_cost(net, 0, [], 1, 2, 1, 2)
        with pytest.raises(ValueError):
            insertion_cost(net, 0, stops(("d", 1, 4)), 1, 2, 1, 1)

    def test_equals_spliced_length_delta_random(self):
        # the closed forms must equal re-summing the whole spliced path
        rng = np.random.default_rng(29)
        for trial in range(40):
            nx, ny = (int(x) for x in rng.integers(3, 7, 2))
            spacing = float(rng.choice([0.25, 0.5, 1.0]))
            net = gen_grid(nx, ny, spacing)
            ids = list(net.nodes)
            head = int(rng.choice(ids))
            k = int(rng.integers(0, 7))
            path = []
            for s in range(k):
                path.append(Stop(StopKind.DESTINATION, 100 + s,
                                 int(rng.choice(ids))))
            o, d = (int(x) for x in rng.choice(ids, 2))
            if o == d:
                continue
            base = seq_length(net, head, path)
            for i in range(0, k + 1):
                for j in range(i + 1, k + 2):
                    cost = insertion_cost(net, head, path, o, d, i, j)
                    spliced = splice(path, o, d, i, j, request_id=999)
                    assert cost == pytest.approx(
                        seq_length(net, head, spliced) - base, abs=1e-9)

    def test_nonnegative_on_metric_network(self):
        rng = np.random.default_rng(41)
        net = gen_grid(6, 6, 0.5)
        ids = list(net.nodes)
        for _ in range(300):
            head = int(rng.choice(ids))
            k = int(rng.integers(0, 6))
            path = [Stop(StopKind.DESTINATION, 50 + s, int(rng.choice(ids)))
                    for s in range(k)]
            o, d = (int(x) for x in rng.choice(ids, 2))
            i = int(rng.integers(0, k + 1))
            j = int(rng.integers(i + 1, k + 2))
            assert insertion_cost(net, head, path, o, d, i, j) >= -1e-9


class TestSplice:
    def test_before_single_stop(self):
        path = stops(("d", 1, 7))
        out = splice(path, 3, 5, 0, 1, request_id=2)
        assert [(s.kind, s.request_id, s.node) for s in out] == [
            (StopKind.ORIGIN, 2, 3), (StopKind.DESTINATION, 2, 5),
            (StopKind.DESTINATION, 1, 7)]

    def test_after_single_stop(self):
        path = stops(("d", 1, 7))
        out = splice(path, 3, 5, 1, 2, request_id=2)
        assert [(s.request_id, s.node) for s in out] == [(1, 7), (2, 3), (2, 5)]

    def test_straddle(self):
        path = stops(("o", 2, 4), ("d", 2, 6))
        out = splice(path, 1, 9, 0, 2, request_id=3)
        assert [(s.kind, s.request_id) for s in out] == [
            (StopKind.ORIGIN, 3), (StopKind.ORIGIN, 2),
            (StopKind.DESTINATION, 3), (StopKind.DESTINATION, 2)]

    def test_input_unchanged(self):
        path = stops(("d", 1, 7))
        splice(path, 3, 5, 0, 1, request_id=2)
        assert len(path) == 1


class TestQosCheck:
    def config(self, **kw):
        return SimConfig(**kw)

    def test_append_within_buffer_feasible(self):
        net = line_net(17, 0.5)   # row x = 0..8
        cfg = self.config()
        r = Request(id=1, t=0, n=1, o=4, d=8, direct_dist=2.0)
        v = Vehicle(id=0, capacity=5, node=0)
        path = splice([], r.o, r.d, 0, 1, r.id)
        assert qos_check(net, v, {}, path, r, cfg, check_buffer=True) is None

    def test_detour_violation(self):
        # direct 4 km, planned 5 km: 25% over the 20% bound
        net = line_net(17, 0.5)
        cfg = self.config()
        other = Request(id=9, t=0, n=1, o=9, d=0, direct_dist=4.5,
                        state=RequestState.WAITING, odometer_at_schedule=0.0)
        r = Request(id=1, t=0, n=1, o=0, d=8, direct_dist=4.0)
        v = Vehicle(id=0, capacity=5, node=0, service_list=[9],
                    path=stops(("o", 9, 9), ("d", 9, 0)))
        path = stops(("o", 1, 0), ("o", 9, 9), ("d", 1, 8), ("d", 9, 0))
        hit = qos_check(net, v, {9: other}, path, r, cfg, check_buffer=True)
        assert hit is not None
        assert hit.kind == "detour"
        assert hit.request_id == 1

    def test_buffer_violation_only_when_checked(self):
        # pickup 7 km out: violates B=6 under the strict branch, passes the
        # past-threshold branch that drops the buffer guarantee
        net = line_net(17, 0.5)
        cfg = self.config()
        r = Request(id=1, t=0, n=1, o=14, d=16, direct_dist=1.0)
        v = Vehicle(id=0, capacity=5, node=0)
        path = splice([], r.o, r.d, 0, 1, r.id)
        hit = qos_check(net, v, {}, path, r, cfg, check_buffer=True)
        assert hit is not None and hit.kind == "buffer"
        assert qos_check(net, v, {}, path, r, cfg, check_buffer=False) is None

    def test_committed_rider_keeps_buffer_guarantee(self):
        # rider 2 was scheduled under the waiting threshold with its pickup
        # 5.5 km out; routing a late-arriving rider first stretches that
        # pickup to 7.5 km, which must fail even though the new rider itself
        # carries no buffer guarantee
        net = line_net(17, 0.5)
        cfg = self.config()
        committed = Request(id=2, t=0, n=1, o=11, d=16, direct_dist=2.5,
                            state=RequestState.WAITING,
                            odometer_at_schedule=0.0,
                            scheduled_under_wait=True)
        late = Request(id=1, t=0, n=1, o=2, d=0, direct_dist=1.0)
        v = Vehicle(id=0, capacity=5, node=0, service_list=[2],
                    path=stops(("o", 2, 11), ("d", 2, 16)))
        path = stops(("o", 1, 2), ("d", 1, 0), ("o", 2, 11), ("d", 2, 16))
        hit = qos_check(net, v, {2: committed}, path, late, cfg,
                        check_buffer=False)
        assert hit is not None
        assert hit.kind == "buffer"
        assert hit.request_id == 2
        # a rider committed past the threshold never had the guarantee
        committed.scheduled_under_wait = False
        assert qos_check(net, v, {2: committed}, path, late, cfg,
                         check_buffer=False) is None

    def test_boundary_detour_feasible(self):
        # planned exactly (1 + max detour) * direct survives float rounding;
        # the committed rider rides 43 -> 40 -> 10 which equals its direct
        net = line_net()
        cfg = self.config()
        r = Request(id=1, t=0, n=1, o=10, d=40, direct_dist=3.0)
        other = Request(id=2, t=0, n=1, o=43, d=10, direct_dist=3.3,
                        state=RequestState.WAITING, odometer_at_schedule=0.0)
        v = Vehicle(id=0, capacity=5, node=10, service_list=[2],
                    path=stops(("o", 2, 43), ("d", 2, 10)))
        path = stops(("o", 1, 10), ("o", 2, 43), ("d", 1, 40), ("d", 2, 10))
        assert qos_check(net, v, {2: other}, path, r, cfg,
                         check_buffer=True) is None

    def test_existing_waiting_rider_protected(self):
        # the new rider fits, but the splice stretches a committed rider past
        # the detour bound
        net = line_net()
        cfg = self.config()
        committed = Request(id=2, t=0, n=1, o=10, d=20, direct_dist=1.0,
                            state=RequestState.WAITING,
                            odometer_at_schedule=0.0)
        v = Vehicle(id=0, capacity=5, node=0, service_list=[2],
                    path=stops(("o", 2, 10), ("d", 2, 20)))
        new = Request(id=1, t=0, n=1, o=15, d=45, direct_dist=3.0)
        path = stops(("o", 2, 10), ("o", 1, 15), ("d", 2, 20), ("d", 1, 45))
        # committed rider unharmed here (o and d stay in order, planned 1.0)
        assert qos_check(net, v, {2: committed}, path, new, cfg, True) is None
        bad = stops(("o", 2, 10), ("o", 1, 15), ("d", 1, 45), ("d", 2, 20))
        hit = qos_check(net, v, {2: committed}, bad, new, cfg, True)
        assert hit is not None
        assert hit.request_id == 2
        assert hit.kind == "detour"

    def test_onboard_rider_protected(self):
        net = line_net()
        cfg = self.config()
        onboard = Request(id=2, t=0, n=1, o=0, d=30, direct_dist=3.0,
                          state=RequestState.ONBOARD,
                          odometer_at_schedule=0.0, traveled_at_pickup=0.0)
        v = Vehicle(id=0, capacity=5, node=20, odometer=2.0,
                    service_list=[2], path=stops(("d", 2, 30)))
        new = Request(id=1, t=0, n=1, o=50, d=30, direct_dist=2.0)
        # detour to pick up at x=5.0 then back: onboard rider rides 2 + 3 + 2 + 2
        path = stops(("o", 1, 50), ("d", 2, 30), ("d", 1, 30))
        hit = qos_check(net, v, {2: onboard}, path, new, cfg, True)
        assert hit is not None
        assert hit.request_id == 2

    def test_strict_occupancy_flag(self):
        net = line_net(21, 0.5)
        cfg = self.config(capacity=2, strict_occupancy=True, buffer_km=100.0)
        a = Request(id=2, t=0, n=1, o=2, d=18, direct_dist=8.0,
                    state=RequestState.WAITING, odometer_at_schedule=0.0)
        b = Request(id=3, t=0, n=1, o=4, d=16, direct_dist=6.0,
                    state=RequestState.WAITING, odometer_at_schedule=0.0)
        reqs = {2: a, 3: b}
        v = Vehicle(id=0, capacity=2, node=0, service_list=[2, 3],
                    path=stops(("o", 2, 2), ("o", 3, 4), ("d", 3, 16),
                               ("d", 2, 18)))
        new = Request(id=1, t=0, n=1, o=6, d=14, direct_dist=4.0)
        path = splice(v.path, new.o, new.d, 2, 3, new.id)
        hit = qos_check(net, v, reqs, path, new, cfg, True)
        assert hit is not None
        assert hit.kind == "capacity"
        # seat frees up before the third rider boards: feasible
        path2 = splice(v.path, 16, 18, 3, 4, new.id)
        new2 = Request(id=1, t=0, n=1, o=16, d=18, direct_dist=1.0)
        assert qos_check(net, v, reqs, path2, new2, cfg, True) is None

    def test_matches_brute_force_resummation(self):
        # random committed paths on a half-km grid with a quarter-km edge
        # remainder: every distance is a multiple of 0.25 km, so sums are
        # exact in any order and plans land exactly on the detour bound
        net = gen_grid(6, 6, 0.5)
        cfg = self.config(max_detour=0.25, buffer_km=2.5)
        rng = np.random.default_rng(2024)
        ids = sorted(net.nodes)
        checked = on_bound = mid_edge = same_node = 0
        for _ in range(60):
            v, reqs = random_committed_vehicle(net, rng, ids)
            mid_edge += v.offset_km > 0.0
            o, d = (int(x) for x in rng.choice(ids, 2, replace=False))
            new = Request(id=99, t=0, n=1, o=o, d=d,
                          direct_dist=net.shortest_dist(o, d))
            k = len(v.path)
            for i in range(k + 1):
                for j in range(i + 1, k + 2):
                    path = splice(v.path, o, d, i, j, new.id)
                    same_node += any(a.node == b.node
                                     for a, b in zip(path, path[1:]))
                    for check_buffer in (True, False):
                        want, bound = brute_force_qos(net, v, reqs, path,
                                                      new, cfg, check_buffer)
                        got = qos_check(net, v, reqs, path, new, cfg,
                                        check_buffer)
                        assert ((got.request_id, got.kind) if got else None
                                ) == want, (v, path, check_buffer)
                        checked += 1
                        on_bound += bound
        assert checked > 1000
        assert on_bound > 0 and mid_edge > 0 and same_node > 0


def random_committed_vehicle(net, rng, ids):
    """Vehicle mid-edge or at a node, with onboard and waiting riders."""
    node = int(rng.choice(ids))
    v = Vehicle(id=0, capacity=9, node=node, odometer=3.0)
    if rng.random() < 0.7:
        nbrs = [b for b in ids if b != node
                and net.shortest_dist(b, node) == 0.5]
        v.prev_node = int(rng.choice(nbrs))
        v.offset_km = 0.25
    reqs = {}
    path = []
    for rid in range(1, int(rng.integers(1, 4)) + 1):
        # reuse the last stop's node now and then: same-node stops back to back
        o = path[-1].node if path and rng.random() < 0.3 else int(rng.choice(ids))
        d = int(rng.choice([x for x in ids if x != o]))
        onboard = rng.random() < 0.4
        r = Request(id=rid, t=0, n=1, o=o, d=d,
                    odometer_at_schedule=float(rng.choice([0.0, 1.0, 2.5])),
                    scheduled_under_wait=bool(rng.random() < 0.6))
        if onboard:
            r.state = RequestState.ONBOARD
            r.traveled_at_pickup = float(rng.choice([0.5, 1.0, 2.0]))
            at = int(rng.integers(0, len(path) + 1))
            path.insert(at, Stop(StopKind.DESTINATION, rid, d))
        else:
            r.state = RequestState.WAITING
            a = int(rng.integers(0, len(path) + 1))
            path.insert(a, Stop(StopKind.ORIGIN, rid, o))
            b = int(rng.integers(a + 1, len(path) + 1))
            path.insert(b, Stop(StopKind.DESTINATION, rid, d))
        reqs[rid] = r
    v.path = path
    v.service_list = sorted(reqs)
    # committed plans start out feasible, with no slack, so a splice that
    # stretches a rider's trip shows up as a detour violation
    nodes = [v.node] + [s.node for s in path]
    for r in reqs.values():
        di = next(m for m, s in enumerate(path)
                  if s.request_id == r.id and s.kind == StopKind.DESTINATION)
        if r.state == RequestState.WAITING:
            oi = next(m for m, s in enumerate(path) if s.request_id == r.id)
            r.direct_dist = net.stop_sequence_length(nodes[oi + 1:di + 2])
        else:
            r.direct_dist = (v.odometer - r.traveled_at_pickup + v.offset_km
                             + net.stop_sequence_length(nodes[:di + 2]))
    return v, reqs


def brute_force_qos(net, v, reqs, path, new, cfg, check_buffer):
    """Reference verdict by re-summing the path; also flags exact-bound plans.

    Returns ((request id, kind) of the first violation or None, whether some
    checked plan sat exactly on the detour bound).
    """
    nodes = [v.node] + [s.node for s in path]

    def km_to(m):
        return v.offset_km + net.stop_sequence_length(nodes[:m + 2])

    def where(rid, kind):
        return next(m for m, s in enumerate(path)
                    if s.request_id == rid and s.kind == kind)

    on_bound = False
    verdict = None
    for r in [new] + [reqs[rid] for rid in v.service_list]:
        is_new = r is new
        di = where(r.id, StopKind.DESTINATION)
        if is_new or r.state == RequestState.WAITING:
            oi = where(r.id, StopKind.ORIGIN)
            ratio = net.stop_sequence_length(
                [s.node for s in path[oi:di + 1]]) / r.direct_dist - 1.0
            buffered = check_buffer if is_new else r.scheduled_under_wait
            since = 0.0 if is_new else v.odometer - r.odometer_at_schedule
            over_buffer = buffered and since + km_to(oi) > cfg.buffer_km + _QOS_EPS
        else:
            ridden = v.odometer - r.traveled_at_pickup
            ratio = (ridden + km_to(di)) / r.direct_dist - 1.0
            over_buffer = False
        on_bound |= ratio == cfg.max_detour
        if verdict is None:
            if ratio > cfg.max_detour + _QOS_EPS:
                verdict = (r.id, "detour")
            elif over_buffer:
                verdict = (r.id, "buffer")
    return verdict, on_bound


class TestEnumerateAll:
    def make(self, k):
        net = line_net(31, 0.5)
        cfg = SimConfig(buffer_km=100.0, max_detour=10.0)
        reqs = {}
        path = []
        for s in range(k):
            rid = 100 + s
            node = 2 * (s + 1)
            reqs[rid] = Request(id=rid, t=0, n=1, o=0, d=node,
                                direct_dist=net.shortest_dist(0, node),
                                state=RequestState.ONBOARD,
                                odometer_at_schedule=0.0,
                                traveled_at_pickup=0.0)
            path.append(Stop(StopKind.DESTINATION, rid, node))
        v = Vehicle(id=0, capacity=99, node=0, service_list=sorted(reqs),
                    path=path)
        new = Request(id=1, t=0, n=1, o=1, d=3,
                      direct_dist=net.shortest_dist(1, 3))
        return net, v, reqs, new, cfg

    @pytest.mark.parametrize("k,n_a,n_b,n_c", [
        (0, 0, 0, 1), (1, 0, 0, 1), (2, 1, 1, 1), (3, 3, 2, 1),
        (5, 10, 4, 1),
    ])
    def test_case_tallies(self, k, n_a, n_b, n_c):
        net, v, reqs, new, cfg = self.make(k)
        cands = enumerate_all(net, v, reqs, new, cfg, check_buffer=True)
        got = {"A": 0, "B": 0, "C": 0}
        for c in cands:
            got[c.case] += 1
        assert (got["A"], got["B"], got["C"]) == (n_a, n_b, n_c)

    def test_costs_all_finite_when_unconstrained(self):
        net, v, reqs, new, cfg = self.make(4)
        cands = enumerate_all(net, v, reqs, new, cfg, check_buffer=True)
        assert all(c.cost < INFEASIBLE for c in cands)

    def test_infeasible_marked(self):
        net, v, reqs, new, cfg = self.make(2)
        tight = SimConfig(buffer_km=100.0, max_detour=0.0)
        cands = enumerate_all(net, v, reqs, new, tight, check_buffer=True)
        assert any(c.cost == INFEASIBLE for c in cands)


def full_check_candidate(trial: VehicleTrial, i: int, j: int) -> Candidate:
    """``VehicleTrial.evaluate`` without its new-rider screen.

    Costs the splice and runs the full ``violation`` check; a splice with an
    unreachable leg is infeasible.
    """
    cost = trial.cost(i, j)
    try:
        bad = trial.violation(i, j) is not None
    except NoPathError:
        bad = True
    if bad or not math.isfinite(cost):
        cost = INFEASIBLE
    return Candidate(i, j, classify_case(i, j, trial.k), cost)


def grid_with_island() -> RoadNetwork:
    """4x4 half-km grid (nodes 0-15) and an island (16, 17) it drives into.

    A one-way edge leads from the grid's corner to the island, so every leg
    into the island is finite and every leg out of it is unreachable.  All
    distances are multiples of 0.25 km, so sums are exact in any order.
    """
    grid = gen_grid(4, 4, 0.5)
    nodes = dict(grid.nodes)
    nodes[16] = Point(10.0, 10.0)
    nodes[17] = Point(10.5, 10.0)
    edges = list(grid.edges)
    edges.append(Edge(len(edges), 15, 16, 12.5, bidirectional=False))
    edges.append(Edge(len(edges), 16, 17, 0.5))
    return RoadNetwork(nodes=nodes, edges=edges)


ISLAND_NET = grid_with_island()
GRID_NODES = list(range(16))


@st.composite
def screened_trials(draw):
    """A vehicle with K = 0..8 committed stops, a new request, a config.

    Committed riders start with no slack, so with a zero detour bound their
    unspliced plans sit exactly on it.  The config's detour and buffer bounds
    may be pinned to one candidate's exact new-rider detour ratio and pickup
    km, so that candidate sits exactly on both bounds.
    """
    net = ISLAND_NET
    island = draw(st.booleans())
    stop_nodes = st.sampled_from(GRID_NODES + [16, 17] if island
                                 else GRID_NODES)
    k = draw(st.integers(0, 8))
    v = Vehicle(id=0, capacity=9, node=draw(st.sampled_from(GRID_NODES)),
                odometer=3.0)
    if draw(st.booleans()):
        v.offset_km = 0.25
    reqs: dict[int, Request] = {}
    path: list[Stop] = []
    rid = 0
    while len(path) < k:
        rid += 1
        d = draw(stop_nodes)
        onboard = len(path) == k - 1 or draw(st.booleans())
        r = Request(id=rid, t=0, n=1, o=d, d=d,
                    odometer_at_schedule=draw(st.sampled_from([0.0, 1.0])),
                    scheduled_under_wait=draw(st.booleans()))
        if onboard:
            r.state = RequestState.ONBOARD
            r.traveled_at_pickup = draw(st.sampled_from([0.5, 2.0]))
            at = draw(st.integers(0, len(path)))
            path.insert(at, Stop(StopKind.DESTINATION, rid, d))
        else:
            r.state = RequestState.WAITING
            r.o = draw(stop_nodes.filter(lambda x: x != d))
            a = draw(st.integers(0, len(path)))
            path.insert(a, Stop(StopKind.ORIGIN, rid, r.o))
            b = draw(st.integers(a + 1, len(path)))
            path.insert(b, Stop(StopKind.DESTINATION, rid, d))
        reqs[rid] = r
    v.path = path
    v.service_list = sorted(reqs)
    at = SpliceLegs(net, v.node, path, 0, 1, v.offset_km).at
    for r in reqs.values():
        di = next(m for m, s in enumerate(path)
                  if s.request_id == r.id and s.kind == StopKind.DESTINATION)
        if r.state == RequestState.WAITING:
            oi = next(m for m, s in enumerate(path) if s.request_id == r.id)
            planned = at[di + 1] - at[oi + 1]
        else:
            planned = v.odometer - r.traveled_at_pickup + at[di + 1]
        r.direct_dist = planned if math.isfinite(planned) else 1.0

    o = draw(st.sampled_from(GRID_NODES))
    d = draw(st.sampled_from([x for x in GRID_NODES + [16] if x != o]))
    new = Request(id=99, t=0, n=1, o=o, d=d,
                  direct_dist=net.shortest_dist(o, d))
    max_detour = draw(st.sampled_from([0.0, 0.25, 0.5, None]))
    buffer_km = draw(st.sampled_from([1.0, 2.5, 100.0, None]))
    if max_detour is None or buffer_km is None:
        i, j = draw(st.sampled_from([(i, j) for i in range(k + 1)
                                     for j in range(i + 1, k + 2)]))
        q = SpliceLegs(net, v.node, path, o, d, v.offset_km).prefix(i, j)
        if max_detour is None:
            ratio = (q[j + 1] - q[i + 1]) / new.direct_dist - 1.0
            max_detour = ratio if math.isfinite(ratio) else 0.0
        if buffer_km is None:
            buffer_km = q[i + 1] if math.isfinite(q[i + 1]) else 1.0
    cfg = SimConfig(max_detour=max_detour, buffer_km=buffer_km)
    return net, v, reqs, new, cfg, draw(st.booleans())


class TestScreenedEvaluate:
    @settings(max_examples=300, deadline=None)
    @given(case=screened_trials(), data=st.data())
    def test_matches_full_check(self, case, data):
        net, v, reqs, new, cfg, check_buffer = case
        k = len(v.path)
        positions = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 2)]
        # any order: the per-origin running sum must follow changes of i
        order = data.draw(st.permutations(positions))
        trial = VehicleTrial(net, v, reqs, new, cfg, check_buffer)
        reference = VehicleTrial(net, v, reqs, new, cfg, check_buffer)
        for i, j in order:
            got = trial.evaluate(i, j)
            want = full_check_candidate(reference, i, j)
            assert got == want, (i, j)

    def test_pinned_bounds_are_feasible(self):
        # the new rider's plan lands exactly on both bounds and passes
        net = gen_grid(6, 2, 0.5)
        v = Vehicle(id=0, capacity=4, node=0, offset_km=0.25)
        new = Request(id=1, t=0, n=1, o=2, d=4, direct_dist=1.0)
        trial = VehicleTrial(net, v, {}, new,
                             SimConfig(max_detour=0.0, buffer_km=1.25), True)
        assert trial.evaluate(0, 1).cost == 2.0
        trial = VehicleTrial(net, v, {}, new,
                             SimConfig(max_detour=0.0, buffer_km=1.0), True)
        assert trial.evaluate(0, 1).cost == INFEASIBLE

    def test_new_rider_failures_skip_the_full_check(self, monkeypatch):
        summed = []
        full_prefix = VehicleTrial.prefix

        def counting_prefix(trial, i, j):
            summed.append((i, j))
            return full_prefix(trial, i, j)

        monkeypatch.setattr(VehicleTrial, "prefix", counting_prefix)
        net = gen_grid(8, 2, 0.5)
        rider = Request(id=1, t=0, n=1, o=7, d=0, direct_dist=3.5,
                        state=RequestState.ONBOARD, traveled_at_pickup=3.0)
        v = Vehicle(id=0, capacity=4, node=7, odometer=3.0, service_list=[1],
                    path=stops(("d", 1, 0)))
        # o at x = 3 km, d at x = 0.5 km: driving on to x = 0 first is a
        # 40% detour, although the last leg alone (0 -> d) is short
        new = Request(id=2, t=0, n=1, o=6, d=1, direct_dist=2.5)
        cfg = SimConfig(max_detour=0.2, buffer_km=0.25)
        trial = VehicleTrial(net, v, {1: rider}, new, cfg, False)
        assert trial.evaluate(0, 2).cost == INFEASIBLE
        trial = VehicleTrial(net, v, {1: rider}, new, cfg, True)
        assert trial.evaluate(0, 1).cost == INFEASIBLE  # pickup past 0.25 km
        assert summed == []
        # the committed riders' table is built only by the full check
        assert trial.riders is None
        trial = VehicleTrial(net, v, {1: rider}, new, cfg, False)
        assert trial.evaluate(0, 1).cost == 0.0
        assert summed == [(0, 1)]
        assert trial.riders is not None

    def test_unreachable_leg_is_infeasible_without_raising(self):
        # the committed stop sits on the island: no leg leads back out
        net = ISLAND_NET
        rider = Request(id=1, t=0, n=1, o=0, d=17, direct_dist=1.0,
                        state=RequestState.ONBOARD, traveled_at_pickup=0.0)
        v = Vehicle(id=0, capacity=4, node=0, service_list=[1],
                    path=stops(("d", 1, 17)))
        new = Request(id=2, t=0, n=1, o=1, d=2, direct_dist=0.5)
        trial = VehicleTrial(net, v, {1: rider}, new,
                             SimConfig(max_detour=100.0, buffer_km=100.0),
                             True)
        # picked up and dropped off on the way to the island: feasible
        assert trial.evaluate(0, 1).cost == 0.0
        for i, j in [(0, 2), (1, 2)]:
            assert trial.evaluate(i, j).cost == INFEASIBLE
            assert full_check_candidate(trial, i, j).cost == INFEASIBLE

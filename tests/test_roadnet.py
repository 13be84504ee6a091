from __future__ import annotations

import heapq
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from poolsim.geometry import Point, euclid
from poolsim.roadnet import (Edge, NetworkError, NoPathError, RoadNetwork,
                             atomic_write, csv_text, gen_grid, load_network,
                             read_csv, save_network)


def oracle_dijkstra(adj: dict[int, dict[int, float]], src: int,
                    dst: int) -> float:
    """Plain heapq Dijkstra, independent of the packaged implementation."""
    dist = {src: 0.0}
    heap = [(0.0, src)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == dst:
            return d
        done.add(u)
        for v, w in adj.get(u, {}).items():
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


def adjacency_of(net: RoadNetwork) -> dict[int, dict[int, float]]:
    adj: dict[int, dict[int, float]] = {}
    for e in net.edges:
        pairs = [(e.u, e.v), (e.v, e.u)] if e.bidirectional else [(e.u, e.v)]
        for a, b in pairs:
            cur = adj.setdefault(a, {})
            if b not in cur or e.length_km < cur[b]:
                cur[b] = e.length_km
    return adj


def oracle_all_paths_min(adj: dict[int, dict[int, float]], src: int,
                         dst: int, depth: int) -> float:
    """Brute-force minimum over all simple paths up to the given hop count."""
    best = math.inf

    def walk(u: int, seen: frozenset[int], acc: float) -> None:
        nonlocal best
        if acc >= best:
            return
        if u == dst:
            best = acc
            return
        if len(seen) > depth:
            return
        for v, w in adj.get(u, {}).items():
            if v not in seen:
                walk(v, seen | {v}, acc + w)

    walk(src, frozenset([src]), 0.0)
    return best


def one_way_grid(nx: int, ny: int, dx: float, dy: float) -> RoadNetwork:
    """A lattice of alternating one-way streets, two-way on its border.

    Node (row r, col c) has id r*nx + c at (c*dx, r*dy).  Inner rows run
    east on even r and west on odd r; inner columns run north on even c and
    south on odd c.  The two-way border keeps every node reachable from
    every other, while D(a, b) and D(b, a) differ inside.
    """
    nodes = {r * nx + c: Point(c * dx, r * dy)
             for r in range(ny) for c in range(nx)}
    edges: list[Edge] = []
    for r in range(ny):
        for c in range(nx - 1):
            a, b = r * nx + c, r * nx + c + 1
            border = r in (0, ny - 1)
            if r % 2:
                a, b = b, a
            edges.append(Edge(len(edges), a, b, dx, bidirectional=border))
    for c in range(nx):
        for r in range(ny - 1):
            a, b = r * nx + c, (r + 1) * nx + c
            border = c in (0, nx - 1)
            if c % 2:
                a, b = b, a
            edges.append(Edge(len(edges), a, b, dy, bidirectional=border))
    return RoadNetwork(nodes=nodes, edges=edges)


def random_directed_grid() -> RoadNetwork:
    """A 5x4 lattice with random lengths and some one-way edges, plus node
    99, which has one edge out (to node 0) and none in."""
    rng = np.random.default_rng(13)
    base = gen_grid(5, 4, 0.4)
    edges = [Edge(e.id, e.u, e.v, e.length_km * float(rng.uniform(1, 2)),
                  bidirectional=bool(rng.random() < 0.6))
             for e in base.edges]
    nodes = dict(base.nodes)
    nodes[99] = Point(9.0, 9.0)
    edges.append(Edge(len(edges), 99, 0, 20.0, bidirectional=False))
    return RoadNetwork(nodes=nodes, edges=edges)


class TestGenGrid:
    @pytest.mark.parametrize("nx,ny,n_nodes,n_edges", [
        (2, 2, 4, 4),
        (3, 3, 9, 12),
        (10, 10, 100, 180),
    ])
    def test_counts(self, nx, ny, n_nodes, n_edges):
        net = gen_grid(nx, ny, 1.0)
        assert len(net.nodes) == n_nodes
        assert len(net.edges) == n_edges

    def test_positions_row_major(self):
        net = gen_grid(3, 2, 0.5)
        assert net.point(0) == Point(0.0, 0.0)
        assert net.point(2) == Point(1.0, 0.0)
        assert net.point(3) == Point(0.0, 0.5)

    def test_invalid_dimensions(self):
        with pytest.raises(NetworkError):
            gen_grid(1, 5, 1.0)
        for spacing in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(NetworkError):
                gen_grid(3, 3, spacing)

    def test_area(self):
        assert gen_grid(10, 10, 0.5).area_km2() == pytest.approx(4.5 * 4.5)
        assert gen_grid(20, 20, 0.3).area_km2() == pytest.approx(5.7 * 5.7)


class TestShortestPaths:
    def test_corner_to_corner(self):
        net = gen_grid(3, 3, 1.0)
        assert net.shortest_dist(0, 8) == pytest.approx(4.0)

    def test_self_and_adjacent(self):
        net = gen_grid(3, 3, 1.0)
        assert net.shortest_dist(4, 4) == 0.0
        assert net.shortest_dist(0, 1) == pytest.approx(1.0)

    def test_against_path_enumeration(self):
        # (0,0) -> (2,1) on the 3x3 unit grid: brute force over simple paths
        net = gen_grid(3, 3, 1.0)
        adj = adjacency_of(net)
        want = oracle_all_paths_min(adj, 0, 5, depth=9)
        assert want == pytest.approx(3.0)
        assert net.shortest_dist(0, 5) == pytest.approx(want)

    def test_against_heap_dijkstra_grids(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            nx, ny = rng.integers(3, 8, 2)
            net = gen_grid(int(nx), int(ny), float(rng.uniform(0.2, 2.0)))
            adj = adjacency_of(net)
            ids = list(net.nodes)
            for _ in range(25):
                a, b = rng.choice(ids, 2)
                assert net.shortest_dist(int(a), int(b)) == pytest.approx(
                    oracle_dijkstra(adj, int(a), int(b)))

    def test_against_heap_dijkstra_random_graph(self):
        rng = np.random.default_rng(97)
        n = 40
        pts = {i: Point(*rng.uniform(0, 10, 2)) for i in range(n)}
        edges = []
        eid = 0
        for i in range(1, n):  # spanning tree keeps it connected
            j = int(rng.integers(0, i))
            d = euclid(pts[i], pts[j])
            edges.append(Edge(eid, i, j, d * float(rng.uniform(1.0, 1.5))))
            eid += 1
        for _ in range(60):
            i, j = rng.integers(0, n, 2)
            if i == j:
                continue
            d = euclid(pts[int(i)], pts[int(j)])
            edges.append(Edge(eid, int(i), int(j),
                              d * float(rng.uniform(1.0, 1.5)) + 1e-9))
            eid += 1
        net = RoadNetwork(nodes=pts, edges=edges)
        adj = adjacency_of(net)
        for _ in range(50):
            a, b = (int(x) for x in rng.integers(0, n, 2))
            assert net.shortest_dist(a, b) == pytest.approx(
                oracle_dijkstra(adj, a, b))

    def test_path_nodes_consistent_with_dist(self):
        net = gen_grid(5, 4, 0.5)
        rng = np.random.default_rng(3)
        ids = list(net.nodes)
        for _ in range(30):
            a, b = (int(x) for x in rng.choice(ids, 2))
            path = net.shortest_path_nodes(a, b)
            assert path[0] == a and path[-1] == b
            total = sum(net.hop_length(u, v) for u, v in zip(path, path[1:]))
            assert total == pytest.approx(net.shortest_dist(a, b))

    def test_parallel_edges_use_shortest(self):
        # duplicate entries must not be summed into the sparse matrix
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        edges = [Edge(0, 0, 1, 3.0), Edge(1, 0, 1, 2.0)]
        net = RoadNetwork(nodes=nodes, edges=edges)
        assert net.shortest_dist(0, 1) == pytest.approx(2.0)
        assert net.hop_length(0, 1) == pytest.approx(2.0)

    def test_directed_edge_no_return(self):
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        edges = [Edge(0, 0, 1, 1.0, bidirectional=False)]
        net = RoadNetwork(nodes=nodes, edges=edges)
        assert net.shortest_dist(0, 1) == pytest.approx(1.0)
        with pytest.raises(NoPathError):
            net.shortest_dist(1, 0)
        with pytest.raises(NoPathError):
            net.shortest_path_nodes(1, 0)

    def test_symmetric_on_bidirectional(self):
        net = gen_grid(4, 4, 0.7)
        rng = np.random.default_rng(8)
        ids = list(net.nodes)
        for _ in range(20):
            a, b = (int(x) for x in rng.choice(ids, 2))
            assert net.shortest_dist(a, b) == pytest.approx(
                net.shortest_dist(b, a))

    def test_triangle_inequality_and_lower_bound(self):
        net = gen_grid(6, 6, 0.4)
        rng = np.random.default_rng(12)
        ids = list(net.nodes)
        for _ in range(60):
            a, b, c = (int(x) for x in rng.choice(ids, 3))
            dab = net.shortest_dist(a, b)
            assert dab <= net.shortest_dist(a, c) + net.shortest_dist(c, b) + 1e-9
            assert dab >= euclid(net.point(a), net.point(b)) - 1e-6

    def test_cache_transparency(self):
        net1 = gen_grid(5, 5, 1.0)
        warm = net1.shortest_dist(0, 24)
        again = net1.shortest_dist(0, 24)
        net2 = gen_grid(5, 5, 1.0)
        fresh = net2.shortest_dist(0, 24)
        assert warm == again == fresh

    def test_rows_are_scipy_values_as_python_floats(self):
        # a random-length graph so the sums are not exact binary fractions
        rng = np.random.default_rng(5)
        net = gen_grid(6, 5, 0.37)
        edges = [Edge(e.id, e.u, e.v, e.length_km * float(rng.uniform(1, 2)))
                 for e in net.edges]
        net = RoadNetwork(nodes=net.nodes, edges=edges)
        pos = {nid: k for k, nid in enumerate(net.nodes)}
        rows, cols, data = zip(*[(pos[a], pos[b], w) for a, nbrs
                                 in adjacency_of(net).items()
                                 for b, w in nbrs.items()])
        graph = csr_matrix((data, (rows, cols)), shape=(len(pos), len(pos)))
        want = dijkstra(graph, directed=True, indices=pos[7])
        row = net.dists_from(7)
        for b in net.nodes:
            got = net.shortest_dist(7, b)
            assert type(got) is float
            assert net.index_of(b) == pos[b]
            assert got == float(want[pos[b]]) == row[pos[b]]
        assert type(net.shortest_dist(3, 3)) is float
        assert net.shortest_dist(3, 3) == 0.0
        with pytest.raises(NetworkError):
            net.index_of(999)

    def test_networks_compare_by_identity(self):
        # two networks with the same content are still two row caches
        net = gen_grid(3, 3, 1.0)
        assert net == net
        assert (net == gen_grid(3, 3, 1.0)) is False

    def test_unknown_node(self):
        net = gen_grid(2, 2, 1.0)
        with pytest.raises(NetworkError):
            net.shortest_dist(0, 99)
        with pytest.raises(NetworkError):
            net.point(-1)


def scipy_rows(net: RoadNetwork, reverse: bool) -> np.ndarray:
    """Every node's Dijkstra row from scipy, on a graph built apart from
    the packaged one (transposed for the reverse rows)."""
    pos = {nid: k for k, nid in enumerate(net.nodes)}
    pairs = [(pos[a], pos[b], w) for a, nbrs in adjacency_of(net).items()
             for b, w in nbrs.items()]
    rows, cols, data = zip(*pairs)
    if reverse:
        rows, cols = cols, rows
    graph = csr_matrix((data, (rows, cols)), shape=(len(pos), len(pos)))
    return dijkstra(graph, directed=True)


class TestPackedRows:
    NETWORKS = {
        "two-way": lambda: gen_grid(6, 5, 0.37),
        "one-way": lambda: one_way_grid(5, 4, 0.25, 0.5),
        "directed": random_directed_grid,
    }

    @pytest.mark.parametrize("name", NETWORKS)
    def test_rows_are_scipy_doubles_bit_for_bit(self, name):
        net = self.NETWORKS[name]()
        n = len(net.nodes)
        forward = scipy_rows(net, reverse=False)
        backward = scipy_rows(net, reverse=True)
        for k, nid in enumerate(net.nodes):
            for row, want in ((net.dists_from(nid), forward[k]),
                              (net.dists_to(nid), backward[k])):
                assert type(row) is array and row.typecode == "d"
                assert len(row) == n
                assert row.tobytes() == want.tobytes(), (name, nid)
            got = net.shortest_dist(nid, 0)
            assert type(got) is float
            assert got == forward[k][net.index_of(0)]

    def test_rows_take_about_eight_bytes_per_entry(self):
        # a list of Python floats takes 32 bytes per entry (a pointer and
        # a boxed float); a packed row takes 8 plus its object header
        net = gen_grid(40, 40, 0.25)
        net.dists_from(0)   # scipy's first-call allocations stay out
        sources = list(net.nodes)[1:21]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s in sources:
                net.dists_from(s)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = len(sources) * len(net.nodes)
        assert grown <= 10 * entries, grown / entries


class TestReverseRows:
    def test_one_way_lattice_against_heap_dijkstra(self):
        # block lengths are multiples of 0.25 km, so sums are exact in any
        # order and the reverse rows must match the forward search exactly
        net = one_way_grid(5, 4, 0.25, 0.5)
        adj = adjacency_of(net)
        asymmetric = 0
        for t in net.nodes:
            row = net.dists_to(t)
            for s in net.nodes:
                want = oracle_dijkstra(adj, s, t)
                assert math.isfinite(want)
                assert row[net.index_of(s)] == want, (s, t)
                asymmetric += want != oracle_dijkstra(adj, t, s)
        assert asymmetric > 0

    def test_random_directed_graph_against_heap_dijkstra(self):
        # node 99 is reachable from nowhere: its column of every reverse row
        # is inf
        net = random_directed_grid()
        adj = adjacency_of(net)
        for t in net.nodes:
            row = net.dists_to(t)
            for s in net.nodes:
                want = oracle_dijkstra(adj, s, t)
                got = row[net.index_of(s)]
                if math.isinf(want):
                    assert got == math.inf, (s, t)
                else:
                    assert got == pytest.approx(want, rel=1e-12), (s, t)
        assert net.dists_to(0)[net.index_of(99)] == 20.0
        assert net.dists_to(99)[net.index_of(0)] == math.inf

    def test_two_way_network_shares_the_forward_row(self):
        net = gen_grid(4, 3, 0.5)
        assert net.dists_to(5) is net.dists_from(5)
        one_way = one_way_grid(4, 4, 0.5, 0.5)
        assert one_way.dists_to(5) is not one_way.dists_from(5)
        assert one_way.dists_to(5) is one_way.dists_to(5)


class TestRoutes:
    @staticmethod
    def check_route(net: RoadNetwork, a: int, b: int, exact: bool) -> None:
        """Out-edges only, summing to D(a, b), each hop the highest-id
        neighbour on a shortest path, against a heapq Dijkstra."""
        adj = adjacency_of(net)
        path = net.shortest_path_nodes(a, b)
        assert path[0] == a and path[-1] == b
        for v, u in zip(path, path[1:]):
            assert u in adj[v], (v, u)
            here = oracle_dijkstra(adj, v, b)
            tight = [x for x, w in adj[v].items()
                     if math.isclose(w + oracle_dijkstra(adj, x, b), here,
                                     rel_tol=0.0 if exact else 1e-12)]
            assert u == max(tight), (a, b, v, tight)
        total = sum(adj[v][u] for v, u in zip(path, path[1:]))
        if exact:
            assert total == net.shortest_dist(a, b)
        else:
            assert total == pytest.approx(net.shortest_dist(a, b), rel=1e-12)

    def test_one_way_lattice(self):
        # block lengths are multiples of 0.25 km: sums are exact
        net = one_way_grid(5, 4, 0.25, 0.5)
        for a in net.nodes:
            for b in net.nodes:
                self.check_route(net, a, b, exact=True)

    def test_random_directed_graph(self):
        net = random_directed_grid()
        for a in net.nodes:
            for b in net.nodes:
                if b != 99:
                    self.check_route(net, a, b, exact=False)

    def test_unreachable_target_raises(self):
        net = random_directed_grid()
        assert net.shortest_path_nodes(99, 7)[:2] == [99, 0]
        for a in (0, 7):
            with pytest.raises(NoPathError):
                net.shortest_path_nodes(a, 99)

    def test_lattice_route_climbs_column_zero_first(self):
        # ties go to the highest id: up column 0 (ids 0, 20, ..., 380), then
        # east along the top row to 399
        net = gen_grid(20, 20, 0.3)
        want = list(range(0, 400, 20)) + list(range(381, 400))
        assert net.shortest_path_nodes(0, 399) == want


class TestValidation:
    def test_nonpositive_length(self):
        nodes = {0: Point(0, 0), 1: Point(0, 0)}
        with pytest.raises(NetworkError):
            RoadNetwork(nodes=nodes, edges=[Edge(0, 0, 1, 0.0)])

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_non_finite_length(self, length):
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        with pytest.raises(NetworkError, match="positive and finite"):
            RoadNetwork(nodes=nodes, edges=[Edge(0, 0, 1, length)])

    def test_length_below_euclid(self):
        nodes = {0: Point(0, 0), 1: Point(3, 0)}
        with pytest.raises(NetworkError):
            RoadNetwork(nodes=nodes, edges=[Edge(0, 0, 1, 2.5)])

    def test_length_slack_accepted(self):
        nodes = {0: Point(0, 0), 1: Point(3, 0)}
        net = RoadNetwork(nodes=nodes, edges=[Edge(0, 0, 1, 3.0 - 1e-7)])
        assert net.shortest_dist(0, 1) == pytest.approx(3.0, abs=1e-6)

    def test_dangling_endpoint(self):
        nodes = {0: Point(0, 0), 1: Point(1, 0)}
        with pytest.raises(NetworkError):
            RoadNetwork(nodes=nodes, edges=[Edge(0, 0, 7, 1.0)])


class TestFileIO:
    def test_round_trip(self, tmp_path):
        net = gen_grid(4, 3, 0.5)
        nodes_p = tmp_path / "nodes.csv"
        edges_p = tmp_path / "edges.csv"
        save_network(net, nodes_p, edges_p)
        back = load_network(nodes_p, edges_p)
        assert back.nodes == net.nodes
        assert len(back.edges) == len(net.edges)
        assert back.shortest_dist(0, 11) == net.shortest_dist(0, 11)

    def test_duplicate_node_id(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,x_km,y_km\n0,0,0\n0,1,0\n")
        e = tmp_path / "edges.csv"
        e.write_text("id,from,to,length_km,bidirectional\n")
        with pytest.raises(NetworkError, match="duplicate"):
            load_network(p, e)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,x,y\n0,0,0\n")
        e = tmp_path / "edges.csv"
        e.write_text("id,from,to,length_km,bidirectional\n")
        with pytest.raises(NetworkError, match="header"):
            load_network(p, e)

    def test_edge_unknown_node(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,x_km,y_km\n0,0,0\n1,1,0\n")
        e = tmp_path / "edges.csv"
        e.write_text("id,from,to,length_km,bidirectional\n0,0,5,1.0,true\n")
        with pytest.raises(NetworkError, match="unknown node"):
            load_network(p, e)

    @pytest.mark.parametrize("header,row", [
        ("id,x_km,y_km", "1,nan,0"), ("id,x_km,y_km", "1,1,inf"),
        ("id,lat,lon", "1,nan,11.0"), ("id,lat,lon", "1,48.0,-inf"),
    ])
    def test_non_finite_coordinates(self, tmp_path, header, row):
        p = tmp_path / "nodes.csv"
        p.write_text(f"{header}\n0,48.0,11.0\n{row}\n")
        e = tmp_path / "edges.csv"
        e.write_text("id,from,to,length_km,bidirectional\n")
        with pytest.raises(NetworkError,
                           match=r"nodes\.csv:3: node 1 has non-finite"):
            load_network(p, e)

    def test_rows_are_checked_against_the_header(self, tmp_path):
        p = tmp_path / "rows.csv"
        p.write_text("a, b\n1,2\n\n3,4\n5\n")
        with pytest.raises(NetworkError, match=r"rows\.csv:5: expected 2 "):
            read_csv(p, "rows", ("a,b",), NetworkError, tuple)
        p.write_text("a,b\n1,2\n\n3,x\n")
        with pytest.raises(NetworkError, match=r"rows\.csv:4: .*'x'"):
            read_csv(p, "rows", ("a,b",), NetworkError,
                     lambda row: float(row[1]))
        p.write_text("a,b\n1,2\n\n3,4\n")
        assert read_csv(p, "rows", ("a,b",), NetworkError, tuple) == (
            "a,b", [("1", "2"), ("3", "4")])
        p.write_text("")
        with pytest.raises(NetworkError, match="empty rows file"):
            read_csv(p, "rows", ("a,b",), NetworkError, tuple)

    def test_csv_text_is_the_one_dialect(self):
        assert csv_text("a,b,c,d", [(1, 0.1, None, True), (-2, 1e300, "x",
                                                           False)]) == (
            "a,b,c,d\n1,0.1,,true\n-2,1e+300,x,false\n")
        assert csv_text("a", []) == "a\n"

    def test_saved_network_has_lf_line_ends(self, tmp_path):
        save_network(gen_grid(3, 2, 0.3), tmp_path / "n.csv",
                     tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes().startswith(
            b"id,from,to,length_km,bidirectional\n0,0,1,0.3,true\n")
        assert (tmp_path / "n.csv").read_bytes().endswith(b"\n5,0.6,0.3\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.csv",
                                                              "n.csv"]

    def test_failed_atomic_write_leaves_no_temp_file(self, tmp_path):
        # a file cannot replace a non-empty directory
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept").write_text("kept\n")
        with pytest.raises(OSError):
            atomic_write(target, "text\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert (target / "kept").read_text() == "kept\n"

    def test_latlon_projection(self, tmp_path):
        # two nodes on the same parallel, 0.02 deg of longitude apart at 48N
        p = tmp_path / "nodes.csv"
        p.write_text("id,lat,lon\n0,48.0,11.00\n1,48.0,11.02\n")
        e = tmp_path / "edges.csv"
        want = 6371.0088 * math.radians(0.02) * math.cos(math.radians(48.0))
        e.write_text("id,from,to,length_km,bidirectional\n"
                     f"0,0,1,{want + 0.01},true\n")
        net = load_network(p, e)
        got = euclid(net.point(0), net.point(1))
        assert got == pytest.approx(want, rel=1e-9)

    def test_latlon_lat_spacing(self, tmp_path):
        p = tmp_path / "nodes.csv"
        p.write_text("id,lat,lon\n0,48.00,11.0\n1,48.01,11.0\n")
        e = tmp_path / "edges.csv"
        want = 6371.0088 * math.radians(0.01)
        e.write_text("id,from,to,length_km,bidirectional\n"
                     f"0,0,1,{want + 0.01},true\n")
        net = load_network(p, e)
        assert euclid(net.point(0), net.point(1)) == pytest.approx(want,
                                                                   rel=1e-9)

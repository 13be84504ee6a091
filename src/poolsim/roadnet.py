"""Road network: nodes, edges, and memoized shortest paths.

Distances along the network (D) are shortest-path km; straight-line km (E)
come from :mod:`poolsim.geometry`.  Every edge must satisfy length >= E of its
endpoints (up to 1e-6 slack), which makes D >= E hold network-wide and is what
lets rectangle membership act as a sound lower-bound filter.

Shortest paths are single-source Dijkstra (scipy csgraph) rows memoized per
node as ``array("d")`` rows, one C double per node (8 bytes, where a list of
Python floats takes 32), holding scipy's values bit for bit.  A forward row
(``dists_from``) holds the km from its node, a reverse row (``dists_to``) the
km to it.  Insertion trials read rows of request endpoints alone, so their
rows are built per endpoint, not per vehicle position; a route walks the
reverse row of the node it heads for, so routing reads the same rows.  When
every edge is two-way a node's reverse row is its forward row; otherwise it
is a Dijkstra row on the transposed graph, which is built on first use.  The
caches are transparent: results depend neither on query order nor on the
order of the network's node and edge rows.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .geometry import Point, euclid

EARTH_RADIUS_KM = 6371.0088
_LENGTH_SLACK = 1e-6


class NetworkError(ValueError):
    """Malformed network input (parse or validation failure)."""


class NoPathError(RuntimeError):
    """No route exists between the queried nodes."""


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    length_km: float
    bidirectional: bool = True


class RoadNetwork:
    """Nodes and edges, validated, with memoized shortest-path rows."""

    def __init__(self, nodes: dict[int, Point], edges: list[Edge]) -> None:
        self.nodes = nodes
        self.edges = edges
        self._ids = list(nodes.keys())
        self._index = {nid: i for i, nid in enumerate(self._ids)}
        n = len(self._ids)
        # parallel edges collapse to the shortest one; scipy would otherwise
        # sum duplicate COO entries
        adj: list[dict[int, float]] = [dict() for _ in range(n)]
        two_way = True
        for e in edges:
            self._validate_edge(e)
            two_way = two_way and e.bidirectional
            iu, iv = self._index[e.u], self._index[e.v]
            pairs = [(iu, iv), (iv, iu)] if e.bidirectional else [(iu, iv)]
            for a, b in pairs:
                prev = adj[a].get(b)
                if prev is None or e.length_km < prev:
                    adj[a][b] = e.length_km
        self._adj = adj
        rows, cols, data = [], [], []
        for a, nbrs in enumerate(adj):
            for b, w in nbrs.items():
                rows.append(a)
                cols.append(b)
                data.append(w)
        self._csr = csr_matrix((data, (rows, cols)), shape=(n, n))
        self._two_way = two_way
        self._csr_t: csr_matrix | None = None
        self._dist_cache: dict[int, array] = {}
        self._to_cache: dict[int, array] = {}

    def _validate_edge(self, e: Edge) -> None:
        if e.u not in self.nodes or e.v not in self.nodes:
            raise NetworkError(f"edge {e.id} references unknown node "
                               f"({e.u} -> {e.v})")
        if not 0.0 < e.length_km < math.inf:
            raise NetworkError(f"edge {e.id} length must be positive and "
                               f"finite, got {e.length_km}")
        straight = euclid(self.nodes[e.u], self.nodes[e.v])
        if e.length_km < straight - _LENGTH_SLACK:
            raise NetworkError(
                f"edge {e.id} length {e.length_km} km is shorter than the "
                f"straight line {straight:.6f} km between nodes {e.u} and {e.v}")

    # -- queries ---------------------------------------------------------

    def point(self, node_id: int) -> Point:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node id {node_id}") from None

    def index_of(self, node_id: int) -> int:
        """Position of a node in every distance row."""
        try:
            return self._index[node_id]
        except KeyError:
            raise NetworkError(f"unknown node id {node_id}") from None

    def _row(self, cache: dict[int, array], csr: csr_matrix,
             node: int) -> array:
        dist = cache.get(node)
        if dist is None:
            dist = array("d", dijkstra(csr, directed=True,
                                       indices=self.index_of(node)).tobytes())
            cache[node] = dist
        return dist

    def dists_from(self, a: int) -> array:
        """Shortest-path km from a to every node, ordered by ``index_of``.

        Unreachable nodes hold ``math.inf``.  The row is an ``array("d")``
        whose items read as Python floats; it is the cache itself: read it,
        never modify it.
        """
        return self._row(self._dist_cache, self._csr, a)

    def dists_to(self, b: int) -> array:
        """Shortest-path km from every node to b, ordered by ``index_of``.

        On a network whose every edge is two-way this is b's forward row
        itself.  Read it, never modify it.
        """
        if self._two_way:
            return self.dists_from(b)
        if self._csr_t is None:
            self._csr_t = self._csr.transpose().tocsr()
        return self._row(self._to_cache, self._csr_t, b)

    def shortest_dist(self, a: int, b: int) -> float:
        """Network shortest-path distance a -> b in km."""
        d = self.dists_from(a)[self.index_of(b)]
        if d == math.inf:
            raise NoPathError(f"no path from node {a} to node {b}")
        return d

    def shortest_path_nodes(self, a: int, b: int) -> list[int]:
        """Node sequence of a shortest path a -> b, inclusive of both ends.

        The path walks b's reverse row from a.  At each node v it steps to
        the out-neighbour u with ``w(v, u) + D(u, b) == D(v, b)``; Dijkstra
        set ``D(v, b)`` from such a u, so one always exists.  Ties go to the
        highest node id, so the route depends on the network's content, not
        on the order of its rows.
        """
        ib = self.index_of(b)
        to = self.dists_to(b)
        v = self.index_of(a)
        if to[v] == math.inf:
            raise NoPathError(f"no path from node {a} to node {b}")
        ids, adj = self._ids, self._adj
        path = [a]
        while v != ib:
            here = to[v]
            v = max((u for u, w in adj[v].items() if w + to[u] == here),
                    key=ids.__getitem__)
            path.append(ids[v])
        return path

    def hop_length(self, a: int, b: int) -> float:
        """Length of the direct edge a -> b (shortest parallel edge)."""
        try:
            return self._adj[self._index[a]][self._index[b]]
        except KeyError:
            raise NetworkError(f"no edge from node {a} to node {b}") from None

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.nodes.values()]
        ys = [p.y for p in self.nodes.values()]
        return min(xs), min(ys), max(xs), max(ys)

    def area_km2(self) -> float:
        """Bounding-box area of the node set, the city area S used in analysis."""
        x0, y0, x1, y1 = self.bbox()
        return (x1 - x0) * (y1 - y0)


# -- generation and I/O ---------------------------------------------------


def gen_grid(nx: int, ny: int, spacing_km: float) -> RoadNetwork:
    """Rectangular lattice with row-major node ids and bidirectional edges.

    Node (row r, col c) has id r*nx + c at (c*spacing, r*spacing).  Edge ids
    number horizontal edges first, then vertical, both row-major, so repeated
    generation is byte-stable.
    """
    if nx < 2 or ny < 2:
        raise NetworkError(f"grid needs nx, ny >= 2, got {nx}x{ny}")
    if not 0.0 < spacing_km < math.inf:
        raise NetworkError(f"grid spacing must be positive and finite, "
                           f"got {spacing_km}")
    nodes = {r * nx + c: Point(c * spacing_km, r * spacing_km)
             for r in range(ny) for c in range(nx)}
    edges: list[Edge] = []
    eid = 0
    for r in range(ny):
        for c in range(nx - 1):
            edges.append(Edge(eid, r * nx + c, r * nx + c + 1, spacing_km))
            eid += 1
    for r in range(ny - 1):
        for c in range(nx):
            edges.append(Edge(eid, r * nx + c, (r + 1) * nx + c, spacing_km))
            eid += 1
    return RoadNetwork(nodes=nodes, edges=edges)


T = TypeVar("T")


def read_csv(path: str | os.PathLike, kind: str, headers: tuple[str, ...],
             error: type[ValueError],
             parse: Callable[[list[str]], T]) -> tuple[str, list[T]]:
    """The header and the parsed rows of one input CSV file.

    ``headers`` are the header lines the file may have, and every row must
    have as many fields as its header.  Blank lines are skipped.  An empty
    file, another header, a row with another field count, or a ValueError
    from ``parse`` raises ``error``, prefixed with ``path:line`` for a row.
    A file that cannot be opened or read as text raises ``error`` too,
    prefixed with ``path``.
    """
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            first = next(reader, None)
            if first is None:
                raise error(f"{path}: empty {kind} file")
            header = ",".join(h.strip() for h in first)
            if header not in headers:
                raise error(f"{path}: {kind} header must be "
                            f"{' or '.join(headers)}, got {header}")
            width = len(first)
            rows: list[T] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    if len(row) != width:
                        raise ValueError(f"expected {width} fields")
                    rows.append(parse(row))
                except ValueError as exc:
                    raise error(f"{path}:{lineno}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {exc}") from None
    return header, rows


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` through ``<path>.tmp`` and a rename; on a
    failure, remove the temporary file and re-raise."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def csv_text(header: str, rows: Iterable[Iterable]) -> str:
    """The one CSV dialect the program writes: None is an empty field, a
    bool ``true`` or ``false``, a float its ``repr``; lines end in LF."""
    lines = [header, *(",".join(map(_csv_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes"):
        return True
    if t in ("0", "false", "no"):
        return False
    raise ValueError(f"bad boolean {s!r}")


def _project_latlon(rows: list[tuple[int, float, float]]) -> dict[int, Point]:
    """Equirectangular projection about the mean latitude, km."""
    lat0 = math.radians(sum(r[1] for r in rows) / len(rows))
    lon0 = math.radians(sum(r[2] for r in rows) / len(rows))
    coslat = math.cos(lat0)
    out = {}
    for nid, lat, lon in rows:
        x = EARTH_RADIUS_KM * (math.radians(lon) - lon0) * coslat
        y = EARTH_RADIUS_KM * (math.radians(lat) - lat0)
        out[nid] = Point(x, y)
    return out


NODE_HEADERS = ("id,x_km,y_km", "id,lat,lon")
EDGE_HEADER = "id,from,to,length_km,bidirectional"


def load_network(nodes_path: str | os.PathLike,
                 edges_path: str | os.PathLike) -> RoadNetwork:
    """Load a network from two CSVs.

    Nodes: header ``id,x_km,y_km`` (planar) or ``id,lat,lon`` (geographic,
    projected equirectangularly about the mean latitude).  Mixing is rejected.
    Edges: header ``id,from,to,length_km,bidirectional``.
    """
    seen: set[int] = set()

    def node_row(row: list[str]) -> tuple[int, float, float]:
        nid, a, b = int(row[0]), float(row[1]), float(row[2])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"node {nid} has non-finite coordinates")
        if nid in seen:
            raise ValueError(f"duplicate node id {nid}")
        seen.add(nid)
        return nid, a, b

    header, raw = read_csv(nodes_path, "nodes", NODE_HEADERS, NetworkError,
                           node_row)
    if not raw:
        raise NetworkError(f"{nodes_path}: no nodes")
    if header == NODE_HEADERS[1]:
        nodes = _project_latlon(raw)
    else:
        nodes = {nid: Point(a, b) for nid, a, b in raw}
    _, edges = read_csv(
        edges_path, "edges", (EDGE_HEADER,), NetworkError,
        lambda row: Edge(int(row[0]), int(row[1]), int(row[2]),
                         float(row[3]), _parse_bool(row[4])))
    return RoadNetwork(nodes=nodes, edges=edges)


def save_network(net: RoadNetwork, nodes_path: str | os.PathLike,
                 edges_path: str | os.PathLike) -> None:
    """Write the planar CSV pair; full float precision, byte-stable order."""
    atomic_write(nodes_path, csv_text(NODE_HEADERS[0], (
        (nid, p.x, p.y) for nid, p in net.nodes.items())))
    atomic_write(edges_path, csv_text(EDGE_HEADER, (
        (e.id, e.u, e.v, e.length_km, e.bidirectional) for e in net.edges)))

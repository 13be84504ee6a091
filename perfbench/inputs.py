"""Seeded inputs for the benchmark workloads.

Every input is made here from the workload's seed and written as the CSV
files `poolsim simulate` reads, so the program under test sees nothing but
files.  The generator shares no code with the program: a grid, its closed-form
distances and the request stream are all computed from first principles, so
the output checks can hold the program to them.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridCity:
    """A square-lattice road network with a uniform request stream.

    Node (row r, column c) has id r * nx + c at (c * spacing, r * spacing);
    every lattice neighbour pair is joined by a two-way edge of one spacing.
    Requests arrive uniformly over ``duration_s``; origin and destination are
    distinct uniform nodes at least ``min_trip_km`` apart in straight line.
    """

    nx: int
    ny: int
    spacing_km: float
    vehicles: int
    requests: int
    duration_s: float
    min_trip_km: float = 0.0

    def grid_km(self, a: int, b: int) -> float:
        """Closed-form shortest-path km between two nodes of the lattice."""
        ra, ca = divmod(a, self.nx)
        rb, cb = divmod(b, self.nx)
        return self.spacing_km * (abs(ca - cb) + abs(ra - rb))


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent generator per (seed, input name)."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, tag])


def write_network(city: GridCity, nodes_path: str, edges_path: str) -> None:
    with open(nodes_path, "w") as f:
        f.write("id,x_km,y_km\n")
        for r in range(city.ny):
            for c in range(city.nx):
                f.write(f"{r * city.nx + c},{c * city.spacing_km!r},"
                        f"{r * city.spacing_km!r}\n")
    with open(edges_path, "w") as f:
        f.write("id,from,to,length_km,bidirectional\n")
        eid = 0
        s = repr(city.spacing_km)
        for r in range(city.ny):
            for c in range(city.nx):
                a = r * city.nx + c
                if c + 1 < city.nx:
                    f.write(f"{eid},{a},{a + 1},{s},true\n")
                    eid += 1
                if r + 1 < city.ny:
                    f.write(f"{eid},{a},{a + city.nx},{s},true\n")
                    eid += 1


def draw_requests(city: GridCity, seed: int) -> list[tuple[int, float, int, int]]:
    """(id, release s, origin, destination) rows, in release order."""
    rng = rng_for(seed, "requests")
    times = np.sort(rng.uniform(0.0, city.duration_s, size=city.requests))
    n_nodes = city.nx * city.ny
    rows = []
    for rid in range(city.requests):
        while True:
            o, d = (int(k) for k in rng.integers(0, n_nodes, size=2))
            if o == d:
                continue
            (ro, co), (rd, cd) = divmod(o, city.nx), divmod(d, city.nx)
            if (city.spacing_km * math.hypot(co - cd, ro - rd)
                    >= city.min_trip_km):
                break
        rows.append((rid, float(times[rid]), o, d))
    return rows


def write_requests(rows: list[tuple[int, float, int, int]], path: str) -> None:
    with open(path, "w") as f:
        f.write("id,t_s,n,o_node,d_node\n")
        for rid, t, o, d in rows:
            f.write(f"{rid},{t!r},1,{o},{d}\n")


def write_city(city: GridCity, seed: int, outdir: str) -> dict[str, str]:
    """Write nodes.csv, edges.csv and requests.csv; return their paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, f"{name}.csv")
             for name in ("nodes", "edges", "requests")}
    write_network(city, paths["nodes"], paths["edges"])
    write_requests(draw_requests(city, seed), paths["requests"])
    return paths


Foci = tuple[tuple[float, float], tuple[float, float], float]


def draw_union_areas(seed: int, count: int) -> list[tuple[Foci, Foci]]:
    """Random (pickup, ride) search-area pairs sharing the trip origin.

    Drawn the way the paper's overhead-bound experiment draws them: a trip
    o -> d at least 0.5 km long in a 10 km square, a direct distance up to
    1.4 times the straight line, a ride budget 5-50% over it, and a vehicle
    position at least 0.3 km from the origin with a pickup budget 1.05-2
    times the straight line.
    """
    rng = rng_for(seed, "eta-areas")
    out = []
    while len(out) < count:
        o = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        e = math.dist(o, d)
        if e < 0.5:
            continue
        ride_budget = e * rng.uniform(1.0, 1.4) * (1.0 + rng.uniform(0.05, 0.5))
        p_s = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        e2 = math.dist(p_s, o)
        if e2 < 0.3:
            continue
        out.append(((p_s, o, e2 * rng.uniform(1.05, 2.0)),
                    (o, d, ride_budget)))
    return out


def draw_single_areas(seed: int, count: int) -> list[Foci]:
    """Random single search areas: two foci and a budget above their distance."""
    rng = rng_for(seed, "eta-singles")
    out = []
    while len(out) < count:
        f1 = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        f2 = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        e = math.dist(f1, f2)
        if e < 0.5:
            continue
        out.append((f1, f2, e * (1.0 + rng.uniform(0.05, 0.5))))
    return out

"""Inputs are a function of the seed, and the grid's distances are closed-form."""

import filecmp

from poolsim.roadnet import load_network

import workloads as wl
from inputs import (GridCity, draw_requests, draw_single_areas,
                    draw_union_areas, write_city)

SMALL = GridCity(nx=7, ny=5, spacing_km=0.3, vehicles=3, requests=40,
                 duration_s=600.0, min_trip_km=0.9)


def _same_files(a, b):
    return all(filecmp.cmp(a[k], b[k], shallow=False) for k in a)


def test_same_seed_same_files(tmp_path):
    a = write_city(SMALL, 3, str(tmp_path / "a"))
    b = write_city(SMALL, 3, str(tmp_path / "b"))
    assert _same_files(a, b)


def test_other_seed_other_requests(tmp_path):
    a = write_city(SMALL, 3, str(tmp_path / "a"))
    b = write_city(SMALL, 4, str(tmp_path / "b"))
    assert filecmp.cmp(a["nodes"], b["nodes"], shallow=False)
    assert not filecmp.cmp(a["requests"], b["requests"], shallow=False)
    assert wl.period_seeds(3, 3) != wl.period_seeds(4, 3)
    assert draw_union_areas(3, 5) != draw_union_areas(4, 5)
    assert draw_single_areas(3, 5) != draw_single_areas(4, 5)


def test_requests_respect_the_generator_rules():
    rows = draw_requests(SMALL, 8)
    assert [r[0] for r in rows] == list(range(SMALL.requests))
    assert [r[1] for r in rows] == sorted(r[1] for r in rows)
    for _, t, o, d in rows:
        assert 0.0 <= t < SMALL.duration_s and o != d
        (ro, co), (rd, cd) = divmod(o, SMALL.nx), divmod(d, SMALL.nx)
        assert 0.3 * ((co - cd) ** 2 + (ro - rd) ** 2) ** 0.5 >= 0.9


def test_closed_form_matches_dijkstra(tmp_path):
    paths = write_city(SMALL, 1, str(tmp_path))
    net = load_network(paths["nodes"], paths["edges"])
    n = SMALL.nx * SMALL.ny
    for a in range(n):
        for b in range(n):
            assert abs(net.shortest_dist(a, b) - SMALL.grid_km(a, b)) < 1e-9

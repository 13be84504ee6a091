"""Same inputs, same reports: golden digests and network row order.

The golden digests pin the four report files of three oracle instances
under every planner.  A change that moves one of them changes what the
simulator does; make it on purpose, log the old and new digests in
CHANGES.md and update the table here.

The row-order tests reorder the rows of the network files or of the
request list and require byte-identical reports: a run depends on its
inputs' content, not on how they are listed.
"""
from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import replace

import pytest

from poolsim.model import SimConfig, sample_requests
from poolsim.roadnet import gen_grid, load_network, save_network
from poolsim.seeds import substream
from poolsim.simulator import REPORT_FILES, run, write_report_files
from test_acceptance import ORACLE_GRID, oracle_instance

PLANNERS = {
    "es": ("es", "literal"),
    "psap-inclusive": ("psap", "inclusive"),
    "psap-literal": ("psap", "literal"),
}

# sha256 of report.json, metrics.csv, requests.csv and events.jsonl
GOLDEN = {
    (0, "es"): (
        "019d01bb221006dea4d24f9c820d67a92225f63350f4126a9b90e1445a1ab843",
        "37b30679fba69165a757fcf174b8bd00b512930a89995089cbed4d3a11fcbd9d",
        "1a0e862fd70105b52b2cde3d392ace41eab08aa7c879e3cc41c74a0964857f5c",
        "6af5465354af72c7ae0bedaf8f8abb1a6535576fe0b6fdfcbd43b16a0d53fd24",
    ),
    (0, "psap-inclusive"): (
        "4c08a2b05c0c3285bd1b3824facc9c9594799c75d120f1500e48fc104be552bd",
        "ae511b266d50e36eabdedfa051fdf2cb9e931722052c73fd017fd2c510effbdd",
        "1a0e862fd70105b52b2cde3d392ace41eab08aa7c879e3cc41c74a0964857f5c",
        "6af5465354af72c7ae0bedaf8f8abb1a6535576fe0b6fdfcbd43b16a0d53fd24",
    ),
    (0, "psap-literal"): (
        "d39d036206ea04a27eda4741c498ca28e2fe922b5d63ce4cd60be0b67934f308",
        "8389c5ee924c85424acc4c76261c97c49485b399a485a99f0185ba9105602ef8",
        "1a0e862fd70105b52b2cde3d392ace41eab08aa7c879e3cc41c74a0964857f5c",
        "6af5465354af72c7ae0bedaf8f8abb1a6535576fe0b6fdfcbd43b16a0d53fd24",
    ),
    (1, "es"): (
        "9f19c4f83bf99cf1df2e11d9e2b391b32cc0201b94e699c750a5aaaf0b933ff9",
        "42cfd172c9a7ea5d96ebe2f319254ed04a4d4d7bb39e3f72eca36a80b35a661c",
        "b6fa9cf64cb31ad388c86573d7f7109303af6d15de6ad16aa56b378e6bd8d3d5",
        "9c2fb65db8c585f966f1b3f0a42381ec33c097a342537d0ad6bfc35d414ce16b",
    ),
    (1, "psap-inclusive"): (
        "fca553d0d1e884941d2090b218ee8f04c4ed31eb8007c7df0c2c707629e7e6e6",
        "c6b938735942384a50dd407fa3a2bb294384b440046a746999796c0a17f76d72",
        "b6fa9cf64cb31ad388c86573d7f7109303af6d15de6ad16aa56b378e6bd8d3d5",
        "9c2fb65db8c585f966f1b3f0a42381ec33c097a342537d0ad6bfc35d414ce16b",
    ),
    (1, "psap-literal"): (
        "cb83a4b9325828dcfd9b6a1de1654ae1c80f3a077c2d547ac2aebb7a61d5a8b9",
        "040e8e692e285c82b72de1f4aae0e7beb039f9f8f5ad3aeb30a2aa2d1132ad13",
        "b6fa9cf64cb31ad388c86573d7f7109303af6d15de6ad16aa56b378e6bd8d3d5",
        "9c2fb65db8c585f966f1b3f0a42381ec33c097a342537d0ad6bfc35d414ce16b",
    ),
    (17, "es"): (
        "bcf35799ffbae16ad9f4d99ccfa317292f9c59c21b8b53bc7eb6202751229d73",
        "ea4c9dff5a9ba10ddf51a94c37f0b948122c9c2772227c715a6bbb7b7729fc99",
        "f606f04c371cda3ca906d4d0146dc346bcef050f0a741cf81f2a40db18594fe2",
        "c7c28f13f317e92e0806d86ca80b3258ad6d755570946a813ab4035376417c2e",
    ),
    (17, "psap-inclusive"): (
        "d00748089bd1789caa837682d7fc9f36c34c6f41f7bf161a738c1a173587334b",
        "6a69064e34d89ee03ed99b2e4f983ea7b4b8df32df3b2d04df255611adbf0a26",
        "f606f04c371cda3ca906d4d0146dc346bcef050f0a741cf81f2a40db18594fe2",
        "c7c28f13f317e92e0806d86ca80b3258ad6d755570946a813ab4035376417c2e",
    ),
    (17, "psap-literal"): (
        "1a613d575c121cab79c19648ad370a0412297e425714177b9a4d414d189cdb50",
        "5a09eebd39a4b22ea76db23d4f3b530b8e4c0cb9911f022ffa9f1f15c4d1f2a7",
        "aa13f6e87ddf990f5706aa1cd7f533c3ec0e72a62d9aa052551adbcb4bef36e1",
        "d9a114105234378db27329fe73ef7efe33d36bcb4e5acd85b1b6b8544811bbae",
    ),
}


def report_digests(rep, outdir) -> tuple[str, ...]:
    write_report_files(rep, outdir)
    return tuple(hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                 for name in REPORT_FILES)


@pytest.mark.parametrize("seed,planner", sorted(GOLDEN))
def test_golden_digests(tmp_path, seed, planner):
    scheduler, gating = PLANNERS[planner]
    net = gen_grid(*ORACLE_GRID)
    n_veh, reqs = oracle_instance(net, seed)
    rep = run(net, reqs, SimConfig(n_vehicles=n_veh, seed=seed, gating=gating),
              scheduler=scheduler)
    assert report_digests(rep, tmp_path) == GOLDEN[seed, planner]


def reorder_rows(path, order: str) -> None:
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    if order == "reversed":
        rows.reverse()
    else:
        random.Random(5).shuffle(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])


def test_reports_do_not_depend_on_network_row_order(tmp_path):
    # 20x20 lattice, 225 requests in 15 minutes, 70 vehicles: routes with
    # many equal-length alternatives, so a route that followed the row
    # order would move vehicles, gate verdicts and counters
    base = gen_grid(20, 20, 0.3)
    reqs = sample_requests(base, substream(7, "requests"), 225, 900.0,
                           min_e_km=2.5)
    nets = {}
    for order in ("file", "reversed", "shuffled"):
        nodes = tmp_path / f"{order}-nodes.csv"
        edges = tmp_path / f"{order}-edges.csv"
        save_network(base, nodes, edges)
        if order != "file":
            reorder_rows(nodes, order)
            reorder_rows(edges, order)
        nets[order] = load_network(nodes, edges)
    assert list(nets["reversed"].nodes) == list(base.nodes)[::-1]
    for planner, (scheduler, gating) in PLANNERS.items():
        cfg = SimConfig(n_vehicles=70, seed=7, gating=gating)
        digests = {}
        for order, net in nets.items():
            rep = run(net, reqs, cfg, scheduler=scheduler)
            outdir = tmp_path / f"{planner}-{order}"
            digests[order] = report_digests(rep, outdir)
        assert digests["reversed"] == digests["file"], planner
        assert digests["shuffled"] == digests["file"], planner


def test_reports_do_not_depend_on_request_row_order(tmp_path):
    # 0.3 km blocks: direct km that add up to different floats in different
    # orders, so a total kept in request-file order would move; releases on
    # whole minutes: ties that only the request id orders
    net = gen_grid(10, 10, 0.3)
    reqs = [replace(r, t=60.0 * (r.t // 60.0)) for r in
            sample_requests(net, substream(3, "requests"), 30, 1500.0)]
    shuffled = list(reqs)
    random.Random(5).shuffle(shuffled)
    orders = {"file": reqs, "reversed": reqs[::-1], "shuffled": shuffled}
    for planner, (scheduler, gating) in PLANNERS.items():
        cfg = SimConfig(n_vehicles=4, seed=3, gating=gating)
        digests = {}
        for order, listed in orders.items():
            rep = run(net, listed, cfg, scheduler=scheduler)
            outdir = tmp_path / f"{planner}-{order}"
            digests[order] = report_digests(rep, outdir)
        assert digests["reversed"] == digests["file"], planner
        assert digests["shuffled"] == digests["file"], planner

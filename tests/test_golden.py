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
from poolsim.simulator import run, write_report_files
from test_acceptance import ORACLE_GRID, oracle_instance

REPORT_FILES = ("report.json", "metrics.csv", "requests.csv", "events.jsonl")
PLANNERS = {
    "es": ("es", "literal"),
    "psap-inclusive": ("psap", "inclusive"),
    "psap-literal": ("psap", "literal"),
}

# sha256 of report.json, metrics.csv, requests.csv and events.jsonl
GOLDEN = {
    (0, "es"): (
        "1f007faa073bcafba20a01d39fc9955459a7b56a84655d672fcf95fba45897f8",
        "75eee973490d3ad2853acdccf1acf890d9b2626b0f489d1fc85408158132e73c",
        "1a0e862fd70105b52b2cde3d392ace41eab08aa7c879e3cc41c74a0964857f5c",
        "6af5465354af72c7ae0bedaf8f8abb1a6535576fe0b6fdfcbd43b16a0d53fd24",
    ),
    (0, "psap-inclusive"): (
        "592c80defb86aee0813f487433386809387dfb0d5e42e33c70906e1d49edc6ae",
        "87aaf48d8fd6f95a933ae3102867e485e3f3d343d8e1565c5dfd437d9551278c",
        "1a0e862fd70105b52b2cde3d392ace41eab08aa7c879e3cc41c74a0964857f5c",
        "6af5465354af72c7ae0bedaf8f8abb1a6535576fe0b6fdfcbd43b16a0d53fd24",
    ),
    (0, "psap-literal"): (
        "b6f62b2325d70459ada7190f496a600725850193d97239eb07d0e1f43f7479de",
        "8f9ecbae5172438654918edc6ee7e5f4540f665c546c87590f0486eb783c6cb5",
        "1a0e862fd70105b52b2cde3d392ace41eab08aa7c879e3cc41c74a0964857f5c",
        "6af5465354af72c7ae0bedaf8f8abb1a6535576fe0b6fdfcbd43b16a0d53fd24",
    ),
    (1, "es"): (
        "85278cd18eeaba51600f7f3d63966f1e62349d8e6a36e425ceaeac9210724180",
        "f2e2af0cfad39c467a3df870e7f1e67dcbdb4332881acd2d1cf3e1d8f48e0041",
        "b6fa9cf64cb31ad388c86573d7f7109303af6d15de6ad16aa56b378e6bd8d3d5",
        "9c2fb65db8c585f966f1b3f0a42381ec33c097a342537d0ad6bfc35d414ce16b",
    ),
    (1, "psap-inclusive"): (
        "9a44742d5143f6908ab207d6809966b9a296ca160237e7e85cc5d1b8f4926688",
        "bdec2ae42f22009032d5d5b5dae596817eb211963023f281cb048f01723c87d9",
        "b6fa9cf64cb31ad388c86573d7f7109303af6d15de6ad16aa56b378e6bd8d3d5",
        "9c2fb65db8c585f966f1b3f0a42381ec33c097a342537d0ad6bfc35d414ce16b",
    ),
    (1, "psap-literal"): (
        "3031f68c54c8a716fce7704fb50a7be029c4c8a7ab67bbc82bbffe9a8b073dbe",
        "0d0547765222fc2467dd785823529f994822dffb5e5674486a9c1988d1155e0b",
        "b6fa9cf64cb31ad388c86573d7f7109303af6d15de6ad16aa56b378e6bd8d3d5",
        "9c2fb65db8c585f966f1b3f0a42381ec33c097a342537d0ad6bfc35d414ce16b",
    ),
    (17, "es"): (
        "0387e7604ecf1b8823acb5e03b28970bc6057884e3c9fb5c356545b769687932",
        "9e41b906d0207080a9017c440995baea40fda1d9e445c0d0902b6b9ae0671b81",
        "f606f04c371cda3ca906d4d0146dc346bcef050f0a741cf81f2a40db18594fe2",
        "c7c28f13f317e92e0806d86ca80b3258ad6d755570946a813ab4035376417c2e",
    ),
    (17, "psap-inclusive"): (
        "4459ac8acaa5a5bb1e6c07ca9ce25c302c78dec48aff159c0c37a3786c83bb22",
        "ff1b324de4d6151e012475ea61c51e76263f3d8aac8da5e7916efd8462d3e302",
        "f606f04c371cda3ca906d4d0146dc346bcef050f0a741cf81f2a40db18594fe2",
        "c7c28f13f317e92e0806d86ca80b3258ad6d755570946a813ab4035376417c2e",
    ),
    (17, "psap-literal"): (
        "f624ed586fd681cddb6ee638a6a585b8e449b7146071f75d7859dd471db977a8",
        "f771d485f6ed28ce87c3062f4b53cecf344cf23939b6280ac7f6d7101b22bfcb",
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

"""Command-line front door: generators, single runs, scheduler comparison.

Exit codes are stable per error class: 1 for usage errors (bad flags or
values, such as an empty ``--out``, or one that names an existing file
where a directory is written or a directory where a file is), 2 for input
errors (missing or malformed files), 3 for runtime failures.  Every
command writes a manifest with the resolved configuration
and input digests: ``simulate`` and ``compare`` before running, the
generators ``gen-grid`` and ``gen-requests`` after writing their outputs.
All files land atomically (temp + rename).  Wall-clock timings are printed
and written to a separate timing file so the reports themselves stay
byte-reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import fields

from . import __version__
from .model import (GATINGS, RequestError, SimConfig, load_requests,
                    sample_requests, save_requests)
from .roadnet import (NetworkError, atomic_write, gen_grid, load_network,
                      save_network)
from .analysis import rrcc_gate_harness
from .seeds import substream
from .simulator import (REPORT_FILES, SCHEDULERS, SimReport, run,
                        write_report_files)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through our own code instead
    def error(self, message):
        raise UsageError(message)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: str, command: str, settings: dict,
                    inputs: dict[str, str], seed: int | None,
                    outputs: list[str]) -> None:
    manifest = {
        "tool": "poolsim",
        "version": __version__,
        "command": command,
        "settings": settings,
        "inputs": {name: {"path": p, "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "seed": seed,
        "outputs": outputs,
    }
    atomic_write(path, json.dumps(manifest, indent=2, allow_nan=False)
                 + "\n")


# -- commands --------------------------------------------------------------


def cmd_gen_grid(args) -> int:
    try:
        net = gen_grid(args.nx, args.ny, args.spacing_km)
    except NetworkError as exc:
        raise UsageError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    nodes_path = os.path.join(args.out, "nodes.csv")
    edges_path = os.path.join(args.out, "edges.csv")
    save_network(net, nodes_path, edges_path)
    _write_manifest(os.path.join(args.out, "manifest.json"), "gen-grid",
                    {"nx": args.nx, "ny": args.ny,
                     "spacing_km": args.spacing_km},
                    {}, None, [nodes_path, edges_path])
    print(f"wrote {len(net.nodes)} nodes, {len(net.edges)} edges to {args.out}")
    return EXIT_OK


def cmd_gen_requests(args) -> int:
    if args.count is None and args.rate_per_h is None:
        raise UsageError("one of --count or --rate-per-h is required")
    if args.count is not None and args.rate_per_h is not None:
        raise UsageError("--count and --rate-per-h are mutually exclusive")
    if args.count is not None and args.count < 1:
        raise UsageError("--count must be >= 1")
    # NaN fails every comparison, so each check is written to pass only
    # finite values
    if args.rate_per_h is not None and not 0 < args.rate_per_h < math.inf:
        raise UsageError(f"--rate-per-h must be positive and finite, "
                         f"got {args.rate_per_h}")
    if not 0 < args.duration_s < math.inf:
        raise UsageError(f"--duration-s must be positive and finite, "
                         f"got {args.duration_s}")
    if not 0 <= args.min_e_km < math.inf:
        raise UsageError(f"--min-e-km must be finite and >= 0, "
                         f"got {args.min_e_km}")
    if args.party_n < 1:
        raise UsageError("--party-n must be >= 1")

    net = load_network(args.nodes, args.edges)
    x0, y0, x1, y1 = net.bbox()
    diag = math.hypot(x1 - x0, y1 - y0)
    if args.min_e_km > diag:
        raise NetworkError(
            f"--min-e-km {args.min_e_km} exceeds the network diameter "
            f"(bounding-box diagonal {diag:.3f} km); no node pair qualifies")

    rng = substream(args.seed, "requests")
    count = args.count
    if count is None:
        count = int(rng.poisson(args.rate_per_h * args.duration_s / 3600.0))
    requests = sample_requests(net, rng, count, args.duration_s,
                               min_e_km=args.min_e_km, party_n=args.party_n)
    # --out names the CSV itself; the manifest goes next to it so several
    # request files can share a directory with a network manifest
    req_path = args.out
    parent = os.path.dirname(req_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_requests(requests, req_path)
    _write_manifest(f"{req_path}.manifest.json", "gen-requests",
                    {"count": args.count, "rate_per_h": args.rate_per_h,
                     "duration_s": args.duration_s,
                     "min_e_km": args.min_e_km, "party_n": args.party_n},
                    {"nodes": args.nodes, "edges": args.edges},
                    args.seed, [req_path])
    print(f"wrote {len(requests)} requests to {req_path}")
    return EXIT_OK


def _config_from_args(args) -> SimConfig:
    return SimConfig(**{f.name: getattr(args, f.name)
                        for f in fields(SimConfig)})


def _qos_stats(report: SimReport) -> dict:
    detours = [rc.realized_detour for rc in report.requests
               if rc.realized_detour is not None]
    buffers = [rc.realized_buffer_km for rc in report.requests
               if rc.realized_buffer_km is not None and rc.under_wait_branch]
    return {
        "completed": report.completed,
        "unserved": report.unserved,
        "max_realized_detour": max(detours) if detours else None,
        "max_realized_buffer_km_under_wait": max(buffers) if buffers else None,
    }


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    net = load_network(args.nodes, args.edges)
    requests = load_requests(args.requests, net)
    os.makedirs(args.out, exist_ok=True)
    planned = [os.path.join(args.out, name) for name in REPORT_FILES]
    _write_manifest(os.path.join(args.out, "manifest.json"), "simulate",
                    config.to_dict(),
                    {"nodes": args.nodes, "edges": args.edges,
                     "requests": args.requests},
                    args.seed, planned)
    t0 = time.perf_counter()
    report = run(net, requests, config, scheduler=args.scheduler)
    wall = time.perf_counter() - t0
    write_report_files(report, args.out)
    atomic_write(os.path.join(args.out, "timing.json"),
                 json.dumps({"wall_s": wall}) + "\n")
    c = report.counters
    print(f"{args.scheduler}: {report.completed}/{report.n_requests} "
          f"completed, {report.unserved} unserved, "
          f"travel {report.total_travel_km:.1f} km, "
          f"saved {report.saved_km:.1f} km, "
          f"evaluated {c.m_total}/{c.n_total} candidates, "
          f"wall {wall:.2f} s")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    net = load_network(args.nodes, args.edges)
    requests = load_requests(args.requests, net)
    # the harness checks its own options; it runs before anything is
    # written, so bad ones leave no manifest behind
    fractions = [float(f) for f in args.harness_fractions.split(",") if f]
    harness = [vars(rrcc_gate_harness(frac, args.harness_samples, args.seed))
               for frac in fractions]
    os.makedirs(args.out, exist_ok=True)
    psap, es = SCHEDULERS
    legs = {name: os.path.join(args.out, name) for name in SCHEDULERS}
    _write_manifest(os.path.join(args.out, "manifest.json"), "compare",
                    config.to_dict(),
                    {"nodes": args.nodes, "edges": args.edges,
                     "requests": args.requests},
                    args.seed,
                    [os.path.join(d, "report.json") for d in legs.values()]
                    + [os.path.join(args.out, "compare.json")])

    reports: dict[str, SimReport] = {}
    walls: dict[str, float] = {}
    for name, outdir in legs.items():
        t0 = time.perf_counter()
        reports[name] = run(net, requests, config, scheduler=name)
        walls[name] = time.perf_counter() - t0
        write_report_files(reports[name], outdir)

    keys = {name: {(a.request_id, a.vehicle_id, a.i, a.j)
                   for a in reports[name].assignments}
            for name in reports}
    only_psap = sorted(keys[psap] - keys[es])
    only_es = sorted(keys[es] - keys[psap])

    def leg_summary(name: str) -> dict:
        rep = reports[name]
        c = rep.counters
        return {
            "counters": vars(c),
            "psi": {"a": c.psi("A"), "b": c.psi("B"), "c": c.psi("C")},
            "total_travel_km": rep.total_travel_km,
            "saved_km": rep.saved_km,
            "qos": _qos_stats(rep),
        }

    summary = {
        "config": config.to_dict(),
        psap: leg_summary(psap),
        es: leg_summary(es),
        "evaluated_ratio": (reports[psap].counters.m_total
                            / reports[es].counters.m_total
                            if reports[es].counters.m_total else None),
        "assignment_diff": {"only_psap": [list(k) for k in only_psap],
                            "only_es": [list(k) for k in only_es],
                            "count": len(only_psap) + len(only_es)},
        "harness": harness,
    }
    atomic_write(os.path.join(args.out, "compare.json"),
                 json.dumps(summary, indent=2, allow_nan=False) + "\n")
    atomic_write(os.path.join(args.out, "timing.json"),
                 json.dumps({"wall_s": walls}) + "\n")

    cp, ce = reports[psap].counters, reports[es].counters
    print(f"psap evaluated {cp.m_total} of {cp.n_total} candidates "
          f"(A {cp.m_a}/{cp.n_a}, B {cp.m_b}/{cp.n_b}, C {cp.m_c}/{cp.n_c})")
    print(f"es   evaluated {ce.m_total} of {ce.n_total}")
    print(f"assignment diff: {len(only_psap)} only-psap, "
          f"{len(only_es)} only-es")
    print(f"wall: psap {walls[psap]:.2f} s, es {walls[es]:.2f} s "
          f"(informational)")
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def _out_path(is_dir: bool):
    """An ``--out`` argparse type: a directory or a file, below a directory."""
    def check(path: str) -> str:
        above = os.path.dirname(os.path.abspath(path))
        while not os.path.exists(above):
            above = os.path.dirname(above)
        # a file path ends in its file name, not in a separator
        if (not path or not os.path.isdir(above)
                or not is_dir and not os.path.basename(path)
                or os.path.isdir(path) != is_dir and os.path.exists(path)):
            raise argparse.ArgumentTypeError(
                f"not a usable output {'directory' if is_dir else 'file'}: "
                f"{path!r}")
        return path
    return check


def _minutes(value: str) -> float:
    return float(value) * 60.0


def _add_sim_flags(p: _Parser) -> None:
    # each run flag's dest is the SimConfig field it sets
    p.add_argument("--nodes", required=True, help="nodes CSV")
    p.add_argument("--edges", required=True, help="edges CSV")
    p.add_argument("--requests", required=True, help="requests CSV")
    p.add_argument("--out", required=True, type=_out_path(True),
                   help="output directory")
    d = SimConfig()
    p.add_argument("--pvs", dest="n_vehicles", type=int,
                   default=d.n_vehicles, help="fleet size")
    p.add_argument("--capacity", type=int, default=d.capacity)
    p.add_argument("--speed-kmh", type=float, default=d.speed_kmh)
    p.add_argument("--delta", dest="max_detour", type=float,
                   default=d.max_detour, help="max detour ratio")
    p.add_argument("--wait-min", dest="wait_threshold_s", type=_minutes,
                   default=d.wait_threshold_s, metavar="MINUTES",
                   help="waiting threshold W")
    p.add_argument("--buffer-km", type=float, default=d.buffer_km,
                   help="pickup buffer B, km")
    p.add_argument("--epoch-s", type=float, default=d.epoch_s)
    p.add_argument("--gating", choices=GATINGS, default=d.gating)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--horizon-s", type=float, default=d.horizon_s)


def build_parser() -> _Parser:
    parser = _Parser(prog="poolsim",
                     description="ride-pooling dispatch simulator")
    parser.add_argument("--version", action="version",
                        version=f"poolsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", help="generate a rectangular grid network")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--spacing-km", type=float, default=1.0)
    p.add_argument("--out", required=True, type=_out_path(True),
                   help="output directory")
    p.set_defaults(fn=cmd_gen_grid)

    p = sub.add_parser("gen-requests", help="sample a request set")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--rate-per-h", type=float, default=None,
                   help="Poisson arrival rate; count drawn from it")
    p.add_argument("--duration-s", type=float, default=3600.0)
    p.add_argument("--min-e-km", type=float, default=0.0,
                   help="minimum straight-line O/D separation")
    p.add_argument("--party-n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=_out_path(False),
                   help="requests CSV path")
    p.set_defaults(fn=cmd_gen_requests)

    p = sub.add_parser("simulate", help="run one scheduler")
    p.add_argument("--scheduler", choices=SCHEDULERS, default=SCHEDULERS[0])
    _add_sim_flags(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="run both schedulers side by side")
    _add_sim_flags(p)
    p.add_argument("--harness-fractions", default="0.1,0.3,0.5",
                   help="controlled-harness region fractions of the city area")
    p.add_argument("--harness-samples", type=int, default=20000)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (NetworkError, RequestError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UsageError, ValueError) as exc:
        # bad option values surface as config validation errors
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

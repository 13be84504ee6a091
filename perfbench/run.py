"""Dispatch benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload dense-es --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the workload until ``--seconds`` have passed,
checks the output of the last round, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` rounds
alternate between untraced and traced, and the metrics are the per-layer
ones from the traced rounds plus the tracing overhead.  Everything runs in
this one process on one thread.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# one thread for every native library, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("dense-es", "dense-psap", "city-literal", "eta-sweep")


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(t, last, eta_samples: int) -> dict[str, float]:
    """Per-layer figures of one traced round from its tracer ``t``."""
    calls, total, own = t.calls, t.total_s, t.self_s
    queries = (calls["roadnet.dists_from"] + calls["roadnet.shortest_dist"]
               + calls["roadnet.route"])
    rows = calls["roadnet.dijkstra"]
    evaluated = calls["insertion.evaluate"]
    return {
        "roadnet.rows_built": rows,
        "roadnet.row_build_s": t.row_build_s,
        "roadnet.row_queries": queries,
        "roadnet.row_hit_ratio": 1.0 - rows / queries if queries else 0.0,
        "roadnet.route_calls": calls["roadnet.route"],
        "roadnet.route_s": total["roadnet.route"],
        "roadnet.load_network_s": total["roadnet.load_network"],
        "model.load_requests_s": total["model.load_requests"],
        "insertion.trials": calls["insertion.trial"],
        "insertion.trial_s": own["insertion.trial"],
        "insertion.evaluated": evaluated,
        "insertion.evaluate_s": total["insertion.evaluate"],
        "insertion.feasible_ratio": (t.feasible / evaluated
                                     if evaluated else 0.0),
        "scheduler.epochs": calls["scheduler.epoch"],
        "scheduler.epoch_s": total["scheduler.epoch"],
        "scheduler.self_s": own["scheduler.epoch"],
        "scheduler.gate_calls": calls["scheduler.gate"],
        "scheduler.gate_s": total["scheduler.gate"],
        "scheduler.psa_refresh_calls": calls["scheduler.psa_refresh"],
        "scheduler.psa_refresh_s": total["scheduler.psa_refresh"],
        "simulator.advance_calls": calls["simulator.advance"],
        "simulator.advance_s": total["simulator.advance"],
        "simulator.run_self_s": own["simulator.run"],
        "simulator.report_write_s": total["simulator.write_report"],
        "simulator.report_bytes": last.report_bytes,
        "analysis.traffic_metrics_s": total["analysis.traffic_metrics"],
        "analysis.eta_calls": calls["analysis.eta"],
        "analysis.eta_s": total["analysis.eta"],
        "analysis.mc_samples_per_s": (calls["analysis.eta"] * eta_samples
                                      / total["analysis.eta"]
                                      if calls["analysis.eta"] else 0.0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    # the program is imported from the checkout this file sits in
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    try:
        import workloads as wl
        from tracer import EpochClock, Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    name = args.workload
    sim = {"dense-es": wl.SimWorkload(wl.DENSE, wl.DENSE_PERIODS, "es"),
           "dense-psap": wl.SimWorkload(wl.DENSE, wl.DENSE_PERIODS, "psap",
                                        "inclusive"),
           "city-literal": wl.SimWorkload(wl.CITY, 1, "psap", "literal"),
           }.get(name)
    outdir = os.path.join(OUT_DIR, name)
    shutil.rmtree(outdir, ignore_errors=True)

    def one_round(traced: bool):
        sub = os.path.join(outdir, "traced" if traced else "untraced")
        with (Tracer() if traced else EpochClock()) as probe:
            if sim is not None:
                rnd, estimates = wl.sim_round(sim, args.seed, sub), None
            else:
                rnd, estimates = wl.eta_round(args.seed)
        if not traced and sim is not None:
            rnd.op_s = probe.epoch_s
        return rnd, estimates, probe

    plain: list = []
    traced: list = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(one_round(False))
        if args.trace:
            traced.append(one_round(True))

    errors: list[str] = []
    reference = plain[0][0].digests
    for rnd, _, _ in plain + traced:
        if rnd.digests != reference:
            errors.append("a round's output differs from the first round's")
            break
    last, estimates, _ = plain[-1]
    if sim is None:
        failed, errs = wl.check_eta(args.seed, estimates)
    else:
        ref_dirs = None
        if name == "dense-psap":
            # inclusive gating must commit exactly what exhaustive search does
            ref = wl.sim_round(sim, args.seed, os.path.join(outdir, "es"),
                               scheduler="es")
            ref_dirs = ref.report_dirs
        failed, errs = wl.check_sim(sim, args.seed, last, ref_dirs)
    errors.extend(errs)
    # every round repeats the same operations with the same outcome
    rounds = len(plain) + len(traced)
    attempted = last.attempted * rounds
    failed *= rounds

    if args.trace:
        per_round = []
        for rnd, _, t in traced:
            figures = layer_metrics(t, rnd, wl.ETA_SAMPLES)
            figures.update(wl.sim_outcomes(rnd))
            per_round.append(figures)
        metrics = {key: _median([f[key] for f in per_round])
                   for key in per_round[0]}
        metrics["bench.trace_overhead_s"] = (
            _median([r.run_s for r, _, _ in traced])
            - _median([r.run_s for r, _, _ in plain]))
    else:
        # rounds repeat the same operations, so each operation's latency is
        # its median over the rounds: a burst of load on the machine then
        # does not reach the tail unless it hits most rounds
        if len({len(r.op_s) for r, _, _ in plain}) != 1:
            errors.append("rounds made different numbers of operations")
        op_ms = [statistics.median(lat) * 1000.0
                 for lat in zip(*(r.op_s for r, _, _ in plain))]
        metrics = {
            "setup_s": _median([s for r, _, _ in plain for s in r.setup_s]),
            "run_s": _median([r.run_s for r, _, _ in plain]),
            "op_p95_ms": statistics.quantiles(op_ms, n=20)[18],
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0),
        }

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"do not match BENCHMARK.json")
    for msg in errors[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(f"perfbench: {name} seed {args.seed}: {rounds} rounds, "
          f"{len(errors)} errors", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

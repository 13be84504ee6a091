"""Pruned planner vs exhaustive baseline on one seeded scenario.

Both schedulers insert requests greedily by cheapest feasible splice; the
pruned planner first gates candidate cases against each vehicle's search
rectangle so it costs out fewer splices.  Inclusive gating keeps every
feasible candidate and lands on the same assignments as the baseline;
literal gating drops a thin slice of feasible appends in exchange for
stricter case separation.
"""
import time

from poolsim.model import SimConfig, sample_requests
from poolsim.roadnet import gen_grid
from poolsim.seeds import substream
from poolsim.simulator import run


def main() -> None:
    net = gen_grid(nx=10, ny=10, spacing_km=0.5)
    requests = sample_requests(net, substream(4, "requests"), count=30,
                               duration_s=600.0)
    print(f"{len(requests)} requests over 10 min, 4 vehicles, "
          f"{net.area_km2():.1f} km^2 grid\n")

    reports = {}
    for label, sched, gating in (("exhaustive", "es", "literal"),
                                 ("inclusive", "psap", "inclusive"),
                                 ("literal", "psap", "literal")):
        cfg = SimConfig(n_vehicles=4, seed=4, gating=gating)
        t0 = time.perf_counter()
        rep = run(net, requests, cfg, scheduler=sched)
        wall = time.perf_counter() - t0
        reports[label] = rep
        c = rep.counters
        m = c.m_a + c.m_b + c.m_c
        n = c.n_a + c.n_b + c.n_c
        print(f"{label:10s}: {m:6d} of {n:6d} candidates costed "
              f"({m / n:5.1%}), {rep.completed} served, "
              f"{rep.total_travel_km:6.1f} km driven, {wall * 1e3:5.1f} ms")

    same = ([vars(a) for a in reports["inclusive"].assignments]
            == [vars(a) for a in reports["exhaustive"].assignments])
    print(f"\ninclusive assignments identical to exhaustive: {same}")

    c = reports["literal"].counters
    print("literal-mode rejection rate by case "
          f"(share of baseline candidates skipped):")
    for case in ("A", "B", "C"):
        psi = c.psi(case)
        print(f"  case {case}: {psi:5.1%}" if psi is not None
              else f"  case {case}: no candidates")


if __name__ == "__main__":
    main()

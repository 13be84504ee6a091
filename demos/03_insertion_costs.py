"""Insertion enumeration: where can a new rider splice into a busy route?

A vehicle mid-route has an ordered stop list.  A new request's origin and
destination can go at any position pair (i, j), and each splice has an added
driving cost and a case label: interior insertions (A), destination appended
last (B), and the origin-destination pair appended together (C).  Quality
checks then strike candidates that would stretch a committed rider too far.
"""
from poolsim.insertion import (RequestRows, VehiclePath, VehicleTrial,
                               path_table)
from poolsim.model import Request, RequestState, SimConfig, Stop, StopKind, Vehicle
from poolsim.roadnet import gen_grid


def onboard(rid: int, o: int, d: int, direct: float) -> Request:
    return Request(id=rid, t=0.0, n=1, o=o, d=d, direct_dist=direct,
                   state=RequestState.ONBOARD, odometer_at_schedule=0.0,
                   traveled_at_pickup=0.0, pickup_time=0.0, schedule_time=0.0,
                   vehicle_id=0, scheduled_under_wait=True)


def main() -> None:
    net = gen_grid(nx=8, ny=5, spacing_km=0.5)
    # two riders already aboard, headed to nodes 14 and 22
    riders = {1: onboard(1, o=8, d=14, direct=net.shortest_dist(8, 14)),
              2: onboard(2, o=9, d=22, direct=net.shortest_dist(9, 22))}
    v = Vehicle(id=0, capacity=5, node=10,
                path=[Stop(StopKind.DESTINATION, 1, 14),
                      Stop(StopKind.DESTINATION, 2, 22)])
    new = Request(id=3, t=0.0, n=1, o=12, d=21,
                  direct_dist=net.shortest_dist(12, 21))

    print(f"vehicle at node 10, stops [14, 22]; new rider 12 -> 21 "
          f"(direct {new.direct_dist:.1f} km)")
    trial = VehicleTrial(VehiclePath(net, v, riders),
                         RequestRows(net, new, SimConfig(), check_buffer=True))
    cands = [trial.evaluate(i, j)
             for i, j, _ in path_table(len(v.path)).positions]
    print(f"\n{len(cands)} candidate splices:")
    print("   i  j  case   added km")
    for c in sorted(cands, key=lambda c: (c.cost, c.i, c.j)):
        cost = f"{c.cost:8.2f}" if c.cost != float("inf") else "     inf"
        print(f"  {c.i:2d} {c.j:2d}   {c.case}   {cost}")

    best = min(cands, key=lambda c: c.cost)
    print(f"\ncheapest feasible: ({best.i}, {best.j}) case {best.case}, "
          f"{best.cost:.2f} km added")
    print("infeasible rows kept a committed rider within the detour bound "
          "only by breaking it, so they carry inf")


if __name__ == "__main__":
    main()

"""Search-region geometry: the feasibility ellipse and its bounding rectangle.

A rider heading from o to d with a detour allowance can only be diverted
through points whose two-leg path o -> x -> d stays within the allowed
length.  That set is an ellipse with foci o and d.  The planner works with
the circumscribing rectangle instead, which costs a fixed 4/pi area overhead
per region but turns containment tests into two coordinate comparisons.
"""
from poolsim.analysis import eta_monte_carlo
from poolsim.geometry import Point, euclid, make_psa_rect, rect_contains


def main() -> None:
    o = Point(0.0, 0.0)
    d = Point(4.0, 0.0)
    direct = 4.0
    detour = 0.2
    budget = (1.0 + detour) * direct

    rect = make_psa_rect(o, d, budget)
    print("trip o=(0,0) -> d=(4,0), direct 4.0 km, detour allowance 20%")
    print(f"  path budget        : {budget:.3f} km")
    print(f"  rectangle center   : ({rect.cx:.2f}, {rect.cy:.2f})")
    print(f"  rectangle half-len : {rect.half_len:.4f} km")
    print(f"  rectangle half-wid : {rect.half_wid:.4f} km")
    print(f"  rectangle area     : {rect.area:.4f} km^2")

    probes = [Point(2.0, 1.0), Point(0.2, 1.2), Point(4.7, 0.2)]
    print("\npoint membership (ellipse vs rectangle):")
    for p in probes:
        in_e = euclid(o, p) + euclid(p, d) <= budget
        in_r = rect_contains(rect, *p)
        tag = {(True, True): "inside both",
               (False, True): "rectangle only (the 4/pi overhead)",
               (False, False): "outside both"}[(in_e, in_r)]
        print(f"  ({p.x:5.2f}, {p.y:5.2f}) -> {tag}")

    est = eta_monte_carlo(None, (o, d, budget), samples=200_000, seed=11).eta
    print(f"\nmeasured rectangle/ellipse area ratio : {est:.5f}")
    print(f"4/pi                                  : {4 / 3.141592653589793:.5f}")

    # a scheduled-but-not-picked-up rider adds a second region around the
    # pickup leg; the union is what the vehicle actually searches
    ps = Point(-2.0, 1.0)
    alpha = (ps, o, 6.0)
    beta = (o, d, budget)
    union = eta_monte_carlo(alpha, beta, samples=200_000, seed=11)
    print("\nwith a pickup-leg region (vehicle at (-2,1), 6 km buffer):")
    print(f"  rectangle union overhead eta : {union.eta:.4f}")
    print(f"  closed-form bounds           : [{union.lo:.4f}, {union.hi:.4f}]")


if __name__ == "__main__":
    main()

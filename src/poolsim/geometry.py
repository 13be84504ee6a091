"""Planar search-area geometry for insertion pruning.

A vehicle's potential search area is built from rectangles that circumscribe
detour ellipses: for foci f1, f2 and a path-length budget ``sum_bound``, the
ellipse is {x : |x - f1| + |x - f2| <= sum_bound} and the circumscribing
rectangle shares its center and axes.  ``make_psa_rect`` is its one builder:
a flat ``PsaRect`` of seven floats, which the scheduler's gate, the tests here
and the Monte Carlo kernel in :mod:`poolsim.analysis` all read the same way.
Membership tests against the rectangle are the cheap filter used by the
scheduler; only the Monte Carlo area-ratio estimator tests points against the
ellipse itself.

All coordinates are planar km.  Containment is closed (boundary points are in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class Point(NamedTuple):
    x: float
    y: float


def euclid(a: Point, b: Point) -> float:
    """Straight-line distance between two points, km."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class PsaRect(NamedTuple):
    """Rectangle circumscribing a detour ellipse, as flat fields.

    ``(cx, cy)`` is the center and ``(ax, ay)`` the unit vector along the
    major (focal) direction; the rectangle spans +/- half_len along it and
    +/- half_wid across it.  Build one with ``make_psa_rect``.
    """

    cx: float
    cy: float
    ax: float
    ay: float
    half_len: float
    half_wid: float
    area: float


def make_psa_rect(f1: Point, f2: Point, sum_bound: float) -> PsaRect | None:
    """Circumscribing rectangle of the ellipse {x : E(f1,x)+E(x,f2) <= sum_bound}.

    Returns None when the bound is infeasible (sum_bound < E(f1, f2)), i.e.
    the ellipse is empty.  Coincident foci give an axis-aligned square of side
    sum_bound.  Degenerate sum_bound == E(f1, f2) gives a zero-width rectangle
    covering exactly the focal segment.
    """
    if sum_bound < 0:
        raise ValueError(f"sum_bound must be nonnegative, got {sum_bound}")
    e = euclid(f1, f2)
    if sum_bound < e:
        return None
    half_len = sum_bound / 2.0
    # minor semi-axis b = sqrt(a^2 - c^2) with a = sum_bound/2, c = e/2
    half_wid = math.sqrt(max(sum_bound * sum_bound - e * e, 0.0)) / 2.0
    if e > 0.0:
        ax, ay = (f2[0] - f1[0]) / e, (f2[1] - f1[1]) / e
    else:
        ax, ay = 1.0, 0.0
    return PsaRect((f1[0] + f2[0]) / 2.0, (f1[1] + f2[1]) / 2.0, ax, ay,
                   half_len, half_wid, 4.0 * half_len * half_wid)


def rect_contains(rect: PsaRect, x: float, y: float) -> bool:
    """Closed containment of (x, y): the one point-in-rectangle test."""
    cx, cy, ax, ay, half_len, half_wid, _ = rect
    dx = x - cx
    dy = y - cy
    return (abs(dx * ax + dy * ay) <= half_len
            and abs(-dx * ay + dy * ax) <= half_wid)


def rect_corners(rect: PsaRect) -> list[Point]:
    """The four corners, counterclockwise from +axis +perp."""
    cx, cy, ax, ay, hl, hw, _ = rect
    px, py = -ay, ax
    return [
        Point(cx + sx * hl * ax + sy * hw * px, cy + sx * hl * ay + sy * hw * py)
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))
    ]


def rect_bbox(rect: PsaRect) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box (xmin, ymin, xmax, ymax)."""
    xs, ys = zip(*rect_corners(rect))
    return min(xs), min(ys), max(xs), max(ys)


# A vehicle with committed stops has a potential search area of three kinds,
# by the state of its furthest request (the one whose destination is the last
# planned stop); an idle vehicle has none, since its one candidate, the tail
# append, reads no area:
#   single  furthest request already picked up: one rectangle around its own
#           origin-destination ellipse
#   union   furthest request waiting with its pickup-buffer guarantee: the
#           pickup-reachability rectangle (alpha, may itself be infeasible and
#           thus None) united with the origin-destination rectangle (beta)
#   open    furthest request waiting without the guarantee: the leg up to its
#           pickup is unconstrained, so no rectangle can prune soundly and the
#           area admits every point

PSA_SINGLE = "single"
PSA_UNION = "union"
PSA_OPEN = "open"


@dataclass(frozen=True)
class VehiclePsa:
    kind: str
    alpha: PsaRect | None = None
    beta: PsaRect | None = None
    furthest_request_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (PSA_SINGLE, PSA_UNION, PSA_OPEN):
            raise ValueError(f"unknown psa kind {self.kind!r}")
        if self.kind == PSA_OPEN and (self.alpha or self.beta) is not None:
            raise ValueError("open psa cannot carry rectangles")
        if self.kind in (PSA_SINGLE, PSA_UNION) and self.beta is None:
            raise ValueError(f"{self.kind} psa requires a beta rectangle")
        if self.kind == PSA_SINGLE and self.alpha is not None:
            raise ValueError("single psa carries no alpha rectangle")

    @classmethod
    def open_area(cls, request_id: int) -> "VehiclePsa":
        return cls(kind=PSA_OPEN, furthest_request_id=request_id)

    @classmethod
    def single(cls, beta: PsaRect, request_id: int) -> "VehiclePsa":
        return cls(kind=PSA_SINGLE, beta=beta, furthest_request_id=request_id)

    @classmethod
    def union(cls, alpha: PsaRect | None, beta: PsaRect,
              request_id: int) -> "VehiclePsa":
        return cls(kind=PSA_UNION, alpha=alpha, beta=beta,
                   furthest_request_id=request_id)


def psa_contains(psa: VehiclePsa, p: Point) -> bool:
    """Membership in the vehicle's search area.

    Open areas contain everything; a union with an infeasible alpha
    component degrades to its beta rectangle alone.
    """
    if psa.kind == PSA_OPEN:
        return True
    x, y = p
    return (rect_contains(psa.beta, x, y)
            or psa.alpha is not None and rect_contains(psa.alpha, x, y))

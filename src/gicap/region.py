"""Exact 2-D rate-region polytope engine.

A rate region is a down-closed convex polytope in the nonnegative
quadrant, given by half-plane constraints ``c1*R1 + c2*R2 <= rhs`` with
nonnegative coefficients (plus the implicit axes R1 >= 0, R2 >= 0).
Constraint counts here are tiny (<= ~10), so vertex enumeration is done
by brute-force pairwise line intersection with feasibility filtering.

Geometric predicates use an absolute tolerance of 1e-9 bits throughout;
all quantities handled here are at most O(10^2) bits, so double
precision sits around 1e-12 relative error, well under that tolerance.

The constraint list is ordered and never silently pruned: downstream
per-family gap audits pair inner and outer constraints by position.
:func:`normalize` provides an explicit cleanup pass for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import ContainmentError, InvalidParameterError, UnboundedRegionError

__all__ = [
    "DEFAULT_TOL",
    "RateConstraint",
    "RateRegion",
    "Vertex",
    "certificates",
    "contains",
    "intersect",
    "normalize",
    "one_bit_certificate",
    "region_to_jsonable",
    "sigfig",
    "symmetric_rate",
    "vertices",
    "within_half_certificate",
]

DEFAULT_TOL = 1e-9

# Determinant threshold below which two constraint lines are treated as
# parallel (coefficients here are O(1)).
_PARALLEL_EPS = 1e-12


class Vertex(NamedTuple):
    r1: float
    r2: float


@dataclass(frozen=True)
class RateConstraint:
    """Half-plane constraint c1*R1 + c2*R2 <= rhs (rhs in bits)."""

    c1: float
    c2: float
    rhs: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c1) and math.isfinite(self.c2) and math.isfinite(self.rhs)):
            raise InvalidParameterError(f"constraint has non-finite entries: {self}")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise InvalidParameterError(f"constraint coefficients must be >= 0: {self}")
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise InvalidParameterError("constraint must involve at least one rate")


@dataclass(frozen=True, eq=True)
class RateRegion:
    """Ordered half-plane representation of a down-closed rate polytope."""

    constraints: tuple[RateConstraint, ...]
    _vcache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __init__(self, constraints: Iterable[RateConstraint]):
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "_vcache", {})
        if not self.constraints:
            raise InvalidParameterError("a rate region needs at least one constraint")

    @property
    def is_bounded(self) -> bool:
        return any(c.c1 > 0.0 for c in self.constraints) and any(
            c.c2 > 0.0 for c in self.constraints
        )

    # Convenience method forms; the module-level functions are the API.
    def vertices(self, tol: float = DEFAULT_TOL) -> list[Vertex]:
        return vertices(self, tol)

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        return contains(self, point, tol)


def vertices(region: RateRegion, tol: float = DEFAULT_TOL) -> list[Vertex]:
    """Enumerate the extreme points of a bounded region.

    Returns the boundary chain sorted by increasing R1 then decreasing R2
    (the origin itself is dropped when other vertices exist), deduplicated
    at ``tol``.  Raises :class:`UnboundedRegionError` when no constraint
    caps one of the rates.
    """
    cached = region._vcache.get(tol)
    if cached is not None:
        return cached
    if not region.is_bounded:
        raise UnboundedRegionError(
            "region is unbounded: need a positive coefficient on each rate"
        )
    rows = [(c.c1, c.c2, c.rhs) for c in region.constraints]
    caps = [(a, b, r + tol) for a, b, r in rows]
    lines = rows + [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    pts: list[tuple[float, float]] = []
    for i, (a1, b1, r1) in enumerate(lines, 1):
        for a2, b2, r2 in lines[i:]:
            det = a1 * b2 - a2 * b1
            if -_PARALLEL_EPS < det < _PARALLEL_EPS:
                continue
            x = (r1 * b2 - r2 * b1) / det
            y = (a1 * r2 - a2 * r1) / det
            if x < -tol or y < -tol:
                continue
            for ca, cb, cap in caps:
                if ca * x + cb * y > cap:
                    break
            else:
                pts.append((x, y))

    # Dedup within tol (Chebyshev); point counts are tiny.
    unique: list[tuple[float, float]] = []
    for p in pts:
        for q in unique:
            if abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol:
                break
        else:
            unique.append(p)
    if len(unique) > 1:
        unique = [p for p in unique if not (abs(p[0]) <= tol and abs(p[1]) <= tol)]
    # Sort by increasing r1 then decreasing r2.  r1 values are snapped into
    # tol-groups first: vertices on a vertical edge agree in r1 only up to
    # solver rounding, and a raw sort could flip them and twist the chain.
    unique.sort(key=lambda p: p[0])
    keyed = []
    anchor = -math.inf
    for x, y in unique:
        if x - anchor > tol:
            anchor = x
        keyed.append((anchor, -y, x, y))
    keyed.sort()
    out = [Vertex(x + 0.0, y + 0.0) for _, _, x, y in keyed]  # normalizes -0.0
    region._vcache[tol] = out
    return out


def contains(region: RateRegion, point, tol: float = DEFAULT_TOL) -> bool:
    """Membership test: every constraint satisfied within ``tol`` bits."""
    r1, r2 = point
    if r1 < -tol or r2 < -tol:
        return False
    return _satisfies(region, r1, r2, tol)


def _satisfies(region: RateRegion, r1: float, r2: float, tol: float) -> bool:
    """Every half-plane holds at (r1, r2) within ``tol``; the axes are not checked."""
    for c in region.constraints:
        if c.c1 * r1 + c.c2 * r2 > c.rhs + tol:
            return False
    return True


def symmetric_rate(region: RateRegion) -> float:
    """Largest t with (t, t) in the region: min over constraints of rhs/(c1+c2)."""
    return min(c.rhs / (c.c1 + c.c2) for c in region.constraints)


def intersect(a: RateRegion, b: RateRegion) -> RateRegion:
    """Concatenate constraint lists; redundant constraints are kept."""
    return RateRegion(a.constraints + b.constraints)


def certificates(
    inner: RateRegion, outer: RateRegion, tol: float = DEFAULT_TOL
) -> tuple[bool, bool]:
    """Both gap certificates, ``(one_bit, within_half)``, from one containment check.

    One bit: for every vertex v of the outer region the pulled-back point
    (v.r1 - 1, v.r2 - 1) satisfies every inner constraint within ``tol``.
    A pulled-back coordinate may be negative (that user falls silent);
    only the half-plane system is evaluated, since clamping a negative
    coordinate up to zero would add spurious weight to the weighted-sum
    constraints and reject channels the guarantee actually covers.

    Within half: every outer vertex, scaled by 1/2 per coordinate, lies in
    the inner region, so doubling any inner boundary point exits ``outer``.

    Vertex checking suffices: the constraints are linear and the outer
    region is the convex hull of its vertices, so each family's maximum
    over the outer region is attained at a vertex.

    Raises :class:`ContainmentError` if ``inner`` is not contained in
    ``outer`` -- an achievable region exceeding its outer bound means a
    formula bug, not a gap result.
    """
    for v in vertices(inner, tol):
        if not contains(outer, v, tol):
            raise ContainmentError(
                f"inner vertex {v} violates the outer bound (formula bug upstream)"
            )
    outer_vertices = vertices(outer, tol)
    one_bit = all(
        _satisfies(inner, v.r1 - 1.0, v.r2 - 1.0, tol) for v in outer_vertices
    )
    within_half = all(
        contains(inner, (0.5 * v.r1, 0.5 * v.r2), tol) for v in outer_vertices
    )
    return one_bit, within_half


def one_bit_certificate(
    inner: RateRegion, outer: RateRegion, tol: float = DEFAULT_TOL
) -> bool:
    """Check that ``inner`` reaches within one bit of ``outer``; see :func:`certificates`."""
    return certificates(inner, outer, tol)[0]


def within_half_certificate(
    inner: RateRegion, outer: RateRegion, tol: float = DEFAULT_TOL
) -> bool:
    """Check that doubling any inner boundary point exits ``outer``; see :func:`certificates`."""
    return certificates(inner, outer, tol)[1]


def normalize(region: RateRegion, tol: float = DEFAULT_TOL) -> RateRegion:
    """Display cleanup: drop duplicate and same-direction dominated constraints.

    Two constraints with proportional coefficient vectors bound the same
    direction; only the tighter one is kept.  Ordering of the survivors
    follows first appearance.  This is never applied implicitly.
    """
    kept: list[RateConstraint] = []
    for c in region.constraints:
        norm = math.hypot(c.c1, c.c2)
        dir1, dir2, scaled = c.c1 / norm, c.c2 / norm, c.rhs / norm
        same_direction = False
        for k, existing in enumerate(kept):
            en = math.hypot(existing.c1, existing.c2)
            if abs(existing.c1 / en - dir1) <= tol and abs(existing.c2 / en - dir2) <= tol:
                same_direction = True
                if scaled < existing.rhs / en - tol:
                    kept[k] = c
                break
        if not same_direction:
            kept.append(c)
    return RateRegion(kept)


def sigfig(x: float, digits: int = 12) -> float:
    """Round to ``digits`` significant digits (serialization contract)."""
    if x == 0.0 or not math.isfinite(x):
        return x + 0.0
    return float(f"{x:.{digits}g}")


def region_to_jsonable(region: RateRegion, tol: float = DEFAULT_TOL) -> dict:
    """Canonical JSON shape: constraints plus the enumerated vertex chain."""
    return {
        "constraints": [
            {"c1": sigfig(c.c1), "c2": sigfig(c.c2), "rhs": sigfig(c.rhs)}
            for c in region.constraints
        ],
        "vertices": [[sigfig(v.r1), sigfig(v.r2)] for v in vertices(region, tol)],
    }

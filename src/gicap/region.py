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
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ContainmentError, DomainError, InvalidParameterError, UnboundedRegionError

__all__ = [
    "DEFAULT_TOL",
    "RateConstraint",
    "RateRegion",
    "Vertex",
    "certificates",
    "contains",
    "log2_rows",
    "one_bit_certificate",
    "region_from_rows",
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


@dataclass(frozen=True)
class RateRegion:
    """Ordered half-plane representation of a down-closed rate polytope."""

    constraints: tuple[RateConstraint, ...]

    def __post_init__(self) -> None:
        # callers pass lists and generators; store the immutable tuple
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise InvalidParameterError("a rate region needs at least one constraint")


def region_from_rows(coeffs, rhs) -> RateRegion:
    """Region with a constraint ``c1*R1 + c2*R2 <= r`` per pair of ``(c1, c2)`` and ``r``."""
    return RateRegion(RateConstraint(c1, c2, r) for (c1, c2), r in zip(coeffs, rhs))


def log2_rows(args) -> tuple[float, ...]:
    """Each row's rhs: the sum of ``math.log2`` over its arguments, left to right.

    An explicit fold rather than ``sum``, which adds floats with compensation
    from Python 3.12 on and so can round ``a + b + c`` differently.
    """
    return tuple(functools.reduce(operator.add, map(math.log2, row)) for row in args)


def vertices(region: RateRegion) -> list[Vertex]:
    """Enumerate the extreme points of a bounded region.

    Returns the boundary chain sorted by increasing R1 then decreasing R2
    (the origin itself is dropped when other vertices exist), deduplicated
    at :data:`DEFAULT_TOL`.  Raises :class:`UnboundedRegionError` when no
    constraint caps one of the rates, and :class:`DomainError` when a vertex
    is not finite (its determinant or coordinates overflow).
    """
    rows = [(c.c1, c.c2, c.rhs) for c in region.constraints]
    if not (any(a > 0.0 for a, _, _ in rows) and any(b > 0.0 for _, b, _ in rows)):
        raise UnboundedRegionError(
            "region is unbounded: need a positive coefficient on each rate"
        )
    tol = DEFAULT_TOL
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
    if not all(math.isfinite(x) and math.isfinite(y) for _, _, x, y in keyed):
        raise DomainError(f"a vertex of {region} is not finite")
    return [Vertex(x + 0.0, y + 0.0) for _, _, x, y in keyed]  # normalizes -0.0


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


def certificates(inner: RateRegion, outer: RateRegion) -> tuple[bool, bool]:
    """Both gap certificates, ``(one_bit, within_half)``, from one containment check.

    One bit: for every vertex v of the outer region the pulled-back point
    (v.r1 - 1, v.r2 - 1) satisfies every inner constraint within
    :data:`DEFAULT_TOL`.  A pulled-back coordinate may be negative (that
    user falls silent); only the half-plane system is evaluated, since
    clamping a negative coordinate up to zero would add spurious weight to
    the weighted-sum constraints and reject channels the guarantee
    actually covers.

    Within half: every outer vertex, scaled by 1/2 per coordinate, lies in
    the inner region, so doubling any inner boundary point exits ``outer``.

    Vertex checking suffices: the constraints are linear and the outer
    region is the convex hull of its vertices, so each family's maximum
    over the outer region is attained at a vertex.

    Raises :class:`ContainmentError` if ``inner`` is not contained in
    ``outer`` -- an achievable region exceeding its outer bound means a
    formula bug, not a gap result.
    """
    for v in vertices(inner):
        if not contains(outer, v):
            raise ContainmentError(
                f"inner vertex {v} violates the outer bound (formula bug upstream)"
            )
    outer_vertices = vertices(outer)
    one_bit = all(
        _satisfies(inner, v.r1 - 1.0, v.r2 - 1.0, DEFAULT_TOL) for v in outer_vertices
    )
    within_half = all(
        contains(inner, (0.5 * v.r1, 0.5 * v.r2)) for v in outer_vertices
    )
    return one_bit, within_half


def one_bit_certificate(inner: RateRegion, outer: RateRegion) -> bool:
    """Check that ``inner`` reaches within one bit of ``outer``; see :func:`certificates`."""
    return certificates(inner, outer)[0]


def within_half_certificate(inner: RateRegion, outer: RateRegion) -> bool:
    """Check that doubling any inner boundary point exits ``outer``; see :func:`certificates`."""
    return certificates(inner, outer)[1]


def sigfig(x: float) -> float:
    """Round to 12 significant digits (serialization contract)."""
    if x == 0.0 or not math.isfinite(x):
        return x + 0.0
    return float(f"{x:.12g}")


def region_to_jsonable(region: RateRegion) -> dict:
    """Canonical JSON shape: constraints plus the enumerated vertex chain."""
    return {
        "constraints": [
            {"c1": sigfig(c.c1), "c2": sigfig(c.c2), "rhs": sigfig(c.rhs)}
            for c in region.constraints
        ],
        "vertices": [[sigfig(v.r1), sigfig(v.r2)] for v in vertices(region)],
    }

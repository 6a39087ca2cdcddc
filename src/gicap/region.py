"""Exact 2-D rate-region polytope engine.

A rate region is a down-closed convex polytope in the nonnegative
quadrant, given by half-plane constraints ``c1*R1 + c2*R2 <= rhs`` with
nonnegative coefficients (plus the implicit axes R1 >= 0, R2 >= 0).
Constraint counts here are tiny (<= ~10), so vertex enumeration is done
by brute-force pairwise line intersection with feasibility filtering.

Geometric predicates use a tolerance of 1e-9 bits (relative to vertex
coordinates above 1); rates here are at most O(10^2) bits, so double
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

# Two constraint lines are parallel when their determinant a1*b2 - a2*b1 is
# at most this share of a1*b2 + a2*b1, whatever the coefficients' scale.
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


def log2_rows(args, log2=math.log2) -> tuple:
    """Each row's rhs: the sum of ``log2`` over its arguments, left to right.

    An explicit fold rather than ``sum``, which adds floats with compensation
    from Python 3.12 on and so can round ``a + b + c`` differently.  Numpy
    arguments take the kernel's ``log2`` hook (:func:`gicap.kernel._rows`).
    """
    return tuple(functools.reduce(operator.add, map(log2, row)) for row in args)


def vertices(region: RateRegion) -> list[Vertex]:
    """Enumerate the extreme points of a bounded region.

    Returns the boundary chain sorted by increasing R1 then decreasing R2
    (the origin itself is dropped when other vertices exist), deduplicated
    at :data:`DEFAULT_TOL` relative to coordinates above 1.  Raises
    :class:`UnboundedRegionError` when no constraint caps one of the rates,
    and :class:`DomainError` when a vertex is not finite (its determinant or
    coordinates overflow).
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
            if abs(det) <= _PARALLEL_EPS * (a1 * b2 + a2 * b1):  # coefficients are >= 0
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

    # Dedup within tol, relative to each coordinate above 1 as the sort snaps r1.
    unique: list[tuple[float, float]] = []
    for x, y in pts:
        for u, v in unique:
            if abs(x - u) <= tol * max(1.0, abs(u)) and abs(y - v) <= tol * max(1.0, abs(v)):
                break
        else:
            unique.append((x, y))
    if len(unique) > 1:
        unique = [p for p in unique if not (abs(p[0]) <= tol and abs(p[1]) <= tol)]
    # Sort by increasing r1 then decreasing r2.  r1 values are snapped into
    # groups relative to r1 first: vertices on a vertical edge agree in r1
    # only up to solver rounding, and a raw sort could flip them and twist the
    # chain.  Snapping cannot reorder vertices really apart in r1: the one
    # with the smaller r1 never has the smaller r2.
    unique.sort(key=lambda p: p[0])
    keyed = []
    anchor = -math.inf
    for x, y in unique:
        if x - anchor > tol * max(1.0, x):
            anchor = x
        keyed.append((anchor, -y, x, y))
    keyed.sort()
    if not all(math.isfinite(x) and math.isfinite(y) for _, _, x, y in keyed):
        raise DomainError(f"a vertex of {region} is not finite")
    return [Vertex(x + 0.0, y + 0.0) for _, _, x, y in keyed]  # normalizes -0.0


def contains(region: RateRegion, point, tol: float = DEFAULT_TOL) -> bool:
    """Membership test: every constraint satisfied within ``tol`` bits.  Each
    test fails on NaN, so a point with a NaN coordinate is outside."""
    r1, r2 = point
    return r1 >= -tol and r2 >= -tol and all(
        c.c1 * r1 + c.c2 * r2 <= c.rhs + tol for c in region.constraints
    )


def symmetric_rate(region: RateRegion) -> float:
    """Largest t with (t, t) in the region: min over constraints of rhs/(c1+c2)."""
    return min(c.rhs / (c.c1 + c.c2) for c in region.constraints)


def certificates(inner: RateRegion, outer: RateRegion) -> tuple[bool, bool]:
    """Both gap certificates, ``(one_bit, within_half)``, after one containment check.

    Each compares, per coefficient family ``c = (c1, c2)``, the support
    function ``h_P(c)`` (the largest ``c1*R1 + c2*R2`` over region P) with
    the smallest rhs ``m_P(c)`` of P's rows of that family, within
    :data:`DEFAULT_TOL`:

    * contained: ``h_inner(c) <= m_outer(c)`` for each outer family;
    * one bit: ``h_outer(c) - (c1 + c2) <= m_inner(c)`` for each inner
      family: every outer point less one bit per user meets every inner
      row.  A coordinate pulled below zero (that user falls silent) is not
      clamped, which would reject channels the guarantee covers;
    * within half: ``h_outer(c) / 2 <= m_inner(c)`` for each inner family:
      every outer point halved lies in ``inner``.

    By LP duality, for a region ``{R >= 0 : a_k . R <= b_k}`` that holds
    the origin and caps both rates, ``h(c)`` is the least ``lambda . b``
    over ``lambda >= 0`` with ``sum_k lambda_k a_k >= c``.  That dual has
    one constraint per rate, so a basic optimum has at most two nonzero
    weights, and rows sharing coefficients count only through the smallest
    rhs.  So ``h(c)`` is the least of a fixed list of combinations of at
    most two family minima (:func:`_support_table`), and one rule
    (:func:`_verdicts`) decides floats and numpy chunks alike.

    Raises :class:`UnboundedRegionError` when a region leaves a rate
    uncapped, and :class:`ContainmentError` if ``inner`` is not contained in
    ``outer``: an achievable region beyond its outer bound is a formula bug.
    """
    contained, one_bit, within_half = _verdicts(*(
        _family_minima(((c.c1, c.c2), c.rhs) for c in region.constraints)
        for region in (inner, outer)
    ))
    if not contained:
        raise ContainmentError("the inner region violates the outer bound (formula bug upstream)")
    return one_bit, within_half


def _family_minima(rows, minimum=min) -> dict:
    """The smallest rhs of each coefficient pair over ``(coeffs, rhs)`` rows,
    keyed in order of first appearance; array rhs take ``minimum=np.minimum``."""
    mins: dict = {}
    for c, r in rows:
        mins[c] = minimum(mins[c], r) if c in mins else r
    return mins


@functools.lru_cache(maxsize=256)  # bounded: library callers may pass any coefficients
def _support_table(families, c) -> tuple:
    """The basic dual solutions for direction ``c`` over the coefficient
    pairs ``families``, each a tuple of ``(family, weight > 0)``: a family
    that covers ``c`` alone, and a pair whose exact 2x2 solve gives both
    weights > 0.  Raises :class:`UnboundedRegionError` unless the families
    cap both rates; then the table is never empty."""
    from fractions import Fraction  # here, so commands that certify nothing never import it

    if not (any(a1 > 0.0 for a1, _ in families) and any(a2 > 0.0 for _, a2 in families)):
        raise UnboundedRegionError("region is unbounded: need a positive coefficient on each rate")
    c1, c2 = map(Fraction, c)
    table = []
    for k, a in enumerate(families):
        a1, a2 = map(Fraction, a)
        if (a1 or not c1) and (a2 or not c2):  # a alone covers c
            weight = max(c1 / a1 if a1 else 0, c2 / a2 if a2 else 0)
            table.append(((a, float(weight)),))
        for b in families[k + 1:]:
            b1, b2 = map(Fraction, b)
            det = a1 * b2 - b1 * a2
            if det:
                wa, wb = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
                if wa > 0 and wb > 0:
                    table.append(((a, float(wa)), (b, float(wb))))
    return tuple(table)


def _support(mins: dict, c, minimum=min):
    """``h(c)``, the largest ``c . R`` over the region with family minima ``mins``."""
    h = None
    for entry in _support_table(tuple(mins), c):
        total = None
        for family, weight in entry:
            term = mins[family] if weight == 1.0 else weight * mins[family]
            total = term if total is None else total + term
        h = total if h is None else minimum(h, total)
    return h


def _verdicts(inner: dict, outer: dict, minimum=min):
    """``(contained, one_bit, within_half)`` of the regions with family minima
    ``inner`` and ``outer``; see :func:`certificates`."""
    contained = one_bit = within_half = True
    for c, m in outer.items():
        contained = contained & (_support(inner, c, minimum) <= m + DEFAULT_TOL)
    for (c1, c2), m in inner.items():
        h = _support(outer, (c1, c2), minimum)
        one_bit = one_bit & (h - (c1 + c2) <= m + DEFAULT_TOL)
        within_half = within_half & (0.5 * h <= m + DEFAULT_TOL)
    return contained, one_bit, within_half


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

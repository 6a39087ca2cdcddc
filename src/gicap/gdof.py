"""Generalized degrees of freedom: the d_sym curve, gdof regions, baselines.

In the interference-limited limit (all ratios growing with fixed log
slopes) rates scale like d_i * log2 SNR_i.  The slopes are

    alpha1 = log SNR2 / log SNR1,
    alpha2 = log INR1 / log SNR1,
    alpha3 = log INR2 / log SNR1,

and gdof regions live in (d1, d2) with constraints of the form
``c1*d1 + (c2*alpha1)*d2 <= rhs``, reusing the rate-region machinery.
All regions here sit inside the unit box.

The slope class is ``TAG_BY_STRENGTH[alpha2 >= alpha1, alpha3 >= 1]``,
the finite-SNR class split: alpha2 >= alpha1 means INR1 >= SNR2 and
alpha3 >= 1 means INR2 >= SNR1.

The region constraint sets are the first-order (log-domain) expansions
of the finite-SNR bounds: each row is read off the class's
``bounds.outer_args`` row, evaluated on log slopes by max-plus rules
(both mixed orientations included, since ``outer_args`` swaps the
users).  :func:`first_order_expansion` reads the same rows in bits for a
concrete channel, and
:func:`finite_snr_convergence` checks the defining limit at finite scale
by sandwiching d_sym between the scaled achievable rate and the scaled
best upper bound.  Limits are always computed from closed forms, never
by numerically driving SNR to infinity.

The (x)+ clamp appears exactly where the expansions require it (the
one-sided sum terms) and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import bounds as _bounds
from . import hk as _hk
from .channel import TAG_BY_STRENGTH, ChannelParams, InterferenceTag, _power_inr, classify
from .errors import ClassMismatchError, DomainError, _real
from .region import RateConstraint, RateRegion

__all__ = [
    "BaselineScheme",
    "FiniteSnrSandwich",
    "GdofParams",
    "baseline_gdof",
    "d_sym",
    "finite_snr_convergence",
    "first_order_expansion",
    "mixed_gdof_region",
    "one_sided_gdof_region",
    "strong_gdof_region",
    "symmetric_gdof_region",
    "weak_gdof_region",
]

_LOG2 = math.log2

@dataclass(frozen=True)
class GdofParams:
    """Log-slope triple (alpha1, alpha2, alpha3); alpha1 > 0, others >= 0."""

    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self) -> None:
        _real("alpha1", self.alpha1, above=True)
        _real("alpha2", self.alpha2)
        _real("alpha3", self.alpha3)


def d_sym(alpha_value: float) -> float:
    """Symmetric degrees of freedom per user: the W curve.

    1-a on [0,1/2], a on [1/2,2/3], 1-a/2 on [2/3,1], a/2 on [1,2], and 1
    beyond 2.  Adjacent branches agree at the breakpoints; branch checks
    are ordered so each breakpoint evaluates exactly.
    """
    a = _real("alpha", alpha_value)
    if a <= 0.5:
        return 1.0 - a
    if a <= 2.0 / 3.0:
        return a
    if a <= 1.0:
        return 1.0 - a / 2.0
    if a <= 2.0:
        return a / 2.0
    return 1.0


class _Slope:
    """A ratio known only by its log slope ``value``: its ``terms`` summed left to right.

    ``+`` keeps the larger slope as one term; a positive float constant,
    always the left operand in ``bounds.outer_args``, has slope 0 of the
    slopes' own type, so ``Fraction`` slopes stay exact.  ``x / y`` keeps
    x's terms, then y's negated.
    """

    __slots__ = ("value", "terms")

    def __init__(self, value, terms=None):
        self.value = value
        self.terms = (value,) if terms is None else terms

    def __add__(self, other):
        return _Slope(max(self.value, other.value))

    def __radd__(self, constant):
        return _Slope(max(type(self.value)(0), self.value))

    def __truediv__(self, other):
        value, terms = self.value, list(self.terms)
        for term in other.terms:
            value -= term
            terms.append(-term)
        return _Slope(value, terms)


def _expansion_rows(tag: InterferenceTag, ls1, ls2, li1, li2) -> list[tuple[float, float, float]]:
    """``(c1, c2, rhs)`` of the ``bounds.outer_args`` rows of class ``tag`` on log slopes.

    Each rhs is the left-to-right sum of the terms of all the row's
    arguments, so it rounds as the paper's closed form does: weak row 6 is
    ``((A + B) + ls1) - li2``.  It is homogeneous of degree one in the logs,
    so the same rows serve the gdof normalization (ls1 = 1) and the
    bit-domain expansion.
    """
    coeffs, args = _bounds.outer_args(_Slope(ls1), _Slope(ls2), _Slope(li1), _Slope(li2), tag)
    rows = []
    for (c1, c2), row in zip(coeffs, args):
        rhs, *terms = [term for arg in row for term in arg.terms]
        for term in terms:
            rhs += term
        rows.append((c1, c2, rhs))
    return rows


def _rows_to_gdof(rows, alpha1: float) -> RateRegion:
    constraints = []
    for m1, m2, rhs in rows:
        if m1 == 0.0 and m2 == 1.0:
            constraints.append(RateConstraint(0.0, 1.0, rhs / alpha1))
        else:
            constraints.append(RateConstraint(m1, m2 * alpha1, rhs))
    return RateRegion(constraints)


def _slope_tag(g: GdofParams) -> InterferenceTag:
    return TAG_BY_STRENGTH[g.alpha2 >= g.alpha1, g.alpha3 >= 1.0]


def _class_gdof_region(g: GdofParams, tag: InterferenceTag) -> RateRegion:
    """Gdof region of class ``tag``; slopes of another class raise."""
    actual = _slope_tag(g)
    if tag is not actual:
        raise ClassMismatchError(f"{g} has {actual.value} slopes, got tag {tag!r}")
    return _rows_to_gdof(_expansion_rows(tag, 1.0, g.alpha1, g.alpha2, g.alpha3), g.alpha1)


def weak_gdof_region(g: GdofParams) -> RateRegion:
    """Seven-constraint gdof region for weak interference slopes."""
    return _class_gdof_region(g, InterferenceTag.WEAK)


def mixed_gdof_region(g: GdofParams) -> RateRegion:
    """Five-constraint gdof region, strong-at-receiver-1 orientation."""
    return _class_gdof_region(g, InterferenceTag.MIXED_STRONG_AT_1)


def strong_gdof_region(g: GdofParams) -> RateRegion:
    """Gdof region for strong interference slopes (both MAC cuts)."""
    return _class_gdof_region(g, InterferenceTag.STRONG)


def symmetric_gdof_region(alpha_value: float) -> RateRegion:
    """Gdof region of the symmetric channel at interference level alpha."""
    a = _real("alpha", alpha_value)
    unit = [RateConstraint(1.0, 0.0, 1.0), RateConstraint(0.0, 1.0, 1.0)]
    if a >= 1.0:
        return RateRegion(unit + [RateConstraint(1.0, 1.0, a)])
    m = max(a, 1.0 - a)
    return RateRegion(
        unit
        + [
            RateConstraint(1.0, 1.0, min(2.0 - a, 2.0 * m)),
            RateConstraint(2.0, 1.0, 2.0 - a + m),
            RateConstraint(1.0, 2.0, 2.0 - a + m),
        ]
    )


def one_sided_gdof_region(g: GdofParams) -> RateRegion:
    """Gdof region with one cross link absent (alpha2 = 0 convention).

    Weak (alpha3 < 1): d1 + alpha1*d2 <= max(1, 1 + alpha1 - alpha3);
    strong at receiver 2 (alpha3 >= 1): d1 + alpha1*d2 <= max(alpha1, alpha3).
    The two forms agree at alpha3 = 1.
    """
    if g.alpha2 != 0.0:
        raise ClassMismatchError(
            f"one-sided gdof region needs alpha2 = 0, got alpha2={g.alpha2!r}"
        )
    strong = _slope_tag(g) is not InterferenceTag.WEAK
    rhs = max(g.alpha1, g.alpha3) if strong else max(1.0, 1.0 + g.alpha1 - g.alpha3)
    return RateRegion(
        [
            RateConstraint(1.0, 0.0, 1.0),
            RateConstraint(0.0, 1.0, 1.0),
            RateConstraint(1.0, g.alpha1, rhs),
        ]
    )


class BaselineScheme(str, Enum):
    ORTHOGONALIZE = "orthogonalize"
    TREAT_AS_NOISE = "treat_as_noise"


def baseline_gdof(alpha_value: float, scheme: BaselineScheme | str) -> float:
    """Symmetric degrees of freedom of the two classical baselines.

    Orthogonalizing the users always yields 1/2; treating interference as
    noise yields (1 - alpha)+.  Both touch the W curve only where it says
    they should (alpha in {1/2, 1}, resp. alpha <= 1/2).  A ``scheme`` that
    is neither a member nor a member's value raises :class:`DomainError`.
    """
    _real("alpha", alpha_value)
    if not isinstance(scheme, BaselineScheme):
        try:
            scheme = BaselineScheme(scheme)
        except ValueError:
            raise DomainError(
                f"unknown baseline scheme {scheme!r}; expected one of "
                f"{[member.value for member in BaselineScheme]}"
            ) from None
    if scheme is BaselineScheme.ORTHOGONALIZE:
        return 0.5
    return max(0.0, 1.0 - alpha_value)


class FiniteSnrSandwich(NamedTuple):
    lower: float
    upper: float
    d_limit: float


def finite_snr_convergence(snr: float, alpha_value: float) -> FiniteSnrSandwich:
    """Sandwich the d_sym limit at finite SNR (INR = SNR**alpha).

    ``lower`` is the achievable symmetric rate over log2 SNR, ``upper``
    the best symmetric upper bound over log2 SNR; for alpha >= 1 capacity
    is exact so both coincide.  Convergence is O(1/log SNR) thanks to the
    one-bit gap plus the bounded approximation slack.  A rate that overflows
    double precision raises :class:`DomainError` naming the channel.
    """
    _real("snr", snr, 2, above=True)
    _real("alpha", alpha_value)
    scale = _LOG2(snr)
    inr = _power_inr(snr, alpha_value)
    if alpha_value >= 1.0:
        exact = _bounds.symmetric_capacity_strong(snr, inr)
        lower = upper = exact / scale
    else:
        lower = _hk.symmetric_hk_rate(snr, inr) / scale
        upper = _bounds.symmetric_bounds(snr, inr).best / scale
    return FiniteSnrSandwich(lower=lower, upper=upper, d_limit=d_sym(alpha_value))


def first_order_expansion(params: ChannelParams) -> RateRegion:
    """Log-domain piecewise-linear expansion of the capacity region, in bits.

    The rows are the max-plus images of the channel's
    ``bounds.outer_args`` rows in the log2 ratios: weak channels keep all
    seven rows; mixed channels, of either orientation, have five, since
    their outer bound drops the two rows that are provably redundant.

    Each log2 argument of an outer row is a sum of at most three terms with
    at most one ``1 + x`` denominator, so its image is at most log2 3 below
    and 1 above it: every row lies within 2 bits per argument of its
    :func:`gicap.bounds.outer_rows` row, at any cross ratio.  A zero cross
    ratio has slope -inf, which the ``1 + x`` it sits in turns into 0.
    """
    _real("snr1", params.snr1, 1, above=True)
    _real("snr2", params.snr2, 1, above=True)
    tag = classify(params).tag
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError("first-order expansion covers weak and mixed only")
    ratios = (params.snr1, params.snr2, params.inr1, params.inr2)
    logs = [_LOG2(x) if x > 0.0 else -math.inf for x in ratios]
    return RateRegion(RateConstraint(*row) for row in _expansion_rows(tag, *logs))

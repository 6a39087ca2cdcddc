"""Generalized degrees of freedom: the d_sym curve, gdof regions, baselines.

In the interference-limited limit (all ratios growing with fixed log
slopes) rates scale like d_i * log2 SNR_i.  The slopes are

    alpha1 = log SNR2 / log SNR1,
    alpha2 = log INR1 / log SNR1,
    alpha3 = log INR2 / log SNR1,

and gdof regions live in (d1, d2) with constraints of the form
``c1*d1 + (c2*alpha1)*d2 <= rhs``, reusing the rate-region machinery.
All regions here sit inside the unit box.

The slope class is the finite-SNR class code,
``channel._class_code(1, alpha1, alpha2, alpha3)``, on the slopes.

The region constraint sets are the first-order (log-domain) expansions
of the finite-SNR bounds: :func:`gdof_region` reads each row off the
class's ``bounds.outer_args`` row, evaluated on log slopes by max-plus rules
(both mixed orientations included, since ``outer_args`` swaps the
users), or, for the symmetric region (whose symmetric point is the W
curve :func:`d_sym`) and the one-sided one, written out and pinned to
those rows by tests.  ``Fraction`` slopes give exact regions.
:func:`finite_snr_convergence` checks the defining limit at finite scale
by sandwiching d_sym between the scaled achievable rate and the scaled
best upper bound.  Limits are always computed from closed forms, never
by numerically driving SNR to infinity.

The (x)+ clamp appears exactly where the expansions require it (the
one-sided sum terms) and nowhere else.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import bounds as _bounds
from . import hk as _hk
from .channel import TAG_BY_STRENGTH, InterferenceTag, _class_code, _power_inr
from .errors import ClassMismatchError, _choice, _real
from .region import RateConstraint, RateRegion, symmetric_rate

__all__ = [
    "BaselineScheme",
    "FiniteSnrSandwich",
    "GdofParams",
    "baseline_gdof",
    "d_sym",
    "finite_snr_convergence",
    "gdof_region",
    "one_sided_gdof_region",
    "symmetric_gdof_region",
]

_LOG2 = math.log2


class _SlopeFields(NamedTuple):
    alpha1: float
    alpha2: float
    alpha3: float


class GdofParams(_SlopeFields):
    """Log-slope triple (alpha1, alpha2, alpha3); alpha1 > 0, others >= 0."""

    __slots__ = ()

    def __new__(cls, alpha1, alpha2, alpha3):
        _real("alpha1", alpha1, above=True)
        _real("alpha2", alpha2)
        _real("alpha3", alpha3)
        return tuple.__new__(cls, (alpha1, alpha2, alpha3))


def d_sym(alpha_value: float) -> float:
    """Symmetric degrees of freedom per user, the W curve: the symmetric
    point of :func:`symmetric_gdof_region`.

    1-a on [0,1/2], a on [1/2,2/3], 1-a/2 on [2/3,1], a/2 on [1,2], and 1
    beyond 2; each breakpoint evaluates exactly.
    """
    return symmetric_rate(symmetric_gdof_region(alpha_value))


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
    so the same rows serve the gdof normalization (ls1 = 1) and a
    channel's log2 ratios.
    """
    coeffs, args = _bounds.outer_args(_Slope(ls1), _Slope(ls2), _Slope(li1), _Slope(li2), tag)
    rows = []
    for (c1, c2), row in zip(coeffs, args):
        rhs, *terms = [term for arg in row for term in arg.terms]
        for term in terms:
            rhs += term
        rows.append((c1, c2, rhs))
    return rows


def _slope_tag(g: GdofParams) -> InterferenceTag:
    return TAG_BY_STRENGTH[_class_code(1.0, g.alpha1, g.alpha2, g.alpha3)]


def gdof_region(g: GdofParams) -> RateRegion:
    """Gdof region of the slopes' class: seven rows for weak slopes, five for
    mixed ones of either orientation and four, both MAC cuts, for strong ones."""
    one = g.alpha1 / g.alpha1  # 1 in alpha1's own type: Fraction slopes stay exact
    return RateRegion([  # a list, not a generator, for the reason region.log2_rows gives
        RateConstraint(0.0, 1.0, rhs / g.alpha1)  # the R2-only row: d2 = rate / alpha1
        if (m1, m2) == (0.0, 1.0)
        else RateConstraint(m1, type(one)(m2) * g.alpha1, rhs)
        for m1, m2, rhs in _expansion_rows(_slope_tag(g), one, g.alpha1, g.alpha2, g.alpha3)
    ])


def symmetric_gdof_region(alpha_value: float) -> RateRegion:
    """Gdof region of the symmetric channel at interference level alpha.

    Written out, as the ``gdof`` and ``figures`` bytes pin its rounding:
    the weak rows' 2R1+R2 rhs ``((1 + m) + 1) - a`` can round below ``(2 - a) + m``.
    """
    a = _real("alpha", alpha_value)
    unit = [RateConstraint(1.0, 0.0, 1.0), RateConstraint(0.0, 1.0, 1.0)]
    if a >= 1.0:
        return RateRegion(unit + [RateConstraint(1.0, 1.0, a)])
    m = max(a, 1 - a)
    return RateRegion(
        unit
        + [
            RateConstraint(1.0, 1.0, min(2 - a, 2 * m)),
            RateConstraint(2.0, 1.0, 2 - a + m),
            RateConstraint(1.0, 2.0, 2 - a + m),
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
    one = g.alpha1 / g.alpha1  # as in gdof_region
    rhs = max(g.alpha1, g.alpha3) if strong else max(one, one + g.alpha1 - g.alpha3)
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
    scheme = _choice("baseline scheme", scheme, {m.value: m for m in BaselineScheme})
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

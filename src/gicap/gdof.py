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
of the finite-SNR bounds, one row table per class (both mixed
orientations included); :func:`first_order_expansion` emits the same
expressions in bits for a concrete channel, and
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
from .errors import ClassMismatchError, DomainError
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
        if not (math.isfinite(self.alpha1) and self.alpha1 > 0.0):
            raise DomainError(f"alpha1 must be positive and finite, got {self.alpha1!r}")
        for name in ("alpha2", "alpha3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} must be finite and >= 0, got {v!r}")


def d_sym(alpha_value: float) -> float:
    """Symmetric degrees of freedom per user: the W curve.

    1-a on [0,1/2], a on [1/2,2/3], 1-a/2 on [2/3,1], a/2 on [1,2], and 1
    beyond 2.  Adjacent branches agree at the breakpoints; branch checks
    are ordered so each breakpoint evaluates exactly.
    """
    a = alpha_value
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"d_sym needs finite alpha >= 0, got {a!r}")
    if a <= 0.5:
        return 1.0 - a
    if a <= 2.0 / 3.0:
        return a
    if a <= 1.0:
        return 1.0 - a / 2.0
    if a <= 2.0:
        return a / 2.0
    return 1.0


def _pos(x: float) -> float:
    # a zero of x's own type, so Fraction slopes give exact rows
    return x if x > 0.0 else type(x)(0)


def _weak_expansion_rows(
    ls1: float, ls2: float, li1: float, li2: float
) -> list[tuple[float, float, float]]:
    """Log-domain expansion rows (m1, m2, rhs) for a weak channel.

    Inputs are the four logs (any common scale); the rhs expressions are
    homogeneous of degree one in them, so the same rows serve both the
    gdof normalization (ls1 = 1) and the bit-domain expansion.
    """
    return [
        (1.0, 0.0, ls1),
        (0.0, 1.0, ls2),
        (1.0, 1.0, ls1 + _pos(ls2 - li2)),
        (1.0, 1.0, ls2 + _pos(ls1 - li1)),
        (1.0, 1.0, max(li1, ls1 - li2) + max(li2, ls2 - li1)),
        (2.0, 1.0, max(ls1, li1) + max(li2, ls2 - li1) + ls1 - li2),
        (1.0, 2.0, max(ls2, li2) + max(li1, ls1 - li2) + ls2 - li1),
    ]


def _mixed_expansion_rows(
    ls1: float, ls2: float, li1: float, li2: float
) -> list[tuple[float, float, float]]:
    """Rows for a mixed channel, strong-at-receiver-1 orientation.

    The redundant sum and 2R1+R2 rows are dropped: the former equals
    max(li1 + li2, ls1) >= max(ls1, li1) and the latter is the sum of the
    single-rate row and the MAC sum row.
    """
    return [
        (1.0, 0.0, ls1),
        (0.0, 1.0, ls2),
        (1.0, 1.0, ls1 + _pos(ls2 - li2)),
        (1.0, 1.0, max(ls1, li1)),
        (1.0, 2.0, max(ls2, li2) + max(li1, ls1 - li2)),
    ]


def _strong_expansion_rows(
    ls1: float, ls2: float, li1: float, li2: float
) -> list[tuple[float, float, float]]:
    return [
        (1.0, 0.0, ls1),
        (0.0, 1.0, ls2),
        (1.0, 1.0, max(ls1, li1)),
        (1.0, 1.0, max(ls2, li2)),
    ]


def _rows_to_gdof(rows, alpha1: float) -> RateRegion:
    constraints = []
    for m1, m2, rhs in rows:
        if m1 == 0.0 and m2 == 1.0:
            constraints.append(RateConstraint(0.0, 1.0, rhs / alpha1))
        else:
            constraints.append(RateConstraint(m1, m2 * alpha1, rhs))
    return RateRegion(constraints)


# The expansion rows of each class, by tag.  A channel strong at receiver 2
# takes the strong-at-1 rows on the user-swapped logs with each row's
# (m1, m2) swapped: the mirror of ``bounds.outer_args``.
_EXPANSION_ROWS = {
    InterferenceTag.WEAK: _weak_expansion_rows,
    InterferenceTag.MIXED_STRONG_AT_1: _mixed_expansion_rows,
    InterferenceTag.MIXED_STRONG_AT_2: lambda ls1, ls2, li1, li2: [
        (m2, m1, rhs) for m1, m2, rhs in _mixed_expansion_rows(ls2, ls1, li2, li1)
    ],
    InterferenceTag.STRONG: _strong_expansion_rows,
}


def _slope_tag(g: GdofParams) -> InterferenceTag:
    return TAG_BY_STRENGTH[g.alpha2 >= g.alpha1, g.alpha3 >= 1.0]


def _class_gdof_region(g: GdofParams, tag: InterferenceTag) -> RateRegion:
    """Gdof region of class ``tag``; slopes of another class raise."""
    actual = _slope_tag(g)
    if tag is not actual:
        raise ClassMismatchError(f"{g} has {actual.value} slopes, got tag {tag!r}")
    return _rows_to_gdof(_EXPANSION_ROWS[tag](1.0, g.alpha1, g.alpha2, g.alpha3), g.alpha1)


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
    a = alpha_value
    if not math.isfinite(a) or a < 0.0:
        raise DomainError(f"symmetric gdof region needs finite alpha >= 0, got {a!r}")
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
    they should (alpha in {1/2, 1}, resp. alpha <= 1/2).
    """
    if not math.isfinite(alpha_value) or alpha_value < 0.0:
        raise DomainError(f"baseline_gdof needs finite alpha >= 0, got {alpha_value!r}")
    scheme = BaselineScheme(scheme)
    if scheme is BaselineScheme.ORTHOGONALIZE:
        return 0.5
    return _pos(1.0 - alpha_value)


class FiniteSnrSandwich(NamedTuple):
    lower: float
    upper: float
    d_limit: float


def finite_snr_convergence(snr: float, alpha_value: float) -> FiniteSnrSandwich:
    """Sandwich the d_sym limit at finite SNR (INR = SNR**alpha).

    ``lower`` is the achievable symmetric rate over log2 SNR, ``upper``
    the best symmetric upper bound over log2 SNR; for alpha >= 1 capacity
    is exact so both coincide.  Convergence is O(1/log SNR) thanks to the
    one-bit gap plus the bounded approximation slack.
    """
    if not (snr > 2.0):
        raise DomainError(f"finite_snr_convergence needs snr > 2, got {snr!r}")
    if not math.isfinite(alpha_value) or alpha_value < 0.0:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha_value!r}")
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

    The rows are those of :data:`_EXPANSION_ROWS` for the channel's class:
    weak channels keep all seven rows; mixed channels, of either
    orientation, drop the two rows whose finite-SNR parents are provably
    redundant.  Rows whose rhs is non-finite (a vanishing cross ratio makes
    them vacuous) are omitted.

    The expansion is meant for ratios >= 1.  A cross ratio below 1 has a
    negative log, which inflates the rows it enters: at SNR = 100 and
    INR = 1e-300 a sum row allows about 1,009 bits.  Such rows are valid
    but vacuous; INR = 0 drops them altogether.
    """
    if not (params.snr1 > 1.0 and params.snr2 > 1.0):
        raise DomainError(
            f"first-order expansion needs snr1, snr2 > 1, got {params}"
        )
    tag = classify(params).tag
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError("first-order expansion covers weak and mixed only")
    ratios = (params.snr1, params.snr2, params.inr1, params.inr2)
    logs = [_LOG2(x) if x > 0.0 else -math.inf for x in ratios]
    return RateRegion(
        RateConstraint(*row) for row in _EXPANSION_ROWS[tag](*logs) if math.isfinite(row[2])
    )

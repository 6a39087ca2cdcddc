"""Channel parameterization, unit conversion, and regime classification.

A two-user Gaussian interference channel is fully described by four
dimensionless power ratios: the direct-link signal-to-noise ratios SNR1,
SNR2 and the cross-link interference-to-noise ratios INR1 (seen at
receiver 1) and INR2 (seen at receiver 2).  All ratios are linear, all
rates downstream are base-2 logs (bits per complex symbol, no 1/2 factor).

Classification conventions:

* weak      : INR1 < SNR2 and INR2 < SNR1        (both strict)
* strong    : INR1 >= SNR2 and INR2 >= SNR1
* mixed     : exactly one cross link is strong; ties go to the >= side.
* very strong (symmetric channels only): INR >= SNR^2 + SNR.

For symmetric channels the interference level alpha = log INR / log SNR
splits the parameter space into five qualitative regimes.  Boundary
values of alpha are assigned to the larger regime index, except that the
regime-4/5 boundary uses the exact very-strong condition above (the
alpha >= 2 form is only its high-SNR approximation).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, InvalidParameterError, _real

__all__ = [
    "ChannelParams",
    "InterferenceClass",
    "InterferenceTag",
    "SymmetricRegime",
    "alpha",
    "classify",
    "db_to_linear",
    "symmetric_regime",
]


def db_to_linear(db: float) -> float:
    """Convert a dB value to a linear power ratio: 10**(db/10).

    NaN dB, dB values whose ratio is beyond the float range (+inf
    included) and values that are not real numbers raise
    :class:`DomainError`; -inf dB is the zero ratio."""
    try:
        ratio = 10.0 ** (db / 10.0)
        finite = ratio < math.inf  # NaN too
    except OverflowError:
        finite = False
    except TypeError:  # a str, None, a complex
        raise DomainError(f"db must be a real number, got {db!r}") from None
    if not finite:
        raise DomainError(f"{db!r} dB gives no finite power ratio")
    return ratio


class _ChannelFields(NamedTuple):
    snr1: float
    snr2: float
    inr1: float
    inr2: float


class ChannelParams(_ChannelFields):
    """The four linear power ratios defining a channel instance, in field
    order as a tuple, so ``ChannelParams(*params) == params``."""

    __slots__ = ()

    def __new__(cls, snr1, snr2, inr1, inr2):
        ratios = (snr1, snr2, inr1, inr2)
        for name, value in zip(cls._fields, ratios):
            _real(name, value, error=InvalidParameterError)
        return tuple.__new__(cls, ratios)

    @property
    def is_symmetric(self) -> bool:
        return self.snr1 == self.snr2 and self.inr1 == self.inr2

    @property
    def strong_at_1(self) -> bool:
        """Receiver 1 sees strong interference: INR1 >= SNR2, bit 1 of the class code."""
        return bool(_class_code(*self) & 1)

    @property
    def strong_at_2(self) -> bool:
        """Receiver 2 sees strong interference: INR2 >= SNR1, bit 2 of the class code."""
        return bool(_class_code(*self) & 2)

    def swapped(self) -> "ChannelParams":
        """The same channel with the user indices exchanged."""
        return ChannelParams(self.snr2, self.snr1, self.inr2, self.inr1)


def _class_code(s1, s2, i1, i2):
    """``strong_at_1 + 2 * strong_at_2`` of four ratios (floats or arrays) or slopes."""
    return (i1 >= s2) + 2 * (i2 >= s1)


_OVERFLOW = "cannot audit {}: its rates overflow double precision"


def _finite(rates, s1, s2, i1, i2):
    """``rates``, or :class:`DomainError` naming the channel ``(s1, s2, i1, i2)``
    when one of them overflows.  Finite rates are at most a few thousand
    bits, so the sum is finite exactly when every rate is."""
    if abs(sum(rates)) < math.inf:  # NaN too
        return rates
    raise DomainError(_OVERFLOW.format(ChannelParams(s1, s2, i1, i2)))


class InterferenceTag(str, Enum):
    WEAK = "weak"
    MIXED_STRONG_AT_1 = "mixed_strong_at_1"
    MIXED_STRONG_AT_2 = "mixed_strong_at_2"
    STRONG = "strong"


# The class of a channel by its class code (_class_code).
TAG_BY_STRENGTH = (
    InterferenceTag.WEAK,
    InterferenceTag.MIXED_STRONG_AT_1,
    InterferenceTag.MIXED_STRONG_AT_2,
    InterferenceTag.STRONG,
)


class InterferenceClass(NamedTuple):
    """Interference class tag plus the very-strong flag.

    ``very_strong`` is only defined for symmetric channels; asymmetric
    channels report ``None`` (not applicable).
    """

    tag: InterferenceTag
    very_strong: bool | None


def classify(params: ChannelParams) -> InterferenceClass:
    """Classify a channel as weak / mixed / strong.

    Weak requires both strict inequalities INR1 < SNR2 and INR2 < SNR1;
    equality on either cross link goes to the mixed or strong tag.
    """
    tag = TAG_BY_STRENGTH[_class_code(*params)]
    very_strong: bool | None = None
    if params.is_symmetric:
        very_strong = _very_strong(params.snr1, params.inr1)
    return InterferenceClass(tag=tag, very_strong=very_strong)


def alpha(snr: float, inr: float) -> float:
    """Interference level: log INR / log SNR (base-independent); needs SNR > 1, INR > 0."""
    _real("snr", snr, 1, above=True)
    _real("inr", inr, above=True)
    return math.log(inr) / math.log(snr)


def _check_symmetric(snr: float, inr: float) -> None:
    """Raise :class:`DomainError` unless 0 < SNR < inf and 0 <= INR < inf."""
    _real("snr", snr, above=True)
    _real("inr", inr)


def _very_strong(snr: float, inr: float) -> bool:
    """INR >= SNR^2 + SNR; false for every finite INR once SNR^2 overflows."""
    return inr >= snr * snr + snr


def _power_inr(snr: float, alpha_value: float) -> float:
    """INR = SNR**alpha; a result beyond the float range raises :class:`DomainError`."""
    try:
        return snr ** alpha_value
    except OverflowError:
        raise DomainError(
            f"INR = snr ** alpha overflows double precision at snr={snr!r}, alpha={alpha_value!r}"
        ) from None


class SymmetricRegime(NamedTuple):
    """Symmetric-channel regime index (1..5) and active common-rate set.

    ``bset`` is "B1" or "B2" when INR >= 1 and ``None`` otherwise (the
    B-set partition is only defined for interference at or above the
    noise floor).
    """

    regime: int
    bset: str | None


def _at_least(sides, snr: float, inr: float) -> bool:
    """``lhs >= rhs`` for ``lhs, rhs = sides(snr, inr)``, products of the ratios.

    Where both float sides overflow (or ``**`` raises), compares exact rationals.
    """
    try:
        lhs, rhs = sides(snr, inr)
        if not (lhs == rhs == math.inf):
            return lhs >= rhs
    except OverflowError:
        pass
    from fractions import Fraction  # imported here: it costs start-up time

    lhs, rhs = sides(Fraction(snr), Fraction(inr))
    return lhs >= rhs


def symmetric_regime(snr: float, inr: float) -> SymmetricRegime:
    """Locate a symmetric channel among the five capacity regimes.

    The regime thresholds compare log INR against (1/2, 2/3, 1) * log SNR;
    the comparisons are done in the linear domain (inr^2 vs snr, inr^3 vs
    snr^2, inr vs snr) so threshold cases are decided by exact arithmetic
    rather than rounded logarithms.  Regime 5 uses the exact very-strong
    condition INR >= SNR^2 + SNR.  The inr^3 and B-set comparisons can
    overflow on both sides; those are decided in exact rationals.
    """
    _real("snr", snr, 1, above=True)
    _real("inr", inr)
    if _very_strong(snr, inr):
        regime = 5
    elif inr >= snr:
        regime = 4
    elif _at_least(lambda s, i: (i**3, s * s), snr, inr):
        regime = 3
    elif inr * inr >= snr:
        regime = 2
    else:
        regime = 1

    bset: str | None = None
    if inr >= 1.0:
        # B1 uses strict <, B2 the weak reverse inequality.
        b2 = _at_least(lambda s, i: (s * (s + i), i * i * (i + 1)), snr, inr)
        bset = "B2" if b2 else "B1"
    return SymmetricRegime(regime=regime, bset=bset)

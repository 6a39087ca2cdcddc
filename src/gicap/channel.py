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
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InvalidParameterError

__all__ = [
    "ChannelParams",
    "InterferenceClass",
    "InterferenceTag",
    "SymmetricRegime",
    "alpha",
    "classify",
    "db_to_linear",
    "from_physical",
    "linear_to_db",
    "symmetric_regime",
]


def db_to_linear(db: float) -> float:
    """Convert a dB value to a linear power ratio: 10**(db/10)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{db!r} dB is beyond the float range") from None


def linear_to_db(x: float) -> float:
    """Convert a linear power ratio to dB: 10*log10(x)."""
    if not (0.0 < x < math.inf):
        raise DomainError(f"cannot express a ratio that is not positive and finite in dB: {x}")
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class ChannelParams:
    """The four linear power ratios defining a channel instance."""

    snr1: float
    snr2: float
    inr1: float
    inr2: float

    def __post_init__(self) -> None:
        for name in ("snr1", "snr2", "inr1", "inr2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not math.isfinite(v) or v < 0.0:
                raise InvalidParameterError(
                    f"{name} must be a finite nonnegative number, got {v!r}"
                )

    @property
    def is_symmetric(self) -> bool:
        return self.snr1 == self.snr2 and self.inr1 == self.inr2

    @property
    def strong_at_1(self) -> bool:
        """Receiver 1 sees strong interference: INR1 >= SNR2."""
        return self.inr1 >= self.snr2

    @property
    def strong_at_2(self) -> bool:
        """Receiver 2 sees strong interference: INR2 >= SNR1."""
        return self.inr2 >= self.snr1

    def swapped(self) -> "ChannelParams":
        """The same channel with the user indices exchanged."""
        return ChannelParams(self.snr2, self.snr1, self.inr2, self.inr1)


def from_physical(
    g11: float,
    g12: float,
    g21: float,
    g22: float,
    p1: float,
    p2: float,
    n0: float,
) -> ChannelParams:
    """Build :class:`ChannelParams` from power gains, powers, and noise.

    ``gij`` is the power gain from transmitter i to receiver j, ``pi`` the
    transmit power of user i, and ``n0`` the per-receiver noise power.
    """
    vals = dict(g11=g11, g12=g12, g21=g21, g22=g22, p1=p1, p2=p2, n0=n0)
    for name, v in vals.items():
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite, got {v!r}")
    if n0 <= 0.0:
        raise InvalidParameterError(f"noise power must be positive, got {n0!r}")
    for name in ("g11", "g12", "g21", "g22", "p1", "p2"):
        if vals[name] < 0.0:
            raise InvalidParameterError(f"{name} must be nonnegative, got {vals[name]!r}")
    return ChannelParams(
        snr1=g11 * p1 / n0,
        snr2=g22 * p2 / n0,
        inr1=g21 * p2 / n0,
        inr2=g12 * p1 / n0,
    )


class InterferenceTag(str, Enum):
    WEAK = "weak"
    MIXED_STRONG_AT_1 = "mixed_strong_at_1"
    MIXED_STRONG_AT_2 = "mixed_strong_at_2"
    STRONG = "strong"


# The class of a channel by (strong at receiver 1, strong at receiver 2).
TAG_BY_STRENGTH = {
    (False, False): InterferenceTag.WEAK,
    (True, False): InterferenceTag.MIXED_STRONG_AT_1,
    (False, True): InterferenceTag.MIXED_STRONG_AT_2,
    (True, True): InterferenceTag.STRONG,
}


@dataclass(frozen=True)
class InterferenceClass:
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
    tag = TAG_BY_STRENGTH[params.strong_at_1, params.strong_at_2]
    very_strong: bool | None = None
    if params.is_symmetric:
        very_strong = _very_strong(params.snr1, params.inr1)
    return InterferenceClass(tag=tag, very_strong=very_strong)


def alpha(snr: float, inr: float) -> float:
    """Interference level: log INR / log SNR (base-independent)."""
    if not (1.0 < snr < math.inf):
        raise DomainError(f"alpha needs finite snr > 1, got snr={snr!r}")
    if not (0.0 < inr < math.inf):
        raise DomainError(f"alpha needs finite inr > 0, got inr={inr!r}")
    return math.log(inr) / math.log(snr)


def _check_symmetric(name: str, snr: float, inr: float) -> None:
    """Raise :class:`DomainError` unless 0 < SNR < inf and 0 <= INR < inf."""
    if not (0.0 < snr < math.inf and 0.0 <= inr < math.inf):
        raise DomainError(f"{name} needs finite snr > 0, inr >= 0, got {snr!r}, {inr!r}")


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


@dataclass(frozen=True)
class SymmetricRegime:
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
    if not (1.0 < snr < math.inf):
        raise DomainError(f"symmetric_regime needs finite snr > 1, got snr={snr!r}")
    if not (0.0 <= inr < math.inf):
        raise DomainError(f"symmetric_regime needs finite inr >= 0, got inr={inr!r}")

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

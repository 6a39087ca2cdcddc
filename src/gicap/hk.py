"""Han-Kobayashi achievable regions for fixed Gaussian power splits.

Each transmitter superposes a private codeword (decoded only by its own
receiver, treated as noise by the other) and a common codeword (decoded
by both receivers).  A scheme is parameterized by the interference level
its private codeword creates at the non-intended receiver:

    inr_p2 : private interference of user 1 at receiver 2,
    inr_p1 : private interference of user 2 at receiver 1,

with 0 <= inr_p2 <= INR2 and 0 <= inr_p1 <= INR1.  No time sharing and
Gaussian codebooks throughout.

The seven-constraint region is evaluated by one uniform rule: every
mutual-information term becomes log2(1 + decoded_power / noise_floor)
where the noise floor at each receiver is 1 plus the other user's private
interference.  Writing

    S1p = SNR1 * inr_p2 / INR2   (private SNR of user 1; SNR1 if INR2 = 0)
    S2p = SNR2 * inr_p1 / INR1   (private SNR of user 2; SNR2 if INR1 = 0)
    n1  = 1 + inr_p1,  n2 = 1 + inr_p2,

the region is

    R1        <= log(1 + SNR1/n1)
    R2        <= log(1 + SNR2/n2)
    R1 + R2   <= log((1+SNR2+INR2)/n2) + log(1 + S1p/n1)
    R1 + R2   <= log((1+SNR1+INR1)/n1) + log(1 + S2p/n2)
    R1 + R2   <= log(1 + (S1p+INR1-inr_p1)/n1) + log(1 + (S2p+INR2-inr_p2)/n2)
    2R1 + R2  <= log((1+SNR1+INR1)/n1) + log(1 + S1p/n1)
                                       + log(1 + (S2p+INR2-inr_p2)/n2)
    R1 + 2R2  <= log((1+SNR2+INR2)/n2) + log(1 + S2p/n2)
                                       + log(1 + (S1p+INR1-inr_p1)/n1)

The constraint order above fixes the output bytes.

The rows are written once, as the log2 arguments of :func:`hk_args`;
treating interference as noise (:func:`treat_as_noise_region`,
:func:`regime1_rate`) reads the first rows at the split (INR2, INR1).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .channel import ChannelParams, _check_symmetric, _class_code, _finite, alpha
from .errors import InvalidSplitError, _real
from .region import RateRegion, log2_rows, region_from_rows

__all__ = [
    "DifferentialRatePair",
    "HK_COEFFS",
    "PowerSplit",
    "differential_rates",
    "hk_args",
    "hk_region",
    "recommended_levels",
    "recommended_split",
    "regime1_gap",
    "regime1_rate",
    "regime2_rate",
    "regime2_window",
    "symmetric_hk_rate",
    "treat_as_noise_region",
]

_LOG2 = math.log2
_FLOAT_MIN = sys.float_info.min  # smallest normal float


class _SplitFields(NamedTuple):
    inr_p2: float
    inr_p1: float


class PowerSplit(_SplitFields):
    """Private-message interference levels (inr_p2, inr_p1), linear."""

    __slots__ = ()

    def __new__(cls, inr_p2, inr_p1):
        _real("inr_p2", inr_p2, error=InvalidSplitError)
        _real("inr_p1", inr_p1, error=InvalidSplitError)
        return tuple.__new__(cls, (inr_p2, inr_p1))


class DifferentialRatePair(NamedTuple):
    """Marginal rate densities (pure ratios, no log base) at one power level."""

    r1: float
    r2: float


def _validate_split(params: ChannelParams, split: PowerSplit) -> None:
    if split.inr_p2 > params.inr2:
        raise InvalidSplitError(
            f"inr_p2={split.inr_p2} exceeds inr2={params.inr2}"
        )
    if split.inr_p1 > params.inr1:
        raise InvalidSplitError(
            f"inr_p1={split.inr_p1} exceeds inr1={params.inr1}"
        )


def _where(c, a, b):
    """``a if c else b``: the float form of ``np.where``."""
    return a if c else b


def _private_snr(snr, inr_p, inr, where):
    """SNR * inr_p / INR, the private SNR of a user (SNR itself when INR = 0).

    Divides first only where the product underflows (a subnormal INR).
    Every branch is evaluated and ``where`` chooses, so one rule serves
    floats and arrays; the divisor ``inr + (inr == 0)`` is INR itself
    whenever INR > 0 and 1 at a zero INR, whose quotient is discarded.
    """
    zero = inr == 0.0
    divisor = inr + zero
    product = snr * inr_p
    quotient = where(product < _FLOAT_MIN, snr * (inr_p / divisor), product / divisor)
    return where(zero, snr, quotient)


# (c1, c2) of the seven hk_region rows, in the order above.
HK_COEFFS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0))


def hk_args(s1, s2, i1, i2, p2, p1, where=_where):
    """The log2 arguments of the seven :func:`hk_region` rows, in :data:`HK_COEFFS` order.

    Row ``k``'s rhs is the left-to-right sum of log2 over ``args[k]``.  The
    arguments use only ``+ - * /``, so floats and numpy arrays of the
    ratios (``s1, s2, i1, i2``) and private levels (``p2, p1``) give the
    same doubles; ``where(cond, a, b)`` picks the private-SNR branch for
    the number type (``np.where`` for arrays).  An argument shared by two
    rows is the same object in both.  Unchecked, since it runs once per row:
    a non-number raises ``TypeError``.
    """
    s1p = _private_snr(s1, p2, i2, where)
    s2p = _private_snr(s2, p1, i1, where)
    n1 = 1.0 + p1
    n2 = 1.0 + p2
    common1 = (1.0 + s1 + i1) / n1
    common2 = (1.0 + s2 + i2) / n2
    private1 = 1.0 + s1p / n1
    private2 = 1.0 + s2p / n2
    cross1 = 1.0 + (s1p + i1 - p1) / n1
    cross2 = 1.0 + (s2p + i2 - p2) / n2
    return (
        (1.0 + s1 / n1,),
        (1.0 + s2 / n2,),
        (common2, private1),
        (common1, private2),
        (cross1, cross2),
        (common1, private1, cross2),
        (common2, private2, cross1),
    )


def hk_region(params: ChannelParams, split: PowerSplit) -> RateRegion:
    """Seven-constraint achievable region for a fixed power split.

    When a cross link is absent (INR_i = 0) the corresponding split value
    must be 0 and that user's message is all-private at full power: the
    split is unobservable at the other receiver.  A rate that overflows
    double precision raises :class:`DomainError` naming the channel.
    """
    _validate_split(params, split)
    return region_from_rows(HK_COEFFS, _finite(log2_rows(hk_args(*params, *split)), *params))


def recommended_levels(strong_at_1, strong_at_2, inr1, inr2, minimum=min):
    """``(inr_p2, inr_p1)`` of :func:`recommended_split` for a channel of the given strengths.

    ``inr1``/``inr2`` may be floats or numpy arrays of channels sharing the
    strengths; ``minimum`` is the two-argument min for the number type
    (``np.minimum`` for arrays).  ``minimum(1.0, inr)`` is ``inr`` below 1
    and the float 1.0 from 1 on, ties, -0.0 and int ratios included.
    Unchecked, since it runs once per row: a non-number raises ``TypeError``.
    """
    return (
        0.0 if strong_at_2 else minimum(1.0, inr2),
        0.0 if strong_at_1 else minimum(1.0, inr1),
    )


def recommended_split(params: ChannelParams) -> PowerSplit:
    """The private level that lands within one bit of capacity per class.

    Weak channels put each private codeword at the other receiver's noise
    floor (capped by the cross ratio itself); mixed channels make the
    strongly-received user all common; strong channels make everything
    common.  So a user goes all common exactly when its interference is
    strong at the other receiver.
    """
    code = _class_code(*params)
    return PowerSplit(*recommended_levels(code & 1, code & 2, params.inr1, params.inr2))


def symmetric_hk_rate(snr: float, inr: float) -> float:
    """Symmetric rate of the noise-level split on a symmetric channel.

    For INR >= 1 this is

        min{ 1/2 log(1+SNR+INR) + 1/2 log(2+SNR/INR) - 1,
             log(1+INR+SNR/INR) - 1 },

    the first term active on B1 and the second on B2.  For INR < 1 the
    private level is capped at INR and everything is treated as noise:
    :func:`regime1_rate`.  A term that overflows double precision raises
    :class:`DomainError` naming the channel.
    """
    _check_symmetric(snr, inr)
    if inr < 1.0:
        terms = (regime1_rate(snr, inr),)
    else:
        # a closed form: the hk_args row log2(1 + (SNR/INR)/2) can round
        # differently from log2(2 + SNR/INR) - 1
        terms = (
            0.5 * _LOG2(1.0 + snr + inr) + 0.5 * _LOG2(2.0 + snr / inr) - 1.0,
            _LOG2(1.0 + inr + snr / inr) - 1.0,
        )
    return min(_finite(terms, snr, snr, inr, inr))


def treat_as_noise_region(params: ChannelParams) -> RateRegion:
    """Box achieved by decoding nothing of the interference: the R1 and R2
    rows of the all-private split (inr_p2, inr_p1) = (INR2, INR1)."""
    rows = hk_args(*params, params.inr2, params.inr1)[:2]
    return region_from_rows(HK_COEFFS[:2], log2_rows(rows))


def regime1_rate(snr: float, inr: float) -> float:
    """Symmetric rate of pure treat-as-noise (all private, full power): log(1 + SNR/(1+INR))."""
    _check_symmetric(snr, inr)
    return log2_rows(hk_args(snr, snr, inr, inr, inr, inr)[:1])[0]


def regime1_gap(snr: float, inr: float) -> float:
    """Exact gap between the interference-limited sum bound and regime1_rate.

    Equals log2(1 + INR(1+INR)/(1+INR+SNR)); vanishes as SNR grows with
    INR below sqrt(SNR), certifying that treating interference as noise
    is asymptotically optimal for very weak interference.  It is evaluated
    as log2(1 + INR/(1 + SNR/(1 + INR))): the same value in reals, with no
    cancellation and no overflow on finite ratios.
    """
    _check_symmetric(snr, inr)
    return _LOG2(1.0 + inr / (1.0 + snr / (1.0 + inr)))


def regime2_window(alpha_value: float) -> tuple[float, float]:
    """Admissible (open) window for the regime-2 exponent gamma; needs 1/2 < alpha < 2/3."""
    _real("alpha", alpha_value, 0.5, 2.0 / 3.0, above=True)
    return ((2.0 * alpha_value - 1.0) / (1.0 - alpha_value), 1.0)


def regime2_rate(snr: float, inr: float, gamma: float) -> float:
    """Symmetric rate of the vanishing-private-level scheme in regime 2.

    Uses INR_p = (INR/SNR)**(1-gamma), which drives the received private
    interference to zero as SNR grows.  Requires 1/2 < alpha < 2/3 and
    gamma strictly inside the window (2a-1)/(1-a) < gamma < 1.  The rate is
    half the smaller of the first and third sum rows of :func:`hk_args` at
    the split (INR_p, INR_p): the private rate plus the smaller common rate.
    """
    _real("gamma", gamma, *regime2_window(alpha(snr, inr)), above=True)
    inr_p = (inr / snr) ** (1.0 - gamma)
    return 0.5 * min(log2_rows(hk_args(snr, snr, inr, inr, inr_p, inr_p)[2:5:2]))


def differential_rates(z: float, snr1: float, inr2: float) -> DifferentialRatePair:
    """Marginal rate densities of a sub-message at normalized power level z.

    r1(z) = SNR1/(1+SNR1*z) is the density on the direct link, r2(z) =
    INR2/(1+INR2*z) on the cross link.  Returned as raw ratios; scale by
    1/ln 2 for bit densities.  Each argument must be finite and >= 0, or
    :class:`DomainError` is raised.
    """
    _real("z", z)
    _real("snr1", snr1)
    _real("inr2", inr2)
    return DifferentialRatePair(
        r1=snr1 / (1.0 + snr1 * z),
        r2=inr2 / (1.0 + inr2 * z),
    )

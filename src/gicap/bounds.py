"""Capacity outer bounds and exact capacity expressions.

Three bound families cover the class taxonomy:

* weak channels: a seven-constraint region combining point-to-point caps,
  the two one-sided (genie) sum bounds, a sharper interference-limited
  sum bound, and 2R1+R2 / R1+2R2 bounds;
* mixed channels: five constraints, replacing the failed one-sided bound
  with the multiple-access sum bound at the strongly-interfered receiver;
* strong channels: the exact capacity region (intersection of the two
  MAC regions), which serves as both inner and outer region.

Each row is written once, as log2 arguments in :func:`outer_args`;
:func:`class_outer` checks the class and builds the region, and the other
bounds here read their terms off the same rows.  So does :mod:`gicap.gdof`:
its gdof regions are these rows evaluated on log slopes.  The
interference-limited sum bound (``new_sum_bound``) is

    R1 + R2 <= log(1 + INR1 + SNR1/(1+INR2)) + log(1 + INR2 + SNR2/(1+INR1)),

whose symmetric specialization log(1 + INR + SNR/(1+INR)) closes the
regime where one-sided bounds are arbitrarily loose.

``symmetric_bounds`` also evaluates the classical Kramer-style symmetric
rate bound

    log[2 - A + sqrt(A^2 + 4*SNR*A)] - 1,   A = 1 + SNR/INR,

which is only defined on the normalization 0 < INR < SNR and is reported
as undefined outside it; it has no row of its own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .channel import TAG_BY_STRENGTH, ChannelParams, InterferenceTag, _class_code
from .channel import _check_symmetric, _finite, _very_strong
from .errors import ClassMismatchError, DomainError, _real
from .region import RateRegion, log2_rows, region_from_rows

__all__ = [
    "SymmetricBoundSet",
    "class_outer",
    "kramer_bound",
    "mixed_outer",
    "new_sum_bound",
    "one_sided_sum_capacity",
    "outer_args",
    "outer_rows",
    "pt2pt_outer",
    "strong_capacity",
    "symmetric_bounds",
    "symmetric_capacity_strong",
    "weak_outer",
]

# (c1, c2) of the outer-bound rows, in contract order.  The mixed rows are
# stated for a channel strong at receiver 1; the other orientation mirrors
# the coefficients.
_WEAK_COEFFS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0))
_MIXED_COEFFS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 2.0))
_MIRRORED_MIXED_COEFFS = tuple((c2, c1) for c1, c2 in _MIXED_COEFFS)
_STRONG_COEFFS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0))


def outer_args(s1, s2, i1, i2, tag: InterferenceTag):
    """``(coeffs, args)`` of the outer bound of a channel of class ``tag``.

    Row ``k``'s rhs is the left-to-right sum of log2 over ``args[k]``, as in
    :func:`gicap.hk.hk_args`: only ``+ - * /`` on the ratios, so floats and
    numpy arrays give the same doubles, and an argument shared by two rows
    is the same object in both.  ``tag`` is trusted, not checked against
    the ratios.  Unchecked, since it runs once per row: the ratios are
    floats or numpy arrays by duck typing, and a non-number raises
    ``TypeError``.
    """
    if tag is InterferenceTag.WEAK:
        ns1 = 1.0 + i1 + s1 / (1.0 + i2)
        ns2 = 1.0 + i2 + s2 / (1.0 + i1)
        p1 = 1.0 + s1
        p2 = 1.0 + s2
        return _WEAK_COEFFS, (
            (p1,),
            (p2,),
            (p1, 1.0 + s2 / (1.0 + i2)),
            (p2, 1.0 + s1 / (1.0 + i1)),
            (ns1, ns2),
            (1.0 + s1 + i1, ns2, p1 / (1.0 + i2)),
            (1.0 + s2 + i2, ns1, p2 / (1.0 + i1)),
        )
    if tag is InterferenceTag.MIXED_STRONG_AT_1:
        coeffs = _MIXED_COEFFS
    elif tag is InterferenceTag.MIXED_STRONG_AT_2:
        coeffs = _MIRRORED_MIXED_COEFFS
        s1, s2, i1, i2 = s2, s1, i2, i1
    elif tag is InterferenceTag.STRONG:
        return _STRONG_COEFFS, ((1.0 + s1,), (1.0 + s2,), (1.0 + s1 + i1,), (1.0 + s2 + i2,))
    else:
        raise ClassMismatchError(f"outer_args needs an interference class, got {tag!r}")
    p1 = 1.0 + s1
    return coeffs, (
        (p1,),
        (1.0 + s2,),
        (p1, 1.0 + s2 / (1.0 + i2)),
        (1.0 + s1 + i1,),
        (1.0 + s2 + i2, 1.0 + i1 + s1 / (1.0 + i2), 1.0 + s2 / (1.0 + i1)),
    )


def _rhs(tag: InterferenceTag, s1, s2, i1, i2, *rows: int) -> tuple[float, ...]:
    """The rhs of the :func:`outer_args` rows numbered ``rows`` (from 0); one
    that overflows raises :class:`DomainError` naming the channel."""
    args = outer_args(s1, s2, i1, i2, tag)[1]
    return _finite(log2_rows([args[k] for k in rows]), s1, s2, i1, i2)


def new_sum_bound(params: ChannelParams) -> float:
    """Interference-limited sum-rate upper bound, valid for any channel: weak row 5.

    An overflowing bound raises :class:`DomainError` naming the channel."""
    return _rhs(InterferenceTag.WEAK, *params, 4)[0]


def outer_rows(
    params: ChannelParams, tag: InterferenceTag
) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """``(coeffs, rhs)`` of the outer bound of a channel of class ``tag``."""
    coeffs, args = outer_args(*params, tag)
    return coeffs, log2_rows(args)


def class_outer(params: ChannelParams, tag: InterferenceTag) -> RateRegion:
    """Outer region matched to the channel's class ``tag = classify(params).tag``.

    Weak channels get :func:`weak_outer`, mixed ones :func:`mixed_outer`
    and strong ones the exact :func:`strong_capacity`.  A ``tag`` other
    than the channel's class raises :class:`ClassMismatchError`, and a
    rate that overflows double precision :class:`DomainError` naming the
    channel.
    """
    actual = TAG_BY_STRENGTH[_class_code(*params)]
    if tag is not actual:
        raise ClassMismatchError(f"{params} is a {actual.value} channel, got tag {tag!r}")
    coeffs, rhs = outer_rows(params, tag)
    return region_from_rows(coeffs, _finite(rhs, *params))


def weak_outer(params: ChannelParams) -> RateRegion:
    """Seven-constraint outer bound for weak interference channels.

    Constraint order (two singles, three sums, 2R1+R2, R1+2R2) is part of
    the contract.  Gap audits take the minimum of each family, so the order
    matters only for the per-index ``paired_deltas`` of ``gap-audit`` and
    for output bytes.  An overflowing rate raises :class:`DomainError`, as
    in :func:`class_outer`.
    """
    return class_outer(params, InterferenceTag.WEAK)


def mixed_outer(params: ChannelParams) -> RateRegion:
    """Five-constraint outer bound for mixed interference channels.

    Stated for the orientation INR1 >= SNR2, INR2 < SNR1 (strong at
    receiver 1); the opposite orientation is the user-swapped image: the
    same rows on the swapped ratios with mirrored coefficients, so the
    weighted constraint becomes 2R1+R2.  Redundant constraints (the
    interference-limited sum bound and one weighted bound) are excluded.
    An overflowing rate raises :class:`DomainError`, as in :func:`class_outer`.
    """
    # the mixed tag of the orientation given by receiver 2's strength
    return class_outer(params, TAG_BY_STRENGTH[1 + params.strong_at_2])


def strong_capacity(params: ChannelParams) -> RateRegion:
    """Exact capacity of a strong channel: intersection of the two MACs;
    an overflowing rate raises :class:`DomainError`, as in :func:`class_outer`."""
    return class_outer(params, InterferenceTag.STRONG)


def pt2pt_outer(params: ChannelParams) -> RateRegion:
    """Interference-free point-to-point box: R_i <= log(1 + SNR_i), the first two rows."""
    return region_from_rows(_STRONG_COEFFS[:2], _rhs(InterferenceTag.STRONG, *params, 0, 1))


def one_sided_sum_capacity(snr1: float, snr2: float, inr2: float) -> float:
    """Sum capacity of the one-sided (Z) channel with weak interference: weak row 3.

    Valid only for INR2 < SNR1; the strong one-sided case is the MAC sum
    bound and is handled by the mixed outer bound instead.  Each ratio must
    be finite and nonnegative; else :class:`DomainError` names it.
    """
    _real("snr1", snr1)
    _real("snr2", snr2)
    _real("inr2", inr2)
    if not (inr2 < snr1):
        raise DomainError(
            f"one-sided sum capacity needs inr2 < snr1, got inr2={inr2!r}, snr1={snr1!r}"
        )
    return _rhs(InterferenceTag.WEAK, snr1, snr2, 0.0, inr2, 2)[0]


def symmetric_capacity_strong(snr: float, inr: float) -> float:
    """Exact symmetric capacity for INR >= SNR.

    log(1+SNR) in the very strong case (INR >= SNR^2 + SNR, interference
    decodable up front at no cost), else 1/2 log(1+SNR+INR): strong rows
    1 and 3.  Needs finite SNR >= 0 and finite INR, else :class:`DomainError`;
    an overflowing capacity raises it too, naming the channel.
    """
    _real("snr", snr)
    _real("inr", inr, -math.inf, above=True)
    if inr < snr:
        raise ClassMismatchError(
            f"strong symmetric capacity needs inr >= snr, got inr={inr!r}, snr={snr!r}"
        )
    cap, mac = _rhs(InterferenceTag.STRONG, snr, snr, inr, inr, 0, 2)
    if _very_strong(snr, inr):
        return cap
    return 0.5 * mac


def kramer_bound(snr: float, inr: float) -> float:
    """Kramer-style symmetric rate bound; needs 0 < INR < SNR < inf."""
    _real("inr", inr, 0, _real("snr", snr), above=True)
    # log2(2 - a + sqrt(a^2 + 4 SNR a)) - 1, a = 1 + SNR/INR, with the cancelling
    # -a + sqrt(...) divided out and SNR/a written as INR/(1 + INR/SNR): the same
    # value in reals, and no step rounds INR << SNR away or overflows
    return math.log2(1.0 + snr / (0.5 + math.sqrt(0.25 + inr / (1.0 + inr / snr))))


class SymmetricBoundSet(NamedTuple):
    """Symmetric-rate upper bounds; ``kramer_ub`` is None outside 0 < INR < SNR."""

    genie_ub: float
    new_ub: float
    kramer_ub: float | None
    best: float


def symmetric_bounds(snr: float, inr: float) -> SymmetricBoundSet:
    """All applicable symmetric-rate upper bounds and their minimum.

    genie_ub = 1/2 log(1+SNR) + 1/2 log(1+SNR/(1+INR)) comes from the
    one-sided genie; new_ub = log(1+INR+SNR/(1+INR)) is the symmetric
    interference-limited bound.  For INR < 1 the point-to-point cap
    log(1+SNR) is folded into ``best`` as well.  They are weak rows 3, 5
    and 1 of the symmetric channel, the sum rows halved.
    """
    _check_symmetric(snr, inr)
    cap, genie, new_ub = _rhs(InterferenceTag.WEAK, snr, snr, inr, inr, 0, 2, 4)
    genie /= 2.0
    new_ub /= 2.0
    kramer: float | None = kramer_bound(snr, inr) if 0.0 < inr < snr else None
    candidates = [genie, new_ub]
    if kramer is not None:
        candidates.append(kramer)
    if inr < 1.0:
        candidates.append(cap)
    return SymmetricBoundSet(
        genie_ub=genie, new_ub=new_ub, kramer_ub=kramer, best=min(candidates)
    )

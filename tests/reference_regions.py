"""Hand-expanded closed forms of the fixed-split achievable regions, and
the paper's GDoF rows of each interference class.

These are independent oracles: each region below was expanded by hand for
one specific power split, written directly in terms of the channel
ratios, and is compared against the generic Gaussian evaluation by
vertex-set equality.  Keep these expressions independent of gicap.hk.
The GDoF rows, written in the four log slopes, are compared exactly with
the rows gicap.gdof reads off the outer bound; keep them independent of
gicap.bounds.
"""

from __future__ import annotations

import math

from gicap import ChannelParams, InterferenceTag, RateConstraint, RateRegion

log2 = math.log2


def mutual_information_region(p: ChannelParams, inr_p2: float, inr_p1: float) -> RateRegion:
    """Independent oracle: evaluate the seven bounds as entropy differences.

    Each mutual information I(signals; output | conditioned) for jointly
    Gaussian scalars is log2(var(output | conditioned) / var(output |
    conditioned, signals)).  Variances are assembled from the received
    power bookkeeping (unit noise; private power fractions scale the
    received powers), with no reference to the closed-form expressions in
    gicap.hk.
    """
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    # private power fractions of each transmitter
    f1 = inr_p2 / i2 if i2 > 0 else 1.0
    f2 = inr_p1 / i1 if i1 > 0 else 1.0

    def info(var_given: float, var_given_and_signal: float) -> float:
        return log2(var_given / var_given_and_signal)

    # receiver 1 sees snr1 (own), inr1 (cross), unit noise; conditioning
    # removes the conditioned components' received power
    y1_total = 1.0 + s1 + i1
    y1_w2 = 1.0 + s1 + i1 * f2          # cross common removed
    y1_w1w2 = 1.0 + s1 * f1 + i1 * f2   # both commons removed
    y1_x1w2 = 1.0 + i1 * f2             # own signal + cross common removed
    y1_w1 = 1.0 + s1 * f1 + i1          # own common removed
    y2_total = 1.0 + s2 + i2
    y2_w1 = 1.0 + s2 + i2 * f1
    y2_w1w2 = 1.0 + s2 * f2 + i2 * f1
    y2_x2w1 = 1.0 + i2 * f1
    y2_w2 = 1.0 + s2 * f2 + i2

    r1 = info(y1_w2, y1_x1w2)                       # I(x1; y1 | w2)
    r2 = info(y2_w1, y2_x2w1)                       # I(x2; y2 | w1)
    sum_a = info(y2_total, y2_x2w1) + info(y1_w1w2, y1_x1w2)
    sum_b = info(y1_total, y1_x1w2) + info(y2_w1w2, y2_x2w1)
    sum_c = info(y1_w1, y1_x1w2) + info(y2_w2, y2_x2w1)
    two_r1 = info(y1_total, y1_x1w2) + info(y1_w1w2, y1_x1w2) + info(y2_w2, y2_x2w1)
    two_r2 = info(y2_total, y2_x2w1) + info(y2_w1w2, y2_x2w1) + info(y1_w1, y1_x1w2)
    return RateRegion(
        [
            RateConstraint(1, 0, r1),
            RateConstraint(0, 1, r2),
            RateConstraint(1, 1, sum_a),
            RateConstraint(1, 1, sum_b),
            RateConstraint(1, 1, sum_c),
            RateConstraint(2, 1, two_r1),
            RateConstraint(1, 2, two_r2),
        ]
    )


def closed_form_unit_split(p: ChannelParams) -> RateRegion:
    """Split (1, 1): both private codewords at the other receiver's noise floor.

    Valid for inr1 >= 1 and inr2 >= 1.
    """
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1, 0, log2(2 + s1) - 1),
            RateConstraint(0, 1, log2(2 + s2) - 1),
            RateConstraint(1, 1, log2(2 * i2 + s1) + log2(1 + (1 + s2) / i2) - 2),
            RateConstraint(1, 1, log2(2 * i1 + s2) + log2(1 + (1 + s1) / i1) - 2),
            RateConstraint(1, 1, log2(1 + i1 + s1 / i2) + log2(1 + i2 + s2 / i1) - 2),
            RateConstraint(
                2,
                1,
                log2(1 + s1 + i1)
                + log2(1 + i2 + s2 / i1)
                + log2(2 + s1 / i2)
                - 3,
            ),
            RateConstraint(
                1,
                2,
                log2(1 + s2 + i2)
                + log2(1 + i1 + s1 / i2)
                + log2(2 + s2 / i1)
                - 3,
            ),
        ]
    )


def closed_form_weak_cross1(p: ChannelParams) -> RateRegion:
    """Split (1, inr1): user 2 all private because its cross link is sub-noise.

    Valid for inr1 < 1 <= inr2 on a weak channel; redundant rows dropped.
    """
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1, 0, log2(1 + s1 / (1 + i1))),
            RateConstraint(0, 1, log2(2 + s2) - 1),
            RateConstraint(
                1, 1, log2(i2 + s1 / (1 + i1)) + log2(1 + (1 + s2) / i2) - 1
            ),
            RateConstraint(
                2,
                1,
                log2(1 + s1 + i1)
                + log2(1 + i2 + s2)
                + log2(1 + i1 + s1 / i2)
                - log2(2 * (1 + i1) ** 2),
            ),
        ]
    )


def closed_form_weak_cross2(p: ChannelParams) -> RateRegion:
    """Mirror of :func:`closed_form_weak_cross1`: split (inr2, 1), inr2 < 1 <= inr1."""
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1, 0, log2(2 + s1) - 1),
            RateConstraint(0, 1, log2(1 + s2 / (1 + i2))),
            RateConstraint(
                1, 1, log2(i1 + s2 / (1 + i2)) + log2(1 + (1 + s1) / i1) - 1
            ),
            RateConstraint(
                1,
                2,
                log2(1 + s2 + i2)
                + log2(1 + i1 + s1)
                + log2(1 + i2 + s2 / i1)
                - log2(2 * (1 + i2) ** 2),
            ),
        ]
    )


def closed_form_noise_split(p: ChannelParams) -> RateRegion:
    """Split (inr2, inr1): both users treat all interference as noise."""
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1, 0, log2(1 + s1 / (1 + i1))),
            RateConstraint(0, 1, log2(1 + s2 / (1 + i2))),
        ]
    )


def closed_form_mixed_common(p: ChannelParams) -> RateRegion:
    """Split (1, 0): user 2 all common (its signal is strong at receiver 1).

    Valid for a mixed channel (inr1 >= snr2, inr2 < snr1) with inr2 > 1.
    """
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1, 0, log2(1 + s1)),
            RateConstraint(0, 1, log2(2 + s2) - 1),
            RateConstraint(1, 1, log2(i2 + s1) + log2(1 + (1 + s2) / i2) - 1),
            RateConstraint(1, 1, log2(1 + i1 + s1)),
            RateConstraint(1, 1, log2(1 + i1 + s1 / i2) + log2(1 + i2) - 1),
            RateConstraint(
                2,
                1,
                log2(1 + i2) + log2(1 + s1 + i1) + log2(1 + s1 / i2) - 1,
            ),
            RateConstraint(
                1, 2, log2(1 + s2 + i2) + log2(1 + i1 + s1 / i2) - 1
            ),
        ]
    )


def closed_form_mixed_noise(p: ChannelParams) -> RateRegion:
    """Split (inr2, 0): weak cross ratio treated as noise, user 2 all common.

    Valid for a mixed channel with inr2 < 1.
    """
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1, 0, log2(1 + s1)),
            RateConstraint(0, 1, log2(1 + s2 / (1 + i2))),
            RateConstraint(1, 1, log2(1 + s1) + log2(1 + s2 / (1 + i2))),
            RateConstraint(1, 1, log2(1 + s1 + i1)),
            RateConstraint(1, 1, log2(1 + s1 + i1)),
            RateConstraint(2, 1, log2(1 + s1) + log2(1 + s1 + i1)),
            RateConstraint(
                1, 2, log2(1 + s2 / (1 + i2)) + log2(1 + s1 + i1)
            ),
        ]
    )


def closed_form_regime2_rate(snr: float, inr: float, gamma: float) -> float:
    """The symmetric regime-2 rate at INR_p = (INR/SNR)**(1-gamma), expanded
    by hand: the private rate plus the smaller of the two common rates.
    (Its products overflow near SNR = 1e300.)"""
    inr_p = (inr / snr) ** (1.0 - gamma)
    private = log2(1.0 + snr * inr_p / (inr * (1.0 + inr_p)))
    denom = inr + (snr + inr) * inr_p
    common = min(
        0.5 * log2(1.0 + (snr + inr) * (inr - inr_p) / denom),
        log2(1.0 + inr * (inr - inr_p) / denom),
    )
    return private + common


def _pos(x):
    # a zero of x's own type, so Fraction slopes give exact rows
    return x if x > 0 else type(x)(0)


def weak_expansion_rows(ls1, ls2, li1, li2):
    """GDoF rows ``(c1, c2, rhs)`` of a weak channel in the log slopes of its ratios."""
    return [
        (1.0, 0.0, ls1),
        (0.0, 1.0, ls2),
        (1.0, 1.0, ls1 + _pos(ls2 - li2)),
        (1.0, 1.0, ls2 + _pos(ls1 - li1)),
        (1.0, 1.0, max(li1, ls1 - li2) + max(li2, ls2 - li1)),
        (2.0, 1.0, max(ls1, li1) + max(li2, ls2 - li1) + ls1 - li2),
        (1.0, 2.0, max(ls2, li2) + max(li1, ls1 - li2) + ls2 - li1),
    ]


def mixed_expansion_rows(ls1, ls2, li1, li2):
    """GDoF rows of a mixed channel strong at receiver 1.

    The MAC sum row is max(ls1, li1); the last row's third slope,
    (ls2 - li1)+, is 0 because li1 >= ls2.
    """
    return [
        (1.0, 0.0, ls1),
        (0.0, 1.0, ls2),
        (1.0, 1.0, ls1 + _pos(ls2 - li2)),
        (1.0, 1.0, max(ls1, li1)),
        (1.0, 2.0, max(ls2, li2) + max(li1, ls1 - li2)),
    ]


def strong_expansion_rows(ls1, ls2, li1, li2):
    """GDoF rows of a strong channel: both MAC regions."""
    return [
        (1.0, 0.0, ls1),
        (0.0, 1.0, ls2),
        (1.0, 1.0, max(ls1, li1)),
        (1.0, 1.0, max(ls2, li2)),
    ]


# A channel strong at receiver 2 is the user-swapped image of one strong at 1.
EXPANSION_ROWS = {
    InterferenceTag.WEAK: weak_expansion_rows,
    InterferenceTag.MIXED_STRONG_AT_1: mixed_expansion_rows,
    InterferenceTag.MIXED_STRONG_AT_2: lambda ls1, ls2, li1, li2: [
        (c2, c1, rhs) for c1, c2, rhs in mixed_expansion_rows(ls2, ls1, li2, li1)
    ],
    InterferenceTag.STRONG: strong_expansion_rows,
}

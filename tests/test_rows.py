"""The region rows, written once as log2 arguments, on floats and on numpy arrays.

``hk.hk_args`` and ``bounds.outer_args`` give each row's log2 arguments;
``region.log2_rows`` sums their logs left to right, and the sweep's
numpy kernel feeds the same functions arrays.  Every comparison here is
exact (same bits, sign of zero included), never within a tolerance.
"""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import gicap.gap
from gicap import (
    ChannelParams,
    ClassMismatchError,
    DomainError,
    InterferenceTag,
    PowerSplit,
    RateConstraint,
    RateRegion,
    SymmetricBoundSet,
    classify,
    kramer_bound,
    one_sided_sum_capacity,
    pt2pt_outer,
    recommended_split,
    regime1_rate,
    strong_capacity,
    symmetric_bounds,
    symmetric_capacity_strong,
    symmetric_hk_rate,
    treat_as_noise_region,
)
from gicap.bounds import outer_args
from gicap.channel import TAG_BY_STRENGTH
from gicap.cli import _raw_figure_rows
from gicap.hk import hk_args, recommended_levels
from gicap.region import log2_rows

log2 = math.log2
FLOAT_MIN = sys.float_info.min

AUDITED_TAGS = (
    InterferenceTag.WEAK,
    InterferenceTag.MIXED_STRONG_AT_1,
    InterferenceTag.MIXED_STRONG_AT_2,
)


def bits(values):
    return [float(v).hex() for v in values]


def written_out_hk_rows(p: ChannelParams, split: PowerSplit):
    """The seven achievable rows as the formulas of ``gicap.hk``'s docstring, in order."""
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    p2, p1 = split.inr_p2, split.inr_p1

    def private(snr, inr_p, inr):
        if inr == 0.0:
            return snr
        return snr * (inr_p / inr) if snr * inr_p < FLOAT_MIN else snr * inr_p / inr

    s1p, s2p = private(s1, p2, i2), private(s2, p1, i1)
    n1, n2 = 1.0 + p1, 1.0 + p2
    return (
        log2(1.0 + s1 / n1),
        log2(1.0 + s2 / n2),
        log2((1.0 + s2 + i2) / n2) + log2(1.0 + s1p / n1),
        log2((1.0 + s1 + i1) / n1) + log2(1.0 + s2p / n2),
        log2(1.0 + (s1p + i1 - p1) / n1) + log2(1.0 + (s2p + i2 - p2) / n2),
        log2((1.0 + s1 + i1) / n1) + log2(1.0 + s1p / n1) + log2(1.0 + (s2p + i2 - p2) / n2),
        log2((1.0 + s2 + i2) / n2) + log2(1.0 + s2p / n2) + log2(1.0 + (s1p + i1 - p1) / n1),
    )


def written_out_outer_rows(p: ChannelParams, tag: InterferenceTag):
    """The outer-bound rows as the formulas of ``gicap.bounds``, in order."""
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    if tag is InterferenceTag.WEAK:
        return (
            log2(1.0 + s1),
            log2(1.0 + s2),
            log2(1.0 + s1) + log2(1.0 + s2 / (1.0 + i2)),
            log2(1.0 + s2) + log2(1.0 + s1 / (1.0 + i1)),
            log2(1.0 + i1 + s1 / (1.0 + i2)) + log2(1.0 + i2 + s2 / (1.0 + i1)),
            log2(1.0 + s1 + i1) + log2(1.0 + i2 + s2 / (1.0 + i1)) + log2((1.0 + s1) / (1.0 + i2)),
            log2(1.0 + s2 + i2) + log2(1.0 + i1 + s1 / (1.0 + i2)) + log2((1.0 + s2) / (1.0 + i1)),
        )
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        s1, s2, i1, i2 = s2, s1, i2, i1
    return (
        log2(1.0 + s1),
        log2(1.0 + s2),
        log2(1.0 + s1) + log2(1.0 + s2 / (1.0 + i2)),
        log2(1.0 + s1 + i1),
        log2(1.0 + s2 + i2) + log2(1.0 + i1 + s1 / (1.0 + i2)) + log2(1.0 + s2 / (1.0 + i1)),
    )


def wide_ratio(rng: random.Random) -> float:
    """A ratio anywhere in the finite float range: zero, subnormal or normal."""
    kind = rng.random()
    if kind < 0.05:
        return 0.0
    if kind < 0.15:
        return rng.randrange(1, 2**52) * 5e-324
    return math.ldexp(0.5 + 0.5 * rng.random(), rng.randrange(-1021, 1025))


def wide_channels(seed: str, n: int) -> list[ChannelParams]:
    rng = random.Random(seed)
    return [ChannelParams(*(wide_ratio(rng) for _ in range(4))) for _ in range(n)]


def sweep_box_channels(seed: str, n: int) -> list[ChannelParams]:
    """Channels of every class from the sweep's box: SNRs in [0, 60] dB, INRs in [-20, 60] dB."""
    rng = random.Random(seed)
    box = ((0.0, 60.0), (0.0, 60.0), (-20.0, 60.0), (-20.0, 60.0))
    return [
        ChannelParams(*(10.0 ** (rng.uniform(lo, hi) / 10.0) for lo, hi in box))
        for _ in range(n)
    ]


# INR zero or subnormal on either side, in each class and both mixed orientations
EDGE_CHANNELS = [
    ChannelParams(100.0, 10.0, 0.0, 0.0),
    ChannelParams(100.0, 10.0, 5e-324, 1e-310),
    ChannelParams(1e-310, 100.0, 0.0, 5e-324),
    ChannelParams(5e-324, 5e-324, 5e-324, 5e-324),
    ChannelParams(1e308, 1e-300, 1e300, 0.0),
    ChannelParams(1e-300, 1e308, 0.0, 1e300),
    ChannelParams(0.0, 0.0, 0.0, 0.0),
    ChannelParams(sys.float_info.max, sys.float_info.max, 1e-310, 1e-310),
]

ratio = st.floats(0.0, sys.float_info.max)
channel = st.builds(ChannelParams, ratio, ratio, ratio, ratio)


def compensated_sum(values):
    """``sum`` of floats from Python 3.12 on: Neumaier's compensated summation."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


class TestFloatRows:
    """The rows equal the written-out formulas, so their terms keep their order."""

    def test_logs_are_added_left_to_right_without_compensation(self):
        # log2(2) + log2(10) + log2(5) rounds once per addition to a value
        # one ulp from the compensated sum, which Python 3.12+ ``sum`` gives
        logs = (log2(2.0), log2(10.0), log2(5.0))
        naive = logs[0] + logs[1] + logs[2]
        assert compensated_sum(logs) != naive
        assert compensated_sum(logs) == math.fsum(logs)
        assert bits(log2_rows(((2.0, 10.0, 5.0), (2.0, 10.0), (5.0,)))) == bits(
            (naive, logs[0] + logs[1], logs[2])
        )

    def test_written_out_formulas_on_the_float_range(self):
        for p in EDGE_CHANNELS + wide_channels("float-rows", 4000):
            assert bits(log2_rows(hk_args(*p, *recommended_split(p)))) == bits(
                written_out_hk_rows(p, recommended_split(p))
            ), p
            for tag in AUDITED_TAGS:
                assert bits(log2_rows(outer_args(*p, tag)[1])) == bits(
                    written_out_outer_rows(p, tag)
                ), (p, tag)

    def test_written_out_formulas_on_sweep_channels(self):
        rng = random.Random("sweep-rows")
        for p in sweep_box_channels("sweep-rows", 4000):
            split = PowerSplit(rng.random() * p.inr2, rng.random() * p.inr1)
            assert bits(log2_rows(hk_args(*p, *split))) == bits(written_out_hk_rows(p, split)), p
            for tag in AUDITED_TAGS:
                assert bits(log2_rows(outer_args(*p, tag)[1])) == bits(
                    written_out_outer_rows(p, tag)
                ), (p, tag)


# The closed forms the functions below evaluated before they read their
# terms off ``outer_args``/``hk_args``/``d_sym``, copied as they were.


def written_out_strong_capacity(p: ChannelParams) -> RateRegion:
    if not (p.strong_at_1 and p.strong_at_2):
        raise ClassMismatchError(f"strong_capacity needs a strong channel, got {p}")
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    rhs = (log2(1.0 + s1), log2(1.0 + s2), log2(1.0 + s1 + i1), log2(1.0 + s2 + i2))
    if not all(map(math.isfinite, rhs)):
        raise DomainError("strong_capacity overflows double precision")
    coeffs = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    return RateRegion([RateConstraint(*c, r) for c, r in zip(coeffs, rhs)])


def written_out_pt2pt_outer(p: ChannelParams) -> RateRegion:
    return RateRegion(
        [
            RateConstraint(1.0, 0.0, log2(1.0 + p.snr1)),
            RateConstraint(0.0, 1.0, log2(1.0 + p.snr2)),
        ]
    )


def written_out_treat_as_noise_region(p: ChannelParams) -> RateRegion:
    return RateRegion(
        [
            RateConstraint(1.0, 0.0, log2(1.0 + p.snr1 / (1.0 + p.inr1))),
            RateConstraint(0.0, 1.0, log2(1.0 + p.snr2 / (1.0 + p.inr2))),
        ]
    )


def written_out_one_sided_sum_capacity(snr1, snr2, inr2):
    if not (inr2 < snr1):
        raise DomainError("one-sided sum capacity needs inr2 < snr1")
    return log2(1.0 + snr1) + log2(1.0 + snr2 / (1.0 + inr2))


def written_out_symmetric_capacity_strong(snr, inr):
    if inr < snr:
        raise ClassMismatchError("strong symmetric capacity needs inr >= snr")
    cap = log2(1.0 + snr)
    mac = log2(1.0 + snr + inr)
    if not math.isfinite(mac):
        raise DomainError("symmetric_capacity_strong overflows double precision")
    if inr >= snr * snr + snr:
        return cap
    return 0.5 * mac


def written_out_symmetric_bounds(snr, inr) -> SymmetricBoundSet:
    if not (snr > 0.0) or inr < 0.0:
        raise DomainError("symmetric_bounds needs snr > 0, inr >= 0")
    genie = 0.5 * log2(1.0 + snr) + 0.5 * log2(1.0 + snr / (1.0 + inr))
    new_ub = log2(1.0 + inr + snr / (1.0 + inr))
    kramer = kramer_bound(snr, inr) if 0.0 < inr < snr else None
    candidates = [genie, new_ub]
    if kramer is not None:
        candidates.append(kramer)
    if inr < 1.0:
        candidates.append(log2(1.0 + snr))
    return SymmetricBoundSet(genie_ub=genie, new_ub=new_ub, kramer_ub=kramer, best=min(candidates))


def written_out_regime1_rate(snr, inr):
    if not (snr > 0.0) or inr < 0.0:
        raise DomainError("regime1_rate needs snr > 0, inr >= 0")
    return log2(1.0 + snr / (1.0 + inr))


def written_out_symmetric_hk_rate(snr, inr):
    if not (snr > 0.0) or inr < 0.0:
        raise DomainError("symmetric_hk_rate needs snr > 0, inr >= 0")
    if inr < 1.0:
        terms = (log2(1.0 + snr / (1.0 + inr)),)
    else:
        terms = (
            0.5 * log2(1.0 + snr + inr) + 0.5 * log2(2.0 + snr / inr) - 1.0,
            log2(1.0 + inr + snr / inr) - 1.0,
        )
    if not all(map(math.isfinite, terms)):
        raise DomainError("symmetric_hk_rate overflows double precision")
    return min(terms)


def exact(value):
    """``value`` with every float as its hex bits, for exact comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, RateRegion):
        return [exact((c.c1, c.c2, c.rhs)) for c in value.constraints]
    if isinstance(value, SymmetricBoundSet):
        return exact((value.genie_ub, value.new_ub, value.kramer_ub, value.best))
    if isinstance(value, tuple):
        return [exact(v) for v in value]
    return value


def result(function, *args):
    """``function(*args)`` as exact bits, or the type of the error it raises."""
    try:
        return exact(function(*args))
    except (gicap.GicapError, ValueError) as exc:  # kramer_bound can take log2(0)
        return type(exc).__name__


def strong_image(p: ChannelParams) -> ChannelParams:
    """A strong channel from the ratios of ``p``: each SNR the smaller of its pair."""
    return ChannelParams(
        min(p.snr1, p.inr2), min(p.snr2, p.inr1), max(p.snr2, p.inr1), max(p.snr1, p.inr2)
    )


REWIRED_CHANNEL_FUNCTIONS = (
    (strong_capacity, written_out_strong_capacity),
    (pt2pt_outer, written_out_pt2pt_outer),
    (treat_as_noise_region, written_out_treat_as_noise_region),
)
REWIRED_SYMMETRIC_FUNCTIONS = (
    (symmetric_capacity_strong, written_out_symmetric_capacity_strong),
    (symmetric_bounds, written_out_symmetric_bounds),
    (regime1_rate, written_out_regime1_rate),
    (symmetric_hk_rate, written_out_symmetric_hk_rate),
)


class TestRewiredFunctions:
    """Functions reading their terms off the rows give the closed forms bit for bit."""

    def check(self, channels):
        outcomes = set()
        for p in channels:
            for q in (p, strong_image(p)):
                for new, old in REWIRED_CHANNEL_FUNCTIONS:
                    assert result(new, q) == result(old, q), (new.__name__, q)
                args = (q.snr1, q.snr2, q.inr2)
                got = result(one_sided_sum_capacity, *args)
                assert got == result(written_out_one_sided_sum_capacity, *args), args
                outcomes.add(got == "DomainError")
                for snr, inr in ((q.snr1, q.inr1), (q.snr2, q.inr2)):
                    for new, old in REWIRED_SYMMETRIC_FUNCTIONS:
                        want = result(old, snr, inr)
                        assert result(new, snr, inr) == want, (new.__name__, snr, inr)
        return outcomes

    def test_sweep_box(self):
        assert self.check(sweep_box_channels("rewired", 5000)) == {True, False}

    def test_float_range(self):
        # zero, subnormal and huge ratios: the errors must match as well
        self.check(EDGE_CHANNELS + wide_channels("rewired", 5000))

    @settings(max_examples=300, deadline=None)
    @given(p=channel)
    @example(p=ChannelParams(1.0, 1.0, 5e-324, 0.0))
    def test_property(self, p):
        self.check([p])

    def test_hk_fraction_is_d_sym_on_its_grid(self):
        # the exact cells, before _figure_rows rounds them to 12 digits
        header, rows = _raw_figure_rows("hk-fraction")
        assert header == ("alpha", "hk_fraction")
        assert len(rows) == 101
        for a, fraction in rows:
            assert exact(fraction) == exact(min(1.0 - a / 2.0, max(a, 1.0 - a))), a


@pytest.fixture(scope="module")
def kernel():
    return pytest.importorskip("gicap.kernel")


def array_rows(kernel, channels):
    """Inner rows (the recommended split, from each class's strengths) and
    each tag's outer rows of ``channels``, computed on arrays."""
    import numpy as np

    ratios = np.array([(p.snr1, p.snr2, p.inr1, p.inr2) for p in channels]).T
    inner = [None] * len(channels)
    with np.errstate(all="ignore"):
        for code in range(len(TAG_BY_STRENGTH)):
            index = [k for k, p in enumerate(channels) if p.strong_at_1 + 2 * p.strong_at_2 == code]
            if index:
                s1, s2, i1, i2 = ratios[:, index]
                p2, p1 = recommended_levels(code & 1, code & 2, i1, i2, np.minimum)
                args = hk_args(s1, s2, i1, i2, p2, p1, np.where)
                rows = np.array(log2_rows(args, kernel._log2_once())).T
                for k, row in zip(index, rows.tolist()):
                    inner[k] = row
        outer = {
            tag: np.array(log2_rows(outer_args(*ratios, tag)[1], kernel._log2_once())).T
            for tag in AUDITED_TAGS
        }
    return inner, {tag: rows.tolist() for tag, rows in outer.items()}


class TestArrayRows:
    """``hk_args``/``outer_args`` on numpy arrays give their rows on floats bit for bit."""

    def check(self, kernel, channels):
        inner, outer = array_rows(kernel, channels)
        for k, p in enumerate(channels):
            assert bits(inner[k]) == bits(log2_rows(hk_args(*p, *recommended_split(p)))), p
            for tag in AUDITED_TAGS:
                assert bits(outer[tag][k]) == bits(log2_rows(outer_args(*p, tag)[1])), (p, tag)

    def test_float_range(self, kernel):
        self.check(kernel, EDGE_CHANNELS + wide_channels("array-rows", 4000))

    def test_sweep_box(self, kernel):
        # np.log2 differs from math.log2 on about 2 in 10,000 of these
        # arguments; 20,000 channels take about 400,000 logs
        self.check(kernel, sweep_box_channels("array-rows", 20_000))

    @settings(max_examples=300, deadline=None)
    @given(channels=st.lists(channel, min_size=1, max_size=40))
    @example(channels=EDGE_CHANNELS)
    def test_property(self, kernel, channels):
        self.check(kernel, channels)


audited_channel = channel.filter(lambda p: not (p.strong_at_1 and p.strong_at_2))


def outcome(audit, channels, sequence=list):
    """The columns and worst deltas of the chunk ``audit`` returns for
    ``channels`` as text, or the error it raises.  ``audit`` takes its class
    codes, dB values (here the ratios again) and ratios as ``sequence``s."""
    tags = [TAG_BY_STRENGTH.index(classify(p).tag) for p in channels]
    ratios = [(p.snr1, p.snr2, p.inr1, p.inr2) for p in channels]
    try:
        chunk = audit(sequence(tags), sequence(ratios), sequence(ratios))
    except gicap.GicapError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((gicap.gap._columns(chunk.frame), chunk.worst))


class TestChunkAudit:
    """``kernel.audit_chunk`` returns the scalar path's chunk, or raises its error."""

    def test_sweep_box(self, kernel):
        import numpy as np

        channels = [
            p
            for p in sweep_box_channels("chunk-audit", 2000)
            if not (p.strong_at_1 and p.strong_at_2)
        ]
        want = outcome(gicap.gap._scalar_audit_chunk, channels)
        assert want.startswith("(")
        assert outcome(kernel.audit_chunk, channels, np.array) == want

    @settings(max_examples=200, deadline=None)
    @given(channels=st.lists(audited_channel, min_size=1, max_size=24))
    @example(channels=[p for p in EDGE_CHANNELS if not (p.strong_at_1 and p.strong_at_2)])
    def test_property(self, kernel, channels):
        import numpy as np

        assert outcome(kernel.audit_chunk, channels, np.array) == outcome(
            gicap.gap._scalar_audit_chunk, channels
        )

"""The region rows, written once as log2 arguments, on floats and on numpy arrays.

``hk.hk_args`` and ``bounds.outer_args`` give each row's log2 arguments;
``hk_rhs``/``outer_rows`` sum their logs left to right, and the sweep's
numpy kernel feeds the same functions arrays.  Every comparison here is
exact (same bits, sign of zero included), never within a tolerance.
"""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import gicap.gap
from gicap import ChannelParams, InterferenceTag, PowerSplit, classify, recommended_split
from gicap.bounds import outer_args, outer_rows
from gicap.channel import TAG_BY_STRENGTH
from gicap.hk import hk_args, hk_rhs, recommended_levels
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
            assert bits(hk_rhs(p, recommended_split(p))) == bits(
                written_out_hk_rows(p, recommended_split(p))
            ), p
            for tag in AUDITED_TAGS:
                assert bits(outer_rows(p, tag)[1]) == bits(written_out_outer_rows(p, tag)), (p, tag)

    def test_written_out_formulas_on_sweep_channels(self):
        rng = random.Random("sweep-rows")
        for p in sweep_box_channels("sweep-rows", 4000):
            split = PowerSplit(rng.random() * p.inr2, rng.random() * p.inr1)
            assert bits(hk_rhs(p, split)) == bits(written_out_hk_rows(p, split)), p
            for tag in AUDITED_TAGS:
                assert bits(outer_rows(p, tag)[1]) == bits(written_out_outer_rows(p, tag)), (p, tag)


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
        for strengths in TAG_BY_STRENGTH:
            index = [
                k for k, p in enumerate(channels) if (p.strong_at_1, p.strong_at_2) == strengths
            ]
            if index:
                s1, s2, i1, i2 = ratios[:, index]
                p2, p1 = recommended_levels(*strengths, i1, i2, np.minimum)
                rows = kernel._rhs(hk_args(s1, s2, i1, i2, p2, p1, kernel._private_snr))
                for k, row in zip(index, rows.tolist()):
                    inner[k] = row
        outer = {tag: kernel._rhs(outer_args(*ratios, tag)[1]) for tag in AUDITED_TAGS}
    return inner, {tag: rows.tolist() for tag, rows in outer.items()}


class TestArrayRows:
    """``hk_args``/``outer_args`` on numpy arrays give ``hk_rhs``/``outer_rows`` bit for bit."""

    def check(self, kernel, channels):
        inner, outer = array_rows(kernel, channels)
        for k, p in enumerate(channels):
            assert bits(inner[k]) == bits(hk_rhs(p, recommended_split(p))), p
            for tag in AUDITED_TAGS:
                assert bits(outer[tag][k]) == bits(outer_rows(p, tag)[1]), (p, tag)

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


def outcome(audit, channels):
    """The columns ``audit`` returns for ``channels`` as text, or the error it raises."""
    tags = [classify(p).tag for p in channels]
    try:
        return repr([list(column) for column in audit(tags, *zip(*(
            (p.snr1, p.snr2, p.inr1, p.inr2) for p in channels
        )))])
    except gicap.GicapError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestChunkAudit:
    """``kernel.audit_chunk`` returns the scalar path's columns, or raises its error."""

    def test_sweep_box(self, kernel):
        channels = [
            p
            for p in sweep_box_channels("chunk-audit", 2000)
            if not (p.strong_at_1 and p.strong_at_2)
        ]
        want = outcome(gicap.gap._scalar_audit_chunk, channels)
        assert want.startswith("[")
        assert outcome(kernel.audit_chunk, channels) == want

    @settings(max_examples=200, deadline=None)
    @given(channels=st.lists(audited_channel, min_size=1, max_size=24))
    @example(channels=[p for p in EDGE_CHANNELS if not (p.strong_at_1 and p.strong_at_2)])
    def test_property(self, kernel, channels):
        assert outcome(kernel.audit_chunk, channels) == outcome(
            gicap.gap._scalar_audit_chunk, channels
        )

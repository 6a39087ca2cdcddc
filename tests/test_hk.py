import math
import random
from decimal import Decimal, localcontext

import pytest

from gicap import (
    ChannelParams,
    DomainError,
    InterferenceTag,
    InvalidParameterError,
    InvalidSplitError,
    PowerSplit,
    classify,
    contains,
    costa_point,
    differential_rates,
    hk_region,
    mixed_outer,
    recommended_split,
    regime1_gap,
    regime1_rate,
    regime2_rate,
    regime2_window,
    symmetric_hk_rate,
    symmetric_rate,
    treat_as_noise_region,
    vertices,
    weak_outer,
)
from conftest import random_channel, vertex_sets_equal
from reference_regions import (
    closed_form_mixed_common,
    closed_form_mixed_noise,
    closed_form_noise_split,
    closed_form_regime2_rate,
    closed_form_unit_split,
    closed_form_weak_cross1,
    closed_form_weak_cross2,
    mutual_information_region,
)

log2 = math.log2


class TestSplitValidation:
    def test_negative(self):
        with pytest.raises(InvalidSplitError):
            PowerSplit(-0.1, 0)

    @pytest.mark.parametrize("value", ["a", None, 1 + 0j])
    @pytest.mark.parametrize("position", range(2))
    def test_non_number_named(self, position, value):
        levels = [0.0, 0.0]
        levels[position] = value
        name = ("inr_p2", "inr_p1")[position]
        with pytest.raises(InvalidParameterError) as excinfo:
            PowerSplit(*levels)
        assert f"{name} " in str(excinfo.value) and repr(value) in str(excinfo.value)

    def test_exceeds_cross_ratio(self):
        with pytest.raises(InvalidSplitError):
            hk_region(ChannelParams(100, 100, 10, 10), PowerSplit(20, 1))
        with pytest.raises(InvalidSplitError):
            hk_region(ChannelParams(100, 100, 10, 10), PowerSplit(1, 10.5))

    def test_zero_cross_link_forces_zero_split(self):
        p = ChannelParams(100, 100, 10, 0)
        with pytest.raises(InvalidSplitError):
            hk_region(p, PowerSplit(0.5, 1))
        hk_region(p, PowerSplit(0, 1))  # valid


class TestHkRegion:
    def test_unit_split_sum_constraint_value(self):
        # third constraint at (100,100,10,10): log2(120) + log2(11.1) - 2
        r = hk_region(ChannelParams(100, 100, 10, 10), PowerSplit(1, 1))
        expect = log2(120.0) + log2(11.1) - 2.0
        assert r.constraints[2].rhs == pytest.approx(expect, abs=1e-12)
        assert r.constraints[2].rhs == pytest.approx(8.379379, abs=1e-6)

    def test_unit_split_matches_closed_form(self):
        p = ChannelParams(100, 100, 10, 10)
        got = hk_region(p, PowerSplit(1, 1))
        ref = closed_form_unit_split(p)
        assert vertex_sets_equal(vertices(got), vertices(ref))

    def test_noise_split_reduces_to_box(self, rng):
        for _ in range(50):
            p = random_channel(rng)
            got = hk_region(p, PowerSplit(p.inr2, p.inr1))
            assert vertex_sets_equal(
                vertices(got), vertices(treat_as_noise_region(p))
            )

    def test_mixed_common_split_matches_closed_form(self):
        p = ChannelParams(100, 10, 20, 5)
        got = hk_region(p, PowerSplit(1, 0))
        ref = closed_form_mixed_common(p)
        assert vertex_sets_equal(vertices(got), vertices(ref))

    def test_constraint_families_in_order(self):
        r = hk_region(ChannelParams(100, 100, 10, 10), PowerSplit(1, 1))
        families = [(c.c1, c.c2) for c in r.constraints]
        assert families == [
            (1, 0),
            (0, 1),
            (1, 1),
            (1, 1),
            (1, 1),
            (2, 1),
            (1, 2),
        ]

    def test_r1_bound_nonincreasing_in_inr_p1(self, rng):
        for _ in range(30):
            p = random_channel(rng)
            levels = sorted(rng.uniform(0, p.inr1) for _ in range(4))
            rhs = [
                hk_region(p, PowerSplit(0.0, lv)).constraints[0].rhs for lv in levels
            ]
            assert all(a >= b - 1e-12 for a, b in zip(rhs, rhs[1:]))

    def test_inner_contained_in_outer(self, rng):
        for _ in range(60):
            p = random_channel(rng)
            tag = classify(p).tag
            if tag is InterferenceTag.STRONG:
                continue
            inner = hk_region(p, recommended_split(p))
            outer = weak_outer(p) if tag is InterferenceTag.WEAK else mixed_outer(p)
            for v in vertices(inner):
                assert contains(outer, v, tol=1e-9)

    def test_treat_as_noise_contained_in_outer(self, rng):
        for _ in range(60):
            p = random_channel(rng)
            tag = classify(p).tag
            if tag is InterferenceTag.STRONG:
                continue
            outer = weak_outer(p) if tag is InterferenceTag.WEAK else mixed_outer(p)
            for v in vertices(treat_as_noise_region(p)):
                assert contains(outer, v, tol=1e-9)


class TestMutualInformationOracle:
    """Each region bound equals the matching entropy-difference evaluation."""

    def test_random_channels_and_splits(self, rng):
        for _ in range(300):
            p = random_channel(rng)
            split = PowerSplit(
                rng.uniform(0.0, p.inr2) if p.inr2 > 0 else 0.0,
                rng.uniform(0.0, p.inr1) if p.inr1 > 0 else 0.0,
            )
            got = hk_region(p, split)
            ref = mutual_information_region(p, split.inr_p2, split.inr_p1)
            for cg, cr in zip(got.constraints, ref.constraints):
                assert (cg.c1, cg.c2) == (cr.c1, cr.c2)
                assert cg.rhs == pytest.approx(cr.rhs, abs=1e-9)

    def test_degenerate_cross_links(self):
        for p in (
            ChannelParams(100, 7, 3, 0),
            ChannelParams(5, 100, 0, 2),
            ChannelParams(50, 50, 0, 0),
        ):
            got = hk_region(p, PowerSplit(0.0 if p.inr2 == 0 else 1.0,
                                          0.0 if p.inr1 == 0 else 1.0))
            ref = mutual_information_region(
                p, 0.0 if p.inr2 == 0 else 1.0, 0.0 if p.inr1 == 0 else 1.0
            )
            for cg, cr in zip(got.constraints, ref.constraints):
                assert cg.rhs == pytest.approx(cr.rhs, abs=1e-9)


class TestClosedFormEquivalenceSpot:
    """Spot instances per split case; the full randomized sweep is in acceptance."""

    def test_weak_cross1(self):
        p = ChannelParams(200, 300, 0.5, 40)
        got = hk_region(p, PowerSplit(1, p.inr1))
        assert vertex_sets_equal(vertices(got), vertices(closed_form_weak_cross1(p)))

    def test_weak_cross2(self):
        p = ChannelParams(300, 200, 40, 0.5)
        got = hk_region(p, PowerSplit(p.inr2, 1))
        assert vertex_sets_equal(vertices(got), vertices(closed_form_weak_cross2(p)))

    def test_noise_split(self):
        p = ChannelParams(8, 9, 0.3, 0.7)
        got = hk_region(p, PowerSplit(p.inr2, p.inr1))
        assert vertex_sets_equal(vertices(got), vertices(closed_form_noise_split(p)))

    def test_mixed_noise(self):
        p = ChannelParams(500, 20, 60, 0.4)
        got = hk_region(p, PowerSplit(p.inr2, 0))
        assert vertex_sets_equal(vertices(got), vertices(closed_form_mixed_noise(p)))


class TestRecommendedSplit:
    def test_weak_noise_level(self):
        assert recommended_split(ChannelParams(100, 100, 10, 10)) == PowerSplit(1, 1)

    def test_weak_sub_noise_cross(self):
        assert recommended_split(ChannelParams(100, 100, 0.5, 10)) == PowerSplit(1, 0.5)

    def test_mixed(self):
        assert recommended_split(ChannelParams(100, 10, 20, 5)) == PowerSplit(1, 0)
        assert recommended_split(ChannelParams(10, 100, 5, 20)) == PowerSplit(0, 1)

    def test_strong_all_common(self):
        assert recommended_split(ChannelParams(10, 10, 100, 100)) == PowerSplit(0, 0)


class TestSymmetricHkRate:
    def test_b2_anchor(self):
        assert symmetric_hk_rate(100, 10) == pytest.approx(log2(21) - 1, abs=1e-12)

    def test_b1_anchor(self):
        expect = 0.5 * log2(151) + 0.5 * log2(4) - 1
        assert symmetric_hk_rate(100, 50) == pytest.approx(expect, abs=1e-12)

    def test_sub_noise_fallback(self):
        assert symmetric_hk_rate(100, 0.5) == pytest.approx(log2(1 + 100 / 1.5), abs=1e-12)

    def test_matches_region_symmetric_rate(self, rng):
        # weak symmetric channels with inr >= 1
        for _ in range(80):
            snr = 10 ** rng.uniform(0.5, 6)
            inr = 10 ** rng.uniform(0.0, math.log10(snr) * 0.999)
            p = ChannelParams(snr, snr, inr, inr)
            region_rate = symmetric_rate(hk_region(p, PowerSplit(1, 1)))
            assert region_rate == pytest.approx(symmetric_hk_rate(snr, inr), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            symmetric_hk_rate(0.0, 1.0)

    def test_overflowed_term_names_the_ratios(self):
        # log2(1 + SNR + INR) overflows; the min used to return the other
        # term, 1022.15 bits, where the exact rate is about 512.2 bits
        with pytest.raises(
            DomainError, match=r"snr1=1\.7e\+308, snr2=1\.7e\+308, inr1=1e\+308, inr2=1e\+308"
        ):
            symmetric_hk_rate(1.7e308, 1e308)


class TestTreatAsNoise:
    def test_no_interference(self):
        r = treat_as_noise_region(ChannelParams(100, 100, 0, 0))
        assert r.constraints[0].rhs == pytest.approx(log2(101), abs=1e-12)
        assert r.constraints[1].rhs == pytest.approx(log2(101), abs=1e-12)

    def test_symmetric(self):
        r = treat_as_noise_region(ChannelParams(100, 100, 10, 10))
        assert r.constraints[0].rhs == pytest.approx(3.3350, abs=1e-4)

    def test_unit(self):
        r = treat_as_noise_region(ChannelParams(1, 1, 1, 1))
        assert r.constraints[0].rhs == pytest.approx(log2(1.5), abs=1e-12)
        assert r.constraints[0].rhs == pytest.approx(0.585, abs=1e-3)


class TestCostaPoint:
    def test_strong_cross(self):
        v = costa_point(ChannelParams(5, 10, 3, 100))
        assert v.r1 == pytest.approx(log2(1 + 100 / 11), abs=1e-12)
        assert v.r2 == pytest.approx(log2(11), abs=1e-12)

    def test_no_cross_link(self):
        v = costa_point(ChannelParams(5, 10, 3, 0))
        assert v.r1 == 0
        assert v.r2 == pytest.approx(log2(11), abs=1e-12)

    def test_unit(self):
        v = costa_point(ChannelParams(1, 1, 1, 1))
        assert v.r1 == pytest.approx(log2(1.5), abs=1e-12)
        assert v.r2 == pytest.approx(1.0, abs=1e-12)

    def test_achievable_by_all_common_user1_split(self, rng):
        # whenever receiver 2's cross link is the common-rate bottleneck
        checked = 0
        while checked < 60:
            p = ChannelParams(
                10 ** rng.uniform(1, 6),
                10 ** rng.uniform(0, 4),
                10 ** rng.uniform(-2, 2),
                10 ** rng.uniform(0, 5),
            )
            if log2(1 + p.inr2 / (1 + p.snr2)) > log2(1 + p.snr1 / (1 + p.inr1)):
                continue
            checked += 1
            region = hk_region(p, PowerSplit(0.0, p.inr1))
            assert contains(region, costa_point(p), tol=1e-9)


class TestRegime1:
    def test_rate(self):
        assert regime1_rate(100, 5) == pytest.approx(log2(1 + 100 / 6), abs=1e-12)
        assert regime1_rate(100, 5) == pytest.approx(4.1430, abs=1e-4)

    def test_gap_anchor(self):
        gap = regime1_gap(1e8, 100)
        assert gap == pytest.approx(log2(1 + 100 * 101 / (1e8 + 101)), abs=1e-15)
        assert gap == pytest.approx(1.457e-4, rel=1e-3)

    def test_gap_zero_without_interference(self):
        assert regime1_gap(123.0, 0.0) == 0.0

    def test_gap_near_the_top_of_the_float_range(self):
        # INR(1 + INR) and 1 + INR + SNR both overflow here
        gap = regime1_gap(1.7e308, 1.7e308)
        assert math.isfinite(gap)
        assert gap == pytest.approx(log2(1.7e308 / 2), abs=1e-9)

    @staticmethod
    def decimal_gap(snr, inr):
        """log2(1 + INR(1+INR)/(1+INR+SNR)) with enough digits that 1 + y keeps y."""
        s, i = Decimal(snr), Decimal(inr)
        y = i * (1 + i) / (1 + i + s)
        with localcontext() as ctx:
            ctx.prec = 40 + max(0, -y.adjusted()) if y else 40
            return (1 + y).ln() / Decimal(2).ln()

    def test_gap_matches_decimal_reference(self):
        # 1e-12 relative, plus the half unit of 1 that rounding 1 + y can lose
        rng = random.Random(15)
        for _ in range(2000):
            snr = 10.0 ** rng.uniform(-300.0, 308.0)
            inr = 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-300.0, 308.0)
            got = regime1_gap(snr, inr)
            ref = self.decimal_gap(snr, inr)
            assert abs(Decimal(got) - ref) <= ref * Decimal("1e-12") + Decimal(2.0**-52), (snr, inr)


class TestRegime2:
    def test_rate_tracks_alpha_at_1e8(self):
        snr = 1e8
        inr = 10 ** 4.4
        rate = regime2_rate(snr, inr, 0.5)
        assert abs(rate / log2(snr) - 0.55) < 0.05

    def test_rate_tracks_alpha_at_1e12(self):
        snr = 1e12
        inr = 10 ** 6.6
        rate = regime2_rate(snr, inr, 0.5)
        assert abs(rate / log2(snr) - 0.55) < 0.02

    def test_gamma_window_violation(self):
        with pytest.raises(DomainError):
            regime2_rate(1e8, 10 ** 4.4, 1.5)
        with pytest.raises(DomainError):
            regime2_rate(1e8, 10 ** 4.4, 0.05)  # below (2a-1)/(1-a) ~ 0.222

    def test_alpha_window_violation(self):
        with pytest.raises(DomainError):
            regime2_rate(1e8, 10 ** 3.2, 0.5)  # alpha = 0.4

    def test_matches_closed_form(self):
        rng = random.Random(23)
        for _ in range(2000):
            snr = 10.0 ** rng.uniform(1.0, 200.0)
            inr = snr ** rng.uniform(0.501, 0.665)
            lo, hi = regime2_window(math.log(inr) / math.log(snr))
            gamma = rng.uniform(lo, hi)
            want = closed_form_regime2_rate(snr, inr, gamma)
            assert regime2_rate(snr, inr, gamma) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_finite_where_the_closed_form_overflows(self):
        lo, hi = regime2_window(0.6)
        gamma = lo + 0.25 * (hi - lo)
        assert closed_form_regime2_rate(1e300, 1e180, gamma) == math.inf
        assert regime2_rate(1e300, 1e180, gamma) == pytest.approx(597.947, abs=1e-3)


class TestDifferentialRates:
    def test_at_zero(self):
        assert differential_rates(0, 100, 10) == (100, 10)

    def test_figure_operating_point(self):
        d = differential_rates(0.1, 100, 10)
        assert d.r1 == pytest.approx(100 / 11, abs=1e-12)
        assert d.r2 == pytest.approx(5.0, abs=1e-12)

    def test_at_one(self):
        d = differential_rates(1, 100, 10)
        assert d.r1 == pytest.approx(100 / 101, abs=1e-12)
        assert d.r2 == pytest.approx(10 / 11, abs=1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(DomainError):
            differential_rates(-0.1, 100, 10)

    @pytest.mark.parametrize(
        "z, snr1, inr2",
        [
            (1, 1e300, -1),
            (0.1, math.nan, 10),
            (0.1, -5, 10),
            (math.inf, 100, 10),
            (0.1, 100, math.inf),
        ],
    )
    def test_non_finite_or_negative_rejected(self, z, snr1, inr2):
        with pytest.raises(DomainError):
            differential_rates(z, snr1, inr2)

    def test_decreasing_and_never_crossing(self, rng):
        for _ in range(50):
            snr1 = 10 ** rng.uniform(0.5, 5)
            inr2 = 10 ** rng.uniform(-2, math.log10(snr1) * 0.99)
            zs = sorted(rng.uniform(0, 1) for _ in range(6))
            pairs = [differential_rates(z, snr1, inr2) for z in zs]
            for a, b in zip(pairs, pairs[1:]):
                assert a.r1 > b.r1 and a.r2 > b.r2
            for d in pairs:
                assert d.r1 > d.r2  # snr1 > inr2: densities converge, never cross

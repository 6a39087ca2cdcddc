import math
from decimal import Decimal, localcontext

import pytest

from gicap import (
    ChannelParams,
    ClassMismatchError,
    DomainError,
    InterferenceTag,
    PowerSplit,
    class_outer,
    classify,
    hk_region,
    kramer_bound,
    mixed_outer,
    new_sum_bound,
    one_sided_sum_capacity,
    pt2pt_outer,
    strong_capacity,
    symmetric_bounds,
    symmetric_capacity_strong,
    symmetric_hk_rate,
    symmetric_rate,
    vertices,
    weak_outer,
)
from gicap.bounds import outer_args
from conftest import random_channel

log2 = math.log2


class TestNewSumBound:
    def test_asymmetric(self):
        got = new_sum_bound(ChannelParams(100, 50, 10, 5))
        expect = log2(1 + 10 + 100 / 6) + log2(1 + 5 + 50 / 11)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(8.1886, abs=1e-4)

    def test_symmetric(self):
        got = new_sum_bound(ChannelParams(100, 100, 10, 10))
        assert got == pytest.approx(2 * log2(1 + 10 + 100 / 11), abs=1e-12)
        assert got == pytest.approx(8.6569, abs=1e-4)

    def test_no_interference_reduces_to_point_to_point(self):
        s = 37.0
        got = new_sum_bound(ChannelParams(s, s, 0, 0))
        assert got == pytest.approx(2 * log2(1 + s), abs=1e-12)


class TestWeakOuter:
    def test_anchor_rows(self):
        r = weak_outer(ChannelParams(100, 100, 10, 10))
        rhs = [c.rhs for c in r.constraints]
        assert rhs[0] == pytest.approx(log2(101), abs=1e-12)
        assert rhs[2] == pytest.approx(log2(101) + log2(1 + 100 / 11), abs=1e-12)
        assert rhs[4] == pytest.approx(8.6569, abs=1e-4)
        expect_2r1r2 = log2(111) + log2(1 + 10 + 100 / 11) + log2(101 / 11)
        assert rhs[5] == pytest.approx(expect_2r1r2, abs=1e-12)
        assert rhs[5] == pytest.approx(14.3217, abs=1e-4)

    def test_families_in_order(self):
        r = weak_outer(ChannelParams(100, 100, 10, 10))
        assert [(c.c1, c.c2) for c in r.constraints] == [
            (1, 0),
            (0, 1),
            (1, 1),
            (1, 1),
            (1, 1),
            (2, 1),
            (1, 2),
        ]

    def test_class_mismatch(self):
        with pytest.raises(ClassMismatchError):
            weak_outer(ChannelParams(100, 10, 20, 5))

    def test_sum_row_equals_new_sum_bound_exactly(self, rng):
        for _ in range(50):
            p = random_channel(rng, InterferenceTag.WEAK)
            assert weak_outer(p).constraints[4].rhs == new_sum_bound(p)


class TestMixedOuter:
    def test_anchor_rows(self):
        r = mixed_outer(ChannelParams(100, 10, 20, 5))
        rhs = [c.rhs for c in r.constraints]
        assert rhs[2] == pytest.approx(log2(101) + log2(1 + 10 / 6), abs=1e-12)
        assert rhs[2] == pytest.approx(8.0732, abs=1e-4)
        assert rhs[3] == pytest.approx(log2(121), abs=1e-12)
        assert rhs[3] == pytest.approx(6.9189, abs=1e-4)
        expect = log2(16) + log2(1 + 20 + 100 / 6) + log2(1 + 10 / 21)
        assert rhs[4] == pytest.approx(expect, abs=1e-12)
        assert rhs[4] == pytest.approx(9.7970953, abs=1e-6)

    def test_constraint_count_and_families(self):
        r = mixed_outer(ChannelParams(100, 10, 20, 5))
        assert [(c.c1, c.c2) for c in r.constraints] == [
            (1, 0),
            (0, 1),
            (1, 1),
            (1, 1),
            (1, 2),
        ]

    def test_swapped_orientation_mirror(self):
        a = mixed_outer(ChannelParams(100, 10, 20, 5))
        b = mixed_outer(ChannelParams(10, 100, 5, 20))
        assert [(c.c2, c.c1, c.rhs) for c in b.constraints] == [
            (c.c1, c.c2, c.rhs) for c in a.constraints
        ]

    def test_swap_involution_on_random_channels(self, rng):
        for _ in range(30):
            p = random_channel(rng, InterferenceTag.MIXED_STRONG_AT_1)
            direct = mixed_outer(p)
            mirrored = mixed_outer(p.swapped())
            assert [(c.c2, c.c1, c.rhs) for c in mirrored.constraints] == [
                (c.c1, c.c2, c.rhs) for c in direct.constraints
            ]

    def test_class_mismatch(self):
        with pytest.raises(ClassMismatchError):
            mixed_outer(ChannelParams(100, 100, 10, 10))


class TestStrongCapacity:
    def test_anchor(self):
        r = strong_capacity(ChannelParams(10, 10, 100, 100))
        rhs = [c.rhs for c in r.constraints]
        assert rhs[0] == pytest.approx(log2(11), abs=1e-12)
        assert rhs[2] == pytest.approx(log2(111), abs=1e-12)

    def test_very_strong_box(self):
        # sum bounds inactive: vertex set equals the interference-free box
        r = strong_capacity(ChannelParams(10, 10, 200, 200))
        assert r.constraints[2].rhs == pytest.approx(log2(211), abs=1e-12)
        assert r.constraints[2].rhs >= 2 * log2(11)
        vs = vertices(r)
        a = log2(11)
        assert len(vs) == 3
        assert vs[1].r1 == pytest.approx(a) and vs[1].r2 == pytest.approx(a)

    def test_class_mismatch(self):
        with pytest.raises(ClassMismatchError):
            strong_capacity(ChannelParams(100, 100, 10, 10))

    def test_vertices_respect_both_mac_sums(self, rng):
        for _ in range(30):
            p = random_channel(rng, InterferenceTag.STRONG)
            r = strong_capacity(p)
            s1 = log2(1 + p.snr1 + p.inr1)
            s2 = log2(1 + p.snr2 + p.inr2)
            for v in vertices(r):
                assert v.r1 + v.r2 <= min(s1, s2) + 1e-9

    def test_matches_all_common_split(self, rng):
        from conftest import vertex_sets_equal

        for _ in range(30):
            p = random_channel(rng, InterferenceTag.STRONG)
            inner = hk_region(p, PowerSplit(0, 0))
            assert vertex_sets_equal(vertices(inner), vertices(strong_capacity(p)))


class TestClassOuter:
    CHANNELS = {
        InterferenceTag.WEAK: ChannelParams(100, 100, 10, 10),
        InterferenceTag.MIXED_STRONG_AT_1: ChannelParams(100, 10, 20, 5),
        InterferenceTag.MIXED_STRONG_AT_2: ChannelParams(10, 10, 5, 20),
        InterferenceTag.STRONG: ChannelParams(10, 10, 100, 100),
    }

    def test_matching_tag_gives_the_class_builder(self):
        builders = {
            InterferenceTag.WEAK: weak_outer,
            InterferenceTag.MIXED_STRONG_AT_1: mixed_outer,
            InterferenceTag.MIXED_STRONG_AT_2: mixed_outer,
            InterferenceTag.STRONG: strong_capacity,
        }
        for tag, p in self.CHANNELS.items():
            assert classify(p).tag is tag
            assert class_outer(p, tag) == builders[tag](p)

    @pytest.mark.parametrize("actual", list(CHANNELS), ids=lambda t: t.value)
    def test_every_wrong_tag_raises(self, actual):
        p = self.CHANNELS[actual]
        for tag in InterferenceTag:
            if tag is not actual:
                with pytest.raises(ClassMismatchError):
                    class_outer(p, tag)

    def test_outer_args_rejects_a_tag_that_is_not_a_class(self):
        # a tag's string value is not an InterferenceTag
        with pytest.raises(ClassMismatchError, match="got 'weak'"):
            outer_args(1.0, 1.0, 0.5, 0.5, "weak")


class TestSymmetricBounds:
    def test_anchor_100_10(self):
        sb = symmetric_bounds(100, 10)
        assert sb.genie_ub == pytest.approx(4.99660, abs=1e-4)
        assert sb.new_ub == pytest.approx(4.32847, abs=1e-4)
        assert sb.kramer_ub == pytest.approx(4.86390, abs=1e-4)
        assert sb.best == sb.new_ub

    def test_genie_100_50(self):
        sb = symmetric_bounds(100, 50)
        expect = 0.5 * log2(101) + 0.5 * log2(1 + 100 / 51)
        assert sb.genie_ub == pytest.approx(expect, abs=1e-12)
        assert sb.genie_ub == pytest.approx(4.1121, abs=1e-4)

    def test_kramer_undefined_at_zero_interference(self):
        sb = symmetric_bounds(100, 0)
        assert sb.kramer_ub is None
        assert sb.genie_ub == pytest.approx(log2(101), abs=1e-12)

    def test_best_never_above_members(self, rng):
        for _ in range(100):
            snr = 10 ** rng.uniform(0.1, 6)
            inr = 10 ** rng.uniform(-2, 6)
            sb = symmetric_bounds(snr, inr)
            assert sb.best <= sb.genie_ub + 1e-12
            assert sb.best <= sb.new_ub + 1e-12
            if sb.kramer_ub is not None:
                assert sb.best <= sb.kramer_ub + 1e-12

    def test_region_symmetric_rate_below_scalar_bounds(self, rng):
        for _ in range(60):
            p = random_channel(rng, InterferenceTag.WEAK)
            if not p.is_symmetric:
                p = ChannelParams(p.snr1, p.snr1, p.inr1, p.inr1)
                if classify(p).tag is not InterferenceTag.WEAK:
                    continue
            sb = symmetric_bounds(p.snr1, p.inr1)
            rate = symmetric_rate(weak_outer(p))
            assert rate <= sb.genie_ub + 1e-9
            assert rate <= sb.new_ub + 1e-9


class TestOneSidedSumCapacity:
    def test_anchor(self):
        got = one_sided_sum_capacity(100, 100, 10)
        assert got == pytest.approx(log2(101) + log2(1 + 100 / 11), abs=1e-12)
        assert got == pytest.approx(9.9932, abs=1e-4)

    def test_interference_free(self):
        assert one_sided_sum_capacity(100, 100, 0) == pytest.approx(2 * log2(101))

    def test_strong_side_rejected(self):
        with pytest.raises(DomainError):
            one_sided_sum_capacity(10, 100, 20)

    def test_achieved_by_treating_interference_as_noise(self, rng):
        # with the cross link to receiver 1 absent, full-power private
        # transmission attains the sum capacity at a box corner
        for _ in range(40):
            snr1 = 10 ** rng.uniform(0.5, 6)
            snr2 = 10 ** rng.uniform(0, 6)
            inr2 = 10 ** rng.uniform(-2, math.log10(snr1) * 0.999)
            p = ChannelParams(snr1, snr2, 0.0, inr2)
            region = hk_region(p, PowerSplit(inr2, 0.0))
            best_sum = max(v.r1 + v.r2 for v in vertices(region))
            assert best_sum == pytest.approx(
                one_sided_sum_capacity(snr1, snr2, inr2), abs=1e-9
            )


class TestSymmetricCapacityStrong:
    def test_strong(self):
        assert symmetric_capacity_strong(10, 100) == pytest.approx(0.5 * log2(111))

    def test_very_strong_boundary(self):
        assert symmetric_capacity_strong(10, 110) == pytest.approx(log2(11))

    def test_very_strong(self):
        assert symmetric_capacity_strong(10, 200) == pytest.approx(log2(11))

    def test_weak_rejected(self):
        with pytest.raises(ClassMismatchError):
            symmetric_capacity_strong(100, 10)

    @pytest.mark.parametrize("snr, inr", [(-0.5, -0.2), (-1.0, 0.0)])
    def test_negative_snr_rejected(self, snr, inr):
        with pytest.raises(DomainError):
            symmetric_capacity_strong(snr, inr)

    def test_zero_snr_accepted(self):
        assert symmetric_capacity_strong(0.0, 0.0) == 0.0
        assert symmetric_capacity_strong(0.0, 3.0) == 0.0


class TestPt2ptOuter:
    def test_values(self):
        r = pt2pt_outer(ChannelParams(3, 1, 5, 7))
        assert r.constraints[0].rhs == pytest.approx(2.0)
        assert r.constraints[1].rhs == pytest.approx(1.0)

    def test_zero(self):
        r = pt2pt_outer(ChannelParams(0, 0, 0, 0))
        assert r.constraints[0].rhs == 0.0
        assert r.constraints[1].rhs == 0.0


class TestKramerVsAchievable:
    def test_b1_gap_below_one_bit(self, rng):
        # restricted to B1, both classical bounds are within one bit of the scheme
        count = 0
        while count < 200:
            snr = 10 ** rng.uniform(0.7, 6)
            a = rng.uniform(0.68, 0.999)
            inr = snr ** a
            if not (1.0 <= inr < snr):
                continue
            if not (snr * (snr + inr) < inr * inr * (inr + 1.0)):
                continue  # not B1
            count += 1
            hk = symmetric_hk_rate(snr, inr)
            sb = symmetric_bounds(snr, inr)
            assert sb.genie_ub - hk < 1.0
            assert kramer_bound(snr, inr) - hk < 1.0

    def test_kramer_domain(self):
        with pytest.raises(DomainError):
            kramer_bound(10, 10)
        with pytest.raises(DomainError):
            kramer_bound(10, 0)

    @pytest.mark.parametrize("snr", [0.2858679206362913, 100.0])
    def test_kramer_at_vanishing_interference(self, snr):
        # 2 - a + sqrt(a^2 + 4 SNR a) cancels to 0 here; the limit is log2(1 + SNR)
        assert kramer_bound(snr, 1e-40) == pytest.approx(math.log2(1.0 + snr), abs=1e-12)

    # where 2 - a + sqrt(a^2 + 4 SNR a) cancels to most of a bit, and where
    # a * a, 4 SNR or SNR / INR overflows
    WITNESSES = [
        (14057.298200159232, 1.489059452920308e-16),
        (1.5, 1e-320),
        (100.0, 1e-300),
        (1e308, 1e307),
        (1.7e308, 0.5),
    ]

    @staticmethod
    def wide_pairs(rng, count):
        """``count`` pairs 0 < INR < SNR, SNR log-uniform on 1e-3..1e300 and
        INR/SNR on 1e-320..1, after the witnesses."""
        pairs = list(TestKramerVsAchievable.WITNESSES)
        while len(pairs) < count:
            snr = 10.0 ** rng.uniform(-3.0, 300.0)
            inr = snr * 10.0 ** rng.uniform(-320.0, 0.0)
            if 0.0 < inr < snr:
                pairs.append((snr, inr))
        return pairs

    @staticmethod
    def decimal_kramer(snr, inr):
        """The textbook Kramer bound, log2(2 - a + sqrt(a^2 + 4 SNR a)) - 1 with
        a = 1 + SNR/INR, to 80 digits: 2 - a + sqrt(...) cancels about
        log10(1/INR) digits, so that many more are carried."""
        with localcontext() as ctx:
            s, i = Decimal(snr), Decimal(inr)
            ctx.prec = 90 + max(0, -i.adjusted())
            a = 1 + s / i
            arg = 2 - a + (a * a + 4 * s * a).sqrt()
            return arg.ln() / Decimal(2).ln() - 1

    def test_kramer_matches_decimal_reference(self, rng):
        for snr, inr in self.wide_pairs(rng, 3000):
            got = kramer_bound(snr, inr)
            assert math.isfinite(got), (snr, inr)
            assert abs(Decimal(got) - self.decimal_kramer(snr, inr)) < Decimal("1e-9"), (snr, inr)

    def test_best_bound_is_above_the_scheme(self, rng):
        for snr, inr in self.wide_pairs(rng, 5000):
            best = symmetric_bounds(snr, inr).best
            assert best >= symmetric_hk_rate(snr, inr) - 1e-9, (snr, inr)

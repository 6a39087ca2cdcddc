import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gicap import (
    ChannelParams,
    ClassMismatchError,
    DomainError,
    InterferenceTag,
    NotCoveredError,
    RateConstraint,
    RateRegion,
    asymptotic_tightness_check,
    audit,
    audit_regions,
    certificates,
    classify,
    delta_audit,
    kramer_gap,
    one_bit_certificate,
    one_bit_sweep,
    stream_sweep,
    within_half_certificate,
)
from gicap.channel import TAG_BY_STRENGTH, _class_code
from conftest import random_channel
from reference_audit import (
    ref_delta_audit,
    ref_one_bit,
    ref_regions,
    ref_within_half,
)

log2 = math.log2


class TestDeltaAudit:
    def test_symmetric_weak_anchor(self):
        rep = delta_audit(ChannelParams(100, 100, 10, 10))
        assert rep.delta_r1 == pytest.approx(log2(101) - (log2(102) - 1), abs=1e-12)
        assert rep.delta_r1 == pytest.approx(0.98578, abs=1e-4)
        assert rep.delta_r1 < 1
        assert rep.delta_sum < 2
        assert rep.passed

    def test_symmetric_weak_sum_delta(self):
        rep = delta_audit(ChannelParams(100, 100, 10, 10))
        outer_sum_min = min(9.9932, 9.9932, 8.6569)
        assert rep.delta_sum == pytest.approx(
            outer_sum_min - (2 * log2(10.5)), abs=1e-3
        )

    def test_no_interference_zero_deltas(self):
        rep = delta_audit(ChannelParams(50, 70, 0, 0))
        for d in (
            rep.delta_r1,
            rep.delta_r2,
            rep.delta_sum,
            rep.delta_2r1_r2,
            rep.delta_r1_2r2,
        ):
            assert d == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_strong_rejected(self):
        with pytest.raises(ClassMismatchError):
            delta_audit(ChannelParams(10, 10, 100, 100))

    def test_mixed_skips_absent_family(self):
        rep = delta_audit(ChannelParams(100, 10, 20, 5))
        assert rep.delta_2r1_r2 is None
        assert rep.delta_r1_2r2 is not None
        assert rep.passed

    def test_mixed_at_2_mirrors_mixed_at_1(self):
        a = delta_audit(ChannelParams(100, 10, 20, 5))
        b = delta_audit(ChannelParams(10, 100, 5, 20))
        assert b.delta_r1 == a.delta_r2
        assert b.delta_r2 == a.delta_r1
        assert b.delta_sum == a.delta_sum
        assert b.delta_2r1_r2 == a.delta_r1_2r2
        assert b.delta_r1_2r2 == a.delta_2r1_r2
        assert b.tag is InterferenceTag.MIXED_STRONG_AT_2

    def test_weighted_delta_below_three_for_unit_cross(self, rng):
        # weak channels with both cross ratios at or above the noise floor
        count = 0
        while count < 80:
            p = random_channel(rng, InterferenceTag.WEAK)
            if p.inr1 < 1.0 or p.inr2 < 1.0:
                continue
            count += 1
            rep = delta_audit(p)
            assert rep.delta_2r1_r2 < 3.0
            assert rep.delta_r1_2r2 < 3.0


class TestSweeps:
    @pytest.mark.parametrize("strong_at_2", [False, True])
    @pytest.mark.parametrize("strong_at_1", [False, True])
    def test_class_code_is_the_strength_code(self, strong_at_1, strong_at_2):
        # each cross link at a tie with its direct link, or an ulp below it
        code = strong_at_1 + 2 * strong_at_2
        snr1, snr2 = 10.0, 1000.0
        inr1 = snr2 if strong_at_1 else math.nextafter(snr2, 0.0)
        inr2 = snr1 if strong_at_2 else math.nextafter(snr1, 0.0)
        params = ChannelParams(snr1, snr2, inr1, inr2)
        assert ChannelParams(*params) == params
        assert (params.strong_at_1, params.strong_at_2) == (strong_at_1, strong_at_2)
        assert _class_code(*params) == code
        assert classify(params).tag is TAG_BY_STRENGTH[code]
        # the same ties on exact log slopes (1, alpha1, alpha2, alpha3)
        below = Fraction(1, 2**80)
        alpha2 = Fraction(3) - (not strong_at_1) * below
        assert _class_code(1, Fraction(3), alpha2, 1 - (not strong_at_2) * below) == code
        # and on arrays of channels, the channel and its user-swapped image
        np = pytest.importorskip("numpy")
        columns = np.array([tuple(params), tuple(params.swapped())]).T
        assert _class_code(*columns).tolist() == [code, strong_at_2 + 2 * strong_at_1]

    def test_one_bit_weak_clean(self):
        result = one_bit_sweep(300, 7, "weak")
        assert result.n == 300
        assert len(result.records) == 300
        assert result.failures == ()
        assert all(r.tag == "weak" for r in result.records)
        assert result.worst_deltas["r1"] < 1.0
        assert result.worst_deltas["sum"] < 2.0

    def test_one_bit_mixed_clean(self):
        result = one_bit_sweep(300, 8, "mixed")
        assert result.failures == ()
        assert all(r.tag.startswith("mixed") for r in result.records)

    def test_within_half_clean(self, tmp_path):
        summary = stream_sweep(300, 9, "any", "within-half", tmp_path / "s.csv")
        assert summary["failures"] == 0

    def test_determinism(self):
        a = one_bit_sweep(50, 123, "any")
        b = one_bit_sweep(50, 123, "any")
        assert a.records == b.records

    def test_seed_changes_samples(self):
        a = one_bit_sweep(20, 1, "any")
        b = one_bit_sweep(20, 2, "any")
        assert a.records != b.records

    def test_validation(self):
        with pytest.raises(DomainError):
            one_bit_sweep(0, 1, "weak")
        with pytest.raises(DomainError):
            one_bit_sweep(5, 1, "bogus")

    def test_unknown_check_rejected_before_opening_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(DomainError, match="two-bit"):
            stream_sweep(10, 1, "weak", "two-bit", path)
        assert not path.exists()

    def test_unknown_class_filter_rejected_before_opening_the_file(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(DomainError, match="bogus"):
            stream_sweep(5000, 1, "bogus", "one-bit", path)
        assert not path.exists()

    @pytest.mark.parametrize("n", [True, 10.0], ids=["bool", "float"])
    def test_non_integer_n_rejected_before_opening_the_file(self, tmp_path, n):
        with pytest.raises(DomainError, match="integer"):
            one_bit_sweep(n, 1, "weak")
        path = tmp_path / "s.csv"
        with pytest.raises(DomainError, match="integer"):
            stream_sweep(n, 1, "weak", "one-bit", path)
        assert not path.exists()

    def test_integer_types_with_index_are_accepted(self, tmp_path):
        np = pytest.importorskip("numpy")
        plain = stream_sweep(10, 1, "weak", "one-bit", tmp_path / "plain.csv")
        summary = stream_sweep(np.int64(10), 1, "weak", "one-bit", tmp_path / "np.csv")
        assert summary == plain and type(summary["n"]) is int
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        result = one_bit_sweep(np.int64(10), 1, "weak")
        assert result.records == one_bit_sweep(10, 1, "weak").records
        assert type(result.n) is int

    @pytest.mark.parametrize("seed", [None, "abc", True, -1], ids=["none", "str", "bool", "-1"])
    def test_non_integer_seed_rejected_before_opening_the_file(self, tmp_path, seed):
        # None would seed from the operating system: the sweep could not be replayed;
        # random.Random seeds with abs(seed), so -1 would replay seed 1
        with pytest.raises(DomainError, match="integer seed"):
            one_bit_sweep(5, seed, "weak")
        path = tmp_path / "s.csv"
        with pytest.raises(DomainError, match="integer seed"):
            stream_sweep(5, seed, "weak", "one-bit", path)
        assert not path.exists()

    def test_integer_seed_types_with_index_are_accepted(self, tmp_path):
        np = pytest.importorskip("numpy")
        plain = stream_sweep(5, 3, "weak", "one-bit", tmp_path / "plain.csv")
        summary = stream_sweep(5, np.int64(3), "weak", "one-bit", tmp_path / "np.csv")
        assert summary == plain and type(summary["seed"]) is int
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        result = one_bit_sweep(5, np.int64(3), "weak")
        assert result.records == one_bit_sweep(5, 3, "weak").records
        assert type(result.seed) is int

    def test_single_instance_consistency(self):
        result = one_bit_sweep(1, 4, "weak")
        (rec,) = result.records
        assert rec.delta_pass and rec.one_bit and rec.within_half

    def test_low_snr_weak_channel_certificates(self):
        # noise-limited corner: both guarantees still certify
        p = ChannelParams(0.5, 0.5, 0.25, 0.25)
        inner, outer = audit_regions(p)
        assert within_half_certificate(inner, outer)
        assert one_bit_certificate(inner, outer)


class TestSweepSerialization:
    def test_csv_shape_and_determinism(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        stream_sweep(10, 5, "any", "one-bit", first)
        stream_sweep(10, 5, "any", "one-bit", second)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == (
            "snr1_db,snr2_db,inr1_db,inr2_db,class,delta_r1,delta_r2,"
            "delta_sum,delta_2r1_r2,delta_r1_2r2,one_bit_pass,within_half_pass"
        )
        assert len(lines) == 11
        for line in lines[1:]:
            assert line.endswith("true,true")

    def test_mixed_rows_have_empty_cells(self, tmp_path):
        path = tmp_path / "s.csv"
        stream_sweep(5, 6, "mixed", "one-bit", path)
        body = path.read_text().splitlines()[1:]
        assert any(",," in line for line in body)

    def test_summary_shape(self, tmp_path):
        s = stream_sweep(10, 5, "weak", "one-bit", tmp_path / "s.csv")
        assert set(s) == {"n", "failures", "worst_deltas", "seed"}
        assert s["n"] == 10 and s["failures"] == 0 and s["seed"] == 5
        assert set(s["worst_deltas"]) == {"r1", "r2", "sum", "2r1_r2", "r1_2r2"}

    def test_worst_deltas_are_order_free_record_maxima(self):
        # aggregation must be recomputable from the records in any order
        result = one_bit_sweep(60, 17, "any")
        for fam, idx in (("r1", 5), ("r2", 6), ("sum", 7),
                         ("2r1_r2", 8), ("r1_2r2", 9)):
            values = [r[idx] for r in reversed(result.records) if r[idx] is not None]
            assert result.worst_deltas[fam] == max(values)


class TestKramerGap:
    def test_b1_instance_below_one(self):
        assert kramer_gap(100, 50) < 1.0

    def test_b2_instance_exceeds_one(self):
        gap = kramer_gap(100, 10)
        assert gap == pytest.approx(1.47158, abs=1e-4)
        assert gap > 1.0

    def test_sqrt_construction_strictly_increasing(self):
        gaps = [kramer_gap(s, math.sqrt(s)) for s in (1e4, 1e6, 1e8, 1e10)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_three_quarter_power_approaches_one_from_below(self):
        gaps = [kramer_gap(s, s ** 0.75) for s in (1e6, 1e9, 1e12)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert all(g < 1.0 for g in gaps)
        assert gaps[-1] > 0.9

    def test_domain(self):
        with pytest.raises(DomainError):
            kramer_gap(100, 0.5)
        with pytest.raises(DomainError):
            kramer_gap(10, 10)


class TestAsymptoticTightness:
    def test_regime1_anchor(self):
        (gap,) = asymptotic_tightness_check(0.25, [1e8])
        assert gap == pytest.approx(1.457e-4, rel=0.01)

    def test_regime1_sequence(self):
        gaps = asymptotic_tightness_check(0.25, [1e6, 1e9, 1e12])
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_regime2_sequence(self):
        gaps = asymptotic_tightness_check(0.55, [1e6, 1e9, 1e12])
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_regime2_gap_stays_finite_up_to_snr_1e300(self):
        gaps = asymptotic_tightness_check(0.6, [1e100, 1e200, 1e300])
        assert all(0.0 <= gap < 1e-9 for gap in gaps)

    def test_regime2_explicit_gamma(self):
        gaps = asymptotic_tightness_check(0.55, [1e12], gamma=0.5)
        assert gaps[0] < 0.01

    @pytest.mark.parametrize("alpha", [0.25, 1.5, 2.5])
    def test_gamma_outside_regime2_rejected(self, alpha):
        with pytest.raises(DomainError, match=r"gamma=123\.0"):
            asymptotic_tightness_check(alpha, [1e6], gamma=123.0)

    def test_strong_slopes(self):
        gaps = asymptotic_tightness_check(1.5, [1e6, 1e9, 1e12])
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4
        gaps = asymptotic_tightness_check(2.5, [1e3, 1e6])
        assert gaps[-1] < gaps[0]

    @pytest.mark.parametrize("alpha", [0.5, 2 / 3, 0.8, 1.0])
    def test_uncovered_band(self, alpha):
        with pytest.raises(NotCoveredError):
            asymptotic_tightness_check(alpha, [1e6])

    def test_validation(self):
        with pytest.raises(DomainError):
            asymptotic_tightness_check(-0.1, [1e6])
        with pytest.raises(DomainError):
            asymptotic_tightness_check(0.25, [])
        with pytest.raises(DomainError):
            asymptotic_tightness_check(0.25, [1e9, 1e6])
        with pytest.raises(DomainError):
            asymptotic_tightness_check(0.25, [0.5, 1e6])

    @pytest.mark.parametrize("snr_list", [5, 1e6, None])
    def test_non_iterable_snr_list_named(self, snr_list):
        with pytest.raises(DomainError, match=f"snr_list={snr_list!r}$"):
            asymptotic_tightness_check(0.3, snr_list)

    def test_overflowing_inr_names_snr_and_alpha(self):
        with pytest.raises(DomainError, match=r"snr=1e\+200, alpha=2\.5"):
            asymptotic_tightness_check(2.5, [1e200])


class TestAuditRegions:
    def test_inner_outer_relationship(self, rng):
        for _ in range(40):
            p = random_channel(rng)
            if p.inr1 >= p.snr2 and p.inr2 >= p.snr1:
                continue
            inner, outer = audit_regions(p)
            assert one_bit_certificate(inner, outer)
            assert within_half_certificate(inner, outer)

    def test_strong_rejected(self):
        with pytest.raises(ClassMismatchError):
            audit_regions(ChannelParams(1, 1, 5, 5))


AUDITED_TAGS = (
    InterferenceTag.WEAK,
    InterferenceTag.MIXED_STRONG_AT_1,
    InterferenceTag.MIXED_STRONG_AT_2,
)


class TestAuditAgainstReference:
    """The single pass equals the reference path bit for bit."""

    @pytest.mark.parametrize("tag", AUDITED_TAGS, ids=lambda t: t.value)
    def test_audit_matches_reference(self, tag):
        rng = random.Random(f"audit-{tag.value}")
        for _ in range(200):
            p = random_channel(rng, tag)
            got = audit(p)
            want = ref_delta_audit(p)
            assert got.tag is tag
            assert got.report == want
            inner, outer = ref_regions(p)
            assert got.inner == inner
            assert got.outer == outer
            assert got.one_bit == ref_one_bit(inner, outer)
            assert got.within_half == ref_within_half(inner, outer)
            assert delta_audit(p) == want
            assert audit_regions(p) == (inner, outer)

    @pytest.mark.parametrize("slack", [0.0, 0.6, 1.2])
    def test_certificates_match_reference_when_they_fail(self, slack):
        # loosen the outer bound so that some verdicts turn false
        rng = random.Random(f"certificates-{slack}")
        verdicts = set()
        for tag in AUDITED_TAGS:
            for _ in range(60):
                inner, outer = ref_regions(random_channel(rng, tag))
                loose = RateRegion(
                    RateConstraint(c.c1, c.c2, c.rhs + slack) for c in outer.constraints
                )
                want = (ref_one_bit(inner, loose), ref_within_half(inner, loose))
                assert certificates(inner, loose) == want
                assert one_bit_certificate(inner, loose) == want[0]
                assert within_half_certificate(inner, loose) == want[1]
                verdicts.add(want)
        if slack > 1.0:
            assert (False, False) in verdicts or (False, True) in verdicts

    def test_overflow_names_the_channel(self):
        p = ChannelParams(1.7e308, 1.7e308, 1e308, 1e308)
        with pytest.raises(DomainError, match=r"snr1=1\.7e\+308.*inr2=1e\+308"):
            audit(p)


# Ratios (snr1, snr2, inr1, inr2) whose subnormal INR used to underflow
# the private SNR to 0, collapsing the inner region so within_half failed.
SUBNORMAL_INR = [
    (3.455422016422343e-08, 4.8879955201920175e-230, 13.501834581522525, 4.12e-321),
    (2.596302711260805e-243, 1.9634149299729926e-05, 7.16e-322, 2.132764761709782e-96),
]
RATIO = st.floats(0.0, sys.float_info.max)


class TestWholeFloatRange:
    @pytest.mark.parametrize("ratios", SUBNORMAL_INR)
    def test_subnormal_inr_certified(self, ratios):
        result = audit(ChannelParams(*ratios))
        assert result.report.passed and result.one_bit and result.within_half

    @given(RATIO, RATIO, RATIO, RATIO)
    @example(*SUBNORMAL_INR[0])
    @example(*SUBNORMAL_INR[1])
    @settings(max_examples=1000, deadline=None)
    def test_weak_and_mixed_certified_unless_rates_overflow(self, snr1, snr2, inr1, inr2):
        params = ChannelParams(snr1, snr2, inr1, inr2)
        assume(classify(params).tag is not InterferenceTag.STRONG)
        try:
            result = audit(params)
        except DomainError as exc:
            assert "overflow" in str(exc)
            return
        assert result.report.passed and result.one_bit and result.within_half

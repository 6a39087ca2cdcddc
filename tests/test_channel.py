import math
import sys

import pytest
from hypothesis import given, strategies as st

from gicap import (
    ChannelParams,
    DomainError,
    InterferenceTag,
    InvalidParameterError,
    SymmetricRegime,
    alpha,
    baseline_gdof,
    classify,
    db_to_linear,
    from_physical,
    asymptotic_tightness_check,
    kramer_bound,
    linear_to_db,
    regime1_gap,
    regime1_rate,
    symmetric_bounds,
    symmetric_capacity_strong,
    symmetric_hk_rate,
    symmetric_regime,
)


class TestFromPhysical:
    def test_zero_power_gives_zero_ratios(self):
        p = from_physical(1, 1, 1, 1, p1=0, p2=0, n0=1)
        assert (p.snr1, p.snr2, p.inr1, p.inr2) == (0, 0, 0, 0)

    def test_symmetric_instance(self):
        p = from_physical(100, 10, 10, 100, p1=1, p2=1, n0=1)
        assert (p.snr1, p.snr2, p.inr1, p.inr2) == (100, 100, 10, 10)

    def test_asymmetric_ratio_arithmetic(self):
        p = from_physical(g11=4, g12=1, g21=2, g22=3, p1=2, p2=5, n0=2)
        assert (p.snr1, p.snr2, p.inr1, p.inr2) == (4, 7.5, 5, 1)

    @pytest.mark.parametrize("n0", [0.0, -1.0])
    def test_bad_noise_power(self, n0):
        with pytest.raises(InvalidParameterError):
            from_physical(1, 1, 1, 1, 1, 1, n0)

    def test_non_finite_input(self):
        with pytest.raises(InvalidParameterError):
            from_physical(math.inf, 1, 1, 1, 1, 1, 1)

    def test_negative_gain(self):
        with pytest.raises(InvalidParameterError):
            from_physical(-1, 1, 1, 1, 1, 1, 1)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ChannelParams(-1, 1, 1, 1)
        with pytest.raises(InvalidParameterError):
            ChannelParams(1, math.nan, 1, 1)

    @pytest.mark.parametrize("position", range(4))
    def test_bool_rejected(self, position):
        ratios = [1, 1, 1, 1]
        ratios[position] = True
        with pytest.raises(InvalidParameterError, match="True"):
            ChannelParams(*ratios)

    def test_symmetry_flag(self):
        assert ChannelParams(2, 2, 3, 3).is_symmetric
        assert not ChannelParams(2, 2.5, 3, 3).is_symmetric

    def test_swapped(self):
        p = ChannelParams(1, 2, 3, 4).swapped()
        assert (p.snr1, p.snr2, p.inr1, p.inr2) == (2, 1, 4, 3)


class TestClassify:
    def test_weak(self):
        assert classify(ChannelParams(100, 100, 10, 10)).tag is InterferenceTag.WEAK

    def test_mixed_at_1(self):
        c = classify(ChannelParams(100, 10, 20, 5))
        assert c.tag is InterferenceTag.MIXED_STRONG_AT_1
        assert c.very_strong is None  # asymmetric: not applicable

    def test_mixed_at_2(self):
        assert (
            classify(ChannelParams(10, 100, 5, 20)).tag
            is InterferenceTag.MIXED_STRONG_AT_2
        )

    def test_strong_and_very_strong(self):
        c = classify(ChannelParams(10, 10, 200, 200))
        assert c.tag is InterferenceTag.STRONG
        assert c.very_strong is True  # 200 >= 10^2 + 10

    def test_strong_not_very_strong(self):
        c = classify(ChannelParams(10, 10, 100, 100))
        assert c.tag is InterferenceTag.STRONG
        assert c.very_strong is False

    def test_equality_goes_to_mixed(self):
        # inr1 == snr2 is not weak
        c = classify(ChannelParams(100, 10, 10, 5))
        assert c.tag is InterferenceTag.MIXED_STRONG_AT_1

    @given(
        st.floats(0.01, 1e6),
        st.floats(0.01, 1e6),
        st.floats(0.0, 1e6),
        st.floats(0.0, 1e6),
    )
    def test_total_and_exclusive(self, s1, s2, i1, i2):
        tag = classify(ChannelParams(s1, s2, i1, i2)).tag
        assert tag in InterferenceTag

    @given(st.floats(1.0 + 1e-9, 1e6), st.floats(1.0 + 1e-9, 1e6))
    def test_symmetric_weak_iff_alpha_below_one(self, snr, inr):
        p = ChannelParams(snr, snr, inr, inr)
        is_weak = classify(p).tag is InterferenceTag.WEAK
        assert is_weak == (inr < snr) == (alpha(snr, inr) < 1.0)


class TestAlpha:
    def test_half(self):
        assert alpha(100, 10) == pytest.approx(0.5)

    def test_unity(self):
        assert alpha(100, 100) == pytest.approx(1.0)

    def test_above_two(self):
        assert alpha(10, 200) == pytest.approx(math.log(200) / math.log(10))
        assert alpha(10, 200) == pytest.approx(2.3010, abs=1e-4)

    def test_base_independence(self):
        assert alpha(10, 200) == pytest.approx(math.log2(200) / math.log2(10))

    @pytest.mark.parametrize("snr,inr", [(1.0, 10.0), (0.5, 10.0), (100.0, 0.0)])
    def test_domain(self, snr, inr):
        with pytest.raises(DomainError):
            alpha(snr, inr)


class TestSymmetricRegime:
    @pytest.mark.parametrize(
        "snr,inr,regime",
        [
            (100, 8, 1),
            (100, 10, 2),   # alpha exactly 1/2, boundary assigned upward
            (100, 50, 3),
            (10, 100, 4),   # alpha exactly 2 but inr < snr^2 + snr
            (10, 200, 5),   # exact very-strong condition
            (100, 1e6, 5),
        ],
    )
    def test_regime_anchors(self, snr, inr, regime):
        assert symmetric_regime(snr, inr).regime == regime

    @pytest.mark.parametrize(
        "snr,inr,bset",
        [
            (100, 10, "B2"),   # 100*110 >= 100*11
            (100, 50, "B1"),   # 15000 < 127500
            (100, 0.5, None),  # undefined below the noise floor
        ],
    )
    def test_bset(self, snr, inr, bset):
        assert symmetric_regime(snr, inr).bset == bset

    @pytest.mark.parametrize(
        "snr,inr,regime,bset",
        [
            (1e200, 1e150, 3, "B1"),  # inr**3 overflows
            (1e160, 1e200, 4, "B1"),  # both B-set sides overflow: 1e360 < 1e600
            (1e200, 1e110, 2, "B2"),  # both sides of inr^3 vs snr^2 overflow
            (2.0**600, 2.0**400, 3, "B2"),  # exact tie inr^3 == snr^2 beyond the float range
            (1.7e308, 1e308, 3, "B1"),
        ],
    )
    def test_overflowing_products_decided_exactly(self, snr, inr, regime, bset):
        assert symmetric_regime(snr, inr) == SymmetricRegime(regime, bset)

    def test_inr_zero_is_regime_1(self):
        assert symmetric_regime(100, 0.0).regime == 1

    def test_snr_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            symmetric_regime(1.0, 10.0)

    @pytest.mark.parametrize(
        "snr, inr, named",
        [(math.inf, 5.0, "snr=inf"), (math.nan, 5.0, "snr=nan"), (0.5, 5.0, "snr=0.5"),
         (10.0, math.inf, "inr=inf"), (10.0, math.nan, "inr=nan"), (10.0, -1.0, "inr=-1.0")],
    )
    def test_error_names_the_bad_argument(self, snr, inr, named):
        with pytest.raises(DomainError, match=f"got {named}$"):
            symmetric_regime(snr, inr)

    @given(st.floats(1.5, 1e5), st.lists(st.floats(0.0, 1e12), min_size=2, max_size=6))
    def test_regime_nondecreasing_in_inr(self, snr, inrs):
        inrs = sorted(inrs)
        regimes = [symmetric_regime(snr, i).regime for i in inrs]
        assert regimes == sorted(regimes)

    @given(st.floats(1.5, 1e6), st.floats(0.0, 1e6))
    def test_bset_partitions_inr_at_least_one(self, snr, inr):
        bset = symmetric_regime(snr, inr).bset
        if inr >= 1.0:
            assert bset in ("B1", "B2")
            # the two sets are decided by one comparison, so disjoint by construction
            assert (bset == "B1") == (snr * (snr + inr) < inr * inr * (inr + 1.0))
        else:
            assert bset is None


class TestDbHelpers:
    def test_known_values(self):
        assert db_to_linear(20.0) == pytest.approx(100.0)
        assert db_to_linear(-10.0) == pytest.approx(0.1)
        assert linear_to_db(1000.0) == pytest.approx(30.0)

    @given(st.floats(-100, 100))
    def test_round_trip(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)

    def test_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="4000"):
            db_to_linear(4000.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            linear_to_db(0.0)


@pytest.mark.parametrize(
    "call",
    [
        (regime1_rate, (10.0, math.nan)),
        (regime1_gap, (math.inf, 1.0)),
        (symmetric_bounds, (math.inf, 1.0)),
        (kramer_bound, (math.inf, 1.0)),
        (symmetric_capacity_strong, (math.nan, math.nan)),
        (alpha, (10.0, math.inf)),
        (linear_to_db, (math.nan,)),
        (asymptotic_tightness_check, (0.3, [math.inf])),
        (symmetric_hk_rate, (10.0, math.nan)),
        (symmetric_regime, (10.0, math.inf)),
        (baseline_gdof, (math.nan, "orthogonalize")),
    ],
    ids=lambda call: call[0].__name__,
)
def test_non_finite_ratios_raise(call):
    function, args = call
    with pytest.raises(DomainError) as excinfo:
        function(*args)
    # the input is at fault, not the arithmetic
    assert "overflow" not in str(excinfo.value)


@pytest.mark.parametrize("snr", [3.0, 10.0, 1e100, 1e160])
def test_very_strong_rule_agrees_at_its_tie(snr):
    """classify, symmetric_regime and symmetric_capacity_strong decide
    INR >= SNR^2 + SNR alike at the float neighbours of the tie; at
    SNR = 1e160, SNR^2 overflows and no finite INR is very strong."""
    tie = snr * snr + snr
    if tie == math.inf:
        inrs, expect = [sys.float_info.max], [False]
    else:
        inrs, expect = [math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)], [
            False,
            True,
            True,
        ]
    flags = []
    for inr in inrs:
        flag = classify(ChannelParams(snr, snr, inr, inr)).very_strong
        assert (symmetric_regime(snr, inr).regime == 5) is flag
        branch = math.log2(1.0 + snr) if flag else 0.5 * math.log2(1.0 + snr + inr)
        assert symmetric_capacity_strong(snr, inr) == branch
        flags.append(flag)
    assert flags == expect

import math
from fractions import Fraction
from itertools import product

import pytest

from gicap import (
    BaselineScheme,
    ChannelParams,
    ClassMismatchError,
    DomainError,
    GdofParams,
    InterferenceTag,
    InvalidParameterError,
    RateConstraint,
    RateRegion,
    Vertex,
    baseline_gdof,
    classify,
    d_sym,
    finite_snr_convergence,
    gdof_region,
    one_sided_gdof_region,
    symmetric_gdof_region,
    symmetric_hk_rate,
    symmetric_rate,
    vertices,
)
from conftest import random_channel, slope_tie_grid, vertex_sets_equal
from gicap.bounds import outer_args, outer_rows
from gicap.gdof import _expansion_rows
from gicap.region import _family_minima
from reference_regions import EXPANSION_ROWS

log2 = math.log2


class TestDsym:
    @pytest.mark.parametrize(
        "a,expect",
        [
            (0.0, 1.0),
            (0.25, 0.75),
            (0.5, 0.5),
            (0.55, 0.55),
            (0.75, 0.625),
            (1.0, 0.5),
            (1.5, 0.75),
            (2.0, 1.0),
            (2.5, 1.0),
        ],
    )
    def test_values(self, a, expect):
        assert d_sym(a) == pytest.approx(expect, abs=1e-15)

    def test_breakpoints_exact(self):
        assert d_sym(0.5) == 0.5
        assert d_sym(2 / 3) == 2 / 3
        assert d_sym(1.0) == 0.5
        assert d_sym(2.0) == 1.0

    def test_continuity_and_bound(self):
        grid = [i / 1000 for i in range(3001)]
        values = [d_sym(a) for a in grid]
        assert all(v <= 1.0 + 1e-15 for v in values)
        assert all(
            abs(b - a) <= 1.1e-3 for a, b in zip(values, values[1:])
        )  # Lipschitz constant 1

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            d_sym(-0.01)


class TestGdofParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            GdofParams(0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            GdofParams(1.0, -0.5, 0.5)

    @pytest.mark.parametrize("value", ["a", None, 1 + 0j])
    @pytest.mark.parametrize("position", range(3))
    def test_non_number_named(self, position, value):
        slopes = [1.0, 1.0, 1.0]
        slopes[position] = value
        name = ("alpha1", "alpha2", "alpha3")[position]
        with pytest.raises(InvalidParameterError) as excinfo:
            GdofParams(*slopes)
        assert f"{name}={value!r}" in str(excinfo.value)


class TestWeakGdofRegion:
    def test_symmetric_point_04(self):
        r = gdof_region(GdofParams(1.0, 0.4, 0.4))
        sums = [c.rhs for c in r.constraints if (c.c1, c.c2) == (1.0, 1.0)]
        assert min(sums) == pytest.approx(1.2, abs=1e-12)
        assert sorted(sums) == pytest.approx([1.2, 1.6, 1.6], abs=1e-12)
        assert symmetric_rate(r) == pytest.approx(d_sym(0.4), abs=1e-12)

    def test_no_interference_unit_box(self):
        r = gdof_region(GdofParams(1.0, 0.0, 0.0))
        vs = vertices(r)
        assert [(v.r1, v.r2) for v in vs] == [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
        assert vertex_sets_equal(vs, vertices(symmetric_gdof_region(0.0)))

    def test_symmetric_point_075(self):
        r = gdof_region(GdofParams(1.0, 0.75, 0.75))
        triple = [c.rhs for c in r.constraints if (c.c1, c.c2) == (2.0, 1.0)]
        assert triple[0] == pytest.approx(2.0, abs=1e-12)
        assert symmetric_rate(r) == pytest.approx(0.625, abs=1e-12)

    @pytest.mark.parametrize("alpha1", [Fraction(1), Fraction(3, 4)], ids=["1", "3/4"])
    def test_fraction_slopes_stay_exact(self, alpha1):
        # the normalization slope 1 of SNR1 takes alpha1's type, not float's
        g = GdofParams(alpha1, Fraction(51, 100), Fraction(51, 100))
        region = gdof_region(g)
        rhs = [c.rhs for c in region.constraints]
        assert all(type(r) is Fraction for r in rhs), rhs
        rows = _expansion_rows(InterferenceTag.WEAK, Fraction(1), g.alpha1, g.alpha2, g.alpha3)
        # the R2-only row is scaled to d2 = rate / alpha1; every other row's
        # R2 coefficient is alpha1 times the rate row's, exactly
        assert rhs == [r / alpha1 if (c1, c2) == (0.0, 1.0) else r for c1, c2, r in rows]
        assert [c.c2 for c in region.constraints] == [
            c2 if (c1, c2) == (0.0, 1.0) else c2 * alpha1 for c1, c2, _ in rows
        ]
        assert all(type(c.c2) is Fraction for c in region.constraints if c.c1 != 0.0)

    def test_fraction_slopes_exact_in_every_region(self):
        third, quarter, half = Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)
        classes = (
            gdof_region(GdofParams(third, quarter, half)),
            gdof_region(GdofParams(third, half, quarter)),
            gdof_region(GdofParams(third, half, Fraction(3, 2))),
        )
        written = (
            symmetric_gdof_region(third),
            symmetric_gdof_region(Fraction(3, 2)),
            one_sided_gdof_region(GdofParams(third, 0, quarter)),
            one_sided_gdof_region(GdofParams(third, 0, Fraction(3, 2))),
        )
        # every rhs but the unit box's, and every R2 coefficient scaled by alpha1
        for region in classes + written:
            assert all(type(c.rhs) is Fraction for c in region.constraints if c.rhs != 1), region
        for region in classes:
            assert all(type(c.c2) is Fraction for c in region.constraints if c.c1 != 0), region
        weak_c2 = [c.c2 for c in classes[0].constraints if c.c1 != 0]
        assert weak_c2 == [0, third, third, third, third, 2 * third]
        sym_rhs = [c.rhs for c in written[0].constraints]
        assert sym_rhs == [1, 1, Fraction(4, 3), Fraction(7, 3), Fraction(7, 3)]
        assert written[2].constraints[2].rhs == Fraction(13, 12)

    def test_inside_unit_box(self, rng):
        for _ in range(50):
            a1 = rng.uniform(0.2, 2.0)
            g = GdofParams(a1, rng.uniform(0, a1 * 0.99), rng.uniform(0, 0.99))
            for v in vertices(gdof_region(g)):
                assert -1e-12 <= v.r1 <= 1 + 1e-12
                assert -1e-12 <= v.r2 <= 1 + 1e-12


class TestMixedStrongGdofRegions:
    def test_mixed_example(self):
        r = gdof_region(GdofParams(1.0, 1.5, 0.5))
        sums = [c.rhs for c in r.constraints if (c.c1, c.c2) == (1.0, 1.0)]
        assert sorted(sums) == pytest.approx([1.5, 1.5], abs=1e-12)
        weighted = [c.rhs for c in r.constraints if (c.c1, c.c2) == (1.0, 2.0)]
        assert weighted[0] == pytest.approx(2.5, abs=1e-12)

    def test_strong_matches_symmetric_form(self, rng):
        # from alpha = 1 on, each written-out symmetric row is the smallest
        # rhs of its family in the strong rows, to the last bit
        alphas = [1.0, math.nextafter(1.0, 2.0), 1.3, 1.9, 2.0, 6.0]
        alphas += [rng.uniform(1.0, 6.0) for _ in range(2000)]
        for a in alphas:
            rows = {(c.c1, c.c2): c.rhs for c in symmetric_gdof_region(a).constraints}
            strong = gdof_region(GdofParams(1.0, a, a)).constraints
            assert rows == _family_minima(((c.c1, c.c2), c.rhs) for c in strong), a

    def test_very_strong_unit_box(self):
        r = gdof_region(GdofParams(1.0, 2.0, 2.0))
        assert [(v.r1, v.r2) for v in vertices(r)] == [
            (0.0, 1.0),
            (1.0, 1.0),
            (1.0, 0.0),
        ]

    def test_mixed_takes_both_orientations(self):
        # swapping the users maps the slopes (a1, a2, a3) to (1/a1, a3/a1, a2/a1)
        # and each gdof point (d1, d2) to (d2, d1)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        for a1, a2, a3 in ((1.0, 0.5, 1.5), (2.0, 0.0001, 1.0), (half, quarter, 3 * half)):
            strong_at_2 = gdof_region(GdofParams(a1, a2, a3))
            strong_at_1 = gdof_region(GdofParams(1 / a1, a3 / a1, a2 / a1))
            mirrored = [Vertex(v.r2, v.r1) for v in reversed(vertices(strong_at_1))]
            assert vertex_sets_equal(vertices(strong_at_2), mirrored), (a1, a2, a3)


class TestSlopeClassTies:
    """``gdof_region`` takes the class that the hand-written slope test picks, ties included."""

    # (tag, its slope test, row count, the weighted families (c1, c2 / alpha1) present)
    WRITTEN_OUT = (
        (InterferenceTag.WEAK, lambda a1, a2, a3: a2 < a1 and a3 < 1, 7, {(2, 1), (1, 2)}),
        (InterferenceTag.MIXED_STRONG_AT_1, lambda a1, a2, a3: a2 >= a1 and a3 < 1, 5, {(1, 2)}),
        (InterferenceTag.MIXED_STRONG_AT_2, lambda a1, a2, a3: a2 < a1 and a3 >= 1, 5, {(2, 1)}),
        (InterferenceTag.STRONG, lambda a1, a2, a3: a2 >= a1 and a3 >= 1, 4, set()),
    )

    @pytest.mark.parametrize("number", [float, Fraction])
    def test_rows_of_the_written_out_class(self, number):
        for slopes in slope_tie_grid():
            a1, a2, a3 = map(number, slopes)
            (tag, _, count, weighted), = (w for w in self.WRITTEN_OUT if w[1](a1, a2, a3))
            region = gdof_region(GdofParams(a1, a2, a3))
            # the paper's rows, R2 coefficients scaled by alpha1 and the R2-only row's rhs by 1/alpha1
            expected = RateRegion([
                RateConstraint(0.0, 1.0, rhs / a1) if (c1, c2) == (0.0, 1.0)
                else RateConstraint(c1, number(c2) * a1, rhs)
                for c1, c2, rhs in EXPANSION_ROWS[tag](number(1), a1, a2, a3)
            ])
            assert repr(region) == repr(expected), (tag, slopes)
            assert len(region.constraints) == count, (tag, slopes)
            families = {(c.c1, c.c2 / a1) for c in region.constraints if c.c1 + c.c2 / a1 == 3}
            assert families == weighted, (tag, slopes)

    def test_one_sided_form_switches_at_alpha3_one(self):
        # at alpha1 = 1/2 the weak form gives 1 and the strong one alpha3;
        # they agree at the tie itself
        below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
        for a3, rhs in ((below, 1.0), (1.0, 1.0), (above, above)):
            r = one_sided_gdof_region(GdofParams(0.5, 0.0, a3))
            assert r.constraints[2].rhs == rhs, a3


class TestSymmetricGdofRegion:
    def test_half(self):
        r = symmetric_gdof_region(0.5)
        sums = [c.rhs for c in r.constraints if (c.c1, c.c2) == (1.0, 1.0)]
        assert sums[0] == pytest.approx(1.0, abs=1e-15)

    def test_branch_agreement_at_one(self):
        below = symmetric_gdof_region(1.0 - 1e-12)
        at = symmetric_gdof_region(1.0)
        assert vertex_sets_equal(vertices(below), vertices(at), tol=1e-9)

    def test_point_six(self):
        r = symmetric_gdof_region(0.6)
        sums = [c.rhs for c in r.constraints if (c.c1, c.c2) == (1.0, 1.0)]
        assert sums[0] == pytest.approx(1.2, abs=1e-15)
        triple = [c.rhs for c in r.constraints if (c.c1, c.c2) == (2.0, 1.0)]
        assert triple[0] == pytest.approx(2.0, abs=1e-15)

    def test_symmetric_point_equals_d_sym_on_grid(self):
        # d_sym is the symmetric point of the written-out region; the class
        # rows on equal slopes reach the same point
        for i in range(0, 251):
            a = i / 100
            g = GdofParams(1.0, a, a)
            point = symmetric_rate(gdof_region(g))
            assert abs(point - d_sym(a)) <= 1e-12, f"alpha={a}"

    def test_matches_general_weak_rows(self, rng):
        # the merged min-form and the seven-row weak construction describe
        # the same polygon on equal slopes
        for _ in range(80):
            a = rng.uniform(0.0, 0.999)
            assert vertex_sets_equal(
                vertices(symmetric_gdof_region(a)),
                vertices(gdof_region(GdofParams(1.0, a, a))),
            )


class TestOneSidedGdofRegion:
    def test_weak_corners(self):
        r = one_sided_gdof_region(GdofParams(1.0, 0.0, 0.4))
        vs = vertices(r)
        assert any(
            abs(v.r1 - 1.0) < 1e-12 and abs(v.r2 - 0.6) < 1e-12 for v in vs
        )
        assert any(
            abs(v.r1 - 0.6) < 1e-12 and abs(v.r2 - 1.0) < 1e-12 for v in vs
        )

    def test_weak_dominant_cross(self):
        r = one_sided_gdof_region(GdofParams(0.5, 0.0, 0.8))
        sum_c = [c for c in r.constraints if c.c1 == 1.0 and c.c2 == 0.5]
        assert sum_c[0].rhs == pytest.approx(1.0, abs=1e-15)
        assert any(
            abs(v.r1 - 0.5) < 1e-12 and abs(v.r2 - 1.0) < 1e-12 for v in vertices(r)
        )

    def test_strong(self):
        r = one_sided_gdof_region(GdofParams(1.0, 0.0, 1.5))
        sums = [c.rhs for c in r.constraints if (c.c1, c.c2) == (1.0, 1.0)]
        assert sums[0] == pytest.approx(1.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ClassMismatchError):
            one_sided_gdof_region(GdofParams(1.0, 0.3, 0.4))

    def test_matches_class_rows(self, rng):
        # with one cross link absent the compact three-constraint form
        # describes the same polygon as the rows of the slopes' class (weak,
        # or mixed strong at receiver 2), on four-decimal slopes and the
        # alpha3 = 1 tie
        for k in range(2000):
            a1 = round(rng.uniform(0.0001, 3.0), 4)
            a3 = 1.0 if k % 10 == 0 else round(rng.uniform(0.0, 3.0), 4)
            g = GdofParams(a1, 0.0, a3)
            assert vertex_sets_equal(
                vertices(one_sided_gdof_region(g)),
                vertices(gdof_region(g)),
            ), g


class TestBaselines:
    @pytest.mark.parametrize(
        "a,scheme,expect",
        [
            (0.5, BaselineScheme.ORTHOGONALIZE, 0.5),
            (0.3, BaselineScheme.TREAT_AS_NOISE, 0.7),
            (1.5, BaselineScheme.TREAT_AS_NOISE, 0.0),
            (2.2, "orthogonalize", 0.5),
        ],
    )
    def test_values(self, a, scheme, expect):
        assert baseline_gdof(a, scheme) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("scheme", ["bogus", None, 3, "ORTHOGONALIZE"])
    def test_unknown_scheme_is_a_domain_error(self, scheme):
        with pytest.raises(DomainError, match="orthogonalize.*treat_as_noise"):
            baseline_gdof(0.5, scheme)

    def test_only_values_are_converted_to_members(self, monkeypatch):
        converted = []
        enum_type = type(BaselineScheme)
        real_call = enum_type.__call__

        def counting_call(cls, *args, **kwargs):
            if cls is BaselineScheme:
                converted.append(args)
            return real_call(cls, *args, **kwargs)

        monkeypatch.setattr(enum_type, "__call__", counting_call)
        for scheme in BaselineScheme:
            assert baseline_gdof(0.25, scheme) == baseline_gdof(0.25, scheme.value)
        assert converted == [(scheme.value,) for scheme in BaselineScheme]

    def test_never_beats_capacity_curve(self):
        for i in range(0, 251):
            a = i / 100
            d = d_sym(a)
            orth = baseline_gdof(a, BaselineScheme.ORTHOGONALIZE)
            tin = baseline_gdof(a, BaselineScheme.TREAT_AS_NOISE)
            assert orth <= d + 1e-12
            assert tin <= d + 1e-12
            if a in (0.5, 1.0):
                assert orth == pytest.approx(d, abs=1e-15)
            elif 0 < a:
                assert not math.isclose(orth, d) or a in (0.5, 1.0)
            if a <= 0.5:
                assert tin == pytest.approx(d, abs=1e-15)
            elif a < 2.0:
                assert tin < d


class TestFiniteSnrConvergence:
    def test_weak_anchor(self):
        res = finite_snr_convergence(100.0, 0.5)
        assert res.lower == pytest.approx(
            symmetric_hk_rate(100, 10) / log2(100), abs=1e-12
        )
        assert res.lower == pytest.approx(0.51058, abs=1e-4)
        assert res.d_limit == 0.5

    def test_high_snr_sandwich(self):
        res = finite_snr_convergence(1e12, 0.75)
        slack = 2.0 / log2(1e12)
        assert abs(res.lower - 0.625) <= slack
        assert abs(res.upper - 0.625) <= slack
        assert res.lower <= res.upper + 1e-12

    def test_strong_slope_is_exact(self):
        res = finite_snr_convergence(1e6, 1.5)
        assert res.lower == res.upper

    def test_zero_slope_trends_to_one(self):
        vals = [finite_snr_convergence(s, 0.0) for s in (1e3, 1e6, 1e9)]
        lowers = [v.lower for v in vals]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert abs(vals[-1].lower - 1.0) < 0.05
        assert abs(vals[-1].upper - 1.0) < 0.05

    def test_sandwich_width_bound(self):
        # upper - lower stays below 2/log2(snr) over the whole slope grid
        # at snr >= 1e6 (no exclusions turned out to be necessary)
        for snr in (1e6, 1e9):
            budget = 2.0 / log2(snr)
            for i in range(0, 51):
                r = finite_snr_convergence(snr, i / 20)
                assert r.upper - r.lower <= budget

    def test_validation(self):
        with pytest.raises(DomainError):
            finite_snr_convergence(2.0, 0.5)
        with pytest.raises(DomainError):
            finite_snr_convergence(100.0, -0.1)

    def test_overflowing_inr_names_snr_and_alpha(self):
        with pytest.raises(DomainError, match=r"snr=1e\+200, alpha=2\.0"):
            finite_snr_convergence(1e200, 2.0)


class TestFirstOrderExpansion:
    """The gdof rows are the limits of the outer rows: ``_expansion_rows`` on a
    channel's log2 ratios stays within a few bits of ``outer_rows``."""

    @staticmethod
    def expansion(p):
        """The max-plus rows of ``p``'s class, in bits; a zero cross ratio has
        slope -inf, which the ``1 + x`` it sits in turns into 0."""
        logs = [log2(x) if x > 0.0 else -math.inf for x in p]
        return _expansion_rows(classify(p).tag, *logs)

    @staticmethod
    def cross_ratio(rng, snr, strong):
        """An INR at or above ``snr`` if ``strong``, else 0 or down to 1e-300."""
        if strong:
            return 10.0 ** rng.uniform(math.log10(snr), 8.0)
        return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-300.0, math.log10(snr))

    @pytest.mark.parametrize(
        "tag",
        [InterferenceTag.WEAK, InterferenceTag.MIXED_STRONG_AT_1, InterferenceTag.MIXED_STRONG_AT_2],
        ids=lambda tag: tag.value,
    )
    def test_rows_within_two_bits_per_argument_of_the_outer_rows(self, tag, rng):
        # each log2 argument is a sum of at most three terms, with at most one
        # 1 + x denominator: its max-plus image is at most log2 3 below its
        # log2 and at most 1 above
        checked = 0
        while checked < 2000:
            snr1, snr2 = (10.0 ** rng.uniform(0.0, 8.0) for _ in range(2))
            inr1 = self.cross_ratio(rng, snr2, tag is InterferenceTag.MIXED_STRONG_AT_1)
            inr2 = self.cross_ratio(rng, snr1, tag is InterferenceTag.MIXED_STRONG_AT_2)
            p = ChannelParams(snr1, snr2, inr1, inr2)
            if min(snr1, snr2) <= 1.0 or classify(p).tag is not tag:
                continue
            coeffs, rhs = outer_rows(p, tag)
            args = outer_args(snr1, snr2, inr1, inr2, tag)[1]
            rows = self.expansion(p)
            assert [(c1, c2) for c1, c2, _ in rows] == list(coeffs)
            for row, bound, row_args in zip(rows, rhs, args):
                assert abs(row[2] - bound) <= 2.0 * len(row_args), (p, row)
            checked += 1

    def test_scaled_gdof_region_matches(self, rng):
        for _ in range(40):
            p = random_channel(rng, InterferenceTag.WEAK)
            if min(p.snr1, p.snr2) <= 1.0 or min(p.inr1, p.inr2) < 1.0:
                continue
            scale = log2(p.snr1)
            a1 = log2(p.snr2) / scale
            a2 = log2(p.inr1) / scale
            a3 = log2(p.inr2) / scale
            if not (0.0 <= a2 < a1 and 0.0 <= a3 < 1.0):
                continue
            g = GdofParams(a1, a2, a3)
            expansion = self.expansion(p)
            gregion = gdof_region(g)
            assert len(expansion) == len(gregion.constraints)
            for (_, _, rhs), cg in zip(expansion, gregion.constraints):
                if cg.c1 == 0.0:
                    assert rhs == pytest.approx(cg.rhs * g.alpha1 * scale, abs=1e-9)
                else:
                    assert rhs == pytest.approx(cg.rhs * scale, abs=1e-9)

    @staticmethod
    def sum_rows(rows):
        return [rhs for c1, c2, rhs in rows if (c1, c2) == (1.0, 1.0)]

    @staticmethod
    def region(rows):
        return RateRegion([RateConstraint(*row) for row in rows])

    def test_weak_interference_limited_row(self):
        sums = self.sum_rows(self.expansion(ChannelParams(100, 100, 10, 10)))
        # interference-limited row: max(log 10, log 10) + max(log 10, log 10)
        assert min(sums) == pytest.approx(2 * log2(10), abs=1e-12)
        assert min(sums) == pytest.approx(6.6439, abs=1e-4)

    def test_weak_unit_cross_box_dominates(self):
        vs = vertices(self.region(self.expansion(ChannelParams(100, 200, 1, 1))))
        assert vs[0].r2 == pytest.approx(log2(200), abs=1e-9)
        assert vs[-1].r1 == pytest.approx(log2(100), abs=1e-9)
        assert len(vs) == 3  # box behavior

    def test_mixed_mac_row(self):
        sums = self.sum_rows(self.expansion(ChannelParams(100, 10, 20, 5)))
        assert min(sums) == pytest.approx(max(log2(100), log2(20)), abs=1e-12)
        assert min(sums) == pytest.approx(6.6439, abs=1e-4)

    def test_mixed_at_2_is_mirror(self):
        a = self.expansion(ChannelParams(100, 10, 20, 5))
        b = self.expansion(ChannelParams(10, 100, 5, 20))
        assert [(c2, c1, rhs) for c1, c2, rhs in b] == a

    def test_zero_cross_ratio_degenerates_to_box(self):
        rows = self.expansion(ChannelParams(100, 200, 0, 0))
        assert len(rows) == 7
        got = [(v.r1, v.r2) for v in vertices(self.region(rows))]
        assert got == [(0.0, log2(200)), (log2(100), log2(200)), (log2(100), 0.0)]


# slopes with the W curve's breakpoints 1/2, 2/3, 1 and 2 among them
SLOPES = [
    Fraction(v)
    for v in ("0", "1/4", "1/3", "1/2", "3/5", "2/3", "3/4", "1", "4/3", "3/2", "2", "5/2")
]

# (tag, the paper's rows, slopes in the class's domain: SNR1 = SNR, SNR2 = SNR ** a1,
# INR1 = SNR ** a2, INR2 = SNR ** a3)
EXPANSIONS = [
    (tag, EXPANSION_ROWS[tag], domain)
    for tag, domain in (
        (InterferenceTag.WEAK, lambda a1, a2, a3: a2 < a1 and a3 < 1),
        (InterferenceTag.MIXED_STRONG_AT_1, lambda a1, a2, a3: a2 >= a1 and a3 < 1),
        (InterferenceTag.STRONG, lambda a1, a2, a3: a2 >= a1 and a3 >= 1),
        (InterferenceTag.MIXED_STRONG_AT_2, lambda a1, a2, a3: a2 < a1 and a3 >= 1),
    )
]


class TestExpansionRowsOracle:
    """The max-plus rows read off ``outer_args`` are the paper's hand rows, exactly."""

    @pytest.mark.parametrize(
        "tag, hand_rows, domain", EXPANSIONS, ids=lambda v: getattr(v, "value", "")
    )
    def test_hand_rows_equal_the_max_plus_rows(self, tag, hand_rows, domain):
        grid = [
            (Fraction(1), a1, a2, a3)
            for a1, a2, a3 in product(SLOPES, repeat=3)
            if a1 > 0 and domain(a1, a2, a3)
        ]
        for breakpoint in ("1/2", "2/3", "1", "2"):
            assert any(Fraction(breakpoint) in slopes[1:] for slopes in grid)
        for slopes in grid:
            derived = _expansion_rows(tag, *slopes)
            assert all(isinstance(rhs, Fraction) for _, _, rhs in derived), slopes
            assert derived == hand_rows(*slopes), slopes

    @pytest.mark.parametrize(
        "tag, hand_rows, domain", EXPANSIONS, ids=lambda v: getattr(v, "value", "")
    )
    def test_float_rows_round_like_the_hand_rows(self, tag, hand_rows, domain, rng):
        # the gdof and figures bytes rest on this: same doubles, signed zeros too
        breakpoints = (0.0, 0.5, 2 / 3, 1.0, 2.0)
        checked = 0
        while checked < 2000:
            a1, a2, a3 = (
                rng.choice(breakpoints) if rng.random() < 0.3 else rng.uniform(0.0, 3.0)
                for _ in range(3)
            )
            if a1 > 0 and domain(a1, a2, a3):
                slopes = (1.0, a1, a2, a3)
                assert repr(_expansion_rows(tag, *slopes)) == repr(hand_rows(*slopes))
                checked += 1

    def test_max_plus_reads_a_known_row(self):
        # the sum row log(1 + INR1 + SNR1/(1+INR2)) + log(1 + INR2 + SNR2/(1+INR1))
        # has slope max(a2, 1 - a3) + max(a3, a1 - a2) = 2/3 + 1/3
        slopes = (1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 3))
        assert _expansion_rows(InterferenceTag.WEAK, *slopes)[4] == (1.0, 1.0, 1)

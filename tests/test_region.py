import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gicap import (
    ChannelParams,
    ContainmentError,
    DomainError,
    InterferenceTag,
    InvalidParameterError,
    RateConstraint,
    RateRegion,
    UnboundedRegionError,
    Vertex,
    audit_regions,
    certificates,
    contains,
    one_bit_certificate,
    region_to_jsonable,
    symmetric_rate,
    vertices,
    within_half_certificate,
)
from gicap.region import DEFAULT_TOL, _family_minima, _support
from conftest import random_channel
from reference_audit import _require_containment, ref_margins, ref_one_bit, ref_within_half

log2 = math.log2


def box(u1, u2):
    return RateRegion([RateConstraint(1, 0, u1), RateConstraint(0, 1, u2)])


def strong_symmetric_region():
    # symmetric strong instance SNR=10, INR=100
    a = log2(11.0)
    return RateRegion(
        [
            RateConstraint(1, 0, a),
            RateConstraint(0, 1, a),
            RateConstraint(1, 1, log2(111.0)),
        ]
    )


class TestConstraintValidation:
    def test_negative_coefficient(self):
        with pytest.raises(InvalidParameterError):
            RateConstraint(-1, 0, 1)

    def test_all_zero(self):
        with pytest.raises(InvalidParameterError):
            RateConstraint(0, 0, 1)

    def test_non_finite_rhs(self):
        with pytest.raises(InvalidParameterError):
            RateConstraint(1, 0, math.inf)

    @pytest.mark.parametrize("value", ["a", None, 1 + 0j, [1.0]])
    @pytest.mark.parametrize("position", range(3))
    def test_non_number_named(self, position, value):
        entries = [1.0, 1.0, 1.0]
        entries[position] = value
        name = ("c1", "c2", "rhs")[position]
        with pytest.raises(InvalidParameterError) as excinfo:
            RateConstraint(*entries)
        assert f"{name}={value!r}" in str(excinfo.value)

    def test_empty_region(self):
        with pytest.raises(InvalidParameterError):
            RateRegion([])


class TestVertices:
    def test_box(self):
        vs = vertices(box(2, 3))
        assert vs == [Vertex(0, 3), Vertex(2, 3), Vertex(2, 0)]

    def test_strong_symmetric(self):
        a, s = log2(11.0), log2(111.0)
        vs = vertices(strong_symmetric_region())
        expect = [(0.0, a), (s - a, a), (a, s - a), (a, 0.0)]
        assert len(vs) == 4
        for v, (x, y) in zip(vs, expect):
            assert v.r1 == pytest.approx(x, abs=1e-9)
            assert v.r2 == pytest.approx(y, abs=1e-9)

    def test_two_sum_constraints(self):
        r = RateRegion([RateConstraint(1, 1, 1.0), RateConstraint(2, 1, 1.5)])
        vs = vertices(r)
        assert vs == [Vertex(0, 1), Vertex(0.5, 0.5), Vertex(0.75, 0)]

    def test_small_coefficients_keep_their_corner(self):
        # the two caps' determinant is 1e-14, yet they cross at (1e7, 1e7);
        # the corner's r1 rounds above 1e7, yet it comes before (1e7, 0)
        vs = vertices(RateRegion([RateConstraint(1e-7, 0, 1), RateConstraint(0, 1e-7, 1)]))
        assert len(vs) == 3
        for v, want in zip(vs, [(0, 1e7), (1e7, 1e7), (1e7, 0)]):
            assert v == pytest.approx(want, rel=1e-12)

    def test_small_coefficients_list_each_corner_once(self):
        # four lines cross near (1e9, 1e9), up to 2e-7 apart: one corner
        region = RateRegion([
            RateConstraint(1e-9, 0, 1),
            RateConstraint(0, 1e-9, 1),
            RateConstraint(1e-9, 1e-9, 2),
            RateConstraint(2e-9, 1e-9, 3),
        ])
        vs = vertices(region)
        assert len(vs) == 3
        for v, want in zip(vs, [(0, 1e9), (1e9, 1e9), (1e9, 0)]):
            assert v == pytest.approx(want, rel=1e-12)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedRegionError):
            vertices(RateRegion([RateConstraint(1, 0, 2)]))

    def test_overflowed_vertex_raises(self):
        # the weak GDoF region at alpha1 = 1e200: 2e200 * 1e200 overflows
        r = RateRegion([RateConstraint(1, 0, 1.0), RateConstraint(0, 1, 1.0),
                        RateConstraint(2, 1e200, 1e200), RateConstraint(1, 2e200, 2e200)])
        with pytest.raises(DomainError):
            vertices(r)

    def test_degenerate_origin_only(self):
        r = RateRegion(
            [
                RateConstraint(1, 1, 0.0),
                RateConstraint(1, 0, 1.0),
                RateConstraint(0, 1, 1.0),
            ]
        )
        assert vertices(r) == [Vertex(0, 0)]

    def test_duplicate_constraints_dedup(self):
        r = RateRegion(
            [RateConstraint(1, 0, 2), RateConstraint(1, 0, 2), RateConstraint(0, 1, 3)]
        )
        assert vertices(r) == [Vertex(0, 3), Vertex(2, 3), Vertex(2, 0)]


class TestContains:
    def test_corner(self):
        assert contains(box(2, 3), (2, 3), tol=0)

    def test_just_outside(self):
        assert not contains(box(2, 3), (2 + 1e-6, 3), tol=1e-9)

    def test_strong_interior(self):
        assert contains(strong_symmetric_region(), (3.40, 3.39))

    def test_negative_point(self):
        assert not contains(box(2, 3), (-1e-6, 1), tol=1e-9)

    @pytest.mark.parametrize(
        "point", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (1.0, math.nan)]
    )
    def test_nan_point_is_outside(self, point):
        assert not contains(box(2, 3), point)
        assert not contains(box(2, 3), point, tol=0)

    @pytest.mark.parametrize(
        "point, tol",
        [(("3", 0.0), 0.0), ((0.0, None), 0.0), ((1j, 0.0), 0.0), (([1.0], 0.0), 0.0),
         ((True, 0.0), 0.0), ((math.nan, "3"), 0.0), ((-1.0, "3"), 0.0), ((0.0, 0.0), "0"),
         (5.0, 0.0), ((0.0, 0.0, 0.0), 0.0)],
    )
    def test_non_real_point_is_an_invalid_parameter(self, point, tol):
        with pytest.raises(InvalidParameterError) as excinfo:
            contains(box(2, 3), point, tol=tol)
        assert repr(point) in str(excinfo.value)


class TestSymmetricRate:
    def test_min_over_families(self):
        r = RateRegion(
            [
                RateConstraint(1, 0, 2),
                RateConstraint(0, 1, 3),
                RateConstraint(1, 1, 4),
            ]
        )
        assert symmetric_rate(r) == 2

    def test_degenerate_zero(self):
        r = RateRegion(
            [
                RateConstraint(1, 1, 0),
                RateConstraint(1, 0, 1),
                RateConstraint(0, 1, 1),
            ]
        )
        assert symmetric_rate(r) == 0


class TestIntersect:
    def test_idempotent_vertex_set(self):
        b = box(2, 3)
        assert vertices(RateRegion(b.constraints + b.constraints)) == vertices(b)

    def test_symmetric_mac_pair(self):
        mac = strong_symmetric_region()
        both = RateRegion(mac.constraints + mac.constraints)
        assert vertices(both) == vertices(mac)

    def test_half_plane_rejected_on_enumeration(self):
        half = RateRegion([RateConstraint(1, 0, 2)])
        merged = RateRegion(half.constraints + half.constraints)
        with pytest.raises(UnboundedRegionError):
            vertices(merged)


class TestCertificates:
    def test_identical_regions(self):
        b = box(2, 3)
        assert one_bit_certificate(b, b)
        assert within_half_certificate(b, b)

    def test_one_bit_failure(self):
        assert not one_bit_certificate(box(1, 1), box(2.5, 1.5))

    def test_one_bit_success_wide_box(self):
        assert one_bit_certificate(box(1, 1), box(1.9, 1.9))

    def test_within_half_failure(self):
        assert not within_half_certificate(box(1, 1), box(2.1, 2.1))

    def test_within_half_success(self):
        assert within_half_certificate(box(1, 1), box(1.9, 1.9))

    def test_containment_violation_raises(self):
        with pytest.raises(ContainmentError):
            one_bit_certificate(box(3, 3), box(2, 2))
        with pytest.raises(ContainmentError):
            within_half_certificate(box(3, 3), box(2, 2))

    def test_unbounded_inner_region_raises(self):
        with pytest.raises(UnboundedRegionError):
            certificates(RateRegion([RateConstraint(1, 0, 1)]), box(2, 2))
        with pytest.raises(UnboundedRegionError):
            certificates(RateRegion([RateConstraint(0, 1, 1)]), RateRegion([RateConstraint(0, 1, 2)]))

    def test_unbounded_outer_region_raises(self):
        with pytest.raises(UnboundedRegionError):
            certificates(box(1, 1), RateRegion([RateConstraint(1, 0, 2)]))
        with pytest.raises(UnboundedRegionError):
            certificates(box(1, 1), RateRegion([RateConstraint(1, 0, 2), RateConstraint(2, 0, 9)]))

    def test_huge_coefficients_decided_exactly(self):
        # the weak GDoF region at alpha1 = 1e200, whose vertices overflow
        # (test_overflowed_vertex_raises); its support values do not
        def region(r1_cap):
            return RateRegion([RateConstraint(1, 0, r1_cap), RateConstraint(0, 1, 1.0),
                               RateConstraint(2, 1e200, 1e200), RateConstraint(1, 2e200, 2e200)])

        inner, outer = region(3.0), region(4.5)
        want = exact_certificates(inner, outer)
        assert want == (True, False, True)
        assert certificates(inner, outer) == want[1:]
        with pytest.raises(ContainmentError):
            certificates(outer, inner)
        assert exact_certificates(outer, inner)[0] is False


class TestJson:
    def test_shape_and_digits(self):
        r = RateRegion(
            [RateConstraint(1, 0, 1 / 3), RateConstraint(0, 1, 2 / 3)]
        )
        obj = region_to_jsonable(r)
        assert set(obj) == {"constraints", "vertices"}
        assert obj["constraints"][0] == {"c1": 1.0, "c2": 0.0, "rhs": 0.333333333333}
        text = json.dumps(obj)
        assert "0.333333333333" in text
        assert obj["vertices"] == [[0.0, 0.666666666667], [0.333333333333, 0.666666666667], [0.333333333333, 0.0]]


def _random_region(rng: random.Random) -> RateRegion:
    cons = [
        RateConstraint(1, 0, rng.uniform(0.5, 6.0)),
        RateConstraint(0, 1, rng.uniform(0.5, 6.0)),
    ]
    for _ in range(rng.randrange(0, 6)):
        c1, c2 = rng.choice([(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)] * 2 + [
            (rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        ])
        rhs = min(rng.uniform(0.25, 1.0) * (c1 * cons[0].rhs + c2 * cons[1].rhs), 20.0)
        cons.append(RateConstraint(c1, c2, rhs))
    return RateRegion(cons)


class TestPolytopeProperties:
    def test_vertices_satisfy_contains(self, rng):
        for _ in range(200):
            r = _random_region(rng)
            for v in vertices(r):
                assert contains(r, v, tol=1e-9)

    def test_down_closedness(self, rng):
        for _ in range(200):
            r = _random_region(rng)
            vs = vertices(r)
            v = rng.choice(vs)
            q = (v.r1 * rng.random(), v.r2 * rng.random())
            assert contains(r, q, tol=1e-9)

    def test_convex_combinations_inside(self, rng):
        for _ in range(200):
            r = _random_region(rng)
            vs = vertices(r)
            if len(vs) < 2:
                continue
            a, b = rng.sample(vs, 2)
            t = rng.random()
            p = (t * a.r1 + (1 - t) * b.r1, t * a.r2 + (1 - t) * b.r2)
            assert contains(r, p, tol=1e-9)

    def test_symmetric_rate_point_on_boundary(self, rng):
        for _ in range(100):
            r = _random_region(rng)
            t = symmetric_rate(r)
            assert contains(r, (t, t), tol=1e-9)
            assert not contains(r, (t + 1e-6, t + 1e-6), tol=1e-9)

    @given(st.floats(0.1, 5), st.floats(0.1, 5), st.floats(0.1, 9.9))
    @settings(max_examples=60)
    def test_box_with_sum_vertex_count(self, u1, u2, s):
        r = RateRegion(
            [
                RateConstraint(1, 0, u1),
                RateConstraint(0, 1, u2),
                RateConstraint(1, 1, s),
            ]
        )
        vs = vertices(r)
        for v in vs:
            assert contains(r, v)
        # a box cut by one diagonal has between 1 and 4 canonical vertices
        assert 1 <= len(vs) <= 4


def exact_support(region: RateRegion, c) -> Fraction:
    """The largest ``c . R`` over ``region``, by exact vertex enumeration in ``Fraction``s."""
    rows = [tuple(map(Fraction, (k.c1, k.c2, k.rhs))) for k in region.constraints]
    lines = rows + [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]
    best = None
    for i, (a1, b1, r1) in enumerate(lines):
        for a2, b2, r2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if not det:
                continue
            x, y = (r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det
            if x >= 0 and y >= 0 and all(a * x + b * y <= r for a, b, r in rows):
                value = c[0] * x + c[1] * y
                best = value if best is None else max(best, value)
    return best


def exact_minima(region: RateRegion) -> dict:
    """The smallest rhs of each coefficient pair of ``region``, in ``Fraction``s."""
    mins: dict = {}
    for k in region.constraints:
        c, rhs = (Fraction(k.c1), Fraction(k.c2)), Fraction(k.rhs)
        mins[c] = min(mins.get(c, rhs), rhs)
    return mins


def exact_certificates(inner: RateRegion, outer: RateRegion) -> tuple[bool, bool, bool]:
    """(contained, one_bit, within_half) from exact support values, with the
    certificates' tolerance."""
    tol = Fraction(DEFAULT_TOL)
    inner_m, outer_m = exact_minima(inner), exact_minima(outer)
    h = {c: exact_support(outer, c) for c in inner_m}
    return (
        all(exact_support(inner, c) <= m + tol for c, m in outer_m.items()),
        all(h[c] - c[0] - c[1] <= m + tol for c, m in inner_m.items()),
        all(h[c] / 2 <= m + tol for c, m in inner_m.items()),
    )


def support_margins(inner: RateRegion, outer: RateRegion) -> tuple[float, float, float]:
    """The (containment, one-bit, within-half) margins that ``certificates``
    compares with ``-DEFAULT_TOL``, from support functions."""
    inner_m, outer_m = (
        _family_minima(((c.c1, c.c2), c.rhs) for c in region.constraints) for region in (inner, outer)
    )
    return (
        min(m - _support(inner_m, c) for c, m in outer_m.items()),
        min(m - (_support(outer_m, c) - c[0] - c[1]) for c, m in inner_m.items()),
        min(m - 0.5 * _support(outer_m, c) for c, m in inner_m.items()),
    )


def shifted(region: RateRegion, bits: float) -> RateRegion:
    return RateRegion(RateConstraint(c.c1, c.c2, c.rhs + bits) for c in region.constraints)


def raised(params: ChannelParams, power: float) -> ChannelParams:
    """The channel with every ratio raised to ``power`` (its dB values times ``power``)."""
    return ChannelParams(*(x ** power for x in (params.snr1, params.snr2, params.inr1, params.inr2)))


# Margins of the two forms must agree to this many bits, and so must the
# verdicts wherever the vertex margin is farther than this from the threshold.
# The forms differ by rounding only: at most 4.5e-12 bits in the 300 dB test.
# A band of 1e-8, ten times the tolerance, would leave undecided the margins
# of exactly 0 that rows shared by both regions give.
MARGIN_AGREEMENT = 1e-10


def check_against_vertex_oracle(inner: RateRegion, outer: RateRegion) -> tuple:
    """Compare ``certificates`` with the vertex-enumeration oracle, margins
    first; returns the (contained, one_bit, within_half) verdicts, None for
    a margin too close to its threshold to decide or a verdict not reached."""
    threshold = -DEFAULT_TOL
    margins, support = ref_margins(inner, outer), support_margins(inner, outer)
    assert support[0] == pytest.approx(margins[0], abs=MARGIN_AGREEMENT)
    if abs(margins[0] - threshold) <= MARGIN_AGREEMENT:
        return None, None, None
    if margins[0] < threshold:
        with pytest.raises(ContainmentError):
            _require_containment(inner, outer)
        with pytest.raises(ContainmentError):
            certificates(inner, outer)
        return False, None, None
    assert support == pytest.approx(margins, abs=MARGIN_AGREEMENT)
    got = certificates(inner, outer)
    verdicts = [True]
    for margin, verdict, ref in zip(margins[1:], got, (ref_one_bit, ref_within_half)):
        decided = abs(margin - threshold) > MARGIN_AGREEMENT
        if decided:
            assert verdict == ref(inner, outer) == (margin >= threshold)
        verdicts.append(verdict if decided else None)
    return tuple(verdicts)


class TestCertificatesAgainstVertexOracle:
    """``certificates`` decides from support functions; the reference
    enumerates vertices.  Margins agree to MARGIN_AGREEMENT bits, and so do
    the verdicts away from their thresholds."""

    def test_random_regions(self, rng):
        verdicts = set()
        for _ in range(400):
            inner = _random_region(rng)
            outer = shifted(inner, rng.uniform(-0.5, 2.5))
            if rng.random() < 0.5:
                # rows of arbitrary positive coefficients, which may cut the inner region
                outer = RateRegion(outer.constraints + _random_region(rng).constraints[2:])
            verdicts.add(check_against_vertex_oracle(inner, outer))
        assert {(False, None, None), (True, True, True), (True, False, True),
                (True, False, False)} <= verdicts

    # power 5 raises every ratio to the 5th power: 0-300 dB SNRs
    @pytest.mark.parametrize("power", [1, 5], ids=["60dB", "300dB"])
    def test_audited_channels(self, power):
        rng = random.Random(f"oracle-{power}")
        verdicts = set()
        for tag in (InterferenceTag.WEAK, InterferenceTag.MIXED_STRONG_AT_1,
                    InterferenceTag.MIXED_STRONG_AT_2):
            for _ in range(40):
                inner, outer = audit_regions(raised(random_channel(rng, tag), power))
                for slack in (0.0, 0.6, 1.2, 2.5):
                    verdicts.add(check_against_vertex_oracle(inner, shifted(outer, slack)))
        assert (True, True, True) in verdicts
        assert any(v[1] is False for v in verdicts)
        assert any(v[2] is False for v in verdicts)

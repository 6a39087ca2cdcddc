import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gicap import (
    ContainmentError,
    DomainError,
    InvalidParameterError,
    RateConstraint,
    RateRegion,
    UnboundedRegionError,
    Vertex,
    contains,
    one_bit_certificate,
    region_to_jsonable,
    symmetric_rate,
    vertices,
    within_half_certificate,
)

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

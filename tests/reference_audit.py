"""Reference formulation of the per-channel gap audit.

An oracle for :func:`gicap.gap.audit`, written the long way round:

* the recommended split and the outer bound are chosen by classifying
  the channel;
* a MIXED_STRONG_AT_2 channel is handled through its user-swapped
  MIXED_STRONG_AT_1 image: the mixed outer bound mirrors the swapped
  channel's bound, and the delta audit audits the swapped channel and
  relabels its families (r1 <-> r2, 2R1+R2 <-> R1+2R2);
* each certificate runs its own inner-in-outer containment check.

``audit`` must agree with this path exactly: same deltas, same verdicts.
"""

from __future__ import annotations

import math

from gicap import (
    ChannelParams,
    ClassMismatchError,
    ContainmentError,
    GapReport,
    InterferenceTag,
    PowerSplit,
    RateConstraint,
    RateRegion,
    classify,
    contains,
    hk_region,
    vertices,
    weak_outer,
)

log2 = math.log2

FAMILIES = {
    (1.0, 0.0): "r1",
    (0.0, 1.0): "r2",
    (1.0, 1.0): "sum",
    (2.0, 1.0): "2r1_r2",
    (1.0, 2.0): "r1_2r2",
}
THRESHOLDS = {"r1": 1.0, "r2": 1.0, "sum": 2.0, "2r1_r2": 3.0, "r1_2r2": 3.0}
SLACK = 1e-9
TOL = 1e-9


def ref_split(p: ChannelParams) -> PowerSplit:
    tag = classify(p).tag
    if tag is InterferenceTag.WEAK:
        return PowerSplit(min(1.0, p.inr2), min(1.0, p.inr1))
    if tag is InterferenceTag.MIXED_STRONG_AT_1:
        return PowerSplit(min(1.0, p.inr2), 0.0)
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        return PowerSplit(0.0, min(1.0, p.inr1))
    return PowerSplit(0.0, 0.0)


def ref_mixed_outer(p: ChannelParams) -> RateRegion:
    tag = classify(p).tag
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        swapped = ref_mixed_outer(p.swapped())
        return RateRegion([RateConstraint(c.c2, c.c1, c.rhs) for c in swapped.constraints])
    if tag is not InterferenceTag.MIXED_STRONG_AT_1:
        raise ClassMismatchError(f"not a mixed channel: {p}")
    s1, s2, i1, i2 = p.snr1, p.snr2, p.inr1, p.inr2
    return RateRegion(
        [
            RateConstraint(1.0, 0.0, log2(1.0 + s1)),
            RateConstraint(0.0, 1.0, log2(1.0 + s2)),
            RateConstraint(1.0, 1.0, log2(1.0 + s1) + log2(1.0 + s2 / (1.0 + i2))),
            RateConstraint(1.0, 1.0, log2(1.0 + s1 + i1)),
            RateConstraint(
                1.0,
                2.0,
                log2(1.0 + s2 + i2)
                + log2(1.0 + i1 + s1 / (1.0 + i2))
                + log2(1.0 + s2 / (1.0 + i1)),
            ),
        ]
    )


def ref_regions(p: ChannelParams) -> tuple[RateRegion, RateRegion]:
    tag = classify(p).tag
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError("no gap audit for strong channels")
    inner = hk_region(p, ref_split(p))
    outer = weak_outer(p) if tag is InterferenceTag.WEAK else ref_mixed_outer(p)
    return inner, outer


def _family_rhs(region: RateRegion) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for c in region.constraints:
        key = FAMILIES.get((c.c1, c.c2))
        if key is not None:
            out.setdefault(key, []).append(c.rhs)
    return out


def ref_delta_audit(p: ChannelParams) -> GapReport:
    tag = classify(p).tag
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        rep = ref_delta_audit(p.swapped())
        return GapReport(
            params=p,
            tag=tag,
            delta_r1=rep.delta_r2,
            delta_r2=rep.delta_r1,
            delta_sum=rep.delta_sum,
            delta_2r1_r2=rep.delta_r1_2r2,
            delta_r1_2r2=rep.delta_2r1_r2,
            passed=rep.passed,
        )

    inner, outer = ref_regions(p)
    inner_f = _family_rhs(inner)
    outer_f = _family_rhs(outer)
    deltas: dict[str, float | None] = {}
    ok = True
    for fam, thresh in THRESHOLDS.items():
        if fam not in outer_f:
            deltas[fam] = None
            continue
        d = min(outer_f[fam]) - min(inner_f[fam])
        deltas[fam] = d
        if not (d < thresh + SLACK):
            ok = False
    return GapReport(
        params=p,
        tag=tag,
        delta_r1=deltas["r1"],
        delta_r2=deltas["r2"],
        delta_sum=deltas["sum"],
        delta_2r1_r2=deltas["2r1_r2"],
        delta_r1_2r2=deltas["r1_2r2"],
        passed=ok,
    )


def _require_containment(inner: RateRegion, outer: RateRegion) -> None:
    for v in vertices(inner):
        if not contains(outer, v, TOL):
            raise ContainmentError(f"inner vertex {v} outside the outer bound")


def ref_one_bit(inner: RateRegion, outer: RateRegion) -> bool:
    _require_containment(inner, outer)
    for v in vertices(outer):
        p1, p2 = v.r1 - 1.0, v.r2 - 1.0
        for c in inner.constraints:
            if c.c1 * p1 + c.c2 * p2 > c.rhs + TOL:
                return False
    return True


def ref_within_half(inner: RateRegion, outer: RateRegion) -> bool:
    _require_containment(inner, outer)
    return all(contains(inner, (0.5 * v.r1, 0.5 * v.r2), TOL) for v in vertices(outer))


def ref_margins(inner: RateRegion, outer: RateRegion) -> tuple[float, float | None, float | None]:
    """(containment, one-bit, within-half) margins by vertex enumeration.

    Each is the least ``rhs - lhs`` over the rows and points that its check
    above tests: the outer rows at the inner vertices, and the inner rows
    at the outer vertices pulled back by one bit or halved.  A check passes
    when its margin is at least ``-TOL``, up to rounding.  The last two are
    None when the containment check fails.
    """

    def least(region, points):
        return min(c.rhs - (c.c1 * p1 + c.c2 * p2) for c in region.constraints for p1, p2 in points)

    contained = least(outer, vertices(inner))
    if contained < -TOL:
        return contained, None, None
    outer_vertices = vertices(outer)
    return (
        contained,
        least(inner, [(v.r1 - 1.0, v.r2 - 1.0) for v in outer_vertices]),
        least(inner, [(0.5 * v.r1, 0.5 * v.r2) for v in outer_vertices]),
    )

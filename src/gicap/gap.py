"""Machine verification of the one-bit and within-half gap guarantees.

:func:`audit` is one pass per weak or mixed channel: it classifies the
channel once, builds the recommended-split achievable region and the
class-matched outer bound once each, reads the family deltas off both
constraint lists by coefficient pattern (either mixed orientation, no
user swap), and runs one inner-in-outer containment check that feeds
both geometric certificates.  :func:`delta_audit` and
:func:`audit_regions` are views of that pass.  It measures per-family
deltas

    delta_f = min(outer constraints of family f) - min(inner constraints of f)

for the families R1, R2, R1+R2, 2R1+R2, R1+2R2.  The one-bit criterion is

    delta_R1 < 1, delta_R2 < 1, delta_sum < 2, delta_{2R1+R2} < 3,
    delta_{R1+2R2} < 3          (1e-9 slack),

checked alongside the independent geometric certificates on the region
polytopes.  Families absent from the mixed outer bound are skipped and
reported as not-applicable.  The per-index paired deltas (i-th outer
constraint minus i-th inner constraint of the same family) are reported
for diagnosis; the exact min-min deltas decide pass/fail.  On
MIXED_STRONG_AT_2 channels the inner sum rows are paired in their
user-swapped order, so both mixed orientations pair alike.

Sweeps sample SNRs log-uniformly over [0, 60] dB and INRs over [-20, 60]
dB with a caller-supplied seed, rejection-filtered to the requested
class.  Records are evaluated independently and aggregated
order-insensitively, so results are identical for any evaluation order.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

from . import bounds as _bounds
from . import hk as _hk
from .channel import ChannelParams, InterferenceTag, classify, db_to_linear
from .errors import ClassMismatchError, DomainError, InvalidParameterError, NotCoveredError
from .region import RateRegion, certificates, sigfig

__all__ = [
    "Audit",
    "GapReport",
    "SweepRecord",
    "SweepResult",
    "asymptotic_tightness_check",
    "audit",
    "audit_regions",
    "delta_audit",
    "kramer_gap",
    "one_bit_sweep",
    "sweep_summary",
    "within_half_sweep",
    "write_sweep_csv",
]

_LOG2 = math.log2

# Family keys by exact coefficient pattern, and the one-bit thresholds.
_FAMILIES = {
    (1.0, 0.0): "r1",
    (0.0, 1.0): "r2",
    (1.0, 1.0): "sum",
    (2.0, 1.0): "2r1_r2",
    (1.0, 2.0): "r1_2r2",
}
_THRESHOLDS = {"r1": 1.0, "r2": 1.0, "sum": 2.0, "2r1_r2": 3.0, "r1_2r2": 3.0}
_SLACK = 1e-9
# The MIXED_STRONG_AT_2 bound is the user-swapped image of the AT_1 bound.
# Swapping the users exchanges the first two achievable sum rows, so its sum
# rows pair with the inner sums in this order.
_SWAPPED_SUM_ORDER = (1, 0, 2)

SNR_DB_RANGE = (0.0, 60.0)
INR_DB_RANGE = (-20.0, 60.0)


@dataclass(frozen=True)
class GapReport:
    """Per-family deltas between an outer bound and an achievable region.

    ``delta_2r1_r2`` / ``delta_r1_2r2`` are None when the outer bound has
    no constraint of that family (mixed channels).  ``paired_deltas``
    maps a family to the positional outer-minus-inner differences; each
    exact family delta is bounded above by the max of its paired deltas.
    """

    params: ChannelParams
    tag: InterferenceTag
    delta_r1: float
    delta_r2: float
    delta_sum: float
    delta_2r1_r2: float | None
    delta_r1_2r2: float | None
    paired_deltas: dict[str, tuple[float, ...]]
    passed: bool


@dataclass(frozen=True)
class Audit:
    """Everything one audit pass derives for a weak or mixed channel.

    ``inner`` is the recommended-split achievable region, ``outer`` the
    class-matched bound, ``report`` the per-family deltas, and
    ``one_bit`` / ``within_half`` the two geometric certificates.
    """

    tag: InterferenceTag
    inner: RateRegion
    outer: RateRegion
    report: GapReport
    one_bit: bool
    within_half: bool


def _family_rhs(region: RateRegion) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for c in region.constraints:
        key = _FAMILIES.get((c.c1, c.c2))
        if key is not None:
            out.setdefault(key, []).append(c.rhs)
    return out


def audit(params: ChannelParams) -> Audit:
    """One audit pass: classify, build both regions, take deltas, certify.

    Strong channels have zero gap by exactness and are rejected.  A
    channel whose ratios overflow a region formula raises
    :class:`DomainError` naming the channel.
    """
    return _audit(params, classify(params).tag)


def _overflow_checked(params: ChannelParams, build):
    """``build()``; a rate that overflows raises :class:`DomainError` naming ``params``."""
    try:
        return build()
    except InvalidParameterError as exc:  # RateConstraint rejects an inf rate
        raise DomainError(
            f"cannot audit {params}: its rates overflow double precision ({exc})"
        ) from exc


def _audit(params: ChannelParams, tag: InterferenceTag) -> Audit:
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError(
            "gap audit is undefined for strong channels (capacity is exact)"
        )
    split = _hk.recommended_split(params)
    inner, outer = _overflow_checked(
        params, lambda: (_hk.hk_region(params, split), _bounds.class_outer(params, tag))
    )
    inner_f = _family_rhs(inner)
    outer_f = _family_rhs(outer)
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        inner_f["sum"] = [inner_f["sum"][k] for k in _SWAPPED_SUM_ORDER]

    deltas: dict[str, float | None] = {}
    paired: dict[str, tuple[float, ...]] = {}
    ok = True
    for fam, thresh in _THRESHOLDS.items():
        if fam not in outer_f:
            deltas[fam] = None
            continue
        d = min(outer_f[fam]) - min(inner_f[fam])
        deltas[fam] = d
        paired[fam] = tuple(o - i for o, i in zip(outer_f[fam], inner_f[fam]))
        if not (d < thresh + _SLACK):
            ok = False
    # deltas holds the families in the order of GapReport's delta fields
    report = GapReport(params, tag, *deltas.values(), paired_deltas=paired, passed=ok)
    one_bit, within_half = certificates(inner, outer)
    return Audit(tag, inner, outer, report, one_bit, within_half)


def audit_regions(params: ChannelParams) -> tuple[RateRegion, RateRegion]:
    """(inner, outer) pair audited for this channel; a view of :func:`audit`."""
    result = audit(params)
    return result.inner, result.outer


def delta_audit(params: ChannelParams) -> GapReport:
    """Exact per-family delta audit of the one-bit criterion; a view of :func:`audit`."""
    return audit(params).report


class SweepRecord(NamedTuple):
    """One audited channel instance of a sweep."""

    snr1_db: float
    snr2_db: float
    inr1_db: float
    inr2_db: float
    tag: str
    delta_r1: float
    delta_r2: float
    delta_sum: float
    delta_2r1_r2: float | None
    delta_r1_2r2: float | None
    delta_pass: bool
    one_bit: bool
    within_half: bool


@dataclass(frozen=True)
class SweepResult:
    """Audited records plus the failure view relevant to the caller."""

    n: int
    seed: int
    class_filter: str
    records: tuple[SweepRecord, ...]
    failures: tuple[SweepRecord, ...]
    worst_deltas: dict[str, float | None]


_CLASS_FILTERS = {
    "weak": (InterferenceTag.WEAK,),
    "mixed": (InterferenceTag.MIXED_STRONG_AT_1, InterferenceTag.MIXED_STRONG_AT_2),
    "any": (
        InterferenceTag.WEAK,
        InterferenceTag.MIXED_STRONG_AT_1,
        InterferenceTag.MIXED_STRONG_AT_2,
    ),
}


def _run_records(n: int, seed: int, class_filter: str) -> list[SweepRecord]:
    if n < 1:
        raise DomainError(f"sweep needs n >= 1, got {n!r}")
    try:
        accepted_tags = _CLASS_FILTERS[class_filter]
    except KeyError:
        raise DomainError(
            f"unknown class filter {class_filter!r}; expected one of {sorted(_CLASS_FILTERS)}"
        ) from None
    rng = random.Random(seed)

    def draw(lo: float, hi: float) -> float:
        # scale rng.random() directly: it is the one generator method with
        # a documented cross-version reproducibility guarantee
        return lo + (hi - lo) * rng.random()

    records: list[SweepRecord] = []
    while len(records) < n:
        snr1_db = draw(*SNR_DB_RANGE)
        snr2_db = draw(*SNR_DB_RANGE)
        inr1_db = draw(*INR_DB_RANGE)
        inr2_db = draw(*INR_DB_RANGE)
        params = ChannelParams(
            db_to_linear(snr1_db),
            db_to_linear(snr2_db),
            db_to_linear(inr1_db),
            db_to_linear(inr2_db),
        )
        tag = classify(params).tag
        if tag not in accepted_tags:
            continue
        result = _audit(params, tag)
        rep = result.report
        records.append(
            SweepRecord(
                snr1_db=snr1_db,
                snr2_db=snr2_db,
                inr1_db=inr1_db,
                inr2_db=inr2_db,
                tag=tag.value,
                delta_r1=rep.delta_r1,
                delta_r2=rep.delta_r2,
                delta_sum=rep.delta_sum,
                delta_2r1_r2=rep.delta_2r1_r2,
                delta_r1_2r2=rep.delta_r1_2r2,
                delta_pass=rep.passed,
                one_bit=result.one_bit,
                within_half=result.within_half,
            )
        )
    return records


def _worst_deltas(records: Iterable[SweepRecord]) -> dict[str, float | None]:
    worst: dict[str, float | None] = {f: None for f in _THRESHOLDS}
    for rec in records:
        values = (rec.delta_r1, rec.delta_r2, rec.delta_sum, rec.delta_2r1_r2, rec.delta_r1_2r2)
        for fam, value in zip(_THRESHOLDS, values):
            if value is None:
                continue
            cur = worst[fam]
            if cur is None or value > cur:
                worst[fam] = value
    return worst


def _sweep(n: int, seed: int, class_filter: str, failed) -> SweepResult:
    records = _run_records(n, seed, class_filter)
    return SweepResult(
        n=n,
        seed=seed,
        class_filter=class_filter,
        records=tuple(records),
        failures=tuple(r for r in records if failed(r)),
        worst_deltas=_worst_deltas(records),
    )


def one_bit_sweep(n: int, seed: int, class_filter: str = "any") -> SweepResult:
    """Random-channel audit of the one-bit guarantee.

    A failure is a record whose exact deltas violate their thresholds or
    whose geometric one-bit certificate is false.  Failures are returned
    as data, never raised.
    """
    return _sweep(n, seed, class_filter, lambda r: not (r.delta_pass and r.one_bit))


def within_half_sweep(n: int, seed: int) -> SweepResult:
    """Random-channel audit of the factor-two guarantee over weak and mixed."""
    return _sweep(n, seed, "any", lambda r: not r.within_half)


_CSV_COLUMNS = (
    "snr1_db",
    "snr2_db",
    "inr1_db",
    "inr2_db",
    "class",
    "delta_r1",
    "delta_r2",
    "delta_sum",
    "delta_2r1_r2",
    "delta_r1_2r2",
    "one_bit_pass",
    "within_half_pass",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_sweep_csv(result: SweepResult, fileobj: IO[str]) -> None:
    """One row per audited instance, numbers at 12 significant digits."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in result.records:
        writer.writerow(
            [
                _cell(r.snr1_db),
                _cell(r.snr2_db),
                _cell(r.inr1_db),
                _cell(r.inr2_db),
                r.tag,
                _cell(r.delta_r1),
                _cell(r.delta_r2),
                _cell(r.delta_sum),
                _cell(r.delta_2r1_r2),
                _cell(r.delta_r1_2r2),
                _cell(r.one_bit and r.delta_pass),
                _cell(r.within_half),
            ]
        )


def sweep_summary(result: SweepResult) -> dict:
    """Compact JSON-ready summary: {n, failures, worst_deltas, seed}."""
    return {
        "n": result.n,
        "failures": len(result.failures),
        "worst_deltas": {
            fam: (None if v is None else sigfig(v))
            for fam, v in result.worst_deltas.items()
        },
        "seed": result.seed,
    }


def kramer_gap(snr: float, inr: float) -> float:
    """Kramer bound minus the noise-level-split achievable symmetric rate.

    Defined on 1 <= INR < SNR.  Restricted to the B1 range the gap stays
    below one bit; on B2 it is unbounded (it diverges along INR =
    sqrt(SNR)), which is exactly why the interference-limited bound is
    needed there.
    """
    if not (1.0 <= inr < snr):
        raise DomainError(
            f"kramer_gap needs 1 <= inr < snr, got inr={inr!r}, snr={snr!r}"
        )
    return _bounds.kramer_bound(snr, inr) - _hk.symmetric_hk_rate(snr, inr)


def _default_regime2_gamma(alpha_value: float) -> float:
    # Quarter point of the admissible window.  The finite-SNR gap scales
    # with the private interference level (INR/SNR)**(1-gamma), so values
    # near the window's upper edge converge too slowly to certify
    # tightness at realistic SNR; near the lower edge is safe because the
    # common-rate min switches branches only in the limit.
    lo, hi = _hk.regime2_window(alpha_value)
    return lo + 0.25 * (hi - lo)


def asymptotic_tightness_check(
    alpha_value: float,
    snr_list: Iterable[float],
    gamma: float | None = None,
) -> list[float]:
    """Gap sequence certifying asymptotic optimality at a fixed slope alpha.

    For each SNR in the increasing ``snr_list`` (with INR = SNR**alpha):

    * alpha < 1/2  : exact gap between the treat-as-noise rate and the
      interference-limited upper bound;
    * 1/2 < alpha < 2/3 : |log2 INR - regime-2 rate| with the vanishing
      private level (gamma defaults to the lower quarter point of the
      admissible window);
    * alpha > 1 : |exact strong capacity - leading-order approximation|
      (1/2 log2 INR below the very-strong slope 2, log2 SNR at or above).

    The band 2/3 <= alpha <= 1 (and the boundary alpha = 1/2) has no
    vanishing-gap scheme and raises :class:`NotCoveredError`.
    """
    if not (alpha_value > 0.0) or not math.isfinite(alpha_value):
        raise DomainError(f"alpha must be positive and finite, got {alpha_value!r}")
    covered = (
        alpha_value < 0.5
        or 0.5 < alpha_value < 2.0 / 3.0
        or alpha_value > 1.0
    )
    if not covered:
        raise NotCoveredError(
            f"no asymptotically tight scheme is known for alpha={alpha_value!r}"
        )
    snrs = list(snr_list)
    if not snrs:
        raise DomainError("snr_list must be nonempty")
    if any(not (s > 1.0) for s in snrs):
        raise DomainError("every snr must exceed 1")
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise DomainError("snr_list must be strictly increasing")

    gaps: list[float] = []
    for snr in snrs:
        inr = snr ** alpha_value
        if alpha_value < 0.5:
            gaps.append(_hk.regime1_gap(snr, inr))
        elif alpha_value < 2.0 / 3.0:
            g = _default_regime2_gamma(alpha_value) if gamma is None else gamma
            gaps.append(abs(_LOG2(inr) - _hk.regime2_rate(snr, inr, g)))
        else:
            cap = _bounds.symmetric_capacity_strong(snr, inr)
            approx = _LOG2(snr) if alpha_value >= 2.0 else 0.5 * _LOG2(inr)
            gaps.append(abs(cap - approx))
    return gaps

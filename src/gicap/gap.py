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
class.  They are audited :data:`SWEEP_CHUNK` channels at a time
(:func:`sweep_chunks`); :func:`stream_sweep` writes each chunk's CSV rows
as it goes and keeps only the failure count and the worst deltas, so its
memory does not grow with the sweep size.  Records are evaluated
independently and aggregated order-insensitively, so results are
identical for any evaluation order.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

from . import bounds as _bounds
from . import hk as _hk
from .channel import ChannelParams, InterferenceTag, _power_inr, classify, db_to_linear
from .errors import (
    ClassMismatchError,
    ContainmentError,
    DomainError,
    InvalidParameterError,
    NotCoveredError,
)
from .region import RateRegion, certificates, region_from_rows, sigfig

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
    "stream_sweep",
    "sweep_chunks",
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


def _families(coeffs, rhs) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for c, r in zip(coeffs, rhs):
        out.setdefault(_FAMILIES[c], []).append(r)
    return out


def _family_deltas(inner_f, outer_f) -> tuple[list[float | None], bool]:
    """Min-min delta per family in GapReport's field order (None if the outer
    bound lacks the family), and whether every delta clears its threshold."""
    deltas: list[float | None] = []
    ok = True
    for fam, thresh in _THRESHOLDS.items():
        if fam not in outer_f:
            deltas.append(None)
            continue
        d = min(outer_f[fam]) - min(inner_f[fam])
        deltas.append(d)
        if not (d < thresh + _SLACK):
            ok = False
    return deltas, ok


_OVERFLOW = "cannot audit {}: its rates overflow double precision"


def _rows(params: ChannelParams, tag: InterferenceTag):
    """``(inner_rhs, outer_coeffs, outer_rhs)`` of a weak or mixed channel.

    A rate that overflows raises :class:`DomainError` naming ``params``.
    """
    inner = _hk.hk_rhs(params, _hk.recommended_split(params))
    coeffs, outer = _bounds.outer_rows(params, tag)
    # Finite rates are at most a few thousand bits, so the sum is finite
    # exactly when every rate is.
    if not math.isfinite(sum(inner) + sum(outer)):
        raise DomainError(_OVERFLOW.format(params))
    return inner, coeffs, outer


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
    # RateConstraint rejects an inf rate, symmetric_hk_rate an overflowed term
    except (InvalidParameterError, DomainError) as exc:
        raise DomainError(f"{_OVERFLOW.format(params)} ({exc})") from exc


def _audit(params: ChannelParams, tag: InterferenceTag) -> Audit:
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError(
            "gap audit is undefined for strong channels (capacity is exact)"
        )
    inner_rhs, outer_coeffs, outer_rhs = _rows(params, tag)
    inner_f = _families(_hk.HK_COEFFS, inner_rhs)
    outer_f = _families(outer_coeffs, outer_rhs)
    deltas, ok = _family_deltas(inner_f, outer_f)
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        inner_f["sum"] = [inner_f["sum"][k] for k in _SWAPPED_SUM_ORDER]
    paired = {
        fam: tuple(o - i for o, i in zip(outer_f[fam], inner_f[fam]))
        for fam in _THRESHOLDS
        if fam in outer_f
    }
    report = GapReport(params, tag, *deltas, paired_deltas=paired, passed=ok)
    inner = region_from_rows(_hk.HK_COEFFS, inner_rhs)
    outer = region_from_rows(outer_coeffs, outer_rhs)
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


# Channels drawn, audited and certified together.  A larger chunk spreads
# the numpy kernel's per-call cost thinner but raises peak RSS, since its
# temporaries are (SWEEP_CHUNK, line pairs) arrays: a 40,000-channel weak
# sweep peaked 3.6 MiB higher with chunks of 1,024 than of 256.
SWEEP_CHUNK = 256


def sweep_chunks(n: int, seed: int, class_filter: str = "any") -> Iterator[list[SweepRecord]]:
    """The audited records of a sweep, in draw order, :data:`SWEEP_CHUNK` at a time.

    Each candidate takes four ``rng.random()`` draws (SNR1, SNR2, INR1,
    INR2 in dB) and is rejected after drawing unless its class passes
    ``class_filter``.  Both certificates of a chunk are decided together,
    by the numpy kernel in :mod:`gicap.kernel` where numpy can be
    imported and otherwise by :func:`region.certificates` per channel;
    the verdicts are identical.  The arguments are checked before the
    first chunk is drawn.
    """
    if n < 1:
        raise DomainError(f"sweep needs n >= 1, got {n!r}")
    try:
        accepted_tags = _CLASS_FILTERS[class_filter]
    except KeyError:
        raise DomainError(
            f"unknown class filter {class_filter!r}; expected one of {sorted(_CLASS_FILTERS)}"
        ) from None
    return _chunks(n, random.Random(seed), accepted_tags, _chunk_certifier())


def _chunks(n, rng, accepted_tags, certify):
    def draw(lo: float, hi: float) -> float:
        # scale rng.random() directly: it is the one generator method with
        # a documented cross-version reproducibility guarantee
        return lo + (hi - lo) * rng.random()

    for start in range(0, n, SWEEP_CHUNK):
        size = min(SWEEP_CHUNK, n - start)
        drawn, rows = [], []
        while len(drawn) < size:
            dbs = (
                draw(*SNR_DB_RANGE),
                draw(*SNR_DB_RANGE),
                draw(*INR_DB_RANGE),
                draw(*INR_DB_RANGE),
            )
            params = ChannelParams(*map(db_to_linear, dbs))
            tag = classify(params).tag
            if tag in accepted_tags:
                drawn.append((dbs, params, tag))
                rows.append(_rows(params, tag))
        verdicts = certify(_hk.HK_COEFFS, *zip(*rows))
        records = []
        for (dbs, params, tag), (inner, coeffs, outer), verdict in zip(drawn, rows, verdicts):
            if verdict is None:
                raise ContainmentError(
                    f"the inner region of {params} exceeds its outer bound (formula bug upstream)"
                )
            deltas, ok = _family_deltas(
                _families(_hk.HK_COEFFS, inner), _families(coeffs, outer)
            )
            records.append(SweepRecord(*dbs, tag.value, *deltas, ok, *verdict))
        yield records


def _chunk_certifier():
    """The numpy chunk kernel where numpy can be imported, else the scalar path."""
    try:
        from .kernel import chunk_certificates
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        return _scalar_chunk_certificates
    return chunk_certificates


def _scalar_chunk_certificates(inner_coeffs, inner_rows, outer_coeffs, outer_rows):
    """``(one_bit, within_half)`` per channel by :func:`region.certificates`;
    None where the inner region is not contained in the outer one."""
    verdicts = []
    for inner, coeffs, outer in zip(inner_rows, outer_coeffs, outer_rows):
        try:
            verdicts.append(
                certificates(
                    region_from_rows(inner_coeffs, inner), region_from_rows(coeffs, outer)
                )
            )
        except ContainmentError:
            verdicts.append(None)
    return verdicts


# The records a sweep counts as failures, by the guarantee it checks.
_FAILED = {
    "one-bit": lambda r: not (r.delta_pass and r.one_bit),
    "within-half": lambda r: not r.within_half,
}


def _fold_worst(worst: dict[str, float | None], records: Iterable[SweepRecord]) -> None:
    """Raise each family's entry of ``worst`` to its largest delta in ``records``."""
    for rec in records:
        values = (rec.delta_r1, rec.delta_r2, rec.delta_sum, rec.delta_2r1_r2, rec.delta_r1_2r2)
        for fam, value in zip(_THRESHOLDS, values):
            if value is None:
                continue
            cur = worst[fam]
            if cur is None or value > cur:
                worst[fam] = value


def _sweep(n: int, seed: int, class_filter: str, failed) -> SweepResult:
    records = tuple(r for chunk in sweep_chunks(n, seed, class_filter) for r in chunk)
    worst = dict.fromkeys(_THRESHOLDS)
    _fold_worst(worst, records)
    return SweepResult(
        n=n,
        seed=seed,
        class_filter=class_filter,
        records=records,
        failures=tuple(filter(failed, records)),
        worst_deltas=worst,
    )


def one_bit_sweep(n: int, seed: int, class_filter: str = "any") -> SweepResult:
    """Random-channel audit of the one-bit guarantee.

    A failure is a record whose exact deltas violate their thresholds or
    whose geometric one-bit certificate is false.  Failures are returned
    as data, never raised.
    """
    return _sweep(n, seed, class_filter, _FAILED["one-bit"])


def within_half_sweep(n: int, seed: int) -> SweepResult:
    """Random-channel audit of the factor-two guarantee over weak and mixed."""
    return _sweep(n, seed, "any", _FAILED["within-half"])


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


def _csv_row(r: SweepRecord) -> list[str]:
    return [
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


def write_sweep_csv(result: SweepResult, fileobj: IO[str]) -> None:
    """One row per audited instance, numbers at 12 significant digits."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(map(_csv_row, result.records))


def _summary(n: int, failures: int, worst: dict[str, float | None], seed: int) -> dict:
    return {
        "n": n,
        "failures": failures,
        "worst_deltas": {
            fam: (None if v is None else sigfig(v)) for fam, v in worst.items()
        },
        "seed": seed,
    }


def sweep_summary(result: SweepResult) -> dict:
    """Compact JSON-ready summary: {n, failures, worst_deltas, seed}."""
    return _summary(result.n, len(result.failures), result.worst_deltas, result.seed)


def stream_sweep(n: int, seed: int, class_filter: str, check: str, path: str) -> dict:
    """Run a sweep chunk by chunk, writing each chunk's CSV rows to ``path`` as it is audited.

    Only the running failure count and worst deltas are kept, so memory
    does not grow with ``n``.  ``check`` ("one-bit" or "within-half")
    names the guarantee the failure count tracks.  The arguments are
    checked before ``path`` is opened.  The CSV bytes equal
    :func:`write_sweep_csv`'s and the returned dict equals
    :func:`sweep_summary`'s for the matching sweep.
    """
    failed = _FAILED[check]
    chunks = sweep_chunks(n, seed, class_filter)
    failures = 0
    worst = dict.fromkeys(_THRESHOLDS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for chunk in chunks:
            writer.writerows(map(_csv_row, chunk))
            failures += sum(map(failed, chunk))
            _fold_worst(worst, chunk)
    return _summary(n, failures, worst, seed)


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
        inr = _power_inr(snr, alpha_value)
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

"""Machine verification of the one-bit and within-half gap guarantees.

Every weak or mixed channel is audited by one judgment, :func:`_judge`:
it builds the recommended-split achievable rows and the class-matched
outer rows, takes for each coefficient family ``c = (c1, c2)`` among R1,
R2, R1+R2, 2R1+R2, R1+2R2 the delta

    delta_c = min(outer rows of family c) - min(inner rows of family c),

passes the family when ``delta_c < c1 + c2`` bits (1e-9 slack), and
decides the containment check and both geometric certificates from the
family minima (:func:`gicap.region.certificates`).  Families absent from
the mixed outer bound are skipped and reported as None.  The judgment runs
on floats, or on numpy arrays of a chunk's channels with numpy's ``where``
and ``minimum`` (:mod:`gicap.kernel`).

:func:`audit` judges one channel and adds the two regions and the
per-index paired deltas (i-th outer row minus i-th inner row of a
family), reported for diagnosis only; :func:`delta_audit` and
:func:`audit_regions` are views of it.  On MIXED_STRONG_AT_2 channels the
inner sum rows are paired in their user-swapped order, so both mixed
orientations pair alike.

Sweeps sample SNRs log-uniformly over [0, 60] dB and INRs over [-20, 60]
dB with a caller-supplied seed, rejection-filtered to the requested
class.  They are drawn and judged :data:`SWEEP_CHUNK` channels at a time,
each chunk a tuple of record columns (:func:`sweep_chunks`): in numpy
(:func:`gicap.kernel.audit_chunk`) for sweeps of at least
:data:`NUMPY_MIN_N` channels, else channel by channel without importing
numpy.  Both engines give the same columns bit for bit and raise by one
rule (:func:`_raise_first_bad`): the first channel in draw order whose
rates overflow (:class:`DomainError`) or whose inner region exceeds its
outer bound (:class:`ContainmentError`) raises that error, naming the
channel.  :func:`stream_sweep` writes each chunk's CSV rows as it goes
and keeps only the failure count and the worst deltas, so its memory does
not grow with the sweep size.  Channels are judged independently, so the
results do not depend on evaluation order.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from . import bounds as _bounds
from . import hk as _hk
from .channel import (
    TAG_BY_STRENGTH,
    ChannelParams,
    InterferenceTag,
    _power_inr,
    classify,
    db_to_linear,
)
from .errors import (
    ClassMismatchError,
    ContainmentError,
    DomainError,
    InvalidParameterError,
    NotCoveredError,
)
from .region import RateRegion, _family_minima, _verdicts, log2_rows, region_from_rows, sigfig

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
]

_LOG2 = math.log2

# Family keys by exact coefficient pattern, in GapReport's field order.
_FAMILIES = {
    (1.0, 0.0): "r1",
    (0.0, 1.0): "r2",
    (1.0, 1.0): "sum",
    (2.0, 1.0): "2r1_r2",
    (1.0, 2.0): "r1_2r2",
}
_SLACK = 1e-9
# The MIXED_STRONG_AT_2 bound is the user-swapped image of the AT_1 bound.
# Swapping the users exchanges the first two achievable sum rows, so its sum
# rows pair with the inner sums in this order.
_SWAPPED_SUM_ORDER = (1, 0, 2)
# (strong at receiver 1, strong at receiver 2) of each class
_STRENGTHS = {tag: strengths for strengths, tag in TAG_BY_STRENGTH.items()}

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


class _Judgment(NamedTuple):
    """What :func:`_judge` decides of one channel, or of a class group of a chunk."""

    inner: tuple
    outer_coeffs: tuple
    outer: tuple
    deltas: list  # in _FAMILIES order; None where the outer bound lacks the family
    passed: bool
    finite: bool
    contained: bool
    one_bit: bool
    within_half: bool


def _judge(tag, s1, s2, i1, i2, rows=log2_rows, where=_hk._where, minimum=min) -> _Judgment:
    """The audit of channels of the weak or mixed class ``tag`` with ratios
    ``s1, s2, i1, i2``: the recommended-split rows, the class-matched outer
    rows, the five family deltas ``m_outer(c) - m_inner(c)``, and the
    verdicts.  A family passes when its delta is below ``c1 + c2`` bits
    (within :data:`_SLACK`).

    On floats the hooks are the defaults; on numpy arrays of a chunk's
    channels they are the kernel's row evaluator, ``np.where`` and
    ``np.minimum``, and every rate, delta and verdict is an array.
    """
    p2, p1 = _hk.recommended_levels(*_STRENGTHS[tag], i1, i2, where)
    inner = rows(_hk.hk_args(s1, s2, i1, i2, p2, p1, where))
    outer_coeffs, args = _bounds.outer_args(s1, s2, i1, i2, tag)
    outer = rows(args)
    inner_mins = _family_minima(zip(_hk.HK_COEFFS, inner), minimum)
    outer_mins = _family_minima(zip(outer_coeffs, outer), minimum)
    deltas = [outer_mins[c] - inner_mins[c] if c in outer_mins else None for c in _FAMILIES]
    passed = True
    for (c1, c2), delta in zip(_FAMILIES, deltas):
        if delta is not None:
            passed = passed & (delta < c1 + c2 + _SLACK)
    # Finite rates are at most a few thousand bits, so the sum is finite
    # exactly when every rate is.
    finite = abs(sum(inner) + sum(outer)) < math.inf
    verdicts = _verdicts(inner_mins, outer_mins, minimum)
    return _Judgment(inner, outer_coeffs, outer, deltas, passed, finite, *verdicts)


_OVERFLOW = "cannot audit {}: its rates overflow double precision"
_NOT_CONTAINED = "the inner region of {} exceeds its outer bound (formula bug upstream)"


def _raise_first_bad(finite, contained, channels) -> None:
    """Raise for the first channel, in the order of ``channels`` (each the four
    ratios), whose rates overflow (``finite`` false: :class:`DomainError`) or
    whose inner region exceeds its outer bound (``contained`` false:
    :class:`ContainmentError`); the error names the channel."""
    if all(finite) and all(contained):  # the common case, without a Python loop
        return
    for ok, inside, ratios in zip(finite, contained, channels):
        if not (ok and inside):
            params = ChannelParams(*ratios)
            if not ok:
                raise DomainError(_OVERFLOW.format(params))
            raise ContainmentError(_NOT_CONTAINED.format(params))


def audit(params: ChannelParams) -> Audit:
    """One audit pass: classify, build both regions, take deltas, certify.

    Strong channels have zero gap by exactness and are rejected.  A
    channel whose ratios overflow a region formula raises
    :class:`DomainError`, and one whose inner region exceeds its outer
    bound :class:`ContainmentError`, each naming the channel.
    """
    tag = classify(params).tag
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError(
            "gap audit is undefined for strong channels (capacity is exact)"
        )
    ratios = (params.snr1, params.snr2, params.inr1, params.inr2)
    judged = _judge(tag, *ratios)
    _raise_first_bad([judged.finite], [judged.contained], [ratios])
    inner_f = _families(_hk.HK_COEFFS, judged.inner)
    outer_f = _families(judged.outer_coeffs, judged.outer)
    if tag is InterferenceTag.MIXED_STRONG_AT_2:
        inner_f["sum"] = [inner_f["sum"][k] for k in _SWAPPED_SUM_ORDER]
    paired = {
        fam: tuple(o - i for o, i in zip(outer_f[fam], inner_f[fam]))
        for fam in _FAMILIES.values()
        if fam in outer_f
    }
    report = GapReport(params, tag, *judged.deltas, paired_deltas=paired, passed=judged.passed)
    inner = region_from_rows(_hk.HK_COEFFS, judged.inner)
    outer = region_from_rows(judged.outer_coeffs, judged.outer)
    return Audit(tag, inner, outer, report, judged.one_bit, judged.within_half)


def _overflow_checked(params: ChannelParams, build):
    """``build()``; a rate that overflows raises :class:`DomainError` naming ``params``."""
    try:
        return build()
    # RateConstraint rejects an inf rate, symmetric_hk_rate an overflowed term
    except (InvalidParameterError, DomainError) as exc:
        raise DomainError(f"{_OVERFLOW.format(params)} ({exc})") from exc


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
# the numpy kernel's per-call cost thinner but raises peak RSS: a
# 40,000-channel weak sweep peaked 1.2 MiB higher with chunks of 1,024
# than of 256 (29.7 MiB), on Python 3.11 and numpy 2.4.
SWEEP_CHUNK = 256

# The smallest sweep audited by the numpy kernel; smaller ones take the
# scalar path and never import numpy.  Importing numpy costs a fresh
# process about as much as the kernel saves on 700 channels: whole
# `gicap sweep` runs were faster on the scalar path at n = 640 and on the
# kernel at n = 768, on weak and on any-class sweeps alike.
NUMPY_MIN_N = 768


def _checked_int(value, what: str, least: float = -math.inf) -> int:
    """``value`` as an int; a bool, a non-integer or an int below ``least`` raises
    :class:`DomainError`.  That refuses a seed of ``None`` too: ``random.Random``
    would seed from the operating system, and the sweep could not be replayed."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < least:
        raise DomainError(f"sweep needs {what}, got {value!r}")
    return number


def sweep_chunks(n: int, seed: int, class_filter: str = "any") -> Iterator[tuple]:
    """A sweep in draw order, :data:`SWEEP_CHUNK` channels at a time, each
    chunk a tuple of 13 columns in :class:`SweepRecord` field order.

    Each candidate takes four ``rng.random()`` draws (SNR1, SNR2, INR1,
    INR2 in dB) and is rejected after drawing unless its class passes
    ``class_filter``; a chunk draws only as many candidates as it still
    needs.  Sweeps of at least :data:`NUMPY_MIN_N` channels are audited a
    chunk at a time by :func:`gicap.kernel.audit_chunk` where numpy can be
    imported, and otherwise by :func:`audit` of each channel; the columns
    and the error are identical.  The arguments are checked before the first
    chunk is drawn.
    """
    n, seed = _checked_int(n, "an integer n >= 1", 1), _checked_int(seed, "an integer seed")
    try:
        accepted = _CLASS_FILTERS[class_filter]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown class filter {class_filter!r}; expected one of {sorted(_CLASS_FILTERS)}"
        ) from None
    return _chunks(n, random.Random(seed), accepted, _chunk_engine(n))


def _chunks(n, rng, accepted, audit_chunk):
    draw = rng.random
    snr_lo, snr_hi = SNR_DB_RANGE
    inr_lo, inr_hi = INR_DB_RANGE
    snr_span, inr_span = snr_hi - snr_lo, inr_hi - inr_lo
    accept = {strength: tag for strength, tag in TAG_BY_STRENGTH.items() if tag in accepted}
    for start in range(0, n, SWEEP_CHUNK):
        size = min(SWEEP_CHUNK, n - start)
        drawn, tags = [], []
        while len(tags) < size:
            for _ in range(size - len(tags)):
                # scale rng.random() directly: it is the one generator method
                # with a documented cross-version reproducibility guarantee
                snr1_db = snr_lo + snr_span * draw()
                snr2_db = snr_lo + snr_span * draw()
                inr1_db = inr_lo + inr_span * draw()
                inr2_db = inr_lo + inr_span * draw()
                snr1, snr2 = db_to_linear(snr1_db), db_to_linear(snr2_db)
                inr1, inr2 = db_to_linear(inr1_db), db_to_linear(inr2_db)
                # ChannelParams.strong_at_1, strong_at_2
                tag = accept.get((inr1 >= snr2, inr2 >= snr1))
                if tag is not None:
                    tags.append(tag)
                    drawn.append((snr1_db, snr2_db, inr1_db, inr2_db, snr1, snr2, inr1, inr2))
        columns = list(zip(*drawn))
        yield (*columns[:4], [tag.value for tag in tags], *audit_chunk(tags, *columns[4:]))


def _chunk_engine(n: int):
    """The numpy chunk audit for sweeps of at least :data:`NUMPY_MIN_N`
    channels where numpy can be imported, else the scalar path."""
    if n >= NUMPY_MIN_N:
        try:
            from .kernel import audit_chunk
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
        else:
            return audit_chunk
    return _scalar_audit_chunk


def _scalar_audit_chunk(tags, snr1, snr2, inr1, inr2):
    """Columns of a chunk's records after the class: the five family deltas
    (None where the outer bound lacks the family), the delta verdict and the
    two certificates, by :func:`_judge` of each weak or mixed channel of
    class ``tags[k]`` with ratios ``snr1[k], snr2[k], inr1[k], inr2[k]``;
    the first channel that cannot be audited raises (:func:`_raise_first_bad`).
    """
    judged = [_judge(*channel) for channel in zip(tags, snr1, snr2, inr1, inr2)]
    _raise_first_bad(
        [j.finite for j in judged], [j.contained for j in judged], zip(snr1, snr2, inr1, inr2)
    )
    return zip(*((*j.deltas, j.passed, j.one_bit, j.within_half) for j in judged))


# A chunk's failure flags by the guarantee a sweep checks, from its last three
# columns: the delta verdict and the two certificates.
_FAILED = {
    "one-bit": lambda passed, one_bit, _: [not (p and o) for p, o in zip(passed, one_bit)],
    "within-half": lambda passed, one_bit, within_half: [not w for w in within_half],
}


def _fold_worst(worst: dict[str, float | None], columns, check: str) -> list[bool]:
    """Raise each family's entry of ``worst`` to its largest delta in the chunk
    ``columns``; returns the chunk's failure flags under ``check``."""
    for fam, values in zip(_FAMILIES.values(), columns[5:10]):
        present = [value for value in values if value is not None]
        if present:
            top = max(present)
            if worst[fam] is None or top > worst[fam]:
                worst[fam] = top
    return _FAILED[check](*columns[10:])


def one_bit_sweep(n: int, seed: int, class_filter: str = "any") -> SweepResult:
    """Random-channel audit of the one-bit guarantee.

    A failure is a record whose exact deltas violate their thresholds or
    whose geometric one-bit certificate is false.  Failures are returned
    as data, never raised.
    """
    n, seed = _checked_int(n, "an integer n >= 1", 1), _checked_int(seed, "an integer seed")
    parts = zip(*sweep_chunks(n, seed, class_filter))  # each column, chunk by chunk
    columns = [list(itertools.chain.from_iterable(column)) for column in parts]
    worst = dict.fromkeys(_FAMILIES.values())
    failed = _fold_worst(worst, columns, "one-bit")
    records = tuple(map(SweepRecord._make, zip(*columns)))
    return SweepResult(
        n=n,
        seed=seed,
        class_filter=class_filter,
        records=records,
        failures=tuple(itertools.compress(records, failed)),
        worst_deltas=worst,
    )


_CSV_HEADER = (
    "snr1_db,snr2_db,inr1_db,inr2_db,class,delta_r1,delta_r2,"
    "delta_sum,delta_2r1_r2,delta_r1_2r2,one_bit_pass,within_half_pass\n"
)
_BOOL = {False: "false", True: "true"}
# One %-template per (2r1_r2 absent, r1_2r2 absent, one-bit pass, within-half
# pass), taking a whole row in SweepRecord field order: numbers at 12
# significant digits, an absent delta as an empty cell (``%.0s``), the
# verdicts baked in.
_CSV_TEMPLATES = {
    (no_21, no_12, one_bit, half): ",".join(
        ["%.12g"] * 4
        + ["%s"]
        + ["%.12g"] * 3
        + ["%.0s" if no_21 else "%.12g", "%.0s" if no_12 else "%.12g"]
        + ["%.0s%.0s" + _BOOL[one_bit], "%.0s" + _BOOL[half]]
    )
    + "\n"
    for no_21 in (False, True)
    for no_12 in (False, True)
    for one_bit in (False, True)
    for half in (False, True)
}


def _csv_line(r: tuple) -> str:
    return _CSV_TEMPLATES[r[8] is None, r[9] is None, r[10] and r[11], r[12]] % r


def _summary(n: int, failures: int, worst: dict[str, float | None], seed: int) -> dict:
    return {
        "n": n,
        "failures": failures,
        "worst_deltas": {
            fam: (None if v is None else sigfig(v)) for fam, v in worst.items()
        },
        "seed": seed,
    }


def stream_sweep(n: int, seed: int, class_filter: str, check: str, path: str) -> dict:
    """Run a sweep chunk by chunk, writing each chunk's CSV rows to ``path`` as it is audited.

    One row per audited channel, numbers at 12 significant digits.  Only
    the running failure count and worst deltas are kept, so memory does
    not grow with ``n``.  ``check`` ("one-bit" or "within-half") names the
    guarantee the failure count tracks.  The arguments are checked before
    ``path`` is opened; a bad one raises :class:`DomainError`.  Returns the
    JSON-ready summary ``{n, failures, worst_deltas, seed}``.
    """
    if not (isinstance(check, str) and check in _FAILED):
        raise DomainError(f"unknown check {check!r}; expected one of {sorted(_FAILED)}")
    n, seed = _checked_int(n, "an integer n >= 1", 1), _checked_int(seed, "an integer seed")
    chunks = sweep_chunks(n, seed, class_filter)
    failures = 0
    worst = dict.fromkeys(_FAMILIES.values())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_HEADER)
        for columns in chunks:
            fh.write("".join(map(_csv_line, zip(*columns))))
            failures += sum(_fold_worst(worst, columns, check))
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
    vanishing-gap scheme and raises :class:`NotCoveredError`; a ``gamma``
    given outside 1/2 < alpha < 2/3 raises :class:`DomainError`.
    """
    if not (alpha_value > 0.0) or not math.isfinite(alpha_value):
        raise DomainError(f"alpha must be positive and finite, got {alpha_value!r}")
    regime2 = 0.5 < alpha_value < 2.0 / 3.0
    if not (alpha_value < 0.5 or regime2 or alpha_value > 1.0):
        raise NotCoveredError(
            f"no asymptotically tight scheme is known for alpha={alpha_value!r}"
        )
    if gamma is not None and not regime2:
        raise DomainError(
            f"gamma={gamma!r} applies only when 1/2 < alpha < 2/3, got alpha={alpha_value!r}"
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
        elif regime2:
            g = _default_regime2_gamma(alpha_value) if gamma is None else gamma
            gaps.append(abs(_LOG2(inr) - _hk.regime2_rate(snr, inr, g)))
        else:
            cap = _bounds.symmetric_capacity_strong(snr, inr)
            approx = _LOG2(snr) if alpha_value >= 2.0 else 0.5 * _LOG2(inr)
            gaps.append(abs(cap - approx))
    return gaps

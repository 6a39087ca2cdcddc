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
class.  Candidates are drawn a pass at a time, each pass as many as the
sweep still needs (at most :data:`SWEEP_CHUNK`), and the ones a pass
accepts are judged as one chunk, a tuple of record columns
(:func:`sweep_chunks`).  Both steps run on an engine: the numpy one
(:mod:`gicap.kernel`) for sweeps of at least :data:`NUMPY_MIN_N` channels,
else the scalar one, candidate by candidate and channel by channel, without
importing numpy.  Both engines draw the same candidates, give the same
columns bit for bit and raise by one rule (:func:`_raise_first_bad`): the
first channel in draw order whose rates overflow (:class:`DomainError`) or
whose inner region exceeds its outer bound (:class:`ContainmentError`)
raises that error, naming the channel.  :func:`stream_sweep` writes each
chunk's CSV rows as it goes and keeps only the failure count and the worst
deltas, so its memory does not grow with the sweep size.  On a sweep of
more than :data:`SWEEP_CHUNK` channels the rows are written by a writer
child forked before the engine is loaded, which formats one chunk while
this process draws and audits the next; the file gets the same bytes as
when they are written in process.  Channels are judged independently, so
the results do not depend on evaluation order.
"""

from __future__ import annotations

import itertools
import marshal
import math
import operator
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

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
_SNR_SPAN = SNR_DB_RANGE[1] - SNR_DB_RANGE[0]
_INR_SPAN = INR_DB_RANGE[1] - INR_DB_RANGE[0]


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

    All rows are evaluated in one ``rows`` call, the inner ones first.  On
    floats the hooks are the defaults; on numpy arrays of a chunk's channels
    they are :func:`gicap.kernel._rows`, ``np.where`` and ``np.minimum``, and
    every rate, delta and verdict is an array.
    """
    p2, p1 = _hk.recommended_levels(*_STRENGTHS[tag], i1, i2, where)
    outer_coeffs, args = _bounds.outer_args(s1, s2, i1, i2, tag)
    rhs = rows((*_hk.hk_args(s1, s2, i1, i2, p2, p1, where), *args))
    inner, outer = rhs[:len(_hk.HK_COEFFS)], rhs[len(_hk.HK_COEFFS):]
    inner_mins = _family_minima(zip(_hk.HK_COEFFS, inner), minimum)
    outer_mins = _family_minima(zip(outer_coeffs, outer), minimum)
    deltas = [outer_mins[c] - inner_mins[c] if c in outer_mins else None for c in _FAMILIES]
    passed = True
    for (c1, c2), delta in zip(_FAMILIES, deltas):
        if delta is not None:
            passed = passed & (delta < c1 + c2 + _SLACK)
    # Finite rates are at most a few thousand bits, so the sum is finite
    # exactly when every rate is.
    finite = abs(sum(rhs)) < math.inf
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


# The most candidates a draw pass takes; the channels a pass accepts, up to
# about 1.6k weak, 2.0k mixed or 3.6k any-class ones, are audited as one
# chunk.  Larger passes spread the numpy kernel's per-call cost thinner but
# raise peak RSS: perfbench read 31.8 -> 32.3 MiB (sweep-weak) and 31.7 ->
# 32.5 MiB (sweep-mixed) for passes of 1,024 -> 4,096.  Only sweeps of more
# channels fork the CSV writer: with passes of 1,024, forking made fresh weak
# sweeps of 1,025 to 4,096 channels 13-17 ms slower (medians of 9; 2 vCPU VM).
SWEEP_CHUNK = 4096

# The smallest sweep audited by the numpy kernel; smaller ones take the
# scalar path and never import numpy, which costs a fresh process about
# 150 ms.  Whole `gicap sweep` runs (medians of 11; 2 vCPU VM, Python 3.11,
# numpy 2.4) were 96-143 ms slower on the kernel at n = 640, 768 and 1,024,
# and broke even near 2,600 (weak), 2,500 (mixed) and 3,300 (any) channels.
NUMPY_MIN_N = 3000


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
    """A sweep in draw order, one chunk per draw pass, each chunk a tuple of
    13 columns in :class:`SweepRecord` field order.

    Each candidate takes four ``rng.random()`` draws (SNR1, SNR2, INR1,
    INR2 in dB) and is rejected after drawing unless its class passes
    ``class_filter``.  Candidates are drawn in passes of as many as the
    sweep still needs, at most :data:`SWEEP_CHUNK`, so no pass draws past
    the n-th accepted candidate; each pass's accepted candidates are one
    chunk, and a pass that accepts none gives no chunk.  Sweeps of at least
    :data:`NUMPY_MIN_N` channels classify a pass and audit a chunk on arrays
    (:func:`gicap.kernel.select`, :func:`gicap.kernel.audit_chunk`) where
    numpy can be imported, and otherwise candidate by candidate and
    channel by channel (:func:`_scalar_select`, :func:`_scalar_audit_chunk`);
    the draws, the columns and the error are identical.  The arguments are
    checked before the first candidate is drawn.
    """
    n, seed = _checked_int(n, "an integer n >= 1", 1), _checked_int(seed, "an integer seed")
    return _chunks(n, random.Random(seed), _accepted(class_filter), _chunk_engine(n))


def _accepted(class_filter) -> tuple:
    """The tags ``class_filter`` accepts; an unknown filter raises :class:`DomainError`."""
    try:
        return _CLASS_FILTERS[class_filter]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown class filter {class_filter!r}; expected one of {sorted(_CLASS_FILTERS)}"
        ) from None


_TAG_VALUES = {tag: tag.value for tag in InterferenceTag}


def _chunks(n, rng, accepted, engine):
    draw = rng.random
    accept = {strength: tag for strength, tag in TAG_BY_STRENGTH.items() if tag in accepted}
    done = 0
    while done < n:
        # A pass draws as many candidates as the sweep still needs, at most
        # SWEEP_CHUNK, so no pass draws past the n-th accepted one.
        # rng.random() is the one generator method with a documented
        # cross-version reproducibility guarantee.
        draws = itertools.starmap(draw, itertools.repeat((), 4 * min(n - done, SWEEP_CHUNK)))
        tags, *dbs, s1, s2, i1, i2 = engine.select(draws, accept)
        if tags:
            done += len(tags)
            yield (*dbs, list(map(_TAG_VALUES.get, tags)), *engine.audit(tags, s1, s2, i1, i2))
        del tags, dbs, s1, s2, i1, i2  # hold no chunk while the next pass is drawn


def _scalar_select(draws, accept):
    """The candidates of a pass whose class ``accept`` maps to a tag, in draw
    order, as nine columns: the tags, the four dB values and the four ratios.

    ``draws`` holds four ``rng.random()`` values per candidate (SNR1, SNR2,
    INR1, INR2), scaled to dB; ``accept`` maps (strong at receiver 1, strong
    at receiver 2) to the accepted tags.  The columns are empty when the
    pass accepts none.
    """
    snr_lo, inr_lo = SNR_DB_RANGE[0], INR_DB_RANGE[0]
    kept = []
    values = iter(draws)
    for snr1_u, snr2_u, inr1_u, inr2_u in zip(values, values, values, values):
        dbs = (
            snr_lo + _SNR_SPAN * snr1_u,
            snr_lo + _SNR_SPAN * snr2_u,
            inr_lo + _INR_SPAN * inr1_u,
            inr_lo + _INR_SPAN * inr2_u,
        )
        snr1, snr2, inr1, inr2 = map(db_to_linear, dbs)
        # ChannelParams.strong_at_1, strong_at_2
        tag = accept.get((inr1 >= snr2, inr2 >= snr1))
        if tag is not None:
            kept.append((tag, *dbs, snr1, snr2, inr1, inr2))
    return zip(*kept) if kept else [()] * 9


class _Engine(NamedTuple):
    """A sweep engine's two hooks: ``select`` takes a pass's draws to its
    accepted candidates (:func:`_scalar_select`), ``audit`` a chunk's tags
    and ratios to its record columns after the class (:func:`_scalar_audit_chunk`)."""

    select: Callable
    audit: Callable


def _chunk_engine(n: int) -> _Engine:
    """The numpy engine (:mod:`gicap.kernel`) for sweeps of at least
    :data:`NUMPY_MIN_N` channels where numpy can be imported, else the scalar one."""
    if n >= NUMPY_MIN_N:
        try:
            from .kernel import audit_chunk, select
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
        else:
            return _Engine(select, audit_chunk)
    return _Engine(_scalar_select, _scalar_audit_chunk)


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


class _RowWriter:
    """Writes a sweep's CSV rows to ``fh``, one chunk of record columns per
    :meth:`write`: in this process, or, with ``fork``, in a writer child
    forked here, which formats a chunk while this process draws and audits
    the next one.

    Each chunk goes to the child as one length-prefixed :mod:`marshal`
    frame over a pipe; both ends run the same interpreter.  :meth:`close`
    ends the frames and reaps the child, which writes every chunk it was
    sent, flushes and exits, and raises the :class:`OSError` that stopped
    the child, if any; it must run on every path.  ``fh``'s buffer must be
    empty when the child is forked, and only the child writes to it after.
    """

    def __init__(self, fh, fork: bool) -> None:
        self._fh, self._pid = fh, None
        if not fork:
            return
        fds = os.pipe()
        try:
            fds += os.pipe()
            pid = os.fork()
        except BaseException:  # a child forked anyway sees its frames end at once
            for fd in fds:
                os.close(fd)
            raise
        if pid == 0:
            _write_frames(fh, *fds)
        frames_in, frames_out, errors_in, errors_out = fds
        os.close(frames_in)
        os.close(errors_out)
        _widen(frames_out)
        self._pid, self._frames, self._errors = pid, frames_out, errors_in

    def write(self, columns) -> None:
        if self._pid is None:
            _write_rows(self._fh, columns)
            return
        frame = marshal.dumps(columns)
        # A pipe takes up to 512 bytes whole; a signal can cut a longer write
        # short.  If the child has stopped, the write raises BrokenPipeError,
        # and close() raises what stopped the child in its place.
        os.write(self._frames, len(frame).to_bytes(8, "little"))
        view = memoryview(frame)
        while view:
            view = view[os.write(self._frames, view):]

    def close(self) -> None:
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        os.close(self._frames)  # the end of the frames: the child flushes and exits
        status = os.waitpid(pid, 0)[1]
        with open(self._errors, "rb") as errors:
            error = errors.read()
        if error:
            raise OSError(*marshal.loads(error))
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise OSError(f"the sweep's CSV writer process ended with status {code}")


# A pipe that holds several frames (a weak chunk's is up to about 140 kB)
# lets the sweep run ahead of its writer child instead of blocking on each
# frame and being woken by the child, which often left the two processes
# sharing one CPU: a 40,000-channel mixed sweep took 0.26-0.33 s with the
# default 64 KiB pipe and 0.23 s with 1 MiB (medians of 8 sweeps, 2 vCPU VM;
# chunks of 1,024 channels).  1 MiB is Linux's default limit for an
# unprivileged process.
_PIPE_BYTES = 1 << 20


def _widen(fd: int) -> None:
    """Grow the pipe ``fd`` to :data:`_PIPE_BYTES` where the platform allows it."""
    import fcntl  # every platform with os.fork has it

    if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
        try:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # above the system's limit: keep the default size
            pass


def _write_rows(fh, columns) -> None:
    fh.writelines(map(_csv_line, zip(*columns)))


def _write_frames(fh, frames_in: int, frames_out: int, errors_in: int, errors_out: int) -> None:
    """The writer child of :class:`_RowWriter`, given the two pipes: write the
    rows of each frame read from ``frames_in`` to ``fh`` until the frames
    end, flush, and exit; the arguments of an error go to ``errors_out``,
    for the parent to raise as an :class:`OSError`.  Never returns."""
    status = 1
    try:
        import signal

        # An interrupt reaches the whole process group; the parent ends the frames.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(frames_out)
        os.close(errors_in)
        try:
            with open(frames_in, "rb") as frames:
                while size := frames.read(8):
                    _write_rows(fh, marshal.loads(frames.read(int.from_bytes(size, "little"))))
        finally:
            fh.flush()  # what closing the file does in process, after an error too
        status = 0
    except OSError as exc:
        os.write(errors_out, marshal.dumps(exc.args))
    except Exception as exc:
        os.write(errors_out, marshal.dumps((f"the sweep's CSV writer failed: {exc!r}",)))
    finally:
        os._exit(status)


def stream_sweep(n: int, seed: int, class_filter: str, check: str, path: str) -> dict:
    """Run a sweep chunk by chunk, writing each chunk's CSV rows to ``path`` as it is audited.

    One row per audited channel, numbers at 12 significant digits.  Only
    the running failure count and worst deltas are kept, so memory does
    not grow with ``n``.  ``check`` ("one-bit" or "within-half") names the
    guarantee the failure count tracks.  The arguments are checked before
    ``path`` is opened; a bad one raises :class:`DomainError`.  Returns the
    JSON-ready summary ``{n, failures, worst_deltas, seed}``.

    A sweep of more than :data:`SWEEP_CHUNK` channels, where ``os.fork``
    exists, writes its rows from a writer child (:class:`_RowWriter`) forked
    after the header is written and before the engine imports numpy, so the
    child is small and formats one chunk while this process draws and audits
    the next; a smaller sweep writes them in process, by the same function.
    Either way the file gets the same bytes: on an error mid-sweep, the
    rows of every chunk audited before it; an :class:`OSError` in the
    child is raised here.
    """
    if not (isinstance(check, str) and check in _FAILED):
        raise DomainError(f"unknown check {check!r}; expected one of {sorted(_FAILED)}")
    n, seed = _checked_int(n, "an integer n >= 1", 1), _checked_int(seed, "an integer seed")
    accepted = _accepted(class_filter)
    failures = 0
    worst = dict.fromkeys(_FAMILIES.values())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_HEADER)
        fh.flush()
        rows = _RowWriter(fh, fork=n > SWEEP_CHUNK and hasattr(os, "fork"))
        try:
            for columns in _chunks(n, random.Random(seed), accepted, _chunk_engine(n)):
                rows.write(columns)
                failures += sum(_fold_worst(worst, columns, check))
                del columns  # drop this chunk before the next one is drawn
        finally:
            rows.close()
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
    if any(not (1.0 < s < math.inf) for s in snrs):
        raise DomainError("every snr must be finite and exceed 1")
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

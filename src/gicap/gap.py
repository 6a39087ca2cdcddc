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
class.  Every sweep starts in :func:`_sweep`, which checks the arguments,
seeds the generator and maps the class filter.  Candidates are drawn a pass
at a time, each pass as many as the sweep still needs (at most
:data:`SWEEP_CHUNK`), and the ones a pass accepts are judged as one chunk
(:func:`_chunks`).  Both steps run on an engine, chosen when the first pass
is drawn: the numpy one (:mod:`gicap.kernel`) for sweeps of at least
:data:`NUMPY_MIN_N` channels, else the scalar one, candidate by candidate
and channel by channel, without importing numpy.  Both engines draw the
same candidates, give the same chunks bit for bit and raise by one rule
(:func:`_raise_first_bad`): the first channel in draw order whose rates
overflow (:class:`DomainError`) or whose inner region exceeds its outer
bound (:class:`ContainmentError`) raises that error, naming the channel.
Channels are judged independently, so the results do not depend on
evaluation order.

A chunk stays in binary form from the audit to the CSV: both engines build
its frame (:class:`_Chunk`), the row codes then the float block.  The frame
is formatted into CSV rows by one ``%`` per chunk (:func:`_chunk_text`),
the records of :func:`one_bit_sweep` are read off it (:func:`_columns`),
and both sweeps fold its failure count and worst deltas (:func:`_fold`).
:func:`stream_sweep` writes each chunk's rows as it goes and keeps only the
failure count and the worst deltas, so its memory does not grow with the
sweep size.  On a sweep of more than :data:`SWEEP_CHUNK` channels the
frames go to a writer child forked before the engine is loaded, which
formats one chunk while this process draws and audits the next; the file
gets the same bytes as when they are written in process.
"""

from __future__ import annotations

import itertools
import marshal
import math
import operator
import os
import random
from typing import Iterable, Iterator, NamedTuple

from . import bounds as _bounds
from . import hk as _hk
from .channel import _OVERFLOW, TAG_BY_STRENGTH, ChannelParams, InterferenceTag, _power_inr
from .channel import _class_code, db_to_linear
from .errors import ClassMismatchError, ContainmentError, DomainError, NotCoveredError, _real
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

SNR_DB_RANGE = (0.0, 60.0)
INR_DB_RANGE = (-20.0, 60.0)
# The sweep box: dB = low + span * rng.random(), per value: SNR1, SNR2, INR1, INR2
_DB_LOW = (SNR_DB_RANGE[0],) * 2 + (INR_DB_RANGE[0],) * 2
_DB_SPAN = (SNR_DB_RANGE[1] - SNR_DB_RANGE[0],) * 2 + (INR_DB_RANGE[1] - INR_DB_RANGE[0],) * 2


class GapReport(NamedTuple):
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


class Audit(NamedTuple):
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


def _judge(code, s1, s2, i1, i2, log2=math.log2, where=_hk._where, minimum=min) -> _Judgment:
    """The audit of channels of the weak or mixed class of code ``code`` (see
    :data:`gicap.channel.TAG_BY_STRENGTH`) with ratios ``s1, s2, i1, i2``:
    the recommended-split rows, the class-matched outer rows, the five family
    deltas ``m_outer(c) - m_inner(c)``, and the verdicts.  A family passes
    when its delta is below ``c1 + c2`` bits (within :data:`_SLACK`).

    All rows are folded by one :func:`gicap.region.log2_rows` call, the inner
    ones first.  On floats the hooks are the defaults; on numpy arrays of a
    chunk's channels they are the kernel's once-per-argument ``math.log2``,
    ``np.where`` and ``np.minimum``, and every rate, delta and verdict is an
    array.
    """
    p2, p1 = _hk.recommended_levels(code & 1, code & 2, i1, i2, where)
    outer_coeffs, args = _bounds.outer_args(s1, s2, i1, i2, TAG_BY_STRENGTH[code])
    rhs = log2_rows((*_hk.hk_args(s1, s2, i1, i2, p2, p1, where), *args), log2)
    inner, outer = rhs[:len(_hk.HK_COEFFS)], rhs[len(_hk.HK_COEFFS):]
    inner_mins = _family_minima(zip(_hk.HK_COEFFS, inner), minimum)
    outer_mins = _family_minima(zip(outer_coeffs, outer), minimum)
    deltas = [outer_mins[c] - inner_mins[c] if c in outer_mins else None for c in _FAMILIES]
    passed = True
    for (c1, c2), delta in zip(_FAMILIES, deltas):
        if delta is not None:
            passed = passed & (delta < c1 + c2 + _SLACK)
    # channel._finite's test kept as a flag (an array on a chunk): a chunk
    # raises for its first bad channel only, in _raise_first_bad
    finite = abs(sum(rhs)) < math.inf
    verdicts = _verdicts(inner_mins, outer_mins, minimum)
    return _Judgment(inner, outer_coeffs, outer, deltas, passed, finite, *verdicts)


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
    code = _class_code(*params)
    tag = TAG_BY_STRENGTH[code]
    if tag is InterferenceTag.STRONG:
        raise ClassMismatchError(
            "gap audit is undefined for strong channels (capacity is exact)"
        )
    judged = _judge(code, *params)
    _raise_first_bad([judged.finite], [judged.contained], [params])
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


class SweepResult(NamedTuple):
    """Audited records plus the failure view relevant to the caller."""

    n: int
    seed: int
    class_filter: str
    records: tuple[SweepRecord, ...]
    failures: tuple[SweepRecord, ...]
    worst_deltas: dict[str, float | None]


# The classes each filter accepts: the weak code, the two mixed ones, or both.
_CLASS_FILTERS = {
    "weak": TAG_BY_STRENGTH[:1],
    "mixed": TAG_BY_STRENGTH[1:3],
    "any": TAG_BY_STRENGTH[:3],
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


def _sweep(n, seed, class_filter) -> tuple[int, int, Iterator[_Chunk]]:
    """Start a sweep: ``(n, seed, chunks)``, with ``n`` and ``seed`` checked
    as ints and ``chunks`` the :func:`_chunks` of ``n`` channels of the
    classes ``class_filter`` names, drawn from ``random.Random(seed)``.  A bad
    argument raises :class:`DomainError` here, before the first draw."""
    n = _checked_int(n, "an integer n >= 1", 1)
    seed = _checked_int(seed, "an integer seed >= 0", 0)
    try:
        accepted = _CLASS_FILTERS[class_filter]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown class filter {class_filter!r}; expected one of {sorted(_CLASS_FILTERS)}"
        ) from None
    return n, seed, _chunks(n, random.Random(seed), accepted)


class _Chunk(NamedTuple):
    """An audited chunk, as both engines pack it.

    ``frame`` is the chunk as bytes, as the CSV writer gets it: first one
    byte per channel, its row code (8 times its class code, see
    :data:`gicap.channel.TAG_BY_STRENGTH`, plus 4 for a passing delta
    verdict, 2 for a one-bit certificate and 1 for a within-half
    certificate), then a row-major float64 block of nine values per channel:
    SNR1, SNR2, INR1, INR2 in dB and the five family deltas, NaN where the
    class lacks the family.  ``worst`` is each family's largest delta in
    the chunk, None where no channel has the family.
    """

    frame: bytes
    worst: list


def _chunks(n, rng, accepted) -> Iterator[_Chunk]:
    """The chunks of a sweep of ``n`` channels of the classes ``accepted``
    that draws from ``rng``, in draw order, one per draw pass that accepts a
    candidate.

    Each candidate takes four ``rng.random()`` draws (SNR1, SNR2, INR1,
    INR2 in dB) and is rejected after drawing unless its class is accepted.
    The engine (:func:`_chunk_engine`) is chosen when the first pass is
    drawn, so a caller may fork before numpy is imported.
    """
    select, audit = _chunk_engine(n)
    draw = rng.random
    accept = bytes(tag in accepted for tag in TAG_BY_STRENGTH)  # by class code
    done = 0
    while done < n:
        # A pass draws as many candidates as the sweep still needs, at most
        # SWEEP_CHUNK, so no pass draws past the n-th accepted one.
        # rng.random() is the one generator method with a documented
        # cross-version reproducibility guarantee.
        draws = itertools.starmap(draw, itertools.repeat((), 4 * min(n - done, SWEEP_CHUNK)))
        tags, dbs, ratios = select(draws, accept)
        if len(tags):
            done += len(tags)
            yield audit(tags, dbs, ratios)
        del tags, dbs, ratios  # hold no chunk while the next pass is drawn


def _scalar_select(draws, accept):
    """The candidates of a pass whose class code ``accept`` marks, in draw
    order: their class codes (see :data:`gicap.channel.TAG_BY_STRENGTH`),
    their four dB values and their four ratios, each channel's as a tuple.

    ``draws`` holds four ``rng.random()`` values per candidate (SNR1, SNR2,
    INR1, INR2), mapped to dB by the sweep box (:data:`_DB_LOW`,
    :data:`_DB_SPAN`); ``accept`` holds a nonzero byte at the code of each
    accepted class.  The lists are empty when the pass accepts none.
    """
    (low1, low2, low3, low4), (span1, span2, span3, span4) = _DB_LOW, _DB_SPAN
    classes, dbs, ratios = [], [], []
    values = iter(draws)
    for u1, u2, u3, u4 in zip(values, values, values, values):
        db = (low1 + span1 * u1, low2 + span2 * u2, low3 + span3 * u3, low4 + span4 * u4)
        ratio = tuple(map(db_to_linear, db))
        code = _class_code(*ratio)
        if accept[code]:
            classes.append(code)
            dbs.append(db)
            ratios.append(ratio)
    return classes, dbs, ratios


def _chunk_engine(n: int) -> tuple:
    """``(select, audit)`` of a sweep of ``n`` channels: ``select`` takes a
    pass's draws to its accepted candidates (:func:`_scalar_select`), and
    ``audit`` a chunk's class codes, dB values and ratios to its
    :class:`_Chunk` (:func:`_scalar_audit_chunk`).  The numpy engine's
    (:mod:`gicap.kernel`) for sweeps of at least :data:`NUMPY_MIN_N`
    channels where numpy can be imported, else the scalar one's."""
    if n >= NUMPY_MIN_N:
        try:
            from .kernel import audit_chunk, select
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
        else:
            return select, audit_chunk
    return _scalar_select, _scalar_audit_chunk


def _scalar_audit_chunk(classes, dbs, ratios) -> _Chunk:
    """The :class:`_Chunk` of the channels of class code ``classes[k]`` with
    dB values ``dbs[k]`` and ratios ``ratios[k]``, by :func:`_judge` of each;
    the first channel that cannot be audited raises (:func:`_raise_first_bad`).
    """
    judged = [_judge(code, *channel) for code, channel in zip(classes, ratios)]
    _raise_first_bad([j.finite for j in judged], [j.contained for j in judged], ratios)
    return _pack(classes, dbs, [(*j.deltas, j.passed, j.one_bit, j.within_half) for j in judged])


def _pack(classes, dbs, tails) -> _Chunk:
    """The :class:`_Chunk` of channels with class codes ``classes``, dB values
    ``dbs`` and record tails ``tails``: each channel's five family deltas
    (None where its class lacks the family), delta verdict and two certificates."""
    from array import array  # here, so that commands which never sweep do not load it

    codes = bytes(8 * c + 4 * tail[5] + 2 * tail[6] + tail[7] for c, tail in zip(classes, tails))
    floats = array(
        "d",
        itertools.chain.from_iterable(
            (*db, *(math.nan if delta is None else delta for delta in tail[:5]))
            for db, tail in zip(dbs, tails)
        ),
    )
    families = itertools.islice(zip(*tails), 5)
    worst = [max((d for d in family if d is not None), default=None) for family in families]
    return _Chunk(codes + floats.tobytes(), worst)


# A row code's failure flag (1) by the guarantee a sweep checks: one-bit
# needs the delta verdict and the one-bit certificate, within-half its own.
_FAILED = {
    "one-bit": bytes((code & 6) != 6 for code in range(256)),
    "within-half": bytes(not code & 1 for code in range(256)),
}


# A frame row's size: its row code byte and nine float64 values (see _Chunk).
_ROW_VALUES = 9
_ROW_BYTES = 1 + 8 * _ROW_VALUES


def _codes(frame: bytes) -> bytes:
    """The row codes at the head of a frame."""
    return frame[: len(frame) // _ROW_BYTES]


def _unframe(frame: bytes) -> tuple[bytes, list[float]]:
    """The row codes of a frame and the values of its float block."""
    codes = _codes(frame)
    return codes, memoryview(frame)[len(codes):].cast("d").tolist()


def _fold(chunks: Iterable[_Chunk], check: str, write) -> tuple[int, dict[str, float | None]]:
    """Pass each chunk's frame to ``write`` and fold the chunk as it arrives:
    returns the number of channels that fail ``check`` and each family's
    largest delta (None where no channel has the family)."""
    failures = 0
    worst = dict.fromkeys(_FAMILIES.values())
    for chunk in chunks:
        write(chunk.frame)
        for fam, top in zip(_FAMILIES.values(), chunk.worst):
            if top is not None and (worst[fam] is None or top > worst[fam]):
                worst[fam] = top
        failures += _codes(chunk.frame).translate(_FAILED[check]).count(1)
        del chunk  # before the next one is drawn
    return failures, worst


def one_bit_sweep(n: int, seed: int, class_filter: str = "any") -> SweepResult:
    """Random-channel audit of the one-bit guarantee, its records in draw order.

    A failure is a record whose exact deltas violate their thresholds or
    whose geometric one-bit certificate is false.  Failures are returned
    as data, never raised.  The sweep starts as every sweep does
    (:func:`_sweep`), and each chunk is folded as it arrives (:func:`_fold`):
    its records are read off its frame, which is then dropped.
    """
    n, seed, chunks = _sweep(n, seed, class_filter)
    records, failures = [], []

    def collect(frame: bytes) -> None:
        rows = list(map(SweepRecord._make, zip(*_columns(frame))))
        records.extend(rows)
        failures.extend(itertools.compress(rows, _codes(frame).translate(_FAILED["one-bit"])))

    worst = _fold(chunks, "one-bit", collect)[1]
    return SweepResult(
        n=n,
        seed=seed,
        class_filter=class_filter,
        records=tuple(records),
        failures=tuple(failures),
        worst_deltas=worst,
    )


def _columns(frame: bytes) -> tuple:
    """The 13 columns of a frame's records in :class:`SweepRecord` field
    order; an absent delta (NaN) is None."""
    codes, values = _unframe(frame)
    dbs = (values[k::_ROW_VALUES] for k in range(4))
    deltas = ([None if math.isnan(v) else v for v in values[k::_ROW_VALUES]] for k in range(4, 9))
    tags = [TAG_BY_STRENGTH[code >> 3].value for code in codes]
    verdicts = ([bool(code & bit) for code in codes] for bit in (4, 2, 1))
    return (*dbs, tags, *deltas, *verdicts)


_CSV_HEADER = (
    "snr1_db,snr2_db,inr1_db,inr2_db,class,delta_r1,delta_r2,"
    "delta_sum,delta_2r1_r2,delta_r1_2r2,one_bit_pass,within_half_pass\n"
)
_BOOL = ("false", "true")
# The families in each class's outer bound; _judge reports the others as None.
_PRESENT = {tag: set(_bounds.outer_args(1.0, 1.0, 1.0, 1.0, tag)[0]) for tag in TAG_BY_STRENGTH}
# The %-template of a CSV row by its row code, taking the row's nine numbers:
# each at 12 significant digits, or an absent delta as an empty cell
# (``%.0s``), with the class and the two pass cells baked in.
_CSV_TEMPLATES = [
    ",".join(
        ["%.12g"] * 4
        + [tag.value]
        + ["%.12g" if family in _PRESENT[tag] else "%.0s" for family in _FAMILIES]
        + [_BOOL[(verdicts & 6) == 6], _BOOL[verdicts & 1]]
    )
    + "\n"
    for tag in TAG_BY_STRENGTH
    for verdicts in range(8)  # the row code's low three bits
]


def _chunk_text(frame: bytes) -> str:
    """The CSV rows of a frame, formatted by one ``%`` over the whole chunk."""
    codes, values = _unframe(frame)
    return "".join(map(_CSV_TEMPLATES.__getitem__, codes)) % tuple(values)


class _RowWriter:
    """Writes a sweep's CSV rows to ``fh``, one chunk's frame (:class:`_Chunk`)
    per :meth:`write`: in this process, or, with ``fork``, in a writer child
    forked here, which formats a chunk while this process draws and audits
    the next one.  Either way a frame's rows are formatted by :func:`_chunk_text`.

    Each frame goes to the child over a pipe with an 8-byte length prefix;
    both ends run on one machine.  :meth:`close` ends the frames and reaps the child, which
    writes every chunk it was sent, flushes and exits, and raises the
    :class:`OSError` that stopped the child, if any; it must run on every
    path.  ``fh``'s buffer must be empty when the child is forked, and only
    the child writes to it after.
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
        self._pid, self._frames, self._errors = pid, frames_out, errors_in

    def write(self, frame: bytes) -> None:
        if self._pid is None:
            self._fh.write(_chunk_text(frame))
            return
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


def _write_frames(fh, frames_in: int, frames_out: int, errors_in: int, errors_out: int) -> None:
    """The writer child of :class:`_RowWriter`, given the two pipes: write the
    rows of each frame read from ``frames_in`` to ``fh`` (:func:`_chunk_text`)
    until the frames end, flush, and exit; the arguments of an error go to
    ``errors_out``, for the parent to raise as an :class:`OSError`.  Never
    returns."""
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
                    fh.write(_chunk_text(frames.read(int.from_bytes(size, "little"))))
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

    The sweep starts as every sweep does (:func:`_sweep`).  One of more
    than :data:`SWEEP_CHUNK` channels, where ``os.fork`` exists, writes its
    rows from a writer child (:class:`_RowWriter`) forked after the header
    is written and before the first pass loads the engine, which may import
    numpy; so the child is small and formats one chunk's frame while this
    process draws and audits the next.  A smaller sweep writes them in
    process, by the same function.  Either way the file gets the same
    bytes: on an error mid-sweep, the rows of every chunk audited before it;
    an :class:`OSError` in the child is raised here.
    """
    if not (isinstance(check, str) and check in _FAILED):
        raise DomainError(f"unknown check {check!r}; expected one of {sorted(_FAILED)}")
    n, seed, chunks = _sweep(n, seed, class_filter)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_HEADER)
        fh.flush()
        rows = _RowWriter(fh, fork=n > SWEEP_CHUNK and hasattr(os, "fork"))
        try:
            failures, worst = _fold(chunks, check, rows.write)
        finally:
            rows.close()
    return {
        "n": n,
        "failures": failures,
        "worst_deltas": {fam: None if v is None else sigfig(v) for fam, v in worst.items()},
        "seed": seed,
    }


def kramer_gap(snr: float, inr: float) -> float:
    """Kramer bound minus the noise-level-split achievable symmetric rate.

    Defined on 1 <= INR < SNR.  Restricted to the B1 range the gap stays
    below one bit; on B2 it is unbounded (it diverges along INR =
    sqrt(SNR)), which is exactly why the interference-limited bound is
    needed there.
    """
    _real("inr", inr, 1, _real("snr", snr))
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
    given outside 1/2 < alpha < 2/3 raises :class:`DomainError`, and so do a
    ``snr_list`` that is not an iterable, an SNR that is not above 1 and a
    rate that overflows double precision (naming the channel).
    """
    _real("alpha", alpha_value, above=True)
    regime2 = 0.5 < alpha_value < 2.0 / 3.0
    if not (alpha_value < 0.5 or regime2 or alpha_value > 1.0):
        raise NotCoveredError(
            f"no asymptotically tight scheme is known for alpha={alpha_value!r}"
        )
    if gamma is not None and not regime2:
        raise DomainError(
            f"gamma={gamma!r} applies only when 1/2 < alpha < 2/3, got alpha={alpha_value!r}"
        )
    try:
        snrs = list(snr_list)
    except TypeError:
        raise DomainError(f"snr_list must be an iterable, got snr_list={snr_list!r}") from None
    if not snrs:
        raise DomainError("snr_list must be nonempty")
    for snr in snrs:
        _real("snr", snr, 1, above=True)
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

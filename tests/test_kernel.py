"""The sweep's two certificate engines: the numpy chunk kernel and the scalar path.

The kernel must give the verdicts of ``region.certificates`` exactly; a
sweep must write the same bytes on either engine; only a sweep may import
numpy; and a streamed sweep must hold flat memory in n.
"""

import array
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import types

import pytest

import gicap.bounds
import gicap.gap
import gicap.region
from gicap import (
    ChannelParams,
    ContainmentError,
    DomainError,
    InterferenceTag,
    RateConstraint,
    RateRegion,
    audit,
    audit_regions,
    certificates,
    classify,
    db_to_linear,
    one_bit_sweep,
)
from gicap.channel import TAG_BY_STRENGTH
from gicap.cli import main
from gicap.gap import NUMPY_MIN_N, SWEEP_CHUNK, SweepRecord
from conftest import gicap_child_env, random_channel, sweep_chunks
from reference_audit import THRESHOLDS

SCALAR_ENGINE = (gicap.gap._scalar_select, gicap.gap._scalar_audit_chunk)
AUDITED_TAGS = (
    InterferenceTag.WEAK,
    InterferenceTag.MIXED_STRONG_AT_1,
    InterferenceTag.MIXED_STRONG_AT_2,
)


def kernel_verdicts(pairs):
    """``(one_bit, within_half)`` per (inner, outer) pair by the support-function
    rule on chunk arrays, as ``kernel.audit_chunk`` runs it, None where the
    inner region is not contained in the outer one."""
    import numpy as np

    inner_coeffs = tuple((c.c1, c.c2) for c in pairs[0][0].constraints)
    groups = {}
    for k, (inner, outer) in enumerate(pairs):
        assert tuple((c.c1, c.c2) for c in inner.constraints) == inner_coeffs
        coeffs = tuple((c.c1, c.c2) for c in outer.constraints)
        groups.setdefault(coeffs, []).append(k)
    verdicts = [None] * len(pairs)
    for coeffs, index in groups.items():
        inner, outer = (
            np.array([[c.rhs for c in pairs[k][side].constraints] for k in index])
            for side in (0, 1)
        )
        inner_mins = gicap.region._family_minima(zip(inner_coeffs, inner.T), np.minimum)
        outer_mins = gicap.region._family_minima(zip(coeffs, outer.T), np.minimum)
        contained, one_bit, within_half = gicap.region._verdicts(inner_mins, outer_mins, np.minimum)
        for k, ok, verdict in zip(
            index, contained.tolist(), zip(one_bit.tolist(), within_half.tolist())
        ):
            if ok:
                verdicts[k] = verdict
    return verdicts


def shifted(region, bits):
    return RateRegion(RateConstraint(c.c1, c.c2, c.rhs + bits) for c in region.constraints)


def scalar_verdict(inner, outer):
    try:
        return certificates(inner, outer)
    except ContainmentError:
        return None


class TestKernelAgainstScalar:
    """Exact verdict equality with region.certificates, one chunk at a time."""

    @pytest.fixture
    def kernel(self):
        return pytest.importorskip("gicap.kernel")

    # None draws all three audited classes into one chunk
    @pytest.mark.parametrize(
        "tag", AUDITED_TAGS + (None,), ids=lambda t: getattr(t, "value", "any")
    )
    # loosen the outer bound so that false verdicts occur
    @pytest.mark.parametrize("slack", [0.0, 0.6, 1.2])
    def test_verdicts_equal(self, kernel, tag, slack):
        rng = random.Random(f"kernel-{tag}-{slack}")
        pairs = []
        while len(pairs) < SWEEP_CHUNK:
            params = random_channel(rng, tag)
            if tag is None and params.strong_at_1 and params.strong_at_2:
                continue
            inner, outer = audit_regions(params)
            pairs.append((inner, shifted(outer, slack)))
        want = [scalar_verdict(inner, outer) for inner, outer in pairs]
        assert kernel_verdicts(pairs) == want
        if slack > 1.0:
            assert any(verdict != (True, True) for verdict in want)

    def test_shrunk_outer_bound_is_not_contained(self, kernel):
        rng = random.Random("kernel-shrunk")
        pairs = [audit_regions(random_channel(rng, InterferenceTag.WEAK)) for _ in range(64)]
        pairs = [(i, shifted(o, -3.0) if k % 5 == 3 else o) for k, (i, o) in enumerate(pairs)]
        want = [scalar_verdict(inner, outer) for inner, outer in pairs]
        assert [k for k, v in enumerate(want) if v is None] == list(range(3, 64, 5))
        assert kernel_verdicts(pairs) == want


@pytest.fixture(params=["numpy", "scalar"])
def engine(request, monkeypatch):
    """Run the test on one engine: with numpy, or with numpy blocked.

    Sweeps of fewer than :data:`NUMPY_MIN_N` channels always take the
    scalar path, so the tests sweep at least that many.
    """
    if request.param == "numpy":
        kernel = pytest.importorskip("gicap.kernel")
        assert gicap.gap._chunk_engine(NUMPY_MIN_N) == (kernel.select, kernel.audit_chunk)
        assert gicap.gap._chunk_engine(NUMPY_MIN_N - 1) == SCALAR_ENGINE
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "gicap.kernel", raising=False)
        assert gicap.gap._chunk_engine(NUMPY_MIN_N) == SCALAR_ENGINE
    return request.param


def first_chunk_records(n, seed, class_filter):
    """The records of a sweep's first chunk: the channels its first draw pass accepts."""
    return list(map(SweepRecord._make, zip(*next(sweep_chunks(n, seed, class_filter)))))


class TestSweepOnEachEngine:
    def test_containment_error_names_the_first_bad_channel(self, engine, monkeypatch):
        def bad(snr1, snr2):
            return (snr1 > 10**5.5) | (snr2 > 10**5.5)

        records = first_chunk_records(NUMPY_MIN_N, 3, "any")
        bad_records = [
            r for r in records if bad(db_to_linear(r.snr1_db), db_to_linear(r.snr2_db))
        ]
        bad_tags = [r.tag for r in bad_records]
        first = bad_records[0]
        # the first bad channel is not the chunk's first, and the class group
        # the kernel decides first (that of channel 0) has a later bad channel
        assert records.index(first) > 0
        assert first.tag != records[0].tag and records[0].tag in bad_tags
        params = ChannelParams(
            *map(db_to_linear, (first.snr1_db, first.snr2_db, first.inr1_db, first.inr2_db))
        )
        real = gicap.bounds.outer_args

        def shrunk(s1, s2, i1, i2, tag):
            # one argument of each row over 8: its rhs 3 bits lower; works on
            # floats and on numpy arrays alike
            coeffs, args = real(s1, s2, i1, i2, tag)
            scale = 1.0 - 0.875 * bad(s1, s2)
            return coeffs, tuple((row[0] * scale, *row[1:]) for row in args)

        monkeypatch.setattr(gicap.bounds, "outer_args", shrunk)
        with pytest.raises(ContainmentError) as info:
            list(sweep_chunks(NUMPY_MIN_N, 3, "any"))
        assert repr(params) in str(info.value)

    @pytest.mark.parametrize("containment_first", [True, False], ids=["containment", "overflow"])
    def test_first_bad_channel_in_draw_order_raises(self, engine, monkeypatch, containment_first):
        records = first_chunk_records(NUMPY_MIN_N, 3, "any")
        # in the first chunk, an earlier bad channel outside the class group
        # the kernel decides first (that of channel 0), and a later one inside it
        early = next(k for k, r in enumerate(records) if r.tag != records[0].tag)
        late = next(k for k in range(early + 1, len(records)) if records[k].tag == records[0].tag)
        j, k = (early, late) if containment_first else (late, early)
        shrunk, overflowed = (db_to_linear(records[i].snr1_db) for i in (j, k))
        real = gicap.bounds.outer_args

        def broken(s1, s2, i1, i2, tag):
            # channel j: one argument of each row over 8, so its rhs is 3 bits
            # lower; channel k: that argument infinite.  Works on floats and
            # on numpy arrays alike.
            coeffs, args = real(s1, s2, i1, i2, tag)
            scale = 1.0 - 0.875 * (s1 == shrunk)
            infinite = (s1 == overflowed) * 1e308 * 1e308
            return coeffs, tuple((row[0] * scale + infinite, *row[1:]) for row in args)

        monkeypatch.setattr(gicap.bounds, "outer_args", broken)
        error, named = (ContainmentError, j) if containment_first else (DomainError, k)
        with pytest.raises(error) as info:
            list(sweep_chunks(NUMPY_MIN_N, 3, "any"))
        r = records[named]
        params = ChannelParams(*map(db_to_linear, (r.snr1_db, r.snr2_db, r.inr1_db, r.inr2_db)))
        assert repr(params) in str(info.value)

    def test_delta_verdict_fails_over_lowered_thresholds(self, engine, tmp_path, monkeypatch):
        # thresholds half a bit lower: channels with a delta in the top half
        # bit of its family fail
        monkeypatch.setattr(gicap.gap, "_SLACK", -0.5)
        records = one_bit_sweep(NUMPY_MIN_N, 3, "any").records
        want = []
        for r in records:
            deltas = {fam: getattr(r, f"delta_{fam}") for fam in THRESHOLDS}
            want.append(
                all(d < THRESHOLDS[fam] - 0.5 for fam, d in deltas.items() if d is not None)
            )
            params = ChannelParams(
                *map(db_to_linear, (r.snr1_db, r.snr2_db, r.inr1_db, r.inr2_db))
            )
            assert audit(params).report.passed == want[-1], params
        assert [r.delta_pass for r in records] == want
        assert True in want and False in want
        stdout = io.StringIO()
        argv = ["sweep", "--seed", "3", "--n", str(NUMPY_MIN_N), "--out", str(tmp_path / "s.csv")]
        assert main(argv, stdout=stdout) == 3
        assert json.loads(stdout.getvalue())["failures"] == want.count(False)

    def test_streamed_memory_is_flat_in_n(self, engine, tmp_path, monkeypatch):
        # The sweep's live Python blocks, sampled at every draw: records kept
        # across chunks would grow them with n.
        class SamplingRandom(random.Random):
            peak = 0

            def random(self):
                SamplingRandom.peak = max(SamplingRandom.peak, sys.getallocatedblocks())
                return super().random()

        monkeypatch.setattr(gicap.gap, "random", types.SimpleNamespace(Random=SamplingRandom))

        def peak(n: int) -> int:
            argv = ["sweep", "--seed", "1", "--n", str(n), "--out", str(tmp_path / "s.csv")]
            gc.collect()  # garbage left by earlier code would move the baseline
            before = SamplingRandom.peak = sys.getallocatedblocks()
            assert main(argv, stdout=io.StringIO()) == 0
            return SamplingRandom.peak - before

        peak(NUMPY_MIN_N)  # imports the engine outside the measurement
        # A streamed sweep holds no chunk while it draws, so its peak is a few
        # hundred blocks whatever n is.  Records kept across chunks would add
        # several blocks per channel: tens of thousands over the
        # 2 * SWEEP_CHUNK channels that the larger sweep adds.
        small, large = peak(2 * SWEEP_CHUNK), peak(4 * SWEEP_CHUNK)
        assert large - small < SWEEP_CHUNK, (small, large)
        if engine == "numpy":
            # Nor is the last chunk held while the next pass is drawn (about
            # ten blocks a channel).  The scalar engine builds each accepted
            # candidate's values as it draws, so only numpy's draws are bare.
            assert large < SWEEP_CHUNK, large


def decoded_rows(frame):
    """The records of a frame, decoded row by row: a row code byte per channel,
    then nine float64 values per channel; an absent delta (NaN) is None."""
    size = len(frame) // (1 + 8 * 9)
    values = array.array("d", frame[size:]).tolist()
    rows = []
    for k, code in enumerate(frame[:size]):
        numbers = values[9 * k : 9 * k + 9]
        deltas = [None if math.isnan(value) else value for value in numbers[4:]]
        tag = TAG_BY_STRENGTH[code >> 3].value
        rows.append((*numbers[:4], tag, *deltas, bool(code & 4), bool(code & 2), bool(code & 1)))
    return rows


def reference_fold(chunks, check):
    """Worst deltas and failure count of a sweep's column chunks, folded over
    the lists with None for an absent delta."""
    worst = dict.fromkeys(("r1", "r2", "sum", "2r1_r2", "r1_2r2"))
    failures = 0
    for columns in chunks:
        for fam, values in zip(worst, columns[5:10]):
            present = [value for value in values if value is not None]
            if present and (worst[fam] is None or max(present) > worst[fam]):
                worst[fam] = max(present)
        passed, one_bit, within_half = columns[10:]
        if check == "one-bit":
            failures += sum(not (p and o) for p, o in zip(passed, one_bit))
        else:
            failures += within_half.count(False)
    return worst, failures


def hexed(worst):
    return {fam: None if value is None else value.hex() for fam, value in worst.items()}


class TestChunkHandoff:
    """A chunk travels from the engine to the CSV writer as a frame of packed
    blocks; decoded, it must give the public columns, and the fold on the
    blocks the worst deltas and failure counts of the columns."""

    @pytest.mark.parametrize("class_filter", sorted(gicap.gap._CLASS_FILTERS))
    def test_frames_decode_to_the_columns_and_fold_alike(self, engine, monkeypatch, class_filter):
        # thresholds half a bit lower, the one-bit certificate refused wherever
        # R2's inner minimum is below 3 bits and the within-half one wherever
        # R1's is: rows fail each verdict alone
        monkeypatch.setattr(gicap.gap, "_SLACK", -0.5)
        real_verdicts = gicap.gap._verdicts

        def verdicts(inner, outer, minimum):
            contained, one_bit, within_half = real_verdicts(inner, outer, minimum)
            return (
                contained,
                one_bit & (inner[(0.0, 1.0)] > 3.0),
                within_half & (inner[(1.0, 0.0)] > 3.0),
            )

        monkeypatch.setattr(gicap.gap, "_verdicts", verdicts)
        n = NUMPY_MIN_N
        chunks = list(gicap.gap._sweep(n, 5, class_filter)[2])
        columns = list(sweep_chunks(n, 5, class_filter))
        assert len(chunks) == len(columns) > 1
        for chunk, want in zip(chunks, columns):
            assert decoded_rows(chunk.frame) == list(zip(*want))
        if class_filter != "weak":
            # each of the two families a mixed bound lacks is absent on some
            # rows of a chunk and present on others
            for family in (8, 9):
                assert any(
                    {type(value) for value in chunk[family]} == {float, type(None)}
                    for chunk in columns
                )
        for check in ("one-bit", "within-half"):
            written = []
            failures, worst = gicap.gap._fold(chunks, check, written.append)
            assert written == [chunk.frame for chunk in chunks]
            want_worst, want_failures = reference_fold(columns, check)
            assert failures == want_failures > 0, check
            assert hexed(worst) == hexed(want_worst)


@pytest.mark.parametrize("class_filter, logged_per_channel", [("weak", 18), ("mixed", 13)])
def test_each_distinct_argument_is_logged_once(monkeypatch, class_filter, logged_per_channel):
    # A weak group's 18 row arguments all differ.  A mixed group's outer
    # rows share two arguments with its inner rows by value (the private
    # level of the strong side is 0): 1 + s1 + i1 and 1 + s1, or their
    # mirror images; each is logged once, so 13 of the 15 are.
    kernel = pytest.importorskip("gicap.kernel")
    logged = []

    def log2(value):
        logged.append(value)
        return math.log2(value)

    monkeypatch.setattr(kernel, "math", types.SimpleNamespace(log2=log2))
    n = SWEEP_CHUNK
    chunks = list(sweep_chunks(n, 1, class_filter))
    assert len(chunks) > 1
    if class_filter == "mixed":  # one group of each orientation
        assert set(chunks[0][4]) == {"mixed_strong_at_1", "mixed_strong_at_2"}
    assert len(logged) == logged_per_channel * n


# (low end, span) in dB of SNR1, SNR2, INR1, INR2: dB = low + span * rng.random()
DB_SCALES = ((0.0, 60.0), (0.0, 60.0), (-20.0, 80.0), (-20.0, 80.0))


class CountingRandom(random.Random):
    """``random.Random`` that counts its ``random()`` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def reference_chunks(n, seed, accepted):
    """The chunks of a seeded ``n``-channel sweep of classes ``accepted``, from
    candidates drawn one at a time (four ``rng.random()`` draws each) and
    classified by :func:`gicap.classify`; and the number of draws made.

    Pass k draws ``min(n - done, SWEEP_CHUNK)`` candidates, ``done`` being
    the number accepted before it, and chunk k is its accepted candidates as
    ``(tag, four dB values, four ratios)`` rows; a pass that accepts none
    gives no chunk.
    """
    rng = CountingRandom(seed)
    chunks = []
    done = 0
    while done < n:
        chunk = []
        for _ in range(min(n - done, SWEEP_CHUNK)):
            dbs = tuple(low + span * rng.random() for low, span in DB_SCALES)
            ratios = tuple(map(db_to_linear, dbs))
            tag = classify(ChannelParams(*ratios)).tag
            if tag in accepted:
                chunk.append((tag, *dbs, *ratios))
        if chunk:
            chunks.append(chunk)
        done += len(chunk)
    return chunks, rng.draws


def drawn_chunks(engine_name, n, rng, accepted):
    """The chunks of an ``n``-channel sweep of classes ``accepted`` that draws
    from ``rng`` on the engine ``engine_name`` (whatever ``n``), each as
    ``(tag, four dB values, four ratios)`` rows; a placeholder stands in for
    the chunk audit, which sees each chunk's class codes, dB values and
    ratios.  The tags and dB values are read back off the chunk's frame."""
    if engine_name == "numpy":
        select = pytest.importorskip("gicap.kernel").select
    else:
        select = gicap.gap._scalar_select
    audited = []

    def placeholder_audit(tags, dbs, ratios):
        audited.append((tags, dbs, ratios))
        return gicap.gap._pack(tags, dbs, [(None,) * 5 + (True,) * 3] * len(tags))

    chunks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gicap.gap, "_chunk_engine", lambda n: (select, placeholder_audit))
        for chunk, (tags, dbs, ratios) in zip(gicap.gap._chunks(n, rng, accepted), audited):
            columns = gicap.gap._columns(chunk.frame)
            tags = [TAG_BY_STRENGTH[tag] for tag in tags]
            assert columns[4] == [tag.value for tag in tags]
            assert list(zip(*columns[:4])) == [tuple(db) for db in dbs]
            rows = zip(tags, zip(*columns[:4]), ratios)
            chunks.append([(tag, *db, *ratio) for tag, db, ratio in rows])
    assert len(chunks) == len(audited)
    return chunks


class StubRandom:
    """Stands in for ``random.Random``: ``random()`` returns ``values`` in turn."""

    def __init__(self, values):
        self.random = iter(values).__next__


class TestDrawPasses:
    """Sweeps draw a pass of candidates at a time and audit each pass's
    accepted ones as one chunk; the draws and the chunks must be those of the
    one-candidate-at-a-time loop."""

    @pytest.mark.parametrize("engine_name", ["numpy", "scalar"])
    @pytest.mark.parametrize("class_filter", sorted(gicap.gap._CLASS_FILTERS))
    @pytest.mark.parametrize(
        "n", [1, 767, 768, 1023, 1024, 1025, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 5000]
    )
    def test_same_draws_and_candidates_as_one_at_a_time(self, engine_name, class_filter, n):
        accepted = gicap.gap._CLASS_FILTERS[class_filter]
        rng = CountingRandom(7)
        chunks = drawn_chunks(engine_name, n, rng, accepted)
        want, draws = reference_chunks(n, 7, accepted)
        assert chunks == want
        assert rng.draws == draws

    @pytest.mark.parametrize("engine_name", ["numpy", "scalar"])
    def test_cross_link_ties_classify_as_channel_params(self, engine_name):
        rng = random.Random("ties")
        cases = {(apart, link): [] for apart in (-1, 0, 1) for link in (0, 1)}
        while any(len(found) < 20 for found in cases.values()):
            # INR from 0 to 60 dB, mostly just above 0 dB, where ratios
            # 10 ** (dB / 10) of dB values an ulp apart round alike
            inr_u = 0.25 + 0.75 * rng.random() * 10.0 ** -rng.randrange(8)
            for (apart, link), found in cases.items():
                uniforms = tied_uniforms(inr_u, apart, link)
                if uniforms is not None:
                    found.append(uniforms)
        candidates = [uniforms for found in cases.values() for uniforms in found]
        stub = StubRandom(u for candidate in candidates for u in candidate)
        # every class accepted, so every candidate comes back, in order
        chunks = drawn_chunks(engine_name, len(candidates), stub, tuple(InterferenceTag))
        rows = [row for chunk in chunks for row in chunk]
        flattened = 0  # an INR below its SNR in dB, equal to it as a ratio
        for (tag, *dbs, snr1, snr2, inr1, inr2), uniforms in zip(rows, candidates):
            assert dbs == [low + span * u for (low, span), u in zip(DB_SCALES, uniforms)]
            params = ChannelParams(snr1, snr2, inr1, inr2)
            assert tuple(map(db_to_linear, dbs)) == (snr1, snr2, inr1, inr2)
            assert tag is classify(params).tag, params
            flattened += (dbs[2] < dbs[1] and inr1 == snr2) or (dbs[3] < dbs[0] and inr2 == snr1)
        assert len(rows) == len(candidates)
        assert flattened >= 10


def exact_uniform(db, low, span):
    """A ``u`` with ``low + span * u == db`` exactly, or None."""
    u = (db - low) / span
    for _ in range(8):
        got = low + span * u
        if got == db:
            return u
        u = math.nextafter(u, math.inf if got < db else -math.inf)
    return None


def tied_uniforms(inr_u, apart, link):
    """Uniforms of a candidate whose cross INR on ``link`` (0: INR1 over SNR2;
    1: INR2 over SNR1) is ``-20 + 80 * inr_u`` dB and lies ``apart`` ulps
    above that SNR in dB; the other link is far from a tie (30 dB SNR, 5 dB
    INR).  None when no uniform gives that SNR exactly."""
    inr_db = -20.0 + 80.0 * inr_u
    snr_db = inr_db
    for _ in range(abs(apart)):
        snr_db = math.nextafter(snr_db, -math.copysign(math.inf, apart))
    snr_u = exact_uniform(snr_db, 0.0, 60.0)
    if snr_u is None:
        return None
    return (0.5, snr_u, inr_u, 0.3125) if link == 0 else (snr_u, 0.5, 0.3125, inr_u)


# argv[1] is "numpy" (the kernel must run), "blocked" (numpy cannot be
# imported) or "small" (numpy must not even be imported)
ENGINE_CHILD = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from gicap.cli import main
code = main(sys.argv[2:])
sys.stdout.flush()
if ("gicap.kernel" in sys.modules) != (sys.argv[1] == "numpy"):
    sys.exit(f"the sweep ran on the wrong engine for {sys.argv[1]}")
if sys.argv[1] == "small" and "numpy" in sys.modules:
    sys.exit("a small sweep imported numpy")
sys.exit(code)
"""

# every subcommand but sweep, in both formats: none may import numpy
IMPORT_CHILD = """
import io
import sys
import gicap.cli
channel = ["--snr1", "100", "--snr2", "10", "--inr1", "20", "--inr2", "5"]
for argv in (
    ["classify", *channel],
    ["classify", "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"],
    ["region", *channel],
    ["region", "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"],
    ["region", "--snr1", "10", "--snr2", "10", "--inr1", "100", "--inr2", "100"],
    ["region", *channel, "--bound", "pt2pt"],
    ["symrate", "--snr", "100", "--inr", "10"],
    ["symrate", "--snr", "10", "--inr", "100"],
    ["gap-audit", *channel],
    ["gdof", "--alpha", "0.6"],
    ["gdof", "--alpha1", "1", "--alpha2", "0.5", "--alpha3", "0.5"],
    ["figures", "gdof-curve"],
    ["figures", "hk-fraction"],
    ["figures", "ub-vs-hk"],
    ["figures", "diff-rates"],
    ["figures", "gdof-region", "--alpha", "0.6"],
):
    for fmt in ("json", "csv"):
        assert gicap.cli.main([*argv, "--format", fmt], stdout=io.StringIO()) == 0, argv
sys.exit("numpy was imported" if "numpy" in sys.modules else 0)
"""


# argv[1] is "preloaded" (numpy imported before the sweep) or "fresh", argv[2]
# a CSV path and argv[3] "cli" (`gicap sweep` over NUMPY_MIN_N channels) or
# "library" (one_bit_sweep over NUMPY_MIN_N weak channels, then a stream_sweep
# over more than two chunks, which forks its writer child).  Prints the
# OPENBLAS_NUM_THREADS set while gicap.kernel was imported, the process's
# thread count at each fork ("-" for none) and after the sweeps, and whether
# os.environ came back unchanged
THREADS_CHILD = """
import io
import os
import sys
if sys.argv[1] == "preloaded":
    import numpy
from gicap import one_bit_sweep, stream_sweep
from gicap.cli import main
from gicap.gap import NUMPY_MIN_N, SWEEP_CHUNK
path, kind = sys.argv[2:]
seen, forks = [], []
def threads():
    return len(os.listdir("/proc/self/task"))
class KernelImport:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "gicap.kernel":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, KernelImport)
real_fork = os.fork
def fork():
    forks.append(threads())
    return real_fork()
os.fork = fork
before = dict(os.environ)
if kind == "cli":
    argv = ["sweep", "--seed", "1", "--n", str(NUMPY_MIN_N), "--out", path]
    assert main(argv, stdout=io.StringIO()) == 0
else:
    one_bit_sweep(NUMPY_MIN_N, 1, "weak")
    stream_sweep(2 * SWEEP_CHUNK + 1, 1, "any", "one-bit", path)
assert "gicap.kernel" in sys.modules
print(seen[0], ",".join(map(str, forks)) or "-", threads(), dict(os.environ) == before)
"""
NUMPY_THREADS = "import os, numpy; print(len(os.listdir('/proc/self/task')))"


# argv[1] names a step that must happen before a sweep loads its engine, and
# argv[2] is a path: "path" streams a kernel-sized sweep to that unopenable
# path, "filter" gives one_bit_sweep a bad class filter, and "fork" runs
# `gicap sweep` over more than two chunks with os.fork wrapped.  Prints
# whether numpy was loaded when the step failed or forked, and whether the
# kernel was loaded at the end.
ORDER_CHILD = """
import io
import os
import sys
import gicap.gap
from gicap import DomainError, one_bit_sweep, stream_sweep
from gicap.cli import main
step, path = sys.argv[1:]
seen = []
if step == "fork":
    real_fork = os.fork
    def fork():
        seen.append("numpy" in sys.modules)
        return real_fork()
    os.fork = fork
    argv = ["sweep", "--seed", "1", "--n", str(2 * gicap.gap.SWEEP_CHUNK + 1), "--out", path]
    assert main(argv, stdout=io.StringIO()) == 0
else:
    sweep, error = {
        "path": (lambda: stream_sweep(gicap.gap.NUMPY_MIN_N, 1, "weak", "one-bit", path), OSError),
        "filter": (lambda: one_bit_sweep(gicap.gap.NUMPY_MIN_N, 1, "bogus"), DomainError),
    }[step]
    try:
        sweep()
    except error:
        seen.append("numpy" in sys.modules)
print(seen, "gicap.kernel" in sys.modules)
"""


# sha256 of (stdout, CSV) of `gicap sweep --seed 1 --n 3000`: both engines
# share one per-channel judgment, so comparing them with each other cannot
# catch a change that moves both alike
ANY_DIGESTS = (
    "c23ac11a6e2e226cd1024401f68255c97a296d6d75d53ae290826e976384e3dc",
    "e49520f6c95f24a7b3ddd6c91d5b5fde53bd1ed0a077ea6c0e9bf9d1287a9d01",
)


class TestEngineChoice:
    @pytest.mark.parametrize(
        "flags, digests",
        [
            (
                ["--class", "weak"],
                (
                    "5bb4c0ebf3fcda5bc754a075eba548165d98fb96425a8afb91de168838cbbc1d",
                    "be71831e8724b437170cbb8dfc124ac97c74ff4401a2d06d3d0bceb3f9e48110",
                ),
            ),
            (
                ["--class", "mixed"],
                (
                    "2fc68f2c061fb3d2a7ff75a39308298bac47bc93399bd8c251dbc56302dad068",
                    "35225d3f6f9150ba924aed028a22c200eda8cc1ddb41b7da9cabaaa69e5d4aac",
                ),
            ),
            (["--class", "any"], ANY_DIGESTS),
            # no channel fails either check, so the output is the any sweep's
            (["--check", "within-half"], ANY_DIGESTS),
        ],
        ids=["weak", "mixed", "any", "within-half"],
    )
    def test_blocked_numpy_gives_the_same_bytes(self, tmp_path, flags, digests):
        pytest.importorskip("numpy")
        # 3,000 channels take the kernel, in several draw passes, each
        # audited as a chunk
        class_filter = flags[1] if flags[0] == "--class" else "any"
        assert len(list(sweep_chunks(3000, 1, class_filter))) > 1
        outputs = {}
        for mode in ("numpy", "blocked"):
            out = tmp_path / f"{mode}.csv"
            argv = ["sweep", "--seed", "1", "--n", "3000", *flags, "--out", str(out)]
            child = subprocess.run(
                [sys.executable, "-c", ENGINE_CHILD, mode, *argv],
                capture_output=True,
                env=gicap_child_env(),
            )
            assert child.returncode == 0, child.stderr.decode(errors="replace")
            outputs[mode] = (child.stdout, out.read_bytes())
        assert outputs["numpy"] == outputs["blocked"]
        assert tuple(hashlib.sha256(data).hexdigest() for data in outputs["numpy"]) == digests

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--class", "weak"],
                "f1c2be1453ad98751166d699e9276d74f66a7525a395bfe70bd6fada7819acb3",
            ),
            (
                ["--class", "mixed"],
                "0cb394d9773c745ea8e5ccfe6bbe7a3be06634ff52aa3c22202b4410a10e3483",
            ),
            (
                ["--check", "within-half"],
                "5035e933a3388c2255cc9e323076e4c594734701e876f2abf2fe6a5fcf219b34",
            ),
        ],
        ids=["weak", "mixed", "within-half"],
    )
    def test_ten_thousand_channel_csv_keeps_its_bytes(self, tmp_path, flags, digest):
        # sha256 of the CSV of `gicap sweep --seed 1 --n 10000`: ten chunks,
        # many draw passes each, on both engines
        pytest.importorskip("numpy")
        for mode in ("numpy", "blocked"):
            out = tmp_path / f"{mode}.csv"
            argv = ["sweep", "--seed", "1", "--n", "10000", *flags, "--out", str(out)]
            child = subprocess.run(
                [sys.executable, "-c", ENGINE_CHILD, mode, *argv],
                capture_output=True,
                env=gicap_child_env(),
            )
            assert child.returncode == 0, child.stderr.decode(errors="replace")
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, mode

    @staticmethod
    def threads_child(tmp_path, kind, mode, user_value):
        """THREADS_CHILD's fields, and the thread count of a plain ``import
        numpy`` under the same environment (numpy's own pool)."""
        pytest.importorskip("numpy")
        env = gicap_child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        child = subprocess.run(
            [sys.executable, "-c", THREADS_CHILD, mode, str(tmp_path / "s.csv"), kind],
            capture_output=True,
            env=env,
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        plain = subprocess.run(
            [sys.executable, "-c", NUMPY_THREADS], capture_output=True, env=env, check=True
        )
        return (*child.stdout.decode().split(), plain.stdout.decode().strip())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    @pytest.mark.parametrize(
        "mode, user_value", [("fresh", None), ("fresh", "2"), ("preloaded", None)]
    )
    def test_sweep_loads_numpy_with_one_blas_thread(self, tmp_path, mode, user_value):
        # one OpenBLAS thread only where the sweep itself imports numpy and
        # the user set no thread count; os.environ is restored either way
        seen, forks, threads, restored, plain = self.threads_child(
            tmp_path, "cli", mode, user_value
        )
        assert (forks, restored) == ("-", "True")
        if mode == "fresh" and user_value is None:
            assert (seen, threads) == ("1", "1")
        else:
            assert (seen, threads) == (str(user_value), plain)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    @pytest.mark.parametrize(
        "mode, user_value", [("fresh", None), ("fresh", "2"), ("preloaded", None)]
    )
    def test_library_sweeps_fork_their_writer_from_one_thread(self, tmp_path, mode, user_value):
        # the library sweeps load numpy as `gicap sweep` does, so a later
        # sweep forks its writer child from a process of one thread; numpy's
        # own pool forks it from as many threads as a plain import starts
        # (OpenBLAS stops that pool at a fork, so the count after is not checked)
        seen, forks, threads, restored, plain = self.threads_child(
            tmp_path, "library", mode, user_value
        )
        assert restored == "True"
        if mode == "fresh" and user_value is None:
            assert (seen, forks, threads) == ("1", "1", "1")
        else:
            assert (seen, forks) == (str(user_value), plain)

    @pytest.mark.parametrize("step", ["path", "filter", "fork"])
    def test_sweep_loads_its_engine_after_the_checks_and_the_fork(self, tmp_path, step):
        # a sweep checks its arguments, opens its file and forks its writer
        # child before the first draw pass loads the engine, which imports numpy
        path = tmp_path / ("s.csv" if step == "fork" else "missing/s.csv")
        child = subprocess.run(
            [sys.executable, "-c", ORDER_CHILD, step, str(path)],
            capture_output=True,
            env=gicap_child_env(),
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        # the fork sweep runs on the kernel wherever numpy can be imported
        kernel = step == "fork" and importlib.util.find_spec("numpy") is not None
        assert child.stdout.decode().split() == ["[False]", str(kernel)]

    def test_a_missing_kernel_is_raised_not_replaced(self, monkeypatch):
        # only a missing numpy falls back to the scalar engine
        monkeypatch.setitem(sys.modules, "gicap.kernel", None)
        with pytest.raises(ModuleNotFoundError) as info:
            gicap.gap._chunk_engine(NUMPY_MIN_N)
        assert info.value.name == "gicap.kernel"

    def test_other_subcommands_never_import_numpy(self):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_CHILD], capture_output=True, env=gicap_child_env()
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")

    def test_small_sweep_is_stdlib_only_and_a_prefix_of_a_larger_one(self, tmp_path):
        pytest.importorskip("numpy")
        csv = {}
        for mode, n in (("small", 100), ("numpy", NUMPY_MIN_N)):
            out = tmp_path / f"{mode}.csv"
            argv = ["sweep", "--seed", "1", "--n", str(n), "--class", "any", "--out", str(out)]
            child = subprocess.run(
                [sys.executable, "-c", ENGINE_CHILD, mode, *argv],
                capture_output=True,
                env=gicap_child_env(),
            )
            assert child.returncode == 0, child.stderr.decode(errors="replace")
            csv[mode] = out.read_text().splitlines(keepends=True)
        assert len(csv["small"]) == 101
        assert csv["small"] == csv["numpy"][:101]

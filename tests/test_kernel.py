"""The sweep's two certificate engines: the numpy chunk kernel and the scalar path.

The kernel must give the verdicts of ``region.certificates`` exactly; a
sweep must write the same bytes on either engine; only a sweep may import
numpy; and a streamed sweep must hold flat memory in n.
"""

import gc
import hashlib
import io
import json
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
    db_to_linear,
    one_bit_sweep,
)
from gicap.cli import main
from gicap.gap import NUMPY_MIN_N, SWEEP_CHUNK, sweep_chunks
from conftest import gicap_child_env, random_channel
from reference_audit import THRESHOLDS

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
        assert gicap.gap._chunk_engine(NUMPY_MIN_N) is kernel.audit_chunk
        assert gicap.gap._chunk_engine(NUMPY_MIN_N - 1) is gicap.gap._scalar_audit_chunk
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "gicap.kernel", raising=False)
        assert gicap.gap._chunk_engine(NUMPY_MIN_N) is gicap.gap._scalar_audit_chunk
    return request.param


class TestSweepOnEachEngine:
    def test_containment_error_names_the_first_bad_channel(self, engine, monkeypatch):
        def bad(snr1, snr2):
            return (snr1 > 10**5.5) | (snr2 > 10**5.5)

        records = one_bit_sweep(NUMPY_MIN_N, 3, "any").records
        bad_records = [
            r for r in records if bad(db_to_linear(r.snr1_db), db_to_linear(r.snr2_db))
        ]
        bad_tags = [r.tag for r in bad_records]
        first = bad_records[0]
        # the first bad channel is not the chunk's first, and the class group
        # the kernel decides first (that of channel 0) has a later bad channel
        assert 0 < records.index(first) < SWEEP_CHUNK
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
        records = one_bit_sweep(NUMPY_MIN_N, 3, "any").records
        # an earlier bad channel outside the class group the kernel decides
        # first (that of channel 0), and a later one inside it
        early = next(k for k, r in enumerate(records) if r.tag != records[0].tag)
        late = next(k for k in range(early + 1, SWEEP_CHUNK) if records[k].tag == records[0].tag)
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
        small, large = peak(1_000), peak(8_000)
        assert large <= 1.5 * small, (small, large)


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


# sha256 of (stdout, CSV) of `gicap sweep --seed 1 --n 2000`: both engines
# share one per-channel judgment, so comparing them with each other cannot
# catch a change that moves both alike
ANY_DIGESTS = (
    "300f0c2e8e4f8515825784261695b14891d094a6ef093fb6a8d4eef8fc939d71",
    "d92a5e285a5789b8bccdd20583f78c4135ff9993cf116355b3a49a489c914684",
)


class TestEngineChoice:
    @pytest.mark.parametrize(
        "flags, digests",
        [
            (
                ["--class", "weak"],
                (
                    "f3d688e63463a4910c0eadff1b65c6b1ed5dbe058d03e3a40ae5d4ccbb195474",
                    "6f77240ebe5c1204d6b833b520b78c090cf13d624d70e2f4831b83e416b9b2bf",
                ),
            ),
            (
                ["--class", "mixed"],
                (
                    "f58abfd69991dd150bff637e6c482dd4bb8af26b377310c1eb5a0358385c2dba",
                    "cb8f1250d1dbb52cbca958a1fb81d6aefc8dcd42909ea0bc5b74ac7025976c48",
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
        # 2,000 channels end in a partial chunk
        assert 2000 % SWEEP_CHUNK
        outputs = {}
        for mode in ("numpy", "blocked"):
            out = tmp_path / f"{mode}.csv"
            argv = ["sweep", "--seed", "1", "--n", "2000", *flags, "--out", str(out)]
            child = subprocess.run(
                [sys.executable, "-c", ENGINE_CHILD, mode, *argv],
                capture_output=True,
                env=gicap_child_env(),
            )
            assert child.returncode == 0, child.stderr.decode(errors="replace")
            outputs[mode] = (child.stdout, out.read_bytes())
        assert outputs["numpy"] == outputs["blocked"]
        assert tuple(hashlib.sha256(data).hexdigest() for data in outputs["numpy"]) == digests

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

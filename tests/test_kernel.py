"""The sweep's two certificate engines: the numpy chunk kernel and the scalar path.

The kernel must give the verdicts of ``region.certificates`` exactly; a
sweep must write the same bytes on either engine; only a sweep may import
numpy; and a streamed sweep must hold flat memory in n.
"""

import io
import random
import subprocess
import sys
import tracemalloc

import pytest

import gicap.bounds
import gicap.gap
from gicap import (
    ChannelParams,
    ContainmentError,
    InterferenceTag,
    RateConstraint,
    RateRegion,
    audit_regions,
    certificates,
    db_to_linear,
    one_bit_sweep,
)
from gicap.cli import main
from gicap.gap import SWEEP_CHUNK, sweep_chunks
from conftest import gicap_child_env, random_channel

AUDITED_TAGS = (
    InterferenceTag.WEAK,
    InterferenceTag.MIXED_STRONG_AT_1,
    InterferenceTag.MIXED_STRONG_AT_2,
)


def columns(pairs):
    """chunk_certificates' arguments for a list of (inner, outer) regions."""
    inner_coeffs = tuple((c.c1, c.c2) for c in pairs[0][0].constraints)
    inner_rows, outer_coeffs, outer_rows = [], [], []
    for inner, outer in pairs:
        assert tuple((c.c1, c.c2) for c in inner.constraints) == inner_coeffs
        inner_rows.append(tuple(c.rhs for c in inner.constraints))
        outer_coeffs.append(tuple((c.c1, c.c2) for c in outer.constraints))
        outer_rows.append(tuple(c.rhs for c in outer.constraints))
    return inner_coeffs, inner_rows, outer_coeffs, outer_rows


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
        assert kernel.chunk_certificates(*columns(pairs)) == want
        if slack > 1.0:
            assert any(verdict != (True, True) for verdict in want)

    def test_shrunk_outer_bound_is_not_contained(self, kernel):
        rng = random.Random("kernel-shrunk")
        pairs = [audit_regions(random_channel(rng, InterferenceTag.WEAK)) for _ in range(64)]
        pairs = [(i, shifted(o, -3.0) if k % 5 == 3 else o) for k, (i, o) in enumerate(pairs)]
        want = [scalar_verdict(inner, outer) for inner, outer in pairs]
        assert [k for k, v in enumerate(want) if v is None] == list(range(3, 64, 5))
        assert kernel.chunk_certificates(*columns(pairs)) == want


@pytest.fixture(params=["numpy", "scalar"])
def engine(request, monkeypatch):
    """Run the test on one engine: with numpy, or with numpy blocked."""
    if request.param == "numpy":
        kernel = pytest.importorskip("gicap.kernel")
        assert gicap.gap._chunk_certifier() is kernel.chunk_certificates
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "gicap.kernel", raising=False)
        assert gicap.gap._chunk_certifier() is gicap.gap._scalar_chunk_certificates
    return request.param


class TestSweepOnEachEngine:
    def test_containment_error_names_the_first_bad_channel(self, engine, monkeypatch):
        def bad(snr1: float, snr2: float) -> bool:
            return max(snr1, snr2) > 10**5.5

        records = one_bit_sweep(SWEEP_CHUNK, 3, "any").records
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
        real = gicap.bounds.outer_rows

        def shrunk(params, tag):
            coeffs, rhs = real(params, tag)
            return coeffs, tuple(r - 3.0 for r in rhs) if bad(params.snr1, params.snr2) else rhs

        monkeypatch.setattr(gicap.bounds, "outer_rows", shrunk)
        with pytest.raises(ContainmentError) as info:
            list(sweep_chunks(SWEEP_CHUNK, 3, "any"))
        assert repr(params) in str(info.value)

    def test_streamed_memory_is_flat_in_n(self, engine, tmp_path):
        def peak(n: int) -> int:
            argv = ["sweep", "--seed", "1", "--n", str(n), "--out", str(tmp_path / "s.csv")]
            tracemalloc.start()
            try:
                code = main(argv, stdout=io.StringIO())
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak_bytes

        peak(10)  # imports the engine outside the measurement
        small, large = peak(1_000), peak(8_000)
        assert large <= 1.5 * small, (small, large)


ENGINE_CHILD = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from gicap.cli import main
code = main(sys.argv[2:])
sys.stdout.flush()
if ("gicap.kernel" in sys.modules) != (sys.argv[1] == "numpy"):
    sys.exit(f"the sweep ran on the wrong engine for {sys.argv[1]}")
sys.exit(code)
"""

IMPORT_CHILD = """
import io
import sys
import gicap.cli
for argv in (
    ["gap-audit", "--snr1", "100", "--snr2", "10", "--inr1", "20", "--inr2", "5"],
    ["region", "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"],
    ["figures", "gdof-curve"],
):
    assert gicap.cli.main(argv, stdout=io.StringIO()) == 0, argv
sys.exit("numpy was imported" if "numpy" in sys.modules else 0)
"""


class TestEngineChoice:
    @pytest.mark.parametrize(
        "flags",
        [["--class", "weak"], ["--class", "mixed"], ["--check", "within-half"]],
        ids=["weak", "mixed", "within-half"],
    )
    def test_blocked_numpy_gives_the_same_bytes(self, tmp_path, flags):
        pytest.importorskip("numpy")
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

    def test_other_subcommands_never_import_numpy(self):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_CHILD], capture_output=True, env=gicap_child_env()
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")

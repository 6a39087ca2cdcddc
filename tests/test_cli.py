import argparse
import contextlib
import errno
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gicap.cli
import gicap.gap
from gicap import (
    ContainmentError,
    GdofParams,
    InterferenceTag,
    SweepRecord,
    Vertex,
    gdof_region,
    vertices,
)
from gicap.cli import _build_parser, main
from gicap.region import sigfig
from conftest import gicap_child_env, slope_tie_grid, sweep_chunks, vertex_sets_equal

FIXED_FIGURES = [f for f in gicap.cli._FIGURE_IDS if f != "gdof-region"]


def run_cli(args):
    buf = io.StringIO()
    code = main(args, stdout=buf)
    return code, buf.getvalue()


def run_json(args):
    code, out = run_cli(args)
    assert code == 0, out
    return json.loads(out)


def assert_overflow_names_the_channel(args, capsys, ratios):
    code, out = run_cli(args)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: cannot audit ChannelParams(")
    assert "overflow" in err
    for ratio in ratios:
        assert ratio in err


class TestClassify:
    def test_symmetric_weak_db(self):
        obj = run_json(
            ["classify", "--snr1", "20", "--snr2", "20", "--inr1", "10", "--inr2", "10", "--db"]
        )
        assert obj["class"] == "weak"
        assert obj["regime"] == 2
        assert obj["bset"] == "B2"
        assert obj["alpha"] == 0.5
        assert obj["very_strong"] is False

    def test_mixed_linear(self):
        obj = run_json(
            ["classify", "--snr1", "100", "--snr2", "10", "--inr1", "20", "--inr2", "5"]
        )
        assert obj["class"] == "mixed_strong_at_1"
        assert obj["very_strong"] is None
        assert "regime" not in obj

    def test_inr_cubed_beyond_float_range(self):
        # inr**3 = 1e450 overflows; alpha = 0.75 is regime 3
        obj = run_json(
            ["classify", "--snr1", "1e200", "--snr2", "1e200", "--inr1", "1e150", "--inr2", "1e150"]
        )
        assert obj["regime"] == 3 and obj["bset"] == "B1"

    def test_bset_when_both_sides_overflow(self):
        # 1e160 * (1e160 + 1e200) ~ 1e360 < 1e200**2 * (1e200 + 1) ~ 1e600
        obj = run_json(
            ["classify", "--snr1", "1e160", "--snr2", "1e160", "--inr1", "1e200", "--inr2", "1e200"]
        )
        assert obj["regime"] == 4 and obj["bset"] == "B1"

    def test_db_beyond_float_range(self, capsys):
        code, _ = run_cli(
            ["classify", "--snr1", "4000", "--snr2", "1", "--inr1", "1", "--inr2", "1", "--db"]
        )
        assert code == 2
        assert "4000.0 dB" in capsys.readouterr().err

    def test_missing_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--snr2", "20", "--inr1", "10", "--inr2", "10"])
        assert exc.value.code == 2


class TestRegion:
    def test_weak_recommended(self):
        obj = run_json(
            ["region", "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"]
        )
        assert obj["one_bit"] is True
        assert obj["within_half"] is True
        assert obj["split"] == {"inr_p2": 1.0, "inr_p1": 1.0}
        assert len(obj["inner"]["constraints"]) == 7
        assert len(obj["outer"]["constraints"]) == 7
        assert obj["inner"]["vertices"]

    def test_strong_exact_capacity(self):
        obj = run_json(
            ["region", "--snr1", "10", "--snr2", "10", "--inr1", "100", "--inr2", "100"]
        )
        assert obj["inner"]["vertices"] == obj["outer"]["vertices"]
        assert obj["one_bit"] is True

    def test_out_of_range_split(self):
        code, _ = run_cli(
            [
                "region",
                "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10",
                "--split", "explicit", "--inr-p2", "20", "--inr-p1", "1",
            ]
        )
        assert code == 2

    def test_split_values_need_explicit_split(self, capsys):
        # 0.5 asked for, yet the recommended split would be printed
        code, out = run_cli(["region", *CHANNEL, "--inr-p2", "0.5", "--inr-p1", "0.5"])
        assert code == 2 and out == ""
        assert "--inr-p2" in capsys.readouterr().err

    def test_no_parse_state_leaks_between_calls(self):
        explicit = run_json(
            ["region", *CHANNEL, "--split", "explicit", "--inr-p2", "0.5", "--inr-p1", "0.25"]
        )
        assert explicit["split"] == {"inr_p2": 0.5, "inr_p1": 0.25}
        plain = run_json(["region", *CHANNEL])
        assert plain["split"] == {"inr_p2": 1.0, "inr_p1": 1.0}

    def test_explicit_split_missing_values(self):
        code, _ = run_cli(
            [
                "region",
                "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10",
                "--split", "explicit",
            ]
        )
        assert code == 2

    def test_overflow_names_the_channel(self, capsys):
        assert_overflow_names_the_channel(
            ["region", "--snr1", "1.7e308", "--snr2", "1.7e308",
             "--inr1", "1e308", "--inr2", "1e308"],
            capsys,
            ("snr1=1.7e+308", "snr2=1.7e+308", "inr1=1e+308", "inr2=1e+308"),
        )

    def test_pt2pt_bound(self):
        obj = run_json(
            [
                "region",
                "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10",
                "--bound", "pt2pt",
            ]
        )
        assert len(obj["outer"]["constraints"]) == 2


class TestSymrate:
    def test_weak_bounds(self):
        obj = run_json(["symrate", "--snr", "100", "--inr", "10"])
        assert obj["hk_rate"] == pytest.approx(3.392317, abs=1e-5)
        assert obj["genie_ub"] == pytest.approx(4.99660, abs=1e-4)
        assert obj["new_ub"] == pytest.approx(4.32847, abs=1e-4)
        assert obj["kramer_ub"] == pytest.approx(4.86390, abs=1e-4)
        assert obj["regime"] == 2 and obj["bset"] == "B2"

    def test_strong_capacity(self):
        obj = run_json(["symrate", "--snr", "10", "--inr", "100"])
        assert obj["capacity"] == pytest.approx(0.5 * math.log2(111), abs=1e-9)
        assert obj["hk_rate"] == pytest.approx(obj["capacity"], abs=1e-9)

    def test_kramer_cancellation(self):
        obj = run_json(
            ["symrate", "--snr", "0.2858679206362913", "--inr", "4.757332006037544e-40"]
        )
        assert obj["kramer_ub"] == pytest.approx(math.log2(1.2858679206362913), abs=1e-12)

    @pytest.mark.parametrize(
        "snr, inr",
        [("14057.298200159232", "1.489059452920308e-16"), ("1.5", "1e-320"), ("100", "1e-300")],
    )
    def test_kramer_far_below_snr(self, snr, inr):
        # the Kramer bound's a^2 overflows or 2 - a + sqrt(a^2 + 4*SNR*a) cancels
        obj = run_json(["symrate", "--snr", snr, "--inr", inr])
        assert obj["kramer_ub"] == pytest.approx(math.log2(1.0 + float(snr)), abs=1e-9)
        assert obj["gap_to_best"] > -1e-9

    def test_overflow_names_the_channel(self, capsys):
        # 1 + SNR + INR overflows in the achievable rate
        assert_overflow_names_the_channel(
            ["symrate", "--snr", "1.7e308", "--inr", "1e308"],
            capsys,
            ("snr1=1.7e+308", "inr1=1e+308"),
        )

    def test_strong_overflow_names_the_channel(self, capsys):
        assert_overflow_names_the_channel(
            ["symrate", "--snr", "1.7e308", "--inr", "1.7e308"], capsys, ("snr1=1.7e+308",)
        )


class TestGapAudit:
    def test_weak(self):
        obj = run_json(
            ["gap-audit", "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"]
        )
        assert obj["deltas"]["r1"] == pytest.approx(0.98579, abs=1e-4)
        assert obj["delta_pass"] is True
        assert obj["one_bit"] is True
        assert obj["within_half"] is True

    def test_mixed_skipped_family(self):
        obj = run_json(
            ["gap-audit", "--snr1", "100", "--snr2", "10", "--inr1", "20", "--inr2", "5"]
        )
        assert obj["deltas"]["2r1_r2"] is None

    def test_strong_rejected(self):
        code, _ = run_cli(
            ["gap-audit", "--snr1", "10", "--snr2", "10", "--inr1", "100", "--inr2", "100"]
        )
        assert code == 2

    def test_overflow_names_the_channel(self, capsys):
        # weak channel whose 1 + SNR + INR overflows to inf
        code, out = run_cli(
            ["gap-audit", "--snr1", "1.7e308", "--snr2", "1.7e308",
             "--inr1", "1e308", "--inr2", "1e308"]
        )
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: cannot audit ChannelParams(")
        for ratio in ("snr1=1.7e+308", "snr2=1.7e+308", "inr1=1e+308", "inr2=1e+308"):
            assert ratio in err


class TestSweep:
    def test_deterministic_and_clean(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code1, text1 = run_cli(
            ["sweep", "--n", "40", "--seed", "5", "--class", "weak", "--out", str(out1)]
        )
        code2, text2 = run_cli(
            ["sweep", "--n", "40", "--seed", "5", "--class", "weak", "--out", str(out2)]
        )
        assert code1 == code2 == 0
        assert text1 == text2
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(text1)
        assert summary["failures"] == 0
        assert summary["n"] == 40

    def test_within_half_check(self, tmp_path):
        code, text = run_cli(
            [
                "sweep", "--n", "20", "--seed", "6", "--check", "within-half",
                "--out", str(tmp_path / "wh.csv"),
            ]
        )
        assert code == 0
        assert json.loads(text)["failures"] == 0

    def test_zero_n_rejected(self, tmp_path):
        code, _ = run_cli(
            ["sweep", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_missing_out_rejected(self):
        code, _ = run_cli(["sweep", "--n", "5", "--seed", "1"])
        assert code == 2

    def test_within_half_needs_both_classes(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, text = run_cli(
            ["sweep", "--n", "5", "--check", "within-half", "--class", "weak", "--out", str(out)]
        )
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: --check within-half sweeps weak and mixed jointly\n"
        )
        assert not out.exists()

    def test_unwritable_path_io_error(self):
        code, _ = run_cli(
            ["sweep", "--n", "2", "--seed", "1", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 1

    def test_violation_exits_three(self, tmp_path, monkeypatch):
        record = SweepRecord(
            snr1_db=10.0, snr2_db=10.0, inr1_db=0.0, inr2_db=0.0, tag="weak",
            delta_r1=1.5, delta_r2=0.5, delta_sum=1.0, delta_2r1_r2=2.0,
            delta_r1_2r2=2.0, delta_pass=False, one_bit=False, within_half=True,
        )
        def engine(tags, dbs, ratios):  # the one drawn channel audits as ``record``
            return gicap.gap._pack(tags, dbs, [record[5:]])

        scalar_draws = (gicap.gap._scalar_select, engine)
        monkeypatch.setattr(gicap.gap, "_chunk_engine", lambda n: scalar_draws)
        code, text = run_cli(
            ["sweep", "--n", "1", "--seed", "1", "--class", "weak",
             "--out", str(tmp_path / "v.csv")]
        )
        assert code == 3
        assert json.loads(text)["failures"] == 1


ENOSPC_MESSAGE = f"i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes ``os.fork`` starts during the test."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWriterChild:
    """A sweep of more than :data:`gicap.gap.SWEEP_CHUNK` channels writes its
    rows from a forked child; it must write what the in-process writer
    writes, on every path."""

    def sweep(self, tmp_path, name, *flags):
        out = tmp_path / f"{name}.csv"
        code, text = run_cli(["sweep", "--seed", "1", *flags, "--out", str(out)])
        return code, text, out.read_bytes()

    def test_forks_only_a_sweep_of_more_than_one_chunk(self, tmp_path, forks):
        chunk = gicap.gap.SWEEP_CHUNK
        one = self.sweep(tmp_path, "one", "--n", str(chunk))
        assert forks == []
        more = self.sweep(tmp_path, "more", "--n", str(chunk + 1))
        assert len(forks) == 1
        assert one[0] == more[0] == 0
        assert more[2].startswith(one[2])
        assert more[2].count(b"\n") == chunk + 2
        assert_no_child()

    @pytest.mark.parametrize("slack", [None, -0.5], ids=["clean", "failing"])
    def test_both_write_paths_give_the_same_bytes(self, tmp_path, monkeypatch, forks, slack):
        if slack is not None:  # thresholds half a bit lower: some channels fail, exit 3
            monkeypatch.setattr(gicap.gap, "_SLACK", slack)
        flags = ("--class", "any", "--n", str(2 * gicap.gap.SWEEP_CHUNK))
        forked = self.sweep(tmp_path, "forked", *flags)
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        in_process = self.sweep(tmp_path, "in-process", *flags)
        assert forked == in_process
        assert forked[0] == (0 if slack is None else 3)
        assert_no_child()

    def test_mid_sweep_error_leaves_the_in_process_partial_csv(
        self, tmp_path, monkeypatch, forks
    ):
        n = 2 * gicap.gap.SWEEP_CHUNK
        first_two = itertools.islice(sweep_chunks(n, 1, "any"), 2)
        rows = sum(len(chunk[0]) for chunk in first_two)
        real_engine = gicap.gap._chunk_engine

        def engine(n):
            select, audit_chunk = real_engine(n)
            calls = itertools.count(1)

            def audit(*chunk):
                if next(calls) == 3:
                    raise ContainmentError("forced in the third chunk")
                return audit_chunk(*chunk)

            return select, audit

        monkeypatch.setattr(gicap.gap, "_chunk_engine", engine)
        forked = self.sweep(tmp_path, "forked", "--n", str(n))
        assert len(forks) == 1
        assert_no_child()
        monkeypatch.delattr(os, "fork")
        in_process = self.sweep(tmp_path, "in-process", "--n", str(n))
        assert forked == in_process
        assert forked[:2] == (2, "")
        assert forked[2].count(b"\n") == 1 + rows

    @pytest.mark.parametrize(
        "n, written",
        # the error in the last chunk, whose first row is row None: every frame
        # is sent before it, and the sweep learns of it when it ends the
        # frames; in the first chunk of 20,480 channels, whose frames (73 bytes
        # a row) overfill the pipe: the sweep finds the pipe broken
        [(2 * gicap.gap.SWEEP_CHUNK, None), (5 * gicap.gap.SWEEP_CHUNK, 0)],
        ids=["when-the-frames-end", "pipe-broken"],
    )
    def test_write_error_exits_one_with_its_message(
        self, tmp_path, monkeypatch, capsys, forks, n, written
    ):
        if written is None:
            *_, last = sweep_chunks(n, 1, "any")
            written = n - len(last[0])
        rows = [0]  # rows formatted so far; the writer child counts in its own copy
        real_text = gicap.gap._chunk_text

        def full(frame):
            if rows[0] == written:  # the chunk that starts at row ``written``
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            text = real_text(frame)
            rows[0] += text.count("\n")
            return text

        monkeypatch.setattr(gicap.gap, "_chunk_text", full)
        forked = (*self.sweep(tmp_path, "forked", "--n", str(n)), capsys.readouterr().err)
        assert len(forks) == 1
        assert_no_child()
        monkeypatch.delattr(os, "fork")
        in_process = (*self.sweep(tmp_path, "in-process", "--n", str(n)), capsys.readouterr().err)
        assert forked == in_process
        code, text, data, err = forked
        assert (code, text, err) == (1, "", ENOSPC_MESSAGE)
        assert data.count(b"\n") == 1 + written

    def test_writer_error_other_than_os_error_is_raised_as_one(self, tmp_path, monkeypatch, forks):
        def boom(frame):
            raise ValueError("boom")

        monkeypatch.setattr(gicap.gap, "_chunk_text", boom)
        n = gicap.gap.SWEEP_CHUNK + 1
        with pytest.raises(OSError) as info:
            gicap.gap.stream_sweep(n, 1, "any", "one-bit", str(tmp_path / "s.csv"))
        assert info.value.args == ("the sweep's CSV writer failed: ValueError('boom')",)
        assert len(forks) == 1
        assert_no_child()

    def test_failed_second_pipe_closes_the_first(self, tmp_path, monkeypatch, capsys, forks):
        real_pipe = os.pipe
        first = []

        def pipe():
            if first:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            first.extend(real_pipe())
            return tuple(first)

        monkeypatch.setattr(os, "pipe", pipe)
        code, text, _ = self.sweep(tmp_path, "emfile", "--n", str(gicap.gap.SWEEP_CHUNK + 1))
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            f"i/o error: [Errno {errno.EMFILE}] {os.strerror(errno.EMFILE)}\n"
        )
        assert forks == []
        assert len(first) == 2
        for fd in first:
            with pytest.raises(OSError) as info:
                os.fstat(fd)
            assert info.value.errno == errno.EBADF

    def test_writer_exit_status_alone_exits_one(self, tmp_path, monkeypatch, capsys, forks):
        # the child ends without sending an error: only its exit status tells
        monkeypatch.setattr(gicap.gap, "_write_frames", lambda *fds: os._exit(3))
        code, text, _ = self.sweep(tmp_path, "status", "--n", str(5 * gicap.gap.SWEEP_CHUNK))
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "i/o error: the sweep's CSV writer process ended with status 3\n"
        )
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_one_with_its_message(self, capsys, forks):
        n = gicap.gap.SWEEP_CHUNK + 1
        code, text = run_cli(["sweep", "--seed", "1", "--n", str(n), "--out", "/dev/full"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == ENOSPC_MESSAGE
        assert forks == []  # the header's flush fails before the fork
        assert_no_child()


class TestGdofCommand:
    def test_symmetric(self):
        obj = run_json(["gdof", "--alpha", "0.6"])
        assert obj["d_sym"] == 0.6
        assert obj["symmetric_point"] == pytest.approx(0.6, abs=1e-12)
        assert obj["region"]["vertices"]

    def test_general_weak(self):
        obj = run_json(["gdof", "--alpha1", "1", "--alpha2", "0.4", "--alpha3", "0.4"])
        assert obj["class"] == "weak"
        assert obj["symmetric_point"] == pytest.approx(0.6, abs=1e-12)

    def test_general_strong(self):
        obj = run_json(["gdof", "--alpha1", "1", "--alpha2", "1.5", "--alpha3", "1.5"])
        assert obj["class"] == "strong"

    def test_one_sided(self):
        obj = run_json(["gdof", "--alpha1", "1", "--alpha2", "0", "--alpha3", "0.4"])
        assert obj["class"] == "one_sided_weak"
        assert len(obj["region"]["constraints"]) == 3
        obj = run_json(["gdof", "--alpha1", "1", "--alpha2", "0", "--alpha3", "1.5"])
        assert obj["class"] == "one_sided_strong"
        assert obj["symmetric_point"] == pytest.approx(0.75, abs=1e-12)

    def test_incomplete_triple(self):
        code, _ = run_cli(["gdof", "--alpha1", "1", "--alpha2", "0.4"])
        assert code == 2

    def test_swapped_mixed_orientation(self):
        # at alpha1 = 1 the users are alike, so swapping them maps the slopes
        # (1, a2, a3) to (1, a3, a2) and the region to its mirror image
        rng = random.Random(14)
        triples = [(1.0, 0.4, 1.5), (1.0, 0.0001, 1.0), (2.5, 0.4, 1.5)]
        triples += [(1.0, rng.uniform(0.0001, 0.9999), rng.uniform(1.0, 3.0)) for _ in range(200)]
        for a1, a2, a3 in triples:
            argv = ["gdof", "--alpha1", repr(a1), "--alpha2", repr(a2), "--alpha3", repr(a3)]
            obj = run_json(argv)
            assert obj["class"] == "mixed", argv
            if a1 != 1.0:
                continue
            got = [Vertex(*v) for v in obj["region"]["vertices"]]
            strong_at_1 = vertices(gdof_region(GdofParams(1.0, a3, a2)))
            mirrored = [Vertex(v.r2, v.r1) for v in reversed(strong_at_1)]
            assert vertex_sets_equal(got, mirrored), argv

    def test_alpha_with_slope_triple(self, capsys):
        code, out = run_cli(
            ["gdof", "--alpha", "0.6", "--alpha1", "1", "--alpha2", "0.4", "--alpha3", "0.4"]
        )
        assert code == 2 and out == ""
        assert "--alpha1" in capsys.readouterr().err

    @staticmethod
    def written_out_class(a1, a2, a3):
        """The class by the hand-written slope conditions."""
        if a2 == 0.0:
            return "one_sided_strong" if a3 >= 1.0 else "one_sided_weak"
        if a2 < a1 and a3 < 1.0:
            return "weak"
        if a2 >= a1 and a3 >= 1.0:
            return "strong"
        return "mixed"

    def test_class_at_the_ties(self):
        for a1, a2, a3 in slope_tie_grid():
            argv = ["gdof", "--alpha1", repr(a1), "--alpha2", repr(a2), "--alpha3", repr(a3)]
            code, out = run_cli(argv)
            expect = self.written_out_class(a1, a2, a3)
            assert code == 0 and json.loads(out)["class"] == expect, argv


class TestFigures:
    def test_gdof_curve_breakpoints(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(["figures", "gdof-curve", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "alpha,d_sym,d_orth,d_tin"
        assert len(rows) == 252  # header + 251 grid points on [0, 2.5]
        table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
        assert table["0.5"][1] == "0.5"
        assert table["1"][1] == "0.5"
        assert table["2"][1] == "1"
        assert table["0.75"][1] == "0.625"
        assert table["0.75"][2] == "0.5"
        assert table["0.75"][3] == "0.25"

    def test_hk_fraction_row(self):
        code, text = run_cli(["figures", "hk-fraction"])
        assert code == 0
        table = {r.split(",")[0]: r.split(",") for r in text.splitlines()[1:]}
        assert float(table["0.6"][1]) == pytest.approx(0.6)
        assert float(table["0.3"][1]) == pytest.approx(0.7)

    def test_ub_vs_hk_row(self):
        code, text = run_cli(["figures", "ub-vs-hk"])
        table = {r.split(",")[0]: r.split(",") for r in text.splitlines()[1:]}
        assert float(table["0.4"][1]) == pytest.approx(0.6)
        assert float(table["0.4"][2]) == pytest.approx(0.8)

    def test_diff_rates_row(self):
        code, text = run_cli(["figures", "diff-rates"])
        table = {r.split(",")[0]: r.split(",") for r in text.splitlines()[1:]}
        assert float(table["0.1"][1]) == pytest.approx(9.0909, abs=1e-4)
        assert float(table["0.1"][2]) == pytest.approx(5.0)

    def test_gdof_region_polygon(self):
        code, text = run_cli(["figures", "gdof-region", "--alpha", "0.5"])
        assert code == 0
        rows = text.splitlines()
        assert rows[0] == "d1,d2"
        assert len(rows) >= 3

    @pytest.mark.parametrize("figure_id", gicap.cli._FIGURE_IDS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_is_what_stdout_gets(self, tmp_path, figure_id, fmt):
        argv = ["figures", figure_id, "--format", fmt]
        if figure_id == "gdof-region":
            argv += ["--alpha", "0.6"]
        code, text = run_cli(argv)
        assert code == 0
        out = tmp_path / "figure.txt"
        code, printed = run_cli(argv + ["--out", str(out)])
        assert code == 0 and printed == ""
        assert out.read_bytes() == text.encode()

    @pytest.mark.parametrize("figure_id", FIXED_FIGURES)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_is_stdout_after_earlier_calls(self, tmp_path, figure_id, fmt):
        # every figure in both formats first, so the tables come from the cache
        for other in gicap.cli._FIGURE_IDS:
            for other_fmt in ("json", "csv"):
                extra = ["--alpha", "0.6"] if other == "gdof-region" else []
                assert run_cli(["figures", other, "--format", other_fmt, *extra])[0] == 0
        argv = ["figures", figure_id, "--format", fmt]
        out = tmp_path / "figure.txt"
        assert run_cli(argv + ["--out", str(out)]) == (0, "")
        code, text = run_cli(argv)
        assert code == 0
        assert out.read_bytes() == text.encode()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == FIGURE_DIGESTS[f"{figure_id}-{fmt}"]

    @pytest.mark.parametrize("figure_id", FIXED_FIGURES)
    def test_fixed_table_is_built_once(self, figure_id):
        header, rows = table = gicap.cli._figure_rows(figure_id, None)
        assert gicap.cli._figure_rows(figure_id, None) is table
        assert type(header) is tuple and type(rows) is tuple
        assert all(type(row) is tuple for row in rows)
        # the cached cells are the raw builder's, rounded when the table was built
        raw_header, raw_rows = gicap.cli._raw_figure_rows(figure_id)
        assert header == raw_header and rows == gicap.cli._rounded(raw_rows)
        assert all(cell == sigfig(cell) for row in rows for cell in row)

    @pytest.mark.parametrize(
        "figure_id, levels",
        [(f, [None]) for f in FIXED_FIGURES] + [("gdof-region", [i / 100 for i in range(301)])],
        ids=[*FIXED_FIGURES, "gdof-region"],
    )
    def test_every_cell_is_rounded_and_no_negative_zero(self, figure_id, levels):
        # _emit writes a table's cells as given: the builders round them, at
        # the levels gdof_argvs() sends to `figures gdof-region` too
        for alpha in levels:
            _, rows = gicap.cli._figure_rows(figure_id, alpha)
            for cell in itertools.chain.from_iterable(rows):
                assert cell == sigfig(cell), (alpha, cell)
                assert not (cell == 0.0 and math.copysign(1.0, cell) < 0.0), alpha

    def test_gdof_region_table_follows_alpha(self):
        half = gicap.cli._figure_rows("gdof-region", 0.5)
        two = gicap.cli._figure_rows("gdof-region", 2.0)
        assert half != two
        assert gicap.cli._figure_rows("gdof-region", 0.5) == half
        # the cache holds the figures without parameters only
        assert gicap.cli._fixed_figure_rows.cache_info().currsize <= len(FIXED_FIGURES)

    @pytest.mark.parametrize("figure_id", FIXED_FIGURES)
    def test_alpha_only_for_gdof_region(self, figure_id, capsys):
        code, out = run_cli(["figures", figure_id, "--alpha", "0.6"])
        assert code == 2 and out == ""
        assert "--alpha" in capsys.readouterr().err

    def test_gdof_region_needs_alpha(self):
        code, _ = run_cli(["figures", "gdof-region"])
        assert code == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "figure_id, alpha",
        [(f, None) for f in FIXED_FIGURES]
        + [("gdof-region", a) for a in (0.0, 0.5, 2 / 3, 1.0, 2.0, 3.0)],
    )
    def test_every_cell_is_a_float(self, figure_id, alpha):
        # _emit formats a table's CSV with one "%.12g" per cell and its JSON
        # with one "%r", which writes inf where json writes Infinity
        header, rows = gicap.cli._figure_rows(figure_id, alpha)
        assert rows and all(len(row) == len(header) for row in rows)
        assert {type(cell) for row in rows for cell in row} == {float}
        assert all(math.isfinite(cell) for row in rows for cell in row)


def _slope(rng):
    """A slope in [0, 3]: a class or W-curve breakpoint a quarter of the time."""
    if rng.random() < 0.25:
        return rng.choice((0.0, 0.5, 2 / 3, 1.0, 1.5, 2.0))
    return float(f"{rng.uniform(0.0, 3.0):.4f}")


def gdof_argvs():
    """``gdof``/``figures`` argvs by group: the four slope classes, the ties and
    the ``figures gdof-region`` levels, each in both formats."""
    rng = random.Random(15)
    classes = {"weak": [], "mixed_strong_at_1": [], "mixed_strong_at_2": [], "strong": []}
    while min(map(len, classes.values())) < 150:
        a1, a2, a3 = max(_slope(rng), 0.0001), _slope(rng), _slope(rng)
        name = [["weak", "mixed_strong_at_2"], ["mixed_strong_at_1", "strong"]][a2 >= a1][a3 >= 1]
        classes[name].append((a1, a2, a3))
    classes["ties"] = list(slope_tie_grid())
    groups = {}
    for fmt in ("json", "csv"):
        for name, triples in classes.items():
            groups[f"{name}-{fmt}"] = [
                ["gdof", "--format", fmt]
                + [v for flag, a in zip(("--alpha1", "--alpha2", "--alpha3"), t) for v in (flag, repr(a))]
                for t in triples[:150]
            ]
        groups[f"figures-{fmt}"] = [
            ["figures", "gdof-region", "--format", fmt, "--alpha", repr(i / 100)]
            for i in range(301)
        ]
    return groups


# sha256 of the stdouts of each group of gdof_argvs(), in order: query-mix output
# digests are compared across runs, so these bytes must not move
GDOF_DIGESTS = {
    "figures-csv": "da53061492404d8d938c427119539a276bda5ed6f2980dab198efff762b1457e",
    "figures-json": "e8e6a80eea8e28a57820f5807fc858045f7248126c10081db5b90c5261f123ca",
    "mixed_strong_at_1-csv": "4d2b6549aa16265ee7291298778616f0d8bcca1644a99b1386b1b9f6850e3577",
    "mixed_strong_at_1-json": "9591aa2c414e3eff5c4101d00fddd2daa76279ee3f4476b9e710f84a43c769ca",
    "mixed_strong_at_2-csv": "12f2af4ca67eea2ddc95b4b2f32844e0ca139b910c6a00280426412a9d8541ed",
    "mixed_strong_at_2-json": "b11e7807c4829d5108cd9c3fd72a3750b02b017aaddcdbb44b9dd97f757ae0e4",
    "strong-csv": "1dcc8973470f0d3b8f71f6c35bb7aa2386d08e7f9220f48cbfeeef79a0586cb6",
    "strong-json": "3eec6c12f3698035a0c6a44821aa9e014b7784af65df4f7f8d7334e5e2134c7e",
    "ties-csv": "6596b3d27665463787e3270d78315259642bf58c3de4d447e1b0b27348f829b7",
    "ties-json": "11aae5a56cd2f6df9a47478654e9f9e055fa8f2503ebb578da4d878d20d29372",
    "weak-csv": "d18615ef66246431199cc6ca45236ce5f49270e3cceda1b8b65b0d509510e8a3",
    "weak-json": "0c556b429c7ad45d59f898ec4f3243718e18b936a089221619e8444236c1a1f7",
}


@pytest.mark.parametrize("group", sorted(GDOF_DIGESTS))
def test_gdof_outputs_keep_their_bytes(group):
    digest = hashlib.sha256()
    for argv in gdof_argvs()[group]:
        code, out = run_cli(argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == GDOF_DIGESTS[group]


# sha256 of the stdout of each figure that takes no parameters, by format
FIGURE_DIGESTS = {
    "gdof-curve-csv": "af6cd2f2fed33cc5078a374a5996828c34c29908cc19e1c6a05b74886bad2540",
    "gdof-curve-json": "90400f610d58adee97972f684be9eebf5f69d2ea1f0167ac98e5e2341ef059d8",
    "hk-fraction-csv": "795c9aa5ef46d73f42cd09fb5c5deb261f9ca48f1ecab8878cb09fac4f2542ce",
    "hk-fraction-json": "850238742c2b932ffa406a3394e07f046bd316637c6c83a6d3e24e11bd1e25bc",
    "ub-vs-hk-csv": "b3131531e2706f352f445db25d062e5bf2476cc4580ef0aedc14272227a5c27e",
    "ub-vs-hk-json": "417321a3ec1180a0a8521945443b05201f86454f1c3540c5641f21e9a696e13b",
    "diff-rates-csv": "2f8089e338b06a424d5a8db7ef32c17d236275b7ed9541f650a953eaaacfbd65",
    "diff-rates-json": "c5348fd934233ff96de31dcd517324dfe8340e29ba71c71fb14669ed60c45723",
}


@pytest.mark.parametrize("figure", sorted(FIGURE_DIGESTS))
def test_figures_keep_their_bytes(figure):
    figure_id, fmt = figure.rsplit("-", 1)
    code, out = run_cli(["figures", figure_id, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_DIGESTS[figure]


def output_argvs():
    """Argvs of the commands that print no figure, by form and format: each
    form over one seeded list of channels in dB, symmetric ones and channels
    at a class tie (an INR equal to the other user's SNR) among them."""
    rng = random.Random("output-digests")
    channels = []
    for k in range(48):
        snr1, snr2, inr1, inr2 = (round(rng.uniform(-10.0, 60.0), 2) for _ in range(4))
        if k % 4 == 1:  # symmetric
            snr2, inr2 = snr1, inr1
        elif k % 4 == 2:  # the strong-at-1 tie
            inr1 = snr2
        elif k % 4 == 3:  # ties at both receivers
            inr1, inr2 = snr2, snr1
        channels.append((snr1, snr2, inr1, inr2))
    forms = {}
    for snr1, snr2, inr1, inr2 in channels:
        link = ["--snr1", repr(snr1), "--snr2", repr(snr2), "--inr1", repr(inr1),
                "--inr2", repr(inr2), "--db"]
        z = repr(round(rng.uniform(0.0, 2.0), 3))
        for form, argv in (
            ("classify", ["classify", *link]),
            ("region-auto", ["region", *link]),
            ("region-pt2pt", ["region", "--bound", "pt2pt", *link]),
            ("region-explicit", ["region", "--split", "explicit", *link,
                                 "--inr-p2", repr(inr2 - 4.5), "--inr-p1", repr(inr1 - 7.25)]),
            ("symrate", ["symrate", "--snr", repr(snr1), "--inr", repr(inr1), "--db"]),
            ("gap-audit", ["gap-audit", *link]),
            ("diffrate", ["diffrate", "--snr1", repr(snr1), "--inr2", repr(inr2), "--z", z, "--db"]),
        ):
            forms.setdefault(form, []).append(argv)
    return {f"{form}-{fmt}": [argv + ["--format", fmt] for argv in argvs]
            for form, argvs in forms.items() for fmt in ("json", "csv")}


# sha256 of the stdouts of each group of output_argvs(), in order; gap-audit
# rejects the strong channels, whose stdout is empty
OUTPUT_DIGESTS = {
    "classify-csv": "3060adaad36e9ea794ccd878dd0f2a4f5b1ab1cd844760cae272ac4b17e5fb49",
    "classify-json": "6e2d8b60035d182740a43d256c6144015d728f86bf75d2917422f2909edcf745",
    "diffrate-csv": "5aaa2dac503f3a2ac90a515afd12acdf768159e25275f8365ea4e5dfcbeee031",
    "diffrate-json": "221a4a52a0a70ad58133ebaa14d6e53643f7ccb7f5430242c81a39c33a5b3424",
    "gap-audit-csv": "c15e4bcb57645e1f17eeede90134dfff84dcb9dc2e565796807b81c2d6322d12",
    "gap-audit-json": "df558085b2ffd6a95883c2470a9c27c179219fd5609455f230913e35462f9731",
    "region-auto-csv": "57aa372a9875e741c0e36f68d77750e51eb7293428d51bb14e0dbc0259c934a3",
    "region-auto-json": "bacdf81a437d417a0dd9c6fd3ff84670d09e014aedd4bcb1ee3c1dd1fb61fd8a",
    "region-explicit-csv": "269807ed6a415fe6994146ec38c0776198d520302c3e4e4ca774c10cb490bd15",
    "region-explicit-json": "b4dd711701705f42837e59273982c886037613df07b99865a1ecf257fd4c4707",
    "region-pt2pt-csv": "5f975af6749ff0431827942b841be944aee277da99ba2f6e8d8ad09f1fcd6169",
    "region-pt2pt-json": "0174dc239824d90eb27e3a21fa0d2f3f76c53229babe7cd67eef581632f8ba68",
    "symrate-csv": "58c69df3e17d76c42dfbf735578fecf2e1566ee05a1a470b54bd16c96ed99421",
    "symrate-json": "0edc50aa9b8bcefd47ceb22719986cb3c71b1524c6676915eb6c60d49a1a3ac6",
}


@pytest.mark.parametrize("group", sorted(OUTPUT_DIGESTS))
def test_outputs_keep_their_bytes(group, capsys):
    digest = hashlib.sha256()
    for argv in output_argvs()[group]:
        code, out = run_cli(argv)
        assert code == 0 or (code == 2 and group.startswith("gap-audit")), argv
        digest.update(out.encode())
    capsys.readouterr()
    assert digest.hexdigest() == OUTPUT_DIGESTS[group]


def test_query_mix_keeps_its_bytes():
    # every query of the benchmark's mix (perfbench/querymix.py, loaded from
    # its file) for five seeds: its exit code, stdout and stderr
    path = Path(__file__).resolve().parents[1] / "perfbench" / "querymix.py"
    spec = importlib.util.spec_from_file_location("querymix", path)
    querymix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(querymix)
    digest = hashlib.sha256()
    for seed in (1, 2, 3, 2718, 11):
        for argv in querymix.generate(seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv, out)
            digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
    assert digest.hexdigest() == "8f9e4df7d35757e082249fba68f5a796f008c9f1b2ee7e8e98f127bdde214ad1"


def round_floats(obj):
    """The rounding ``cli._json`` fuses into its writer: a copy of ``obj``
    with every float rounded by ``sigfig`` and every tuple made a list."""
    if isinstance(obj, float):
        return sigfig(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


# floats at the edges of sigfig and of the json module's float text
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 1.0000000000005)
JSON_TEXT = st.text() | st.text(alphabet='"\\/\n\t\x00\x7fé☃\U0001f600', max_size=8)


class Count(int):
    """An int subclass whose text is not int's; ``json`` writes ``int.__repr__``."""

    def __repr__(self):
        return f"Count({int(self)})"

    __str__ = __repr__


# str and int subclasses (InterferenceTag members, Count) take json.dumps's path
SUBCLASS_LEAVES = st.sampled_from(list(InterferenceTag)) | st.integers().map(Count)
# keys of every type json takes; it writes a non-str one quoted: 1 as "1", None as "null"
JSON_KEYS = JSON_TEXT | SUBCLASS_LEAVES | st.none() | st.booleans() | st.integers() | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(EDGE_FLOATS)
    | JSON_TEXT | SUBCLASS_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES)
@example([])
@example({})
@example(())
@example({"a": [[], {}, ()], "b": {"c": [{}, [[]]]}, "d": [{"e": ()}]})
@example(list(EDGE_FLOATS))
@example({'"q"\\ é☃': ['"', "\\", "\u2603", 0, -1, True, False, None]})
@example({InterferenceTag.WEAK: [InterferenceTag.STRONG, Count(-3), Count(0)], "1": Count(1)})
@example({1: 2, None: 3, 1.5: True, True: None, math.inf: [], Count(4): {}})
def test_json_writer_is_the_json_module_on_rounded_floats(obj):
    assert gicap.cli._json(obj) == json.dumps(round_floats(obj), indent=2)


@pytest.mark.parametrize(
    "key", [(1, 2), frozenset(), b"k", object()], ids=["tuple", "frozenset", "bytes", "object"]
)
def test_json_writer_refuses_a_key_as_the_json_module_does(key):
    with pytest.raises(TypeError) as want:
        json.dumps({key: 0}, indent=2)
    with pytest.raises(TypeError) as got:
        gicap.cli._json({"a": [{"b": 1, key: 0}]})
    assert str(got.value) == str(want.value)


@st.composite
def figure_tables(draw):
    """``(header, rows)``: 1–4 columns of any text, 1–300 rows of finite floats."""
    header = tuple(draw(st.lists(JSON_TEXT, min_size=1, max_size=4)))
    row = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * len(header))
    return header, tuple(draw(st.lists(row, min_size=1, max_size=300)))


@settings(max_examples=300, deadline=None)
@given(figure_tables())
@example((("x",), ((-0.0,),)))
@example((("x", "y"), ((5e-324, -5e-324), (1e308, -1.7976931348623157e308))))
# "%.12g" turns to exponents below 1e-4 and from 1e12, repr below 1e-4 and from 1e16
@example((("x", "y"), ((9.99999e-6, 1e-5), (9.99999e-5, 1e-4), (1.23456789e-5, 1.23456789e-4))))
@example((("x", "y"), ((999999999999.0, 1e12), (9999999999999998.0, 1e16))))
@example((("x", "%s", '"q"\\%r'), ((9.9999999999995, -9.9999999999995, 0.99999999999995),)))
def test_table_json_is_the_json_module_on_rounded_floats(table):
    header, rows = table
    stream = io.StringIO()
    # the figure builders round each cell once, by _rounded; _emit writes them as given
    rounded = (header, gicap.cli._rounded(rows))
    gicap.cli._emit(None, argparse.Namespace(format="json"), stream, rounded)
    want = json.dumps(round_floats({"columns": header, "rows": rows}), indent=2)
    assert stream.getvalue() == want + "\n"


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a": [1.5, None, True], "b": {"c": "x,y", "d": InterferenceTag.WEAK}})
def test_key_value_csv_is_one_row_per_flattened_leaf(obj):
    stream = io.StringIO()
    gicap.cli._emit(obj, argparse.Namespace(format="csv"), stream)
    rows = [",".join(map(gicap.cli._cell, row)) + "\n" for row in gicap.cli._flatten(obj)]
    assert stream.getvalue() == "key,value\n" + "".join(rows)


class TestDiffrate:
    def test_values(self):
        obj = run_json(["diffrate", "--snr1", "100", "--inr2", "10", "--z", "0.1"])
        assert obj == {"z": 0.1, "r1": 9.09090909091, "r2": 5.0}

    def test_db_flag(self):
        obj = run_json(["diffrate", "--snr1", "20", "--inr2", "10", "--z", "0.1", "--db"])
        assert obj["r1"] == pytest.approx(9.0909, abs=1e-4)

    def test_negative_z(self):
        code, _ = run_cli(["diffrate", "--snr1", "100", "--inr2", "10", "--z", "-1"])
        assert code == 2


class TestNumberFormatting:
    def test_twelve_significant_digits(self):
        _, text = run_cli(["symrate", "--snr", "100", "--inr", "10"])
        assert "3.39231742278" in text
        assert "4.99659786523" in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, key",
        [(["diffrate", "--snr1", "0", "--inr2", "0", "--z", "-0"], "z"),
         (["gdof", "--alpha", "-0.0"], "alpha")],
        ids=["diffrate", "gdof"],
    )
    def test_negative_zero_leaf_is_written_as_zero(self, argv, key, fmt):
        code, text = run_cli(argv + ["--format", fmt])
        assert code == 0
        if fmt == "csv":
            assert f"\n{key},0\n" in text
            assert ",-0\n" not in text
        else:
            assert f'\n  "{key}": 0.0,\n' in text
            assert "-0.0" not in text


class TestFormatFlag:
    def test_classify_csv(self):
        code, text = run_cli(
            ["classify", "--snr1", "100", "--snr2", "100", "--inr1", "10",
             "--inr2", "10", "--format", "csv"]
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "key,value"
        assert "class,weak" in lines
        assert "bset,B2" in lines

    def test_region_csv_flattens_nested_paths(self):
        code, text = run_cli(
            ["region", "--snr1", "100", "--snr2", "100", "--inr1", "10",
             "--inr2", "10", "--format", "csv"]
        )
        assert code == 0
        assert "inner.constraints.0.rhs," in text
        assert "one_bit,true" in text

    def test_figures_json(self):
        code, text = run_cli(["figures", "gdof-region", "--alpha", "0.5",
                              "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["columns"] == ["d1", "d2"]
        assert obj["rows"] == [[0.0, 1.0], [1.0, 0.0]]

    def test_default_formats(self):
        _, fig_text = run_cli(["figures", "hk-fraction"])
        assert fig_text.startswith("alpha,")  # figure data defaults to csv
        _, obj_text = run_cli(["symrate", "--snr", "100", "--inr", "10"])
        assert obj_text.lstrip().startswith("{")  # objects default to json


CHANNEL = ["--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"]


class TestFlagSlots:
    """Each subcommand accepts only the flags it reads; argparse rejects the rest."""

    BASE = {
        "classify": ["classify", *CHANNEL],
        "region": ["region", *CHANNEL],
        "symrate": ["symrate", "--snr", "100", "--inr", "10"],
        "gap-audit": ["gap-audit", *CHANNEL],
        "sweep": ["sweep", "--n", "1"],
        "gdof": ["gdof", "--alpha", "0.5"],
        "figures": ["figures", "gdof-curve"],
        "diffrate": ["diffrate", "--snr1", "100", "--inr2", "10", "--z", "0.1"],
    }
    VALUES = {"--db": [], "--seed": ["1"], "--out": ["x.json"], "--format": ["csv"]}

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("classify", "--seed"), ("classify", "--out"),
            ("region", "--seed"), ("region", "--out"),
            ("symrate", "--seed"), ("symrate", "--out"),
            ("gap-audit", "--seed"), ("gap-audit", "--out"),
            ("sweep", "--db"),
            ("gdof", "--db"), ("gdof", "--seed"), ("gdof", "--out"),
            ("figures", "--db"), ("figures", "--seed"),
            ("diffrate", "--seed"), ("diffrate", "--out"),
        ],
    )
    def test_removed_flag_is_a_usage_error(self, command, flag, capsys):
        base = self.BASE[command]
        _build_parser().parse_args(base)  # the command line is valid without the flag
        with pytest.raises(SystemExit) as exc:
            main([*base, flag, *self.VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("classify", ("--db", "--format")),
            ("region", ("--db", "--format")),
            ("symrate", ("--db", "--format")),
            ("gap-audit", ("--db", "--format")),
            ("sweep", ("--seed", "--out", "--format")),
            ("gdof", ("--format",)),
            ("figures", ("--out", "--format")),
            ("diffrate", ("--db", "--format")),
        ],
    )
    def test_kept_flags_parse(self, command, flags):
        argv = [*self.BASE[command]]
        for flag in flags:
            argv += [flag, *self.VALUES[flag]]
        _build_parser().parse_args(argv)


def parse_then_run(argv, stdout):
    """The reference for ``main`` on these argvs: the full parser, then the command."""
    args = _build_parser().parse_args(argv)
    return args.run(args, stdout)


def call_outcome(call, argv, capsys):
    """(exit code, answer, sys.stdout text, sys.stderr text) of one call."""
    answer = io.StringIO()
    try:
        code = call(argv, answer)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, answer.getvalue(), captured.out, captured.err


# one valid command line per subcommand; the sweep's CSV lands in the test's cwd
DISPATCH_BASE = {**TestFlagSlots.BASE, "sweep": ["sweep", "--n", "1", "--out", "s.csv"]}


def dispatch_argvs():
    """Valid command lines and the help and usage errors around them."""
    yield []
    yield ["--help"]
    yield ["-h"]
    yield ["nope"]
    yield ["nope", "--help"]
    yield ["--format", "csv", *DISPATCH_BASE["classify"]]
    yield ["--", *DISPATCH_BASE["classify"]]
    missing = {  # a required flag, positional or flag value left out
        "classify": ["classify", *CHANNEL[:-2]],
        "region": ["region", *CHANNEL[2:]],
        "symrate": ["symrate", "--snr", "100"],
        "gap-audit": ["gap-audit", *CHANNEL[:4]],
        "sweep": ["sweep", "--out", "s.csv"],
        "gdof": ["gdof", "--alpha"],
        "figures": ["figures"],
        "diffrate": ["diffrate", "--snr1", "100", "--inr2", "10"],
    }
    for command, base in DISPATCH_BASE.items():
        yield base
        yield [command, "-h"]
        yield [*base, "--help"]
        yield missing[command]
        yield [*base, "--bogus"]
        yield [*base, "--bogus=1"]
        yield [*base, "stray"]
        yield [*base, "--format", "xml"]
        yield [*base, "--form", "csv"]
        yield [*base, "--format=csv", "--format", "json"]
        yield [*base, "--"]
        yield [*base, "--", "stray"]
        yield [command, "--", *base[1:]]
        yield [*base[:-1], "--", base[-1]]
        yield [*base, "--", "--format", "csv"]


@pytest.mark.parametrize("argv", list(dispatch_argvs()), ids=" ".join)
def test_main_parses_like_the_full_parser(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = call_outcome(parse_then_run, argv, capsys)
    assert call_outcome(main, argv, capsys) == expected
    if argv in DISPATCH_BASE.values():
        assert expected[0] == 0 and expected[1]


class TestBadInputNeverCrashes:
    """A seeded grid of edge-value argvs: each ends in exit 0 or 2 with valid JSON."""

    # zero, subnormal, underflow, tiny, ordinary, float-limit, negative and
    # non-finite values, read as ratios or, with --db, as dB
    VALUES = ("0", "5e-324", "1e-300", "1e-40", "0.3", "1", "100", "1e300", "1.7e308",
              "-1", "nan", "inf")
    CHANNEL = ("--snr1", "--snr2", "--inr1", "--inr2")
    # (leading argv, flags that take a value, whether --db applies)
    FORMS = (
        (["classify"], CHANNEL, True),
        (["region"], CHANNEL, True),
        (["region", "--bound", "pt2pt"], CHANNEL, True),
        (["region", "--split", "explicit"], CHANNEL + ("--inr-p2", "--inr-p1"), True),
        (["symrate"], ("--snr", "--inr"), True),
        (["gap-audit"], CHANNEL, True),
        (["gdof"], ("--alpha",), False),
        (["gdof"], ("--alpha1", "--alpha2", "--alpha3"), False),
        (["diffrate"], ("--snr1", "--inr2", "--z"), True),
    )

    @staticmethod
    def reject_constant(name):
        raise ValueError(f"{name} is not JSON")

    def argvs(self, count):
        rng = random.Random("cli-bad-input")
        for _ in range(count):
            lead, flags, db = rng.choice(self.FORMS)
            argv = [*lead]
            for flag in flags:
                argv += [flag, rng.choice(self.VALUES)]
            if db and rng.random() < 0.5:
                argv.append("--db")
            yield argv

    def test_exit_codes_and_json(self, capsys):
        crashes = []
        for argv in self.argvs(5_000):
            stdout = io.StringIO()
            try:
                code = main(argv, stdout=stdout)
                if code == 0:
                    json.loads(stdout.getvalue(), parse_constant=self.reject_constant)
                elif code != 2:
                    crashes.append((argv, f"exit {code}"))
            except SystemExit as exc:
                if exc.code != 2:
                    crashes.append((argv, f"SystemExit({exc.code})"))
            except Exception as exc:  # noqa: BLE001 - every escape is a finding
                crashes.append((argv, repr(exc)))
            capsys.readouterr()
        assert crashes == [], f"{len(crashes)} argvs: {crashes[:5]}"


# The interactive commands of a query mix, in one process.  Importing numpy
# would add about 12 MiB to a query process's peak RSS and fractions about
# 0.4 MiB, so numpy must never load, and fractions not before `region`,
# whose certificates build their support tables in exact rationals.  The
# records are NamedTuples: neither `import gicap.cli` nor a command may load
# dataclasses or inspect, which cost a fresh process about 12 ms, unless the
# standard library's own argparse loads them first, as its colour themes may.
IMPORT_SET_CHILD = """
import argparse
import hashlib
import io
import sys
parser = argparse.ArgumentParser(prog="baseline")
parser.add_subparsers().add_parser("run").add_argument("--x", type=float)
parser.parse_args(["run", "--x", "1"])
slow = {"dataclasses", "inspect"} - set(sys.modules)
import gicap.cli
if slow & set(sys.modules):
    sys.exit(f"import gicap.cli imported {sorted(slow & set(sys.modules))}")
channel = ["--snr1", "100", "--snr2", "10", "--inr1", "20", "--inr2", "5"]
for k, argv in enumerate((
    ["classify", "--snr1", "100", "--snr2", "100", "--inr1", "10", "--inr2", "10"],
    ["symrate", "--snr", "100", "--inr", "10"],
    ["gdof", "--alpha", "0.6"],
    ["gdof", "--alpha1", "1", "--alpha2", "0.4", "--alpha3", "1.5"],
    ["figures", "gdof-curve"],
    ["region", *channel],
    ["gap-audit", *channel],
)):
    if gicap.cli.main(argv, stdout=io.StringIO()) != 0:
        sys.exit(f"{argv} failed")
    if "numpy" in sys.modules:
        sys.exit(f"{argv} imported numpy")
    if k < 5 and "fractions" in sys.modules:
        sys.exit(f"{argv} imported fractions")
    if slow & set(sys.modules):
        sys.exit(f"{argv} imported {sorted(slow & set(sys.modules))}")
"""


def test_interactive_commands_keep_their_import_set():
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_SET_CHILD], capture_output=True, env=gicap_child_env()
    )
    assert child.returncode == 0, child.stderr.decode(errors="replace")

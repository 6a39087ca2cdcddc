"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines (without ``-s`` they appear only for failing tests).
"""

from __future__ import annotations

import math
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import numpy as np
except ModuleNotFoundError:  # only c09's grid oracle needs it
    np = None

import gicap.gap
from gicap import (
    ChannelParams,
    PowerSplit,
    RateConstraint,
    RateRegion,
    SweepRecord,
    asymptotic_tightness_check,
    contains,
    d_sym,
    delta_audit,
    finite_snr_convergence,
    hk_region,
    kramer_bound,
    kramer_gap,
    symmetric_bounds,
    symmetric_gdof_region,
    symmetric_hk_rate,
    symmetric_rate,
    symmetric_regime,
    vertices,
)
from gicap.cli import main as cli_main
from conftest import gicap_child_env, vertex_sets_equal
from reference_regions import (
    closed_form_mixed_common,
    closed_form_mixed_noise,
    closed_form_noise_split,
    closed_form_unit_split,
    closed_form_weak_cross1,
    closed_form_weak_cross2,
)

log2 = math.log2

SWEEP_N = 10_000


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.perf_counter()
    weak = gicap.one_bit_sweep(SWEEP_N, 20240201, "weak")
    mixed = gicap.one_bit_sweep(SWEEP_N, 20240202, "mixed")
    elapsed = time.perf_counter() - t0
    return weak, mixed, elapsed


def test_c01_one_bit_guarantee_sweeps(sweeps):
    weak, mixed, elapsed = sweeps
    delta_failures = sum(
        not r.delta_pass for r in weak.records + mixed.records
    )
    cert_failures = sum(not r.one_bit for r in weak.records + mixed.records)
    ok = (
        len(weak.records) == SWEEP_N
        and len(mixed.records) == SWEEP_N
        and delta_failures == 0
        and cert_failures == 0
        and elapsed < 30.0
    )
    report(
        1,
        ok,
        f"one-bit over {SWEEP_N} weak + {SWEEP_N} mixed channels: "
        f"{delta_failures} delta failures, {cert_failures} certificate failures, "
        f"{elapsed:.1f}s",
    )


def test_c02_within_half_sweeps(sweeps):
    weak, mixed, _ = sweeps
    failures = sum(not r.within_half for r in weak.records + mixed.records)
    report(
        2,
        failures == 0,
        f"within-half over the same sweeps: {failures} certificate failures",
    )


def _closed_form_cases(n_per_case: int):
    """Constructive samplers for each closed-form split case (no rejection)."""
    rng = random.Random(987654321)
    lin = lambda db: 10.0 ** (db / 10.0)

    def weak_unit():
        s1_db, s2_db = rng.uniform(6, 60), rng.uniform(6, 60)
        i1_db = rng.uniform(0, s2_db * 0.999)
        i2_db = rng.uniform(0, s1_db * 0.999)
        return ChannelParams(lin(s1_db), lin(s2_db), lin(i1_db), lin(i2_db))

    def weak_cross1():
        s1_db, s2_db = rng.uniform(6, 60), rng.uniform(0, 60)
        i1_db = rng.uniform(-20, -0.01)
        i2_db = rng.uniform(0, s1_db * 0.999)
        return ChannelParams(lin(s1_db), lin(s2_db), lin(i1_db), lin(i2_db))

    def weak_cross2():
        p = weak_cross1()
        return p.swapped()

    def weak_noise():
        s1_db, s2_db = rng.uniform(0, 60), rng.uniform(0, 60)
        i1_db, i2_db = rng.uniform(-20, -0.01), rng.uniform(-20, -0.01)
        return ChannelParams(lin(s1_db), lin(s2_db), lin(i1_db), lin(i2_db))

    def mixed_common():
        s1_db = rng.uniform(6, 60)
        i2_db = rng.uniform(0.01, s1_db * 0.99)
        s2_db = rng.uniform(0, 54)
        i1_db = rng.uniform(s2_db, 60)
        return ChannelParams(lin(s1_db), lin(s2_db), lin(i1_db), lin(i2_db))

    def mixed_noise():
        s1_db = rng.uniform(0, 60)
        i2_db = rng.uniform(-20, -0.01)
        s2_db = rng.uniform(0, 54)
        i1_db = rng.uniform(s2_db, 60)
        return ChannelParams(lin(s1_db), lin(s2_db), lin(i1_db), lin(i2_db))

    cases = [
        ("unit-split", weak_unit, lambda p: PowerSplit(1.0, 1.0), closed_form_unit_split),
        ("weak-cross1", weak_cross1, lambda p: PowerSplit(1.0, p.inr1), closed_form_weak_cross1),
        ("weak-cross2", weak_cross2, lambda p: PowerSplit(p.inr2, 1.0), closed_form_weak_cross2),
        ("noise-split", weak_noise, lambda p: PowerSplit(p.inr2, p.inr1), closed_form_noise_split),
        ("mixed-common", mixed_common, lambda p: PowerSplit(1.0, 0.0), closed_form_mixed_common),
        ("mixed-noise", mixed_noise, lambda p: PowerSplit(p.inr2, 0.0), closed_form_mixed_noise),
    ]
    for name, sampler, split_of, closed_form in cases:
        for _ in range(n_per_case):
            p = sampler()
            yield name, p, split_of(p), closed_form


def test_c03_closed_form_equivalence():
    mismatches = []
    total = 0
    for name, p, split, closed_form in _closed_form_cases(1000):
        total += 1
        got = vertices(hk_region(p, split))
        ref = vertices(closed_form(p))
        if not vertex_sets_equal(got, ref, tol=1e-9):
            mismatches.append((name, p))
    report(
        3,
        not mismatches,
        f"generic split evaluation matches 6 closed forms on {total} channels "
        f"({len(mismatches)} vertex-set mismatches)",
    )


def test_c04_symmetric_anchor_values():
    snr, inr = 100.0, 10.0
    # independent re-derivations, written directly from the defining formulas
    indep_hk = min(
        0.5 * log2(1 + snr + inr) + 0.5 * log2(2 + snr / inr) - 1,
        log2(1 + inr + snr / inr) - 1,
    )
    indep_genie = 0.5 * log2(1 + snr) + 0.5 * log2(1 + snr / (1 + inr))
    indep_new = log2(1 + inr + snr / (1 + inr))
    a = 1 + snr / inr
    indep_kramer = log2(2 - a + math.sqrt(a * a + 4 * snr * a)) - 1

    sb = symmetric_bounds(snr, inr)
    got = {
        "hk": symmetric_hk_rate(snr, inr),
        "genie": sb.genie_ub,
        "new": sb.new_ub,
        "kramer": sb.kramer_ub,
    }
    frozen = {"hk": 3.392317, "genie": 4.99660, "new": 4.32847, "kramer": 4.86384}
    indep = {"hk": indep_hk, "genie": indep_genie, "new": indep_new, "kramer": indep_kramer}
    checks = [abs(got[k] - frozen[k]) < 1e-4 and abs(got[k] - indep[k]) < 1e-12 for k in got]
    delta_r1 = delta_audit(ChannelParams(snr, snr, inr, inr)).delta_r1
    checks.append(abs(delta_r1 - 0.98578) < 1e-4 and delta_r1 < 1.0)
    report(
        4,
        all(checks),
        f"anchors at (100,10): hk={got['hk']:.6f} genie={got['genie']:.5f} "
        f"new={got['new']:.5f} kramer={got['kramer']:.5f} delta_r1={delta_r1:.5f}",
    )


def test_c05_regime_and_bset_classification():
    expect = [
        ((100, 8), 1, None),
        ((100, 10), 2, "B2"),
        ((100, 50), 3, "B1"),
        ((10, 100), 4, None),
        ((10, 200), 5, None),
    ]
    results = []
    for (snr, inr), regime, bset in expect:
        got = symmetric_regime(snr, inr)
        ok = got.regime == regime and (bset is None or got.bset == bset)
        results.append(ok)
    report(
        5,
        all(results),
        "regimes (100,8)->1 (100,10)->2/B2 (100,50)->3/B1 (10,100)->4 (10,200)->5",
    )


def test_c06_kramer_bound_behavior():
    rng = random.Random(13579)
    checked = 0
    worst = 0.0
    while checked < 1000:
        snr = 10 ** rng.uniform(0.7, 6.0)
        inr = snr ** rng.uniform(0.67, 0.999)
        if not (1.0 <= inr < snr):
            continue
        if not (snr * (snr + inr) < inr * inr * (inr + 1.0)):
            continue  # need the first-min-term range
        checked += 1
        worst = max(worst, kramer_gap(snr, inr))
    b1_ok = worst < 1.0

    sqrt_gaps = [kramer_gap(s, math.sqrt(s)) for s in (1e4, 1e6, 1e8, 1e10)]
    sqrt_ok = all(a < b for a, b in zip(sqrt_gaps, sqrt_gaps[1:]))

    worst_case = kramer_gap(1e12, (1e12) ** 0.75)
    approach_ok = worst_case > 0.9

    report(
        6,
        b1_ok and sqrt_ok and approach_ok,
        f"kramer: worst B1 gap {worst:.4f} over 1000 channels; sqrt-slope gaps "
        f"{['%.2f' % g for g in sqrt_gaps]} increasing; 3/4-slope gap at 1e12 = "
        f"{worst_case:.4f} > 0.9",
    )


def test_c07_asymptotic_tightness():
    snrs = [1e6, 1e9, 1e12]
    seq_025 = asymptotic_tightness_check(0.25, snrs)
    seq_055 = asymptotic_tightness_check(0.55, snrs)
    decreasing = all(a > b for a, b in zip(seq_025, seq_025[1:])) and all(
        a > b for a, b in zip(seq_055, seq_055[1:])
    )
    final_ok = seq_025[-1] < 0.01 and seq_055[-1] < 0.01
    (anchor,) = asymptotic_tightness_check(0.25, [1e8])
    anchor_ok = abs(anchor - 1.46e-4) <= 0.2 * 1.46e-4
    report(
        7,
        decreasing and final_ok and anchor_ok,
        f"tightness: a=0.25 gaps {['%.2e' % g for g in seq_025]}, "
        f"a=0.55 gaps {['%.2e' % g for g in seq_055]}, anchor(1e8)={anchor:.3e}",
    )


def test_c08_gdof_consistency():
    worst_grid = 0.0
    for i in range(0, 251):
        a = i / 100
        point = symmetric_rate(symmetric_gdof_region(a))
        worst_grid = max(worst_grid, abs(point - d_sym(a)))
    grid_ok = worst_grid <= 1e-12

    slack = 2.0 / log2(1e12)
    sandwich_ok = True
    details = []
    for a in (0.25, 0.55, 0.75, 1.5):
        res = finite_snr_convergence(1e12, a)
        lo_err = abs(res.lower - res.d_limit)
        up_err = abs(res.upper - res.d_limit)
        details.append(f"a={a}: {lo_err:.4f}/{up_err:.4f}")
        sandwich_ok = sandwich_ok and lo_err <= slack and up_err <= slack
    report(
        8,
        grid_ok and sandwich_ok,
        f"gdof: grid max |point - d_sym| = {worst_grid:.2e}; sandwich errors "
        f"{'; '.join(details)} (slack {slack:.4f})",
    )


def _random_audit_region(rng: random.Random) -> RateRegion:
    cons = [
        RateConstraint(1.0, 0.0, rng.uniform(0.5, 6.0)),
        RateConstraint(0.0, 1.0, rng.uniform(0.5, 6.0)),
    ]
    extra = rng.randrange(1, 9)  # total constraint count <= 10
    for _ in range(extra):
        if rng.random() < 0.6:
            c1, c2 = rng.choice([(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
        else:
            c1, c2 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        rhs = min(rng.uniform(0.25, 1.1) * (c1 * cons[0].rhs + c2 * cons[1].rhs), 20.0)
        cons.append(RateConstraint(c1, c2, rhs))
    return RateRegion(cons)


def _hull_membership(region: RateRegion, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Membership via the convex hull of the enumerated vertices."""
    chain = vertices(region)
    poly = [(0.0, 0.0)] + [(v.r1, v.r2) for v in reversed(chain)]
    if poly[-1] != (0.0, 0.0):
        pass  # polygon closes implicitly
    inside = np.ones(xs.shape, dtype=bool)
    m = len(poly)
    for i in range(m):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % m]
        cross = (qx - px) * (ys - py) - (qy - py) * (xs - px)
        inside &= cross >= -1e-12
    return inside


def _boundary_distance(region: RateRegion, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    dist = np.minimum(np.abs(xs), np.abs(ys))
    for c in region.constraints:
        scale = math.hypot(c.c1, c.c2)
        dist = np.minimum(dist, np.abs(c.c1 * xs + c.c2 * ys - c.rhs) / scale)
    return dist


def test_c09_polytope_engine_oracles():
    pytest.importorskip("numpy")
    rng = random.Random(24680)
    grid_disagreements_ok = True
    bisection_ok = True
    worst_bisect = 0.0
    for _ in range(100):
        region = _random_audit_region(rng)
        vs = vertices(region)
        xmax = max(v.r1 for v in vs)
        ymax = max(v.r2 for v in vs)
        xs1 = np.arange(0.0, xmax + 0.011, 0.01)
        ys1 = np.arange(0.0, ymax + 0.011, 0.01)
        gx, gy = np.meshgrid(xs1, ys1, indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()

        by_constraints = np.ones(gx.shape, dtype=bool)
        for c in region.constraints:
            by_constraints &= c.c1 * gx + c.c2 * gy <= c.rhs + 1e-9
        by_hull = _hull_membership(region, gx, gy)
        disagree = by_constraints != by_hull
        if disagree.any():
            dist = _boundary_distance(region, gx[disagree], gy[disagree])
            if float(dist.max()) > 1e-6:
                grid_disagreements_ok = False

        # independent 45-degree ray oracle by bisection on raw membership
        lo, hi = 0.0, 25.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if contains(region, (mid, mid), tol=0.0):
                lo = mid
            else:
                hi = mid
        err = abs(lo - symmetric_rate(region))
        worst_bisect = max(worst_bisect, err)
        if err > 1e-12:
            bisection_ok = False
    report(
        9,
        grid_disagreements_ok and bisection_ok,
        f"polytope: grid-oracle agreement on 100 regions (0.01-bit grid); "
        f"bisection vs closed-form symmetric rate, worst |err| = {worst_bisect:.2e}",
    )


def test_c10_cli_determinism_and_figures(tmp_path, monkeypatch, capsys):
    env = gicap_child_env()
    problems: list[str] = []

    def run_child(argv: list[str], out: Path) -> subprocess.CompletedProcess | None:
        """Run one CLI child; None (with the reason in ``problems``) unless
        it exited 0 and wrote ``out``."""
        result = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env)
        if result.returncode != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-5:]
            problems.append(
                f"`{shlex.join(argv)}` exited {result.returncode}: {' | '.join(tail)}"
            )
            return None
        if not out.exists():
            problems.append(f"`{shlex.join(argv)}` exited 0 but wrote no {out.name}")
            return None
        return result

    # byte-identical repeated sweep via real subprocesses
    env_cmd = [
        sys.executable,
        "-m",
        "gicap",
        "sweep",
        "--n",
        "300",
        "--seed",
        "11",
        "--class",
        "weak",
        "--out",
    ]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    r1 = run_child(env_cmd + [str(f1)], f1)
    r2 = run_child(env_cmd + [str(f2)], f2)
    determinism_ok = False
    if r1 and r2:
        pair = f"`{shlex.join(r1.args)}` and `{shlex.join(r2.args)}`"
        same_stdout = r1.stdout == r2.stdout
        same_csv = f1.read_bytes() == f2.read_bytes()
        if not same_stdout:
            problems.append(f"stdout differs between {pair}")
        if not same_csv:
            problems.append(f"CSV bytes differ between {pair}")
        determinism_ok = same_stdout and same_csv

    # d_sym breakpoints through the figure data (grid hits 1/2, 1, 2 exactly;
    # the 2/3 breakpoint is off the 0.01 grid, so assert it on the function)
    curve = tmp_path / "curve.csv"
    figure_cmd = [
        sys.executable, "-m", "gicap", "figures", "gdof-curve", "--out", str(curve)
    ]
    breakpoints_ok = False
    if run_child(figure_cmd, curve):
        table = {
            row.split(",")[0]: row.split(",")[1]
            for row in curve.read_text().splitlines()[1:]
        }
        rows = {alpha: table.get(alpha) for alpha in ("0.5", "1", "2")}
        breakpoints_ok = rows == {"0.5": "0.5", "1": "0.5", "2": "1"}
        if not breakpoints_ok:
            problems.append(f"`{shlex.join(figure_cmd)}` gave d_sym rows {rows}")
    if d_sym(2.0 / 3.0) != 2.0 / 3.0:
        breakpoints_ok = False
        problems.append(f"d_sym(2/3) = {d_sym(2.0 / 3.0)!r}, expected 2/3")

    # a sweep that observes a guarantee violation must exit 3
    record = SweepRecord(
        snr1_db=1.0, snr2_db=1.0, inr1_db=0.0, inr2_db=0.0, tag="weak",
        delta_r1=1.2, delta_r2=0.2, delta_sum=0.2, delta_2r1_r2=0.2,
        delta_r1_2r2=0.2, delta_pass=False, one_bit=False, within_half=True,
    )
    def engine(tags, dbs, ratios):  # the one drawn channel audits as ``record``
        return gicap.gap._pack(tags, dbs, [record[5:]])

    scalar_draws = (gicap.gap._scalar_select, engine)
    monkeypatch.setattr(gicap.gap, "_chunk_engine", lambda n: scalar_draws)
    code = cli_main(
        ["sweep", "--n", "1", "--seed", "1", "--out", str(tmp_path / "viol.csv")]
    )
    capsys.readouterr()
    violation_ok = code == 3
    if not violation_ok:
        problems.append(f"faked violation sweep exited {code}, expected 3")

    report(
        10,
        determinism_ok and breakpoints_ok and violation_ok,
        f"cli: byte-identical sweeps={determinism_ok}, figure breakpoints="
        f"{breakpoints_ok}, violation exit code 3={violation_ok}"
        + "".join(f"; {problem}" for problem in problems),
    )

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``gicap`` command line.

Run from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload sweep-weak --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

``sweep-weak``   ``gicap sweep --class weak --check one-bit`` in a fresh
                 child (``gicap.cli.main`` called by child.py)
``sweep-mixed``  the same with ``--class mixed``
``query-mix``    one child calling ``gicap.cli.main`` back to back on a
                 seeded mix of single-channel queries (closed loop, one
                 client)

With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` a traced run reports the per-layer metrics.  Every
output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is nonzero when a check failed.

Every end-to-end time is reported on the reference host of hostspeed.py:
the measured child runs a fixed stdlib probe next to the measured work
and each stretch of that work is scaled by the probe's time there, so the
shared host's changing speed cancels and a change to ``gicap`` does not.
The raw figures are printed as notes above the result line.

Measured children run one at a time, with an absolute ``PYTHONPATH`` to
``src/`` and a scratch working directory under ``.perfbench_out/``.
Each child's peak RSS is its own ``os.wait4`` rusage.  On Linux a child
inherits the spawning process's high-water RSS when it execs, so this
process does no heavy work (no parsing, no ``gicap`` import) until every
measured child has exited.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import querymix
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep-weak", "sweep-mixed", "query-mix")
SWEEP_N = 40_000  # retained records dominate the sweep's peak RSS at this n
TRACE_SWEEP_N = 2_000
MIN_SWEEPS = 3
MIN_TRACE_PAIRS = 2
SETUP_REPS = 9
RUN_LIMIT_S = 170.0
SWEEP_CLASSES = {
    "sweep-weak": ("weak", {"weak"}),
    "sweep-mixed": ("mixed", {"mixed_strong_at_1", "mixed_strong_at_2"}),
}
CSV_HEADER = [
    "snr1_db", "snr2_db", "inr1_db", "inr2_db", "class", "delta_r1", "delta_r2",
    "delta_sum", "delta_2r1_r2", "delta_r1_2r2", "one_bit_pass", "within_half_pass",
]
# Functions whose per-channel call counts, per-call or self times are reported.
CALLS = (
    "region.vertices", "channel.classify", "hk.hk_region", "hk.recommended_split",
    "bounds.weak_outer", "bounds.mixed_outer", "gap.delta_audit", "gap.audit_regions",
)
PER_CALL = ("region.vertices", "hk.hk_region", "bounds.weak_outer", "bounds.mixed_outer")
SELF = (
    "region.one_bit_certificate", "region.within_half_certificate",
    "channel.classify", "gap.delta_audit", "cli.main",
)


@dataclass
class Child:
    rc: int
    start_ns: int  # perf_counter_ns just before the spawn
    wall_s: float
    maxrss_mib: float
    stdout: Path
    stderr: Path


@dataclass
class Run:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


class Bench:
    """Spawns measured children one at a time inside a scratch directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion and take its own rusage."""
        self.count += 1
        out = self.work / f"child{self.count}.out"
        err = self.work / f"child{self.count}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start_ns = time.perf_counter_ns()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
            )
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = (time.perf_counter_ns() - start_ns) / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start_ns, wall, usage.ru_maxrss / 1024.0, out, err)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _stderr_tail(child: Child) -> str:
    text = child.stderr.read_text(errors="replace").strip().splitlines()
    return (" | " + text[-1]) if text else ""


def check_digests(run: Run, key: str, digests: set, ops: int) -> None:
    """Byte identity: repeats of (workload, seed, size), in this run and earlier ones, agree."""
    if len(digests) > 1:
        run.fail(ops, f"{key}: repeats in this run printed different bytes")
        return
    if not digests:
        return
    digest = digests.pop()
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    first = known.setdefault(key, digest)
    if first != digest:
        run.fail(ops, f"{key}: output digest {digest[:12]} differs from earlier {first[:12]}")
    else:
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def keep_trace(workload: str, trace: dict) -> None:
    """Keep the spans of the last traced child of a workload for inspection."""
    spans = OUT / f"trace-{workload}.spans"
    shutil.copyfile(trace["spans_path"], spans)
    meta = {**trace, "spans_path": str(spans), "layout": "int64 name_id, start_ns, end_ns, parent"}
    (OUT / f"trace-{workload}.json").write_text(json.dumps(meta, indent=1) + "\n")


def measure_setup(bench: Bench, run: Run) -> None:
    """Fresh-child cost: interpreter + ``import gicap.cli`` + parser build + help."""
    result = bench.work / "setup.json"
    argv = [str(HERE / "setup_child.py"), str(result)]
    bench.spawn(argv)  # untimed: writes bytecode caches on a fresh checkout
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        child = bench.spawn(argv)
        run.attempted += 1
        data = json.loads(result.read_text()) if child.rc == 0 else {}
        if data.get("rc") != 0:
            run.fail(1, f"gicap --help exited {data.get('rc', child.rc)}{_stderr_tail(child)}")
            continue
        ns = data["end_ns"] - child.start_ns
        raw.append(ns / 1e9)
        scaled.append(ns * hostspeed.REF_NS / data["probe_ns"] / 1e9)
    if scaled:
        run.metrics["setup_s"] = (statistics.median(scaled), "s")
        run.notes.append(f"raw setup_s = {statistics.median(raw):.6g} s")


def check_sweep_output(run: Run, child: Child, csv_path: Path, n: int, classes: set) -> None:
    """Exit 0, summary failures == 0, n rows, every pass flag true, class matches."""
    run.attempted += n
    if child.rc != 0:
        run.fail(n, f"sweep exited {child.rc}{_stderr_tail(child)}")
        return
    try:
        summary = json.loads(child.stdout.read_text())
        ok = summary["n"] == n and summary["failures"] == 0
    except (ValueError, KeyError, TypeError):
        ok = False
    if not ok or not csv_path.exists():
        run.fail(n, "sweep summary is malformed or reports failures, or no CSV")
        return
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_HEADER:
            run.fail(n, "sweep CSV header differs")
            return
        rows = bad = 0
        for row in reader:
            rows += 1
            if len(row) != len(CSV_HEADER) or row[4] not in classes or row[10:] != ["true", "true"]:
                bad += 1
    if rows != n:
        run.fail(n, f"sweep CSV has {rows} rows, expected {n}")
    elif bad:
        run.fail(bad, f"{bad} sweep rows fail a certificate or the class filter")


def sweep(workload: str, seed: int, seconds: float, bench: Bench) -> Run:
    run = Run()
    cls, classes = SWEEP_CLASSES[workload]
    measure_setup(bench, run)
    children = []
    start = time.monotonic()
    # Start another sweep only if it should end within the run, judged by the
    # last one, so that a slow host does not stretch the run by a whole sweep.
    while len(children) < MIN_SWEEPS or (
        time.monotonic() - start + children[-1][0].wall_s <= seconds
    ):
        tag = len(children)
        csv_path, result = bench.work / f"sweep{tag}.csv", bench.work / f"sweep{tag}.json"
        child = bench.spawn([
            str(HERE / "child.py"), "cli", "--probe", "--result", str(result), "--",
            "sweep", "--class", cls, "--check", "one-bit",
            "--seed", str(seed), "--n", str(SWEEP_N), "--out", str(csv_path),
        ])
        children.append((child, csv_path, result))
    # Checks run after every measured child has exited (see module docstring).
    raw, scaled, rss = [], [], []
    for child, csv_path, result in children:
        check_sweep_output(run, child, csv_path, SWEEP_N, classes)
        if child.rc == 0 and result.exists():
            data = json.loads(result.read_text())
            ns, ref_ns = hostspeed.Scale(data["marks"]).work_ns(data["start_ns"], data["end_ns"])
            raw.append(ns / 1e9)
            scaled.append(ref_ns / 1e9)
            rss.append(child.maxrss_mib)
    digests = {_sha256(path) for child, path, _ in children if child.rc == 0 and path.exists()}
    check_digests(run, f"{workload}/seed={seed}/n={SWEEP_N}", digests, SWEEP_N)
    if not scaled:
        run.fail(1, "no sweep completed")
        return run
    run.metrics["channels_per_s"] = (statistics.median(SWEEP_N / t for t in scaled), "channels/s")
    run.metrics["peak_rss_mb"] = (statistics.median(rss), "MiB")
    run.metrics["query_p50_us"] = (statistics.median(scaled) * 1e6, "us")
    run.metrics["query_p90_us"] = (_percentile(scaled, 0.9) * 1e6, "us")
    run.metrics["queries_per_s"] = (len(scaled) / sum(scaled), "queries/s")
    run.notes.append(
        f"{len(children)} sweeps of n={SWEEP_N}; a query here is one `gicap sweep` invocation"
    )
    run.notes.append(f"raw channels_per_s = {statistics.median(SWEEP_N / t for t in raw):.6g} channels/s")
    return run


def traced_sweep(workload: str, seed: int, seconds: float, bench: Bench) -> Run:
    """Pairs of untraced and traced sweep children on the same argv."""
    run = Run()
    cls, classes = SWEEP_CLASSES[workload]
    pairs = []
    start = time.monotonic()
    while len(pairs) < MIN_TRACE_PAIRS or time.monotonic() - start < seconds:
        pair = {}
        # Alternate which side runs first.
        for traced in (False, True) if len(pairs) % 2 == 0 else (True, False):
            tag = f"{len(pairs)}{'t' if traced else 'u'}"
            csv_path, result = bench.work / f"trace{tag}.csv", bench.work / f"trace{tag}.json"
            child = bench.spawn([
                str(HERE / "child.py"), "cli", "--result", str(result),
                *(["--trace"] if traced else []), "--",
                "sweep", "--class", cls, "--check", "one-bit", "--seed", str(seed),
                "--n", str(TRACE_SWEEP_N), "--out", str(csv_path),
            ])
            pair[traced] = (child, csv_path, result)
        pairs.append(pair)

    total, ratios, rows, csv_bytes = None, [], 0, 0
    digests = set()
    for pair in pairs:
        main_ns = {}
        for traced, (child, csv_path, result) in pair.items():
            check_sweep_output(run, child, csv_path, TRACE_SWEEP_N, classes)
            if child.rc != 0 or not result.exists():
                continue
            digests.add(_sha256(csv_path))
            data = json.loads(result.read_text())
            main_ns[traced] = data["end_ns"] - data["start_ns"]
            if traced:
                total = tracing.merge(total, tracing.summarize(data["trace"]))
                rows += TRACE_SWEEP_N
                csv_bytes += csv_path.stat().st_size
                keep_trace(workload, data["trace"])
        if len(main_ns) == 2:
            ratios.append(main_ns[True] / main_ns[False])
    # traced and untraced children must write the same CSV
    check_digests(run, f"{workload}/seed={seed}/n={TRACE_SWEEP_N}", digests, TRACE_SWEEP_N)
    if total is None:
        run.fail(1, "no traced sweep completed")
        return run
    run.metrics.update(layer_metrics(total, rows, rows, csv_bytes, statistics.median(ratios)))
    run.notes.append(f"{len(pairs)} untraced/traced pairs of n={TRACE_SWEEP_N}")
    return run


def query_mix(seed: int, seconds: float, bench: Bench, traced: bool) -> Run:
    run = Run()
    if not traced:
        measure_setup(bench, run)
    mix = querymix.generate(seed)
    mix_path = bench.work / "mix.json"
    mix_path.write_text(json.dumps(mix))
    outputs, result = bench.work / "outputs.jsonl", bench.work / "loop.json"
    child = bench.spawn([
        str(HERE / "child.py"), "loop", "--mix", str(mix_path), "--seconds", str(seconds),
        "--result", str(result), "--outputs", str(outputs), *(["--trace"] if traced else []),
    ])
    if child.rc != 0 or not result.exists():
        run.attempted += len(mix)
        run.fail(len(mix), f"query loop exited {child.rc}{_stderr_tail(child)}")
        return run
    data = json.loads(result.read_text())
    passes = data["passes"]
    for p in passes:
        run.attempted += len(p["latencies_ns"])
        if p["failed"]:
            run.fail(len(p["failed"]), f"{len(p['failed'])} queries exited nonzero, e.g. {mix[p['failed'][0]]}")
    with open(outputs, encoding="utf-8") as fh:
        for line in fh:
            index, rc, text = json.loads(line)
            why = querymix.check(mix[index], text) if rc == 0 else None  # rc counted above
            if why:
                run.fail(1, f"{mix[index]}: {why}")
    # every pass, traced or not, must print the same bytes
    check_digests(run, f"query-mix/seed={seed}/q={len(mix)}", {p["digest"] for p in passes}, len(mix))

    plain = [p for p in passes if not p["traced"]]
    if traced:
        traced_ns = sum(sum(p["latencies_ns"]) for p in passes if p["traced"])
        plain_ns = sum(sum(p["latencies_ns"]) for p in plain)
        total = tracing.summarize(data["trace"])
        keep_trace("query-mix", data["trace"])
        calls = len(mix) * (len(passes) - len(plain))
        # as many traced passes as untraced ones, on the same queries
        run.metrics.update(layer_metrics(total, calls, 0, 0, traced_ns / plain_ns))
    else:
        # Every time is scaled to the reference host; each figure is taken
        # per pass and the median over passes reported.
        scale = hostspeed.Scale(data["marks"])
        rates, raw_rates, p50, p90 = [], [], [], []
        for p in plain:
            ns, ref_ns = scale.work_ns(p["start_ns"], p["end_ns"])
            rates.append(len(mix) / ref_ns * 1e9)
            raw_rates.append(len(mix) / ns * 1e9)
            latencies = [
                scale.work_ns(start, start + ns)[1]
                for start, ns in zip(p["starts_ns"], p["latencies_ns"])
            ]
            p50.append(_percentile(latencies, 0.5))
            p90.append(_percentile(latencies, 0.9))
        rate = statistics.median(rates)
        run.metrics["channels_per_s"] = (rate, "channels/s")
        run.metrics["peak_rss_mb"] = (child.maxrss_mib, "MiB")
        run.metrics["query_p50_us"] = (statistics.median(p50) / 1e3, "us")
        run.metrics["query_p90_us"] = (statistics.median(p90) / 1e3, "us")
        run.metrics["queries_per_s"] = (rate, "queries/s")
        run.notes.append("one channel per query, so channels_per_s equals queries_per_s here")
        run.notes.append(f"raw queries_per_s = {statistics.median(raw_rates):.6g} queries/s")
    run.notes.append(f"{len(passes)} passes of {len(mix)} queries, {len(plain)} untraced")
    return run


def layer_metrics(total: dict, ops: int, rows: int, csv_bytes: int, overhead: float) -> dict:
    """Per-layer metrics from merged span summaries; ``ops`` is channels or queries."""
    funcs = total["funcs"]

    def get(name):
        return funcs.get(name, [0, 0, 0])

    out = {}
    for name in CALLS:
        out[f"{name}.calls_per_channel"] = (get(name)[0] / ops, "count")
    for name in PER_CALL:
        calls, incl, _ = get(name)
        out[f"{name}.us_per_call"] = (incl / calls / 1e3 if calls else 0.0, "us")
    for name in SELF:
        out[f"{name}.self_us"] = (get(name)[2] / ops / 1e3, "us")
    region_self = sum(v[2] for k, v in funcs.items() if k.startswith("region."))
    out["region.vertices.distinct_regions_per_channel"] = (total["distinct_regions"] / ops, "count")
    out["region.self_share"] = (region_self / total["root_ns"], "ratio")
    out["gap.draws_per_channel"] = (total["draws"] / ops, "count")
    write = get("gap.write_sweep_csv")
    out["gap.write_sweep_csv.us_per_row"] = (write[1] / rows / 1e3 if rows else 0.0, "us")
    out["gap.write_sweep_csv.bytes_per_row"] = (csv_bytes / rows if rows else 0.0, "B")
    out["gdof.us_per_query"] = (total["gdof_ns"] / ops / 1e3, "us")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")  # read without importing it
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # this checkout only
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the gicap CLI end to end and per layer.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gicap" / "__init__.py").is_file():
        print(f"perfbench: no gicap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the query checks call gicap directly

    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir()
    bench = Bench(work, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.workload == "query-mix":
            run = query_mix(args.seed, args.seconds, bench, bool(args.trace))
        elif args.trace:
            run = traced_sweep(args.workload, args.seed, args.seconds, bench)
        else:
            run = sweep(args.workload, args.seed, args.seconds, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in run.notes:
        print(f"note {note}")
    for why in run.problems:
        print(f"FAIL {why}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    error_rate = run.failed / max(run.attempted, 1)
    print(f"error_rate = {error_rate:.6g} ratio ({run.failed} failed of {run.attempted} attempted)")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Measured child process of the gicap benchmark.

Two modes, each writing a JSON result file for the parent:

``cli``  -- one ``gicap.cli.main(argv)`` call, timed, optionally traced,
or with the host speed probe ticking (``--probe``, see hostspeed.py)::

    python child.py cli --result R.json [--trace | --probe] -- sweep --n 100 ...

``loop`` -- a closed loop with one client: the argv lists in ``--mix`` are
passed to ``gicap.cli.main(argv, stdout=StringIO())`` back to back, in
whole passes, until ``--seconds`` have elapsed.  Each call is timed around
``main`` alone.  The outputs of the first pass are written to
``--outputs`` for checking; every pass reports the sha256 of its
concatenated stdout.  Without ``--trace`` the host speed probe ticks
through the loop; with it, untraced and traced passes alternate, so the
trace overhead is measured on the same inputs, and the probe is off::

    python child.py loop --mix M.json --seconds 10 --result R.json --outputs O.jsonl

The package is found through ``PYTHONPATH``; this process imports nothing
else that the program does not import itself (numpy in particular).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
import traceback
from contextlib import nullcontext

from hostspeed import Ticker

WARMUP_CALLS = 60


def _call(main, argv) -> tuple[int, str, int, int]:
    """(exit code, stdout, start ns, ns inside main) of one CLI call."""
    buf = io.StringIO()
    start = time.perf_counter_ns()
    try:
        rc = main(argv, stdout=buf)
    except SystemExit as exc:  # argparse rejects an argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # one broken query must not end the loop
        traceback.print_exc()
        rc = -1
    elapsed = time.perf_counter_ns() - start
    return rc, buf.getvalue(), start, elapsed


def run_cli(args) -> dict:
    import gicap.cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ticker = Ticker() if args.probe else nullcontext()
    with ticker:
        start = time.perf_counter_ns()
        rc = gicap.cli.main(args.argv)
        end = time.perf_counter_ns()
    sys.stdout.flush()
    return {
        "rc": rc,
        "start_ns": start,
        "end_ns": end,
        "marks": list(ticker.marks) if args.probe else None,
        "trace": tracer.dump(args.result + ".spans") if tracer else None,
    }


def run_loop(args) -> dict:
    import hashlib

    import gicap.cli

    with open(args.mix, encoding="utf-8") as fh:
        mix = json.load(fh)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    for argv in mix[:WARMUP_CALLS]:
        _call(gicap.cli.main, argv)

    passes = []
    ticker = Ticker() if tracer is None else nullcontext()
    with open(args.outputs, "w", encoding="utf-8") as outputs, ticker:
        loop_start = time.perf_counter()
        while (
            not passes
            # a traced pass always follows an untraced one
            or (tracer is not None and len(passes) % 2 == 1)
            or time.perf_counter() - loop_start < args.seconds
        ):
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            pass_start = time.perf_counter_ns()
            digest = hashlib.sha256()
            starts = []
            latencies = []
            failed = []
            for index, argv in enumerate(mix):
                # Look main up on each call, as a caller of the module would.
                rc, text, start, elapsed = _call(gicap.cli.main, argv)
                starts.append(start)
                latencies.append(elapsed)
                digest.update(text.encode())
                if rc != 0:
                    failed.append(index)
                if not passes:
                    outputs.write(json.dumps([index, rc, text]) + "\n")
            pass_end = time.perf_counter_ns()
            if traced:
                tracer.uninstall()
            passes.append(
                {
                    "traced": traced,
                    "start_ns": pass_start,
                    "end_ns": pass_end,
                    "digest": digest.hexdigest(),
                    "starts_ns": starts,
                    "latencies_ns": latencies,
                    "failed": failed,
                }
            )
    return {
        "passes": passes,
        "marks": list(ticker.marks) if tracer is None else None,
        "trace": tracer.dump(args.result + ".spans") if tracer else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--result", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probe", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("loop")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--mix", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--outputs", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        result = run_cli(args)
    else:
        result = run_loop(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

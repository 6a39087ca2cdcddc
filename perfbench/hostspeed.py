"""Speed probe of the host, used to scale the benchmark's timings.

The benchmark runs on a few cores of a shared host whose other tenants
slow every process on it, by half or more and in phases that change within
a fraction of a second and last from there to minutes.  The slowdown shows
in a process's CPU time, not only its wall time, so it is not time spent
waiting to run; a run can neither avoid it nor wait it out, but it can
see it.  :func:`work` is a fixed piece of pure stdlib work shaped like one
gicap call: build an ``argparse`` parser with subcommands and parse an
argv, a float loop of logarithms and comparisons, format the results as
JSON and CSV.  Measured code is timed next to it:

* :class:`Ticker` runs the probe from a ``SIGALRM`` handler every
  ``INTERVAL_S`` of wall time inside the measured process, and keeps the
  start and end of each probe;
* :class:`Scale` then gives, for any interval of that process, the raw
  time of the work in it (probe time left out) and that time on the
  reference host: each stretch between two probes is multiplied by
  ``REF_NS`` over the probe time there.

``REF_NS`` defines the reference host as one where the probe takes
exactly 1 ms, a little less than on a quiet 2.0 GHz Xeon VM core under
CPython 3.11.  The probe does not touch ``gicap``, so a change to the program
moves the scaled figures as much as the raw ones; only the host's speed
cancels.  This module imports nothing that a gicap process does not
import itself, apart from ``signal``, ``bisect`` and ``array``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import signal
import time
from array import array
from bisect import bisect_right

REF_NS = 1_000_000
INTERVAL_S = 0.04
_COMMANDS = ("classify", "region", "gap-audit", "symrate", "gdof", "figures")
_ARGV = ["region", "--snr1", "20.5", "--snr2", "31", "--inr1", "12.25", "--inr2", "40", "--db",
         "--format", "csv"]


def work() -> str:
    """The probe: fixed work shaped like one gicap call."""
    parser = argparse.ArgumentParser(prog="probe", description="speed probe")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} subcommand")
        for flag in ("--snr1", "--snr2", "--inr1", "--inr2"):
            p.add_argument(flag, type=float, required=True, help="power")
        p.add_argument("--db", action="store_true", help="values in dB")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    ns = parser.parse_args(_ARGV)
    gains = [10 ** (getattr(ns, k) / 10) for k in ("snr1", "snr2", "inr1", "inr2")]
    rows = []
    for i in range(24):
        a, b, c, d = (g * (1 + i / 64) for g in gains)
        r1 = math.log2(1 + a / (1 + d))
        r2 = math.log2(1 + b / (1 + c))
        s = min(math.log2(1 + a + c), math.log2(1 + b + d)) + 0.5 * abs(r1 - r2)
        rows.append((round(r1, 9), round(r2, 9), round(s, 9), r1 + r2 >= s))
    buf = io.StringIO()
    json.dump({"command": ns.command, "rows": rows}, buf, sort_keys=True)
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([f"{v:.12g}" for v in row[:3]])
    return buf.getvalue()


def _median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def probe(reps: int) -> float:
    """Median ns of ``reps`` back-to-back probes."""
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        work()
        times.append(time.perf_counter_ns() - start)
    return _median(times)


class Ticker:
    """Runs the probe every ``INTERVAL_S`` of wall time while the ``with`` block runs.

    The handler runs in the main thread between bytecodes, so the probe
    interrupts the measured code; ``marks`` holds each probe's start and
    end (``perf_counter_ns``), flat.
    """

    def __init__(self) -> None:
        self.marks = array("q")
        self._previous = None

    def __enter__(self) -> "Ticker":
        work()  # the first probe in a process runs cold
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        work()
        self.marks.extend((start, time.perf_counter_ns()))


class Scale:
    """Raw and reference-host time of the work in intervals of one ticked process."""

    def __init__(self, marks) -> None:
        self.starts, self.ends = list(marks[0::2]), list(marks[1::2])
        if not self.starts:
            raise ValueError("no probe ran in the measured interval")
        took = [end - start for start, end in zip(self.starts, self.ends)]
        # The median of three neighbours keeps one probe that a garbage
        # collection slowed from rescaling the work around it.
        smooth = [_median(took[max(k - 1, 0):k + 2]) for k in range(len(took))]
        # factors[k] scales the stretch before probe k, between probes k-1 and k.
        self.factors = (
            [REF_NS / smooth[0]]
            + [2 * REF_NS / (a + b) for a, b in zip(smooth, smooth[1:])]
            + [REF_NS / smooth[-1]]
        )

    def work_ns(self, t0: int, t1: int) -> tuple[int, float]:
        """(raw, scaled) ns of the work in ``[t0, t1]``, probe time left out."""
        raw, scaled = 0, 0.0
        k = bisect_right(self.ends, t0)  # first probe that ends after t0
        while True:
            lo = self.ends[k - 1] if k else t0
            hi = self.starts[k] if k < len(self.starts) else t1
            part = min(hi, t1) - max(lo, t0)
            if part > 0:
                raw += part
                scaled += part * self.factors[k]
            if hi >= t1:
                return raw, scaled
            k += 1

"""Seeded query mix for the ``query-mix`` workload, and its output checks.

The mix holds twelve kinds of query: six subcommands (``classify``,
``region``, ``gap-audit``, ``symrate``, ``gdof``, ``figures gdof-curve``)
times two formats (``json``, ``csv``).  Shares are fixed, so the seed
changes only the channels and the order.  Figure data defaults to csv, so
figures are 10% csv and 5% json queries; the 90th percentile then falls
inside the block of (slowest but one) csv figure queries, not on the edge
between the two figure latency levels, where it would jump between them.
Every generated argv is valid for its subcommand, so any nonzero exit is
a failure:

* channels are drawn in dB (SNR in [0, 60], INR in [-20, 60]) and passed
  with ``--db``; draws within ``MARGIN_DB`` of a class boundary are
  redrawn, so the class never hinges on rounding;
* ``gap-audit`` gets only weak or mixed channels;
* ``gdof`` slope triples are drawn inside the weak, mixed or strong
  orientation (never the swapped-mixed one the CLI rejects).
"""

from __future__ import annotations

import csv
import io
import json
import random

PER_KIND = 102  # per format, for each subcommand but figures
FIGURES = {"csv": 120, "json": 60}
FORMATS = ("json", "csv")
COMMANDS = ("classify", "region", "gap-audit", "symrate", "gdof", "figures")
MARGIN_DB = 0.01
FAMILIES = ("r1", "r2", "sum", "2r1_r2", "r1_2r2")


def _db(x: float) -> str:
    return f"{x:.4f}"


def _channel(rng: random.Random, allow_strong: bool, symmetric: bool = False):
    """(snr1, snr2, inr1, inr2) in dB, away from every class boundary."""
    while True:
        snr1, inr1 = rng.uniform(0.0, 60.0), rng.uniform(-20.0, 60.0)
        snr2, inr2 = (snr1, inr1) if symmetric else (
            rng.uniform(0.0, 60.0),
            rng.uniform(-20.0, 60.0),
        )
        snr1, snr2, inr1, inr2 = (float(_db(v)) for v in (snr1, snr2, inr1, inr2))
        gaps = (inr1 - snr2, inr2 - snr1)
        if any(abs(g) < MARGIN_DB for g in gaps):
            continue
        if not allow_strong and all(g > 0 for g in gaps):
            continue
        return snr1, snr2, inr1, inr2


def _channel_args(values) -> list[str]:
    out = []
    for flag, v in zip(("--snr1", "--snr2", "--inr1", "--inr2"), values):
        out += [flag, _db(v)]
    return out + ["--db"]


def _gdof_args(rng: random.Random, i: int) -> list[str]:
    if i % 2 == 0:
        return ["--alpha", _db(rng.uniform(0.0, 3.0))]
    a1 = rng.uniform(0.5, 1.5)
    orientation = (i // 2) % 3
    if orientation == 0:  # weak: alpha2 < alpha1, alpha3 < 1
        a2, a3 = rng.uniform(0.05, a1 - 0.05), rng.uniform(0.05, 0.95)
    elif orientation == 1:  # mixed: alpha2 >= alpha1, alpha3 < 1
        a2, a3 = rng.uniform(a1 + 0.05, a1 + 1.5), rng.uniform(0.05, 0.95)
    else:  # strong: alpha2 >= alpha1, alpha3 >= 1
        a2, a3 = rng.uniform(a1 + 0.05, a1 + 1.5), rng.uniform(1.05, 2.5)
    return ["--alpha1", _db(a1), "--alpha2", _db(a2), "--alpha3", _db(a3)]


def _query(rng: random.Random, command: str, fmt: str, i: int) -> list[str]:
    if command == "classify":
        args = _channel_args(_channel(rng, True, symmetric=i % 2 == 0))
    elif command == "region":
        args = _channel_args(_channel(rng, True))
    elif command == "gap-audit":
        args = _channel_args(_channel(rng, False))
    elif command == "symrate":
        args = ["--snr", _db(rng.uniform(0.5, 60.0)), "--inr", _db(rng.uniform(-20.0, 60.0)), "--db"]
    elif command == "gdof":
        args = _gdof_args(rng, i)
    else:
        args = ["gdof-curve"]
    return [command, *args, "--format", fmt]


def generate(seed: int) -> list[list[str]]:
    """The seeded, shuffled mix of 1200 argv lists."""
    rng = random.Random(seed)
    mix = [
        _query(rng, command, fmt, i)
        for command in COMMANDS
        for fmt in FORMATS
        for i in range(FIGURES[fmt] if command == "figures" else PER_KIND)
    ]
    rng.shuffle(mix)
    return mix


def _twelve_digits(value) -> str:
    return "" if value is None else f"{value:.12g}"


def check(argv: list[str], text: str) -> str | None:
    """Why the output of one successful query is wrong, or None when it passes."""
    fmt = argv[argv.index("--format") + 1]
    try:
        if fmt == "json":
            parsed = json.loads(text)
            if not isinstance(parsed, dict):
                return "json output is not an object"
        else:
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                return "csv output is ragged or empty"
            parsed = dict(rows[1:]) if rows[0] == ["key", "value"] else None
    except (ValueError, csv.Error) as exc:
        return f"output does not parse: {exc}"
    if argv[0] == "gap-audit":
        return _check_gap_audit(argv, fmt, parsed)
    return None


def _check_gap_audit(argv: list[str], fmt: str, parsed) -> str | None:
    """Deltas must equal a direct ``gicap.delta_audit`` call at 12 digits."""
    import gicap

    def arg(flag):
        return gicap.db_to_linear(float(argv[argv.index(flag) + 1]))

    params = gicap.ChannelParams(arg("--snr1"), arg("--snr2"), arg("--inr1"), arg("--inr2"))
    report = gicap.delta_audit(params)
    for fam in FAMILIES:
        want = getattr(report, f"delta_{fam}")
        try:
            if fmt == "json":
                got = parsed["deltas"][fam]
                ok = got is None if want is None else got == float(_twelve_digits(want))
            else:
                ok = parsed[f"deltas.{fam}"] == _twelve_digits(want)
        except (KeyError, TypeError):
            return f"gap-audit output has no delta {fam}"
        if not ok:
            return f"gap-audit delta {fam} differs from delta_audit"
    return None

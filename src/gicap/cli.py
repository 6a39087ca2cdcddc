"""Command-line front end: compute, certify, sweep, emit figure data.

Subcommands
-----------
classify    interference class, regime, B-set, and alpha for a channel
region      achievable + outer regions with vertex lists and certificates
symrate     symmetric achievable rate and all symmetric upper bounds
gap-audit   per-family delta audit of a single channel
sweep       randomized one-bit / within-half verification sweep (CSV + JSON)
gdof        generalized-degrees-of-freedom regions and the d_sym value
figures     figure-ready CSV data (curves and region polygons)
diffrate    differential rate densities at one power level

Channel ratios are given with --snr1/--snr2/--inr1/--inr2 (or --snr/--inr
for symmetric commands), linear by default, in dB with --db.  All emitted
numbers carry 12 significant digits; outputs are byte-identical across
runs for fixed flags and seed.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage or validation
error, 3 certification failure (a sweep found a guarantee violation,
which would indicate a formula bug).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from typing import Sequence

from . import bounds as _bounds
from . import gap as _gap
from . import gdof as _gdof
from . import hk as _hk
from .channel import (
    ChannelParams,
    InterferenceTag,
    alpha as _alpha,
    classify,
    db_to_linear,
    symmetric_regime,
)
from .errors import GicapError
from .region import (
    RateRegion,
    certificates,
    region_to_jsonable,
    sigfig,
    symmetric_rate,
    vertices,
)

__all__ = ["main", "entrypoint"]

_FIGURE_IDS = ("gdof-curve", "hk-fraction", "ub-vs-hk", "diff-rates", "gdof-region")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process; ``parser.commands`` maps each
    subcommand name to its parser, the tree's own ``sub.choices``."""
    parser = argparse.ArgumentParser(
        prog="gicap",
        description="Two-user Gaussian interference channel calculator and verifier.",
    )
    # Small parent parsers: each subcommand takes exactly the flags it reads.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help="output format (default: json; figure data defaults to csv)",
    )
    db = argparse.ArgumentParser(add_help=False, parents=[fmt])
    db.add_argument("--db", action="store_true", help="interpret ratios as dB")
    channel = argparse.ArgumentParser(add_help=False, parents=[db])
    for flag in ("--snr1", "--snr2", "--inr1", "--inr2"):
        channel.add_argument(flag, type=float, required=True)
    out = argparse.ArgumentParser(add_help=False, parents=[fmt])
    out.add_argument("--out", type=str, default=None, help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("classify", parents=[channel], help="classify a channel")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser(
        "region", parents=[channel], help="achievable and outer regions + certificates"
    )
    p.add_argument(
        "--split",
        choices=("recommended", "explicit"),
        default="recommended",
        help="power split selection",
    )
    p.add_argument("--inr-p2", type=float, default=None, help="explicit split: inr_p2")
    p.add_argument("--inr-p1", type=float, default=None, help="explicit split: inr_p1")
    p.add_argument(
        "--bound",
        choices=("auto", "pt2pt"),
        default="auto",
        help="outer bound: class-matched or the point-to-point box",
    )
    p.set_defaults(run=_cmd_region)

    p = sub.add_parser("symrate", parents=[db], help="symmetric rate and bounds")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--inr", type=float, required=True)
    p.set_defaults(run=_cmd_symrate)

    p = sub.add_parser("gap-audit", parents=[channel], help="single-channel delta audit")
    p.set_defaults(run=_cmd_gap_audit)

    p = sub.add_parser("sweep", parents=[out], help="randomized verification sweep")
    p.add_argument("--seed", type=int, default=0, help="sweep RNG seed")
    p.add_argument("--n", type=int, required=True, help="number of channels")
    p.add_argument(
        "--class",
        dest="class_filter",
        choices=_gap._CLASS_FILTERS,
        default="any",
        help="interference class filter",
    )
    p.add_argument(
        "--check",
        choices=_gap._FAILED,
        default="one-bit",
        help="which guarantee the failure count tracks",
    )
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("gdof", parents=[fmt], help="degrees-of-freedom regions")
    p.add_argument("--alpha", type=float, default=None, help="symmetric level")
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--alpha2", type=float, default=None)
    p.add_argument("--alpha3", type=float, default=None)
    p.set_defaults(run=_cmd_gdof)

    p = sub.add_parser("figures", parents=[out], help="emit figure-ready CSV data")
    p.add_argument("figure_id", choices=_FIGURE_IDS)
    p.add_argument("--alpha", type=float, default=None, help="gdof-region level")
    p.set_defaults(run=_cmd_figures)

    p = sub.add_parser("diffrate", parents=[db], help="differential rate densities")
    p.add_argument("--snr1", type=float, required=True)
    p.add_argument("--inr2", type=float, required=True)
    p.add_argument("--z", type=float, required=True, help="normalized power level")
    p.set_defaults(run=_cmd_diffrate)
    return parser


def _ratio(value: float, db: bool) -> float:
    return db_to_linear(value) if db else value


def _channel_from_args(args) -> ChannelParams:
    return ChannelParams(
        snr1=_ratio(args.snr1, args.db),
        snr2=_ratio(args.snr2, args.db),
        inr1=_ratio(args.inr1, args.db),
        inr2=_ratio(args.inr2, args.db),
    )


_quote = json.encoder.encode_basestring_ascii


def _json(obj, pad="\n") -> str:
    """``json.dumps(obj, indent=2)`` with every float rounded by :func:`sigfig`,
    written in one pass; ``pad`` is the newline and indent of ``obj``'s line.

    ``json.dump`` with an indent never reaches the C encoder, and rounding
    first would copy ``obj``.  A float is ``float.__repr__`` of its rounding,
    as ``json`` writes a finite float.  A ``str`` leaf and any ``str`` key is
    ``encode_basestring_ascii``'s text, the C function ``json.dumps`` ends
    in, and ``True``, ``False`` and ``None`` are their literals; every other
    leaf, a ``str`` or ``int`` subclass included, is ``json.dumps``'s text,
    and every other key is ``json``'s own text for it (``1`` as ``"1"``,
    ``None`` as ``"null"``), or its ``TypeError`` for a key type it refuses."""
    if isinstance(obj, float):
        x = sigfig(obj)
        return float.__repr__(x) if math.isfinite(x) else json.dumps(x)
    if type(obj) is str:
        return _quote(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # a non-str key: json's own text for it, cut from {key: 0}, or its TypeError
        items = [
            (_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": " + _json(v, inner)
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]"
    return json.dumps(obj)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0, as sigfig does for JSON
    return str(value)


def _emit(obj, args, stream, table=None) -> None:
    """Write ``obj`` as JSON, or as key,value CSV with dotted paths, in one
    ``stream.write``.

    JSON is :func:`_json`'s text: the ``json`` module's two-space layout with
    every float at 12 significant digits, its strings, keys, booleans and
    nulls written without ``json.dumps``.  A figure passes ``table =
    (header, rows)`` in place of ``obj``: CSV of the rows by default, or the
    text :func:`_json` writes for ``{"columns": header, "rows": rows}``.
    A table holds finite floats already at 12 significant digits, as
    :func:`_rounded` leaves them, so either format is one ``%`` pass over
    the cells as given, as :func:`gicap.gap._chunk_text` formats a sweep
    chunk: CSV by ``"%.12g"``, which is ``f"{v:.12g}"`` for every float, and
    JSON by ``"%r"``, the ``float.__repr__`` that ``json`` writes for a
    finite float."""
    if table is None:
        if args.format == "csv":
            stream.write("key,value\n" + "".join([f"{k},{_cell(v)}\n" for k, v in _flatten(obj)]))
        else:
            stream.write(_json(obj) + "\n")
        return
    header, rows = table
    cells = tuple(itertools.chain.from_iterable(rows))
    if args.format == "json":
        row = "[" + ",".join(["\n      %r"] * len(header)) + "\n    ]"
        text = ",\n    ".join([row] * len(rows)) % cells
        head = '{\n  "columns": [\n    ' + ",\n    ".join(map(_quote, header))
        stream.write(head + '\n  ],\n  "rows": [\n    ' + text + "\n  ]\n}\n")
        return
    template = ",".join(["%.12g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n" + (template * len(rows)) % cells)


def _cmd_classify(args, stdout) -> int:
    params = _channel_from_args(args)
    cls = classify(params)
    out: dict = {"class": cls.tag.value, "very_strong": cls.very_strong}
    if params.is_symmetric:
        snr, inr = params.snr1, params.inr1
        if snr > 1.0 and inr > 0.0:
            out["alpha"] = _alpha(snr, inr)
        if snr > 1.0:
            reg = symmetric_regime(snr, inr)
            out["regime"] = reg.regime
            if reg.bset is not None:
                out["bset"] = reg.bset
    _emit(out, args, stdout)
    return 0


def _cmd_region(args, stdout) -> int:
    params = _channel_from_args(args)
    if args.split == "explicit":
        if args.inr_p2 is None or args.inr_p1 is None:
            raise GicapError("explicit split needs --inr-p2 and --inr-p1")
        split = _hk.PowerSplit(
            _ratio(args.inr_p2, args.db), _ratio(args.inr_p1, args.db)
        )
    elif args.inr_p2 is not None or args.inr_p1 is not None:
        raise GicapError("--inr-p2 and --inr-p1 need --split explicit")
    else:
        split = _hk.recommended_split(params)
    tag = classify(params).tag
    inner = _hk.hk_region(params, split)
    if args.bound == "pt2pt":
        outer = _bounds.pt2pt_outer(params)
    else:
        outer = _bounds.class_outer(params, tag)
    one_bit, within_half = certificates(inner, outer)
    out = {
        "class": tag.value,
        "split": {"inr_p2": split.inr_p2, "inr_p1": split.inr_p1},
        "inner": region_to_jsonable(inner),
        "outer": region_to_jsonable(outer),
        "one_bit": one_bit,
        "within_half": within_half,
    }
    _emit(out, args, stdout)
    return 0


def _cmd_symrate(args, stdout) -> int:
    snr = _ratio(args.snr, args.db)
    inr = _ratio(args.inr, args.db)
    params = ChannelParams(snr, snr, inr, inr)
    out: dict = {"snr": snr, "inr": inr}
    if inr >= snr:
        out["capacity"] = _bounds.symmetric_capacity_strong(snr, inr)
        out["hk_rate"] = symmetric_rate(_hk.hk_region(params, _hk.PowerSplit(0.0, 0.0)))
    else:
        out["hk_rate"] = _hk.symmetric_hk_rate(snr, inr)
        sb = _bounds.symmetric_bounds(snr, inr)
        out["genie_ub"] = sb.genie_ub
        out["new_ub"] = sb.new_ub
        out["kramer_ub"] = sb.kramer_ub
        out["best_ub"] = sb.best
        out["gap_to_best"] = sb.best - out["hk_rate"]
    if snr > 1.0:
        reg = symmetric_regime(snr, inr)
        out["regime"] = reg.regime
        out["bset"] = reg.bset
    _emit(out, args, stdout)
    return 0


def _cmd_gap_audit(args, stdout) -> int:
    result = _gap.audit(_channel_from_args(args))
    rep = result.report
    out = {
        "class": result.tag.value,
        "deltas": {fam: getattr(rep, f"delta_{fam}") for fam in _gap._FAMILIES.values()},
        "paired_deltas": {k: list(v) for k, v in rep.paired_deltas.items()},
        "delta_pass": rep.passed,
        "one_bit": result.one_bit,
        "within_half": result.within_half,
    }
    _emit(out, args, stdout)
    return 0


def _cmd_sweep(args, stdout) -> int:
    if args.out is None:
        raise GicapError("sweep needs --out for the per-instance CSV")
    if args.check == "within-half" and args.class_filter != "any":
        raise GicapError("--check within-half sweeps weak and mixed jointly")
    # A sweep that imports numpy never calls BLAS, and an OpenBLAS pool of one
    # thread per CPU made `import numpy` take 105 rather than 53 ms (2 vCPU
    # VM).  A numpy already loaded, or a value the user set, is left alone.
    one_thread = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        summary = _gap.stream_sweep(args.n, args.seed, args.class_filter, args.check, args.out)
    finally:
        if one_thread:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    _emit(summary, args, stdout)
    return 3 if summary["failures"] else 0


def _gdof_region_for(args) -> tuple[dict, RateRegion]:
    triple = (args.alpha1, args.alpha2, args.alpha3)
    if args.alpha is not None:
        if triple != (None, None, None):
            raise GicapError("gdof takes --alpha or --alpha1/--alpha2/--alpha3, not both")
        return {"alpha": args.alpha}, _gdof.symmetric_gdof_region(args.alpha)
    if any(v is None for v in triple):
        raise GicapError("gdof needs --alpha or all of --alpha1/--alpha2/--alpha3")
    g = _gdof.GdofParams(*triple)
    tag = _gdof._slope_tag(g)
    if g.alpha2 == 0.0:
        # one cross link absent: emit the compact one-sided region (for
        # weak slopes its polygon coincides with the general weak one)
        region = _gdof.one_sided_gdof_region(g)
        kind = "one_sided_weak" if tag is InterferenceTag.WEAK else "one_sided_strong"
    else:
        # the class name without its orientation: mixed_strong_at_2 -> mixed
        region, kind = _gdof.gdof_region(g), tag.value.partition("_")[0]
    meta = {
        "alpha1": g.alpha1,
        "alpha2": g.alpha2,
        "alpha3": g.alpha3,
        "class": kind,
    }
    return meta, region


def _cmd_gdof(args, stdout) -> int:
    out, region = _gdof_region_for(args)
    point = symmetric_rate(region)
    if args.alpha is not None:
        out["d_sym"] = point  # gdof.d_sym: the symmetric region's symmetric point
    out["region"] = region_to_jsonable(region)
    out["symmetric_point"] = point
    _emit(out, args, stdout)
    return 0


def _grid(count: int):
    # i/100 keeps two-decimal grid points (0.5, 1.0, 2.0) exact.
    return [i / 100 for i in range(count + 1)]


def _rounded(rows) -> tuple:
    """``rows`` as a tuple of float tuples, each cell rounded by :func:`sigfig`
    once, when its table is built, so that writing a table rounds nothing."""
    return tuple(tuple(map(sigfig, row)) for row in rows)


def _figure_rows(figure_id: str, alpha_arg: float | None):
    """``(header, rows)`` of a figure; rows is a tuple of float tuples, each
    cell rounded by :func:`_rounded`."""
    if figure_id != "gdof-region":
        if alpha_arg is not None:
            raise GicapError(f"figure {figure_id} takes no --alpha")
        return _fixed_figure_rows(figure_id)
    if alpha_arg is None:
        raise GicapError("figure gdof-region needs --alpha")
    region = _gdof.symmetric_gdof_region(alpha_arg)
    return ("d1", "d2"), _rounded((v.r1, v.r2) for v in vertices(region))


@functools.cache
def _fixed_figure_rows(figure_id: str):
    """The table of a figure without parameters, its cells rounded by
    :func:`_rounded`, built and rounded once per process."""
    header, rows = _raw_figure_rows(figure_id)
    return header, _rounded(rows)


def _raw_figure_rows(figure_id: str):
    """The unrounded table of a figure without parameters, built afresh."""
    if figure_id == "gdof-curve":
        header = ("alpha", "d_sym", "d_orth", "d_tin")
        rows = tuple(
            (
                a,
                _gdof.d_sym(a),
                _gdof.baseline_gdof(a, _gdof.BaselineScheme.ORTHOGONALIZE),
                _gdof.baseline_gdof(a, _gdof.BaselineScheme.TREAT_AS_NOISE),
            )
            for a in _grid(250)
        )
        return header, rows
    if figure_id in ("hk-fraction", "ub-vs-hk"):
        header = ("alpha", "hk_fraction", "ub_fraction")
        rows = tuple((a, _gdof.d_sym(a), 1.0 - a / 2.0) for a in _grid(100))
        if figure_id == "hk-fraction":
            return header[:2], tuple(row[:2] for row in rows)
        return header, rows
    # diff-rates, the last id that argparse's choices let through
    snr1, inr2 = db_to_linear(20.0), db_to_linear(10.0)
    rows = tuple((z, *_hk.differential_rates(z, snr1, inr2)) for z in _grid(100))
    return ("z", "r1", "r2"), rows


def _cmd_figures(args, stdout) -> int:
    table = _figure_rows(args.figure_id, args.alpha)
    if args.out is None:
        stream = contextlib.nullcontext(stdout)
    else:
        stream = open(args.out, "w", encoding="utf-8", newline="")
    with stream as fh:
        _emit(None, args, fh, table)
    return 0


def _cmd_diffrate(args, stdout) -> int:
    snr1 = _ratio(args.snr1, args.db)
    inr2 = _ratio(args.inr2, args.db)
    d = _hk.differential_rates(args.z, snr1, inr2)
    _emit({"z": args.z, "r1": d.r1, "r2": d.r2}, args, stdout)
    return 0


def main(argv: Sequence[str] | None = None, stdout=None) -> int:
    """Run one subcommand; returns the process exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  A well-formed command line is
    parsed once, by its subcommand's parser, as argparse's subparsers action
    parses it after the full parser's own pass.  The full parser runs only to
    answer help and usage errors, with its own message and exit code: an
    empty or unknown command, an option before the command, and strings the
    subcommand's parser leaves unparsed."""
    stdout = sys.stdout if stdout is None else stdout
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
    if command is None or extras:
        args = parser.parse_args(argv)
    try:
        return args.run(args, stdout)
    except GicapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())

"""numpy engine of a sweep: a pass of candidates classified, and a chunk
of channels audited, on arrays, bit-identical to the scalar engine.

:func:`select` takes a draw pass's ``rng.random()`` values and keeps the
candidates of the accepted classes, with their tags, dB values and
ratios; :func:`gicap.gap._chunks` carries them over until a chunk is full.
It maps the draws to dB and compares the two cross links in arrays, on the
exponents of the dB-to-ratio map; only a comparison near a tie, and the
accepted candidates' ratios, take Python's pow, as the scalar engine does.

:func:`audit_chunk` takes a chunk's class tags and four ratio columns and
returns the columns of its sweep records.  It runs the one per-channel
judgment of the scalar engine, :func:`gicap.gap._judge`, once per class
group of the chunk, on arrays: ``np.where`` chooses the rows' branches,
``np.minimum`` takes the family minima and the certificates' support
functions, and :func:`_row_evaluator` evaluates the rows with ``math.log2``
mapped over each distinct argument once (``np.log2`` rounds differently on
some inputs), so every rate, family delta (passing below ``c1 + c2`` bits)
and verdict is the scalar engine's.  It then scatters the groups back into draw order
and raises by the scalar engine's rule (:func:`gicap.gap._raise_first_bad`).

Only sweeps of at least :data:`gicap.gap.NUMPY_MIN_N` channels import
this module, and only where numpy is installed (the ``fast`` extra);
elsewhere the sweep takes the scalar path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channel import db_to_linear
from .gap import (
    _FAMILIES,
    _INR_SPAN,
    _SNR_SPAN,
    INR_DB_RANGE,
    SNR_DB_RANGE,
    _judge,
    _raise_first_bad,
)

__all__ = ["audit_chunk", "select"]

# dB = low end + span * rng.random(), per column: SNR1, SNR2, INR1, INR2
_DB_LOW = np.array([SNR_DB_RANGE[0]] * 2 + [INR_DB_RANGE[0]] * 2)
_DB_SPAN = np.array([_SNR_SPAN] * 2 + [_INR_SPAN] * 2)
# Cross links whose exponents (dB / 10) lie closer than this are compared
# exactly, as db_to_linear's ratios; farther apart, Python's pow cannot
# reverse their order (its error is below 1e-15 relative).
_TIE = 1e-9


def select(draws, accept):
    """The columns of :func:`gicap.gap._scalar_select` for the same
    arguments: the accepted candidates' tags, dB values and ratios.

    The dB values and the two cross-link comparisons run on arrays, on the
    exponents ``dB / 10`` of :func:`db_to_linear`'s ratios ``10 ** (dB / 10)``;
    a comparison near a tie is made on the ratios themselves.  Only the
    accepted candidates' ratios are raised to ``10 ** exponent``, by Python's
    pow (``np.power`` rounds differently on some inputs).
    """
    db = _DB_LOW + _DB_SPAN * np.fromiter(draws, float).reshape(-1, 4)
    exponents = db / 10.0
    # INR1 over SNR2 and INR2 over SNR1: ChannelParams.strong_at_1, strong_at_2
    gaps = exponents[:, 2:] - exponents[:, 1::-1]
    strong = gaps >= 0.0
    for k, j in zip(*np.nonzero(abs(gaps) < _TIE)):
        strong[k, j] = db_to_linear(float(db[k, 2 + j])) >= db_to_linear(float(db[k, 1 - j]))
    # class code strong_at_1 + 2 * strong_at_2
    code = strong[:, 0] + 2 * strong[:, 1]
    tag_of_code = [accept.get((bool(c & 1), bool(c & 2))) for c in range(4)]
    kept = np.flatnonzero(np.array([tag is not None for tag in tag_of_code])[code])
    tags = list(map(tag_of_code.__getitem__, code[kept].tolist()))
    ten = itertools.repeat(10.0)
    ratios = [list(map(pow, ten, column)) for column in exponents[kept].T.tolist()]
    return (tags, *db[kept].T.tolist(), *ratios)


def _row_evaluator():
    """The rows hook of :func:`gicap.gap._judge` for one class group of a
    chunk: it maps each row's arguments to a ``(rows, channels)`` array whose
    row ``k`` is the left-to-right sum of ``math.log2`` over ``args[k]``.

    Each distinct argument array is logged once over every call, the inner
    and the outer rows alike: two arrays are the same argument when they are
    equal, which is tested only on arrays with the same first value (a
    mixed group's inner rows share two arguments with its outer rows by
    value).  Arguments are listed one at a time, so a chunk holds one
    argument's Python floats at most.
    """
    logged = {}  # first value -> [(argument, its logs)]

    def log2(arg):
        same_start = logged.setdefault(arg[0], [])
        for other, logs in same_start:
            if other is arg or np.array_equal(other, arg):
                return logs
        logs = np.fromiter(map(math.log2, arg.tolist()), float, len(arg))
        same_start.append((arg, logs))
        return logs

    def rows(args):
        out = np.empty((len(args), len(args[0][0])))
        for k, row in enumerate(args):
            total = log2(row[0])
            for arg in row[1:]:
                total = total + log2(arg)
            out[k] = total
        return out

    return rows


def audit_chunk(tags, snr1, snr2, inr1, inr2):
    """The columns of :func:`gicap.gap._scalar_audit_chunk` for the same
    arguments, or its error: the five family deltas, the delta verdict and
    the two certificates of the weak and mixed channels of class ``tags[k]``
    with ratios ``snr1[k], snr2[k], inr1[k], inr2[k]``.
    """
    members: dict = {}
    for k, tag in enumerate(tags):
        members.setdefault(tag, []).append(k)
    ratios = np.array((snr1, snr2, inr1, inr2))
    size = len(tags)
    # object columns: a family the outer bound lacks stays None
    deltas = [np.full(size, None, dtype=object) for _ in _FAMILIES]
    # the last five fields of gap._Judgment: passed, finite, contained, one_bit, within_half
    verdicts = np.ones((5, size), dtype=bool)
    with np.errstate(all="ignore"):
        for tag, index in members.items():
            index = np.array(index)
            judged = _judge(
                tag, *ratios[:, index], rows=_row_evaluator(), where=np.where, minimum=np.minimum
            )
            for column, delta in zip(deltas, judged.deltas):
                if delta is not None:
                    column[index] = delta
            verdicts[:, index] = judged[4:]
    passed, finite, contained, one_bit, within_half = verdicts.tolist()
    _raise_first_bad(finite, contained, zip(snr1, snr2, inr1, inr2))
    return (*(column.tolist() for column in deltas), passed, one_bit, within_half)

"""numpy engine of a sweep: a pass of candidates classified, and a chunk
of channels audited, on arrays, bit-identical to the scalar engine.

:func:`select` takes a draw pass's ``rng.random()`` values and keeps the
candidates of the accepted classes, with their class codes, dB values
and ratios as arrays; :func:`gicap.gap._chunks` audits them as one chunk.
It maps the draws to dB and classifies them in arrays, on the exponents of
the dB-to-ratio map; only a candidate near a tie, and the accepted
candidates' ratios, take Python's pow, as the scalar engine does.

:func:`audit_chunk` takes a chunk's class codes, dB values and ratios and
returns it packed (:class:`gicap.gap._Chunk`): its frame, a row code per
channel followed by a float64 block of its dB values and five family
deltas, NaN where its class lacks the family, as the CSV writer reads it.
It groups the channels by class code with array operations and runs the
one per-channel judgment of the scalar engine, :func:`gicap.gap._judge`,
once per group, on arrays: ``np.where`` chooses the rows' branches,
``np.minimum`` takes the private levels, the family minima and the
certificates' support functions, and each group's fresh
:func:`_log2_once` maps ``math.log2`` once over each distinct argument
(``np.log2`` rounds differently on some inputs), so every rate, family
delta (passing below ``c1 + c2`` bits) and verdict is the scalar engine's.
It writes each group's deltas and verdicts into the chunk's blocks in
draw order and raises by the scalar engine's rule
(:func:`gicap.gap._raise_first_bad`).

Only sweeps of at least :data:`gicap.gap.NUMPY_MIN_N` channels import
this module, and only where numpy is installed (the ``fast`` extra);
elsewhere the sweep takes the scalar path.  Nothing here calls BLAS, so
:func:`gicap.gap._chunk_engine` imports it with one OpenBLAS thread unless
numpy is loaded already or ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channel import _class_code, db_to_linear
from .gap import _DB_LOW, _DB_SPAN, _Chunk, _judge, _raise_first_bad

__all__ = ["audit_chunk", "select"]

# Cross links whose exponents (dB / 10) lie closer than this are compared
# exactly, as db_to_linear's ratios; farther apart, Python's pow cannot
# reverse their order (its error is below 1e-15 relative).
_TIE = 1e-9


def select(draws, accept):
    """The lists of :func:`gicap.gap._scalar_select` for the same arguments,
    as arrays: the accepted candidates' class codes, and their dB values
    and ratios, each an ``(m, 4)`` array.

    The dB values and class codes run on arrays, on the exponents ``dB / 10``
    of :func:`db_to_linear`'s ratios ``10 ** (dB / 10)``; a candidate near a
    tie is classified again, whole, from its ratios.  Only the accepted
    candidates' ratios are raised to ``10 ** exponent``, by Python's pow
    (``np.power`` rounds differently on some inputs).
    """
    db = _DB_LOW + _DB_SPAN * np.fromiter(draws, float).reshape(-1, 4)
    exponents = db / 10.0
    codes = _class_code(*exponents.T)  # on exponents, as 10 ** x is increasing
    near = abs(exponents[:, 2:] - exponents[:, 1::-1]) < _TIE  # INR1 - SNR2, INR2 - SNR1
    for k in np.flatnonzero(near.any(axis=1)).tolist():
        codes[k] = _class_code(*map(db_to_linear, db[k].tolist()))
    kept = np.flatnonzero(np.frombuffer(accept, np.uint8)[codes])
    ten = itertools.repeat(10.0)
    ratios = np.array([list(map(pow, ten, column)) for column in exponents[kept].T.tolist()])
    return codes[kept], db[kept], ratios.T


def _log2_once():
    """A fresh ``log2`` hook of :func:`gicap.gap._judge` for a class group's
    arrays: ``math.log2`` mapped over an argument once, its logs reused for
    every later equal argument.  Equal arrays are one (a mixed group's inner
    and outer rows share two by value): an argument is looked up by its first
    value and matched by identity or by ``np.array_equal``, so no argument is
    copied or hashed whole."""
    logged = {}  # an argument's first value -> [(argument, its logs)]

    def log2(arg):
        bucket = logged.setdefault(arg[0], [])
        for seen, logs in bucket:
            if seen is arg or np.array_equal(seen, arg):
                return logs
        logs = np.fromiter(map(math.log2, arg.tolist()), float, len(arg))
        bucket.append((arg, logs))
        return logs

    return log2


def audit_chunk(classes, dbs, ratios):
    """The :class:`gicap.gap._Chunk` of :func:`gicap.gap._scalar_audit_chunk`
    for the same channels, or its error: channel ``k`` has class code
    ``classes[k]``, dB values ``dbs[k]`` and ratios ``ratios[k]``.
    The frame is the ``tobytes()`` of a ``uint8`` array of row codes and of
    an ``(m, 9)`` float array.
    """
    size = len(classes)
    floats = np.full((size, 9), np.nan)
    floats[:, :4] = dbs
    # the last five fields of gap._Judgment: passed, finite, contained, one_bit, within_half
    verdicts = np.empty((5, size), dtype=bool)
    with np.errstate(all="ignore"):
        for code in np.flatnonzero(np.bincount(classes)).tolist():
            index = np.flatnonzero(classes == code)
            judged = _judge(code, *ratios[index].T, _log2_once(), np.where, np.minimum)
            for column, delta in enumerate(judged.deltas, 4):
                if delta is not None:
                    floats[index, column] = delta
            verdicts[:, index] = judged[4:]
    passed, finite, contained, one_bit, within_half = verdicts
    if not (finite.all() and contained.all()):
        _raise_first_bad(finite.tolist(), contained.tolist(), ratios.tolist())
    codes = 8 * classes + 4 * passed + 2 * one_bit + within_half
    # fmax skips NaN, so a family no channel has stays NaN
    worst = [top if top == top else None for top in np.fmax.reduce(floats[:, 4:]).tolist()]
    return _Chunk(codes.astype(np.uint8).tobytes() + floats.tobytes(), worst)

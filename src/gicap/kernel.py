"""numpy audit of a whole chunk of sweep channels, bit-identical to the scalar path.

:func:`audit_chunk` takes a chunk's class tags and four ratio columns and
returns the columns of its sweep records.  It runs the one per-channel
judgment of the scalar engine, :func:`gicap.gap._judge`, once per class
group of the chunk, on arrays: ``np.where`` chooses the rows' branches,
``np.minimum`` takes the family minima and the certificates' support
functions, and :func:`_rhs` evaluates the rows with ``math.log2`` mapped
over their arguments (``np.log2`` rounds differently on some inputs), so
every rate, family delta (passing below ``c1 + c2`` bits) and verdict is
the scalar engine's.  It then scatters the groups back into draw order
and raises by the scalar engine's rule (:func:`gicap.gap._raise_first_bad`).

Only sweeps of at least :data:`gicap.gap.NUMPY_MIN_N` channels import
this module, and only where numpy is installed (the ``fast`` extra);
elsewhere the sweep takes the scalar path.
"""

from __future__ import annotations

import math

import numpy as np

from .gap import _FAMILIES, _judge, _raise_first_bad

__all__ = ["audit_chunk"]


def _rhs(args):
    """``(rows, channels)`` array: row ``k`` is the left-to-right sum of
    ``math.log2`` over ``args[k]``, each distinct argument array logged once."""
    distinct = {id(arg): arg for row in args for arg in row}
    index = dict(zip(distinct, range(len(distinct))))
    flat = np.concatenate(list(distinct.values())).tolist()
    logs = np.fromiter(map(math.log2, flat), float, len(flat)).reshape(len(distinct), -1)
    out = np.empty((len(args), logs.shape[1]))
    for k, row in enumerate(args):
        total = logs[index[id(row[0])]]
        for arg in row[1:]:
            total = total + logs[index[id(arg)]]
        out[k] = total
    return out


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
            judged = _judge(tag, *ratios[:, index], rows=_rhs, where=np.where, minimum=np.minimum)
            for column, delta in zip(deltas, judged.deltas):
                if delta is not None:
                    column[index] = delta
            verdicts[:, index] = judged[4:]
    passed, finite, contained, one_bit, within_half = verdicts.tolist()
    _raise_first_bad(finite, contained, zip(snr1, snr2, inr1, inr2))
    return (*(column.tolist() for column in deltas), passed, one_bit, within_half)

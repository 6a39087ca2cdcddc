"""numpy audit of a whole chunk of sweep channels, bit-identical to the scalar path.

:func:`audit_chunk` takes a chunk's class tags and four ratio columns and
returns the columns of its sweep records, doing in arrays what the scalar
engine (:func:`gicap.gap.audit` of each channel) does, in one pass over the
chunk's class groups:

* the recommended split by :func:`gicap.hk.recommended_levels` with the
  group's strengths;
* the rows from :func:`gicap.hk.hk_args` and :func:`gicap.bounds.outer_args`
  on arrays (``np.where`` choosing their branches), with ``math.log2`` mapped
  over the arguments (``np.log2`` rounds differently on some inputs), so
  every rhs is the same double;
* the family deltas as minima over coefficient-keyed column groups;
* both certificates and the containment check from the family minima, by
  the support-function rule of :func:`gicap.region.certificates` with
  ``minimum=np.minimum``.

It then raises by the scalar engine's rule: the first channel in draw order
that :func:`gicap.gap.audit` would reject raises its error.

Only sweeps of at least :data:`gicap.gap.NUMPY_MIN_N` channels import
this module, and only where numpy is installed (the ``fast`` extra);
elsewhere the sweep takes the scalar path.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as _bounds
from .channel import TAG_BY_STRENGTH, ChannelParams
from .errors import ContainmentError, DomainError
from .gap import _FAMILIES, _NOT_CONTAINED, _OVERFLOW, _SLACK, _THRESHOLDS
from .hk import HK_COEFFS, hk_args, recommended_levels
from .region import _family_minima, _verdicts

__all__ = ["audit_chunk"]

# (strong at receiver 1, strong at receiver 2) of each class
_STRENGTHS = {tag: strengths for strengths, tag in TAG_BY_STRENGTH.items()}


def _rhs(args):
    """``(channels, rows)`` array: row ``k`` is the left-to-right sum of
    ``math.log2`` over ``args[k]``, each distinct argument array logged once."""
    distinct = {id(arg): arg for row in args for arg in row}
    index = dict(zip(distinct, range(len(distinct))))
    flat = np.concatenate(list(distinct.values())).tolist()
    logs = np.fromiter(map(math.log2, flat), float, len(flat)).reshape(len(distinct), -1)
    out = np.empty((logs.shape[1], len(args)))
    for k, row in enumerate(args):
        total = logs[index[id(row[0])]]
        for arg in row[1:]:
            total = total + logs[index[id(arg)]]
        out[:, k] = total
    return out


def _rows(tag, s1, s2, i1, i2):
    """``(inner, outer_coeffs, outer)`` of channels of class ``tag`` with ratio
    arrays ``s1, s2, i1, i2``: the rows :func:`gicap.gap.audit` builds, on
    arrays, the rhs as ``(channels, rows)`` arrays."""
    p2, p1 = recommended_levels(*_STRENGTHS[tag], i1, i2, np.where)
    inner = _rhs(hk_args(s1, s2, i1, i2, p2, p1, np.where))
    coeffs, args = _bounds.outer_args(s1, s2, i1, i2, tag)
    return inner, coeffs, _rhs(args)


def audit_chunk(tags, snr1, snr2, inr1, inr2):
    """Columns of a chunk's records after the class, as :func:`gicap.gap._scalar_audit_chunk`.

    The five family deltas (None where the outer bound lacks the family),
    the delta verdict and the two certificates, for weak and mixed
    channels of class ``tags[k]`` with ratios ``snr1[k], snr2[k], inr1[k],
    inr2[k]``.  The first channel in draw order whose rates overflow
    (:class:`DomainError`) or whose inner region exceeds its outer bound
    (:class:`ContainmentError`) raises that error, naming the channel.
    """
    members: dict = {}
    for k, tag in enumerate(tags):
        members.setdefault(tag, []).append(k)
    ratios = np.array((snr1, snr2, inr1, inr2))
    size = len(tags)
    # object columns: a family the outer bound lacks stays None
    deltas = {fam: np.full(size, None, dtype=object) for fam in _THRESHOLDS}
    finite, passed, contained, one_bit, within_half = np.ones((5, size), dtype=bool)
    with np.errstate(all="ignore"):
        for tag, index in members.items():
            index = np.array(index)
            inner, coeffs, outer = _rows(tag, *ratios[:, index])
            finite[index] = np.isfinite(inner).all(axis=1) & np.isfinite(outer).all(axis=1)
            inner_mins = _family_minima(zip(HK_COEFFS, inner.T), np.minimum)
            outer_mins = _family_minima(zip(coeffs, outer.T), np.minimum)
            for c, outer_min in outer_mins.items():
                delta = outer_min - inner_mins[c]
                deltas[_FAMILIES[c]][index] = delta
                passed[index] &= delta < _THRESHOLDS[_FAMILIES[c]] + _SLACK
            contained[index], one_bit[index], within_half[index] = _verdicts(
                inner_mins, outer_mins, np.minimum
            )
    bad = np.flatnonzero(~(finite & contained))
    if bad.size:
        k = int(bad[0])
        params = ChannelParams(snr1[k], snr2[k], inr1[k], inr2[k])
        if not finite[k]:
            raise DomainError(_OVERFLOW.format(params))
        raise ContainmentError(_NOT_CONTAINED.format(params))
    return (
        *(column.tolist() for column in deltas.values()),
        passed.tolist(),
        one_bit.tolist(),
        within_half.tolist(),
    )

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
* both certificates and the containment check by
  :func:`chunk_certificates`.

It then raises by the scalar engine's rule: the first channel in draw order
that :func:`gicap.gap.audit` would reject raises its error.

:func:`chunk_certificates` asks whether a linear function, maximised over
the outer polytope, stays inside the inner region, and whether the inner
polytope lies in the outer one.  Every feasible pairwise intersection of a
region's lines (its constraint lines and the two axes) lies in that
region, and the vertices are among them, so checking all of them -- with
no dedup or sort -- gives the verdicts of :func:`gicap.region.certificates`.
The float operations are those of :func:`gicap.region.vertices` and
:func:`gicap.region.certificates`, less two kinds that cannot change a
verdict: multiplications by 1 and additions of ``0 * y`` (exact on finite
points), and the checks of rows that share their coefficients with a row
of smaller rhs (``r + tol`` rises with ``r``).  So the verdicts are
identical.  Temporaries are ``(channels, line pairs)`` arrays, built one
coefficient pair at a time.

Only sweeps of at least :data:`gicap.gap.NUMPY_MIN_N` channels import
this module, and only where numpy is installed (the ``fast`` extra);
elsewhere the sweep takes the scalar path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bounds as _bounds
from .channel import TAG_BY_STRENGTH, ChannelParams
from .errors import ContainmentError, DomainError
from .gap import _FAMILIES, _NOT_CONTAINED, _OVERFLOW, _SLACK, _THRESHOLDS
from .hk import HK_COEFFS, hk_args, recommended_levels
from .region import _PARALLEL_EPS, DEFAULT_TOL

__all__ = ["audit_chunk", "chunk_certificates"]

_AXES = ((1.0, 0.0), (0.0, 1.0))
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
            inner_mins = _mins(HK_COEFFS, inner)
            for c, outer_min in _mins(coeffs, outer).items():
                delta = outer_min - inner_mins[c]
                deltas[_FAMILIES[c]][index] = delta
                passed[index] &= delta < _THRESHOLDS[_FAMILIES[c]] + _SLACK
            contained[index], one_bit[index], within_half[index] = chunk_certificates(
                HK_COEFFS, inner, coeffs, outer
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


@functools.lru_cache(maxsize=None)
def _columns(coeffs) -> dict[tuple[float, float], list[int]]:
    """The row indices of each distinct coefficient pair of ``coeffs``."""
    columns: dict[tuple[float, float], list[int]] = {}
    for k, c in enumerate(coeffs):
        columns.setdefault(c, []).append(k)
    return columns


def _mins(coeffs, rhs) -> dict[tuple[float, float], np.ndarray]:
    """The smallest rhs of each distinct coefficient pair's rows, one entry per channel."""
    return {
        c: rhs[:, k].min(axis=1) if len(k) > 1 else rhs[:, k[0]]
        for c, k in _columns(coeffs).items()
    }


def _caps(coeffs, rhs):
    """``(c1, c2, cap)`` per distinct coefficient pair, ``cap`` the ``(N, 1)``
    column of its smallest rhs plus the tolerance.

    A point violates some row of the pair exactly when it violates the one
    with the smallest rhs, since ``r + tol`` rises with ``r``.
    """
    return [(c1, c2, (m + DEFAULT_TOL)[:, None]) for (c1, c2), m in _mins(coeffs, rhs).items()]


@functools.lru_cache(maxsize=None)
def _pairs(coeffs):
    """``(i, j, a, b, det)`` arrays over the non-parallel pairs of the region's
    lines (its rows, then the two axes): line indices, coefficients, determinant."""
    lines = tuple(coeffs) + _AXES
    pairs = [
        (i, j, lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1])
        for i in range(len(lines))
        for j in range(i + 1, len(lines))
    ]
    pairs = [(i, j, det) for i, j, det in pairs if not (-_PARALLEL_EPS < det < _PARALLEL_EPS)]
    i, j, det = (np.array(column) for column in zip(*pairs))
    a, b = (np.array(column) for column in zip(*lines))
    return i, j, a, b, det


def _points(coeffs, rhs, caps):
    """``(x, y, feasible)``, each ``(N, pairs)``: the pairwise intersections
    of the region's lines and whether each lies in the region."""
    i, j, a, b, det = _pairs(coeffs)
    r = np.concatenate((rhs, np.zeros((len(rhs), len(_AXES)))), axis=1)
    ri, rj = r[:, i], r[:, j]
    x = (ri * b[j] - rj * b[i]) / det
    y = (a[i] * rj - a[j] * ri) / det
    feasible = (x >= -DEFAULT_TOL) & (y >= -DEFAULT_TOL) & ~_violated(caps, x, y)
    return x, y, feasible


def _violated(caps, x, y):
    """Whether some row ``c1*R1 + c2*R2 <= rhs`` fails at each point, beyond the tolerance.

    ``1 * x`` and ``x + 0 * y`` are ``x`` exactly, since the points are finite.
    """
    out = np.zeros(x.shape, dtype=bool)
    for c1, c2, cap in caps:
        lhs = _term(c1, x)
        if c2:
            lhs = _term(c2, y) if lhs is None else lhs + _term(c2, y)
        out |= lhs > cap
    return out


def _term(c, v):
    """``c * v``, with no multiplication for ``c`` = 1 and None for ``c`` = 0."""
    return None if c == 0.0 else v if c == 1.0 else c * v


def chunk_certificates(inner_coeffs, inner, outer_coeffs, outer):
    """``(contained, one_bit, within_half)`` boolean arrays, one entry per channel.

    Channel ``k`` has the inner region ``(inner_coeffs, inner[k])`` and the
    outer region ``(outer_coeffs, outer[k])``: the channels share their
    coefficient rows, and ``inner``/``outer`` are ``(channels, rows)`` rhs
    arrays.  ``one_bit``/``within_half`` are the verdicts of
    :func:`gicap.region.certificates` wherever ``contained`` holds.
    """
    inner_caps, outer_caps = _caps(inner_coeffs, inner), _caps(outer_coeffs, outer)
    x, y, feasible = _points(inner_coeffs, inner, inner_caps)
    contained = ~(feasible & _violated(outer_caps, x, y)).any(axis=1)
    x, y, feasible = _points(outer_coeffs, outer, outer_caps)
    one_bit = ~(feasible & _violated(inner_caps, x - 1.0, y - 1.0)).any(axis=1)
    # 0.5 * x >= -DEFAULT_TOL / 2 on feasible points, so the halved point is
    # never outside the quadrant and only the rows are checked
    within_half = ~(feasible & _violated(inner_caps, 0.5 * x, 0.5 * y)).any(axis=1)
    return contained, one_bit, within_half

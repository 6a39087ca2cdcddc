"""numpy kernel deciding both gap certificates for a chunk of sweep channels.

Each certificate asks whether a linear function, maximised over the outer
polytope, stays inside the inner region, and containment asks the same of
the inner polytope.  Every feasible pairwise intersection of a region's
lines (its constraint lines and the two axes) lies in that region, and the
vertices are among them, so checking all of them -- with no dedup or sort
-- gives the verdicts of :func:`gicap.region.certificates`.  The float
operations repeat those of :func:`gicap.region.vertices` and
:func:`gicap.region.certificates` in the same order, so the verdicts are
identical.  Temporaries are ``(channels, line pairs)`` arrays, built one
constraint row at a time.

Only the sweep imports this module, and only where numpy is installed
(the ``fast`` extra); elsewhere the sweep takes the scalar path.
"""

from __future__ import annotations

import numpy as np

from .region import _PARALLEL_EPS, DEFAULT_TOL

__all__ = ["chunk_certificates"]

_AXES = ((1.0, 0.0), (0.0, 1.0))


def _points(coeffs, rhs):
    """``(x, y, feasible)``, each ``(N, pairs)``: the pairwise intersections
    of the region's lines and whether each lies in the region."""
    lines = tuple(coeffs) + _AXES
    pairs = [
        (i, j, lines[i][0] * lines[j][1] - lines[j][0] * lines[i][1])
        for i in range(len(lines))
        for j in range(i + 1, len(lines))
    ]
    pairs = [(i, j, det) for i, j, det in pairs if not (-_PARALLEL_EPS < det < _PARALLEL_EPS)]
    i, j, det = (np.array(column) for column in zip(*pairs))
    a, b = (np.array(column) for column in zip(*lines))
    r = np.concatenate((rhs, np.zeros((len(rhs), len(_AXES)))), axis=1)
    ri, rj = r[:, i], r[:, j]
    x = (ri * b[j] - rj * b[i]) / det
    y = (a[i] * rj - a[j] * ri) / det
    feasible = (x >= -DEFAULT_TOL) & (y >= -DEFAULT_TOL) & ~_violated(coeffs, rhs, x, y)
    return x, y, feasible


def _violated(coeffs, rhs, x, y):
    """Whether some row ``c1*R1 + c2*R2 <= rhs`` fails at each point, beyond the tolerance."""
    out = np.zeros(x.shape, dtype=bool)
    for k, (c1, c2) in enumerate(coeffs):
        out |= c1 * x + c2 * y > rhs[:, k, None] + DEFAULT_TOL
    return out


def _group(inner_coeffs, inner, outer_coeffs, outer):
    """``(contained, one_bit, within_half)`` boolean arrays for channels whose
    regions share their coefficient rows; ``inner``/``outer`` are rhs arrays."""
    x, y, feasible = _points(inner_coeffs, inner)
    contained = ~(feasible & _violated(outer_coeffs, outer, x, y)).any(axis=1)
    x, y, feasible = _points(outer_coeffs, outer)
    one_bit = ~(feasible & _violated(inner_coeffs, inner, x - 1.0, y - 1.0)).any(axis=1)
    # 0.5 * x >= -DEFAULT_TOL / 2 on feasible points, so the halved point is
    # never outside the quadrant and only the rows are checked
    within_half = ~(feasible & _violated(inner_coeffs, inner, 0.5 * x, 0.5 * y)).any(axis=1)
    return contained, one_bit, within_half


def chunk_certificates(inner_coeffs, inner_rows, outer_coeffs, outer_rows):
    """``(one_bit, within_half)`` per channel, None where its inner region is
    not contained in its outer one.

    Channel ``k`` has the inner region ``(inner_coeffs, inner_rows[k])`` and
    the outer region ``(outer_coeffs[k], outer_rows[k])``; channels that
    share outer coefficients are decided in one array pass.
    """
    inner = np.array(inner_rows, dtype=float)
    groups: dict[tuple, list[int]] = {}
    for k, coeffs in enumerate(outer_coeffs):
        groups.setdefault(coeffs, []).append(k)
    verdicts: list[tuple[bool, bool] | None] = [None] * len(inner_rows)
    for coeffs, index in groups.items():
        outer = np.array([outer_rows[k] for k in index], dtype=float)
        contained, one_bit, within_half = _group(inner_coeffs, inner[index], coeffs, outer)
        for k, ok, verdict in zip(
            index, contained.tolist(), zip(one_bit.tolist(), within_half.tolist())
        ):
            if ok:
                verdicts[k] = verdict
    return verdicts

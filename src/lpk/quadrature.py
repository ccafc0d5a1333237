"""Piecewise trapezoid quadrature with Richardson extrapolation.

Integrands in this package are smooth between a known set of breakpoints
(support edges of phantom primitives) and discontinuous only there.  Each
segment is integrated by the composite trapezoid rule on nested dyadic
node sets, then Richardson-extrapolated, so nodes align exactly with the
edges and the only error left is far below the tolerances any caller
checks against.  Every integral gets one fixed budget: ``POINTS``
intervals spread over the segments by length (each share rounded up to a
power of two, at least 16), extrapolated over up to ``LEVELS`` levels.

Integrand callables receive ``(x, mid)`` where ``mid`` is the segment
midpoint: membership of a set whose boundary touches a segment endpoint
must be decided from ``mid``, never from the endpoint itself.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

POINTS = 4096
LEVELS = 5


def merge_edges(edges: Sequence[float], lo: float, hi: float) -> np.ndarray:
    """Sorted unique breakpoints clipped to ``[lo, hi]``, ends included;
    breakpoints within ``1e-12`` of the range's scale merge into one."""
    tol = 1e-12 * max(abs(lo), abs(hi), 1.0)
    pts = [lo, hi] + [float(e) for e in edges if lo < e < hi]
    pts.sort()
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > tol:
            out.append(p)
    out[-1] = hi
    return np.asarray(out)


def _segment_quad(fn, a: float, b: float, m: int, levels: int):
    x = np.linspace(a, b, m + 1)
    fx = np.asarray(fn(x, 0.5 * (a + b)))
    if fx.shape[0] != m + 1:
        raise ValueError("integrand must return one row per node")
    table = []
    for j in range(levels - 1, -1, -1):  # coarse to fine
        step = 1 << j
        sub = fx[::step]
        h = (b - a) * step / m
        t = h * (0.5 * sub[0] + sub[1:-1].sum(axis=0) + 0.5 * sub[-1])
        table.append(t)
    for j in range(1, len(table)):
        factor = 4.0**j
        for i in range(len(table) - 1, j - 1, -1):
            table[i] = (factor * table[i] - table[i - 1]) / (factor - 1.0)
    return table[-1]


def piecewise_quad(fn: Callable, edges: Sequence[float]):
    """Integrate ``fn`` over the range spanned by ``edges``.

    Args:
        fn: callable ``(x, mid) -> array`` of shape ``(len(x), ...)``;
            must be smooth on each closed segment between breakpoints.
        edges: breakpoints, ascending; first and last bound the integral.

    Returns:
        The integral, with the integrand's trailing shape.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("need at least two breakpoints")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("breakpoints must be strictly ascending")
    total = edges[-1] - edges[0]
    out = None
    for a, b in zip(edges[:-1], edges[1:]):
        target = max(POINTS * (b - a) / total, 16)
        m = 1 << int(np.ceil(np.log2(target)))
        depth = min(LEVELS, int(np.log2(m)) + 1)
        part = _segment_quad(fn, float(a), float(b), m, depth)
        out = part if out is None else out + part
    return out

"""Edge-aligned trapezoid quadrature with Richardson extrapolation.

Polynomials have exact integrals that the extrapolated rule reproduces to
round-off; a step placed on a breakpoint must be decided by the segment
midpoint, never by the node sitting on the edge.
"""

import numpy as np
import pytest

from lpk.quadrature import merge_edges, piecewise_quad


def test_degree_nine_is_exact_on_sixteen_intervals():
    # [0, 1] is a 1/1024 share of the range, so it gets the minimum 16
    # intervals: five levels from 1 to 16 intervals, which integrate up to
    # degree 9 exactly (the 16-interval trapezoid alone is off by 3e-3).
    # Two integrands on one trailing axis, zero past the first segment.
    def fn(x, mid):
        return np.stack([x**3, x**9], axis=1) * (mid < 1.0)

    got = piecewise_quad(fn, [0.0, 1.0, 1024.0])
    assert got.shape == (2,)
    assert np.max(np.abs(got - [0.25, 0.1])) <= 1e-15


def test_a_step_on_a_breakpoint_is_decided_by_the_midpoint():
    # 1 before 0.4, 0.5 after: 0.4 + 0.3.  The node at 0.4 belongs to both
    # segments, and only ``mid`` tells them apart.
    mids = []

    def step(x, mid):
        mids.append(mid)
        return np.full(x.shape, 1.0 if mid < 0.4 else 0.5)

    assert piecewise_quad(step, [0.0, 0.4, 1.0]) == pytest.approx(0.7, abs=1e-15)
    assert mids == [0.2, 0.7]


def test_merge_edges_clips_sorts_and_merges_near_duplicates():
    got = merge_edges([0.2, 0.2 + 1e-14, -3.0, 0.9, 5.0], 0.0, 1.0)
    assert got.tolist() == [0.0, 0.2, 0.9, 1.0]
    # An edge within the tolerance of the upper end merges into that end.
    assert merge_edges([1.0 - 1e-14, 0.5], 0.0, 1.0).tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("edges,fn,match", [
    ([0.0], lambda x, mid: x, "at least two breakpoints"),
    ([0.0, 0.5, 0.5, 1.0], lambda x, mid: x, "strictly ascending"),
    ([1.0, 0.0], lambda x, mid: x, "strictly ascending"),
    ([0.0, 1.0], lambda x, mid: x[1:], "one row per node"),
])
def test_bad_edges_and_integrands_are_rejected(edges, fn, match):
    with pytest.raises(ValueError, match=match):
        piecewise_quad(fn, edges)

"""Engines commute with the channel transforms their models cannot see.

An engine's model is a subspace of linear relations among channels and
shifts, so reconstructing from ``T y`` must give ``T x`` when ``T`` is a
scale, a reordering of the channels, or a unitary channel mix (the basis
change coil compression makes).  The inputs are built from the public
functions the way the benchmark builds its ``sweep1d`` and 2D cases, and
each engine runs at that workload's budget.

Only ``lowrank`` has rows so far.  Its truncation acts on the lifted
matrix's column space and spectrum, which every ``T`` keeps, so the rows
hold to round-off: about 7 eps was measured, and each tolerance is a
multiple of eps.
"""

import numpy as np
import pytest

from lpk.core import MultiKSignal, centered_grid, zero_fill
from lpk.harness import ENGINES, MaskSpec, add_noise, demo_scene_1d, demo_scene_2d, gen_mask
from lpk.multi import scene_samples

EPS = np.finfo(np.float64).eps


def _case(scene, shape, calib, seed):
    """One seeded ``random`` R=3 case with noise at 1e-3 of the RMS sample."""
    grid = centered_grid(shape, 1.0)
    truth = scene_samples(scene, grid)
    rms = float(np.sqrt(np.mean(np.abs(truth.stack()) ** 2)))
    mask = gen_mask(MaskSpec("random", 3, calib, seed=seed), grid)
    return zero_fill(add_noise(truth, 1e-3 * rms, seed + 1), mask), mask


CASES = {
    "sweep1d": (lambda: _case(demo_scene_1d(), (64,), 12, 21), {}),
    "2d": (lambda: _case(demo_scene_2d(), (24, 24), 8, 21), {"max_iters": 3}),
}


def _unitary(q):
    z = np.random.default_rng(3).standard_normal((2, q, q))
    u, r = np.linalg.qr(z[0] + 1j * z[1])
    return u * (np.diag(r) / np.abs(np.diag(r)))


def _transform(name, q):
    """``(T, T⁻¹)`` on a ``[Q, *N]`` channel stack."""
    if name.startswith("scale"):
        a = float(name.split(" ")[1])
        return (lambda v: a * v), (lambda v: v / a)
    if name == "channel order":
        perm = np.random.default_rng(4).permutation(q)
        return (lambda v: v[perm]), (lambda v: v[np.argsort(perm)])
    u = _unitary(q)
    return (lambda v: np.tensordot(u, v, axes=1)), (lambda v: np.tensordot(u.conj().T, v, axes=1))


# Multiples of eps: the largest move measured on these cases, rounded up,
# with room for another BLAS's order of sums.
TOLERANCES = {
    ("lowrank", "scale 1e4"): 64 * EPS,
    ("lowrank", "scale 1e-4"): 64 * EPS,
    ("lowrank", "channel order"): 64 * EPS,
    ("lowrank", "unitary mix"): 64 * EPS,
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("engine,transform", list(TOLERANCES))
def test_the_engine_commutes_with_the_transform(engine, transform, case):
    build, params = CASES[case]
    measured, mask = build()
    forward, inverse = _transform(transform, measured.q_count)
    base, _ = ENGINES[engine](measured, mask, params)
    moved, _ = ENGINES[engine](
        MultiKSignal.from_array(measured.grid, forward(measured.values)), mask, params
    )
    err = np.linalg.norm(inverse(moved.values) - base.values) / np.linalg.norm(base.values)
    assert err <= TOLERANCES[engine, transform]

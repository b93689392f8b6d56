"""Kernel unit checks against per-point reference loops."""

import math

import numpy as np

from rgglab import kernels
from rgglab.densities import _CHUNK


def _pointwise_occupancy(pts, g, base, dims):
    expected = np.zeros(int(np.prod(dims)), dtype=bool)
    outside = 0
    for p in pts:
        cell = [math.floor(x / g) - b for x, b in zip(p, base)]
        if all(0 <= c < m for c, m in zip(cell, dims)):
            flat = 0
            for c, m in zip(cell, dims):
                flat = flat * int(m) + c
            expected[flat] = True
        else:
            outside += 1
    return expected, outside


def test_occupied_cells_matches_pointwise(rng):
    for d in (1, 2, 3):
        g = 0.37
        base = rng.integers(-4, 0, size=d)
        dims = rng.integers(2, 7, size=d)
        # the cloud spills past the box on every side
        lo, hi = (base - 2) * g, (base + dims + 2) * g
        pts = rng.uniform(lo, hi, size=(400, d))
        # points exactly on cell boundaries m * g, negative m included
        edges = rng.integers(base - 2, base + dims + 3, size=(200, d)) * g
        # points far outside the box along each axis, in both directions
        far = pts[:2 * d].copy()
        for j in range(d):
            far[2 * j, j], far[2 * j + 1, j] = -1e6 * g, 1e6 * g
        special = np.concatenate([pts, edges, far])
        # more than three chunks whose bulk reaches only the box's first cell,
        # so the special points in the last, partial chunk set the rest
        bulk = rng.uniform(lo, (base + 1) * g, size=(3 * _CHUNK + 5, d))
        for cloud in (special, np.concatenate([bulk, special])):
            occ = kernels.occupied_cells(cloud, g, base, dims)
            expected, outside = _pointwise_occupancy(cloud, g, base, dims)
            assert outside > 0 and expected[1:].any()
            assert occ.dtype == bool and occ.shape == expected.shape
            assert np.array_equal(occ, expected), (d, len(cloud))
    # an empty cloud occupies nothing
    assert not kernels.occupied_cells(np.empty((0, 2)), 1.0, [0, 0], [3, 3]).any()

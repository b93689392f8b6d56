"""Kernel unit checks against per-point reference loops."""

import math

import numpy as np

from rgglab import kernels


def test_occupied_cells_matches_pointwise(rng):
    for d in (1, 2, 3):
        g = 0.37
        base = rng.integers(-4, 0, size=d)
        dims = rng.integers(2, 7, size=d)
        # the cloud spills past the box on every side
        lo, hi = (base - 2) * g, (base + dims + 2) * g
        pts = rng.uniform(lo, hi, size=(400, d))
        occ = kernels.occupied_cells(pts, g, base, dims)
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
        assert outside > 0
        assert occ.dtype == bool and occ.shape == expected.shape
        assert np.array_equal(occ, expected), d
    # an empty cloud occupies nothing
    assert not kernels.occupied_cells(np.empty((0, 2)), 1.0, [0, 0], [3, 3]).any()

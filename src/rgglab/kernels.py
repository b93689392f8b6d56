"""Hot numeric kernels: fixed-radius adjacency, connected k-subset
enumeration, and cube-occupancy coverage.

There is one path per kernel, built on numpy alone.  The adjacency comes
from a cell list (cells slightly wider than the radius, sorted by flat
cell key) and keeps a pair iff ``sqrt(d2) <= radius``, the rule the curve
classifier and the exhaustive oracle use, so pairs at exactly the radius
are never lost.
Connected k-subsets come from the CSR edge list for k = 2, the wedge list
for k = 3 and ESU for k >= 4.  Classifying them is ``Atlas.indicators``'
job; the counts summed from it do not depend on enumeration order.
``python3 perfbench/run.py`` times these kernels in context.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._numerics import row_norms
from .densities import _CHUNK

# cells are wider than the radius by this relative slack, so that a pair at
# exactly ``radius`` cannot land two cells apart; the exact keep rule then
# decides
_QUERY_SLACK = 1e-9
# candidate pairs held at once, so that memory stays bounded on dense cells
_PAIR_CHUNK = 1 << 20


# ---------------------------------------------------------------------------
# adjacency at a fixed radius (cell list)
# ---------------------------------------------------------------------------

def build_adjacency(points: np.ndarray, radius: float):
    """CSR adjacency (indptr, indices) of the geometric graph at ``radius``.

    Pair {p, q} is an edge iff ``sqrt(|p - q|^2) <= radius``; each row lists
    its neighbours in ascending order.

    The candidates come from a cell list over the first ``g = min(d, 3)``
    coordinates (a pair within the radius is within it in each coordinate).
    The points are sorted once by flat cell key.  The neighbour cells ahead
    of a cell in key order form runs along the last axis: its own cell and
    the next, then three cells for each forward step of the other axes.
    Each run is one key range, so one ``searchsorted`` per side finds every
    point's candidates: the later points of its own cell and all points of
    the other cells in its runs.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, d = points.shape
    if n == 0 or radius <= 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    g = min(d, 3)
    grid = points[:, :g]
    lo = grid.min(axis=0)
    extent = float((grid.max(axis=0) - lo).max())
    # beyond the slack, the cell side also absorbs the rounding of
    # (x - lo) / side (below 2^-51 extent), and it widens when the cells
    # would be too many for an int64 key
    side = max(radius * (1.0 + _QUERY_SLACK) + extent * 2.0 ** -48,
               extent / 2.0 ** (62 // g - 1))
    # an empty cell on each side of every axis keeps the runs from wrapping
    # into other cells and makes every step's key distinct
    cell = np.floor((grid - lo) / side).astype(np.int64) + 1
    dims = (cell.max(axis=0) + 2).tolist()
    strides = [math.prod(dims[j + 1:]) for j in range(g)]
    keys = cell @ np.array(strides, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    steps = (sum(o * s for o, s in zip(off, strides))
             for off in itertools.product((-1, 0, 1), repeat=g - 1))
    ahead = np.array([s for s in steps if s > 0], dtype=np.int64)
    runs = np.concatenate([[0], ahead])
    stop = np.searchsorted(keys, (runs + 1)[:, None] + keys, side="right")
    start = np.empty_like(stop)
    start[0] = np.arange(1, n + 1)                # own cell: later points only
    start[1:] = np.searchsorted(keys, (ahead - 1)[:, None] + keys, side="left")
    counts, start = (stop - start).T, start.T      # (n, runs)
    per_row = counts.sum(axis=1)
    ends = np.cumsum(per_row)
    cuts = np.searchsorted(ends, np.arange(_PAIR_CHUNK, ends[-1], _PAIR_CHUNK), side="right")
    bounds = [0, *cuts.tolist(), n]          # a repeated bound is an empty chunk
    # coordinates in cell order, one column at a time
    cols = [points[order, j] for j in range(d)]
    p_parts, q_parts = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        c = counts[a:b].ravel()
        first = np.repeat(np.arange(a, b), per_row[a:b])
        second = np.arange(first.size) + np.repeat(start[a:b].ravel() - (np.cumsum(c) - c), c)
        keep = row_norms(lambda j: cols[j][first] - cols[j][second], d) <= radius
        p_parts.append(order[first[keep]])
        q_parts.append(order[second[keep]])
    p, q = np.concatenate(p_parts), np.concatenate(q_parts)
    # both directions of every edge as the flat key row * n + column: sorting
    # the keys lays the rows out in order, each with its neighbours ascending
    keys = np.sort(np.concatenate([p * n + q, q * n + p]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=n) + np.bincount(q, minlength=n), out=indptr[1:])
    return indptr, keys % n


# ---------------------------------------------------------------------------
# connected k-subset enumeration + per-subset classification
# ---------------------------------------------------------------------------
# ESU (exclusive-neighborhood) enumeration, Wernicke 2006: every vertex set
# whose induced graph at radius t_max is connected is visited exactly once.

def _esu_candidates(indptr, indices, k, n):
    """Yield every connected k-subset (k >= 2) once, in ESU order."""
    flat, bounds = indices.tolist(), indptr.tolist()
    neighbors = [flat[bounds[v]:bounds[v + 1]] for v in range(n)]
    for v in range(n):
        # marked = the subset and its neighbourhood; ext holds only marked vertices
        stack = [((v,), [u for u in neighbors[v] if u > v], {v, *neighbors[v]})]
        while stack:
            sub, ext, marked = stack.pop()
            if len(sub) + 1 == k:
                for w in ext:
                    yield sub + (w,)
                continue
            while ext:
                # the remaining ext excludes w for the later branches
                w = ext.pop()
                new = [u for u in neighbors[w] if u > v and u not in marked]
                stack.append((sub + (w,), ext + new, marked.union(neighbors[w])))


def _wedge_candidates(indptr, indices, n):
    """(M, 3) array: every connected 3-subset once, as a wedge (v, u, w).

    A connected triple is a center v with two neighbours u < w.  A path has
    one such center; a triangle has three, and only the one at its smallest
    vertex (v < u) is kept.
    """
    row = np.repeat(np.arange(n), np.diff(indptr))
    pos = np.arange(indices.size)
    # entry pos pairs with the ``later`` entries after it in its row: its
    # group of pairs starts at ``starts[pos]``, and the group's r-th pair
    # takes entry pos + 1 + r as ``second``
    later = indptr[1:][row] - 1 - pos
    starts = np.cumsum(later) - later
    first = np.repeat(pos, later)
    second = np.arange(first.size) + np.repeat(pos + 1 - starts, later)
    v, u, w = row[first], indices[first], indices[second]
    # the flat keys row * n + column are sorted, so one search finds edge
    # (u, w); the sentinel n * n lies past every query
    keys = np.append(row * n + indices, n * n)
    query = u * n + w
    adjacent = keys[np.searchsorted(keys, query)] == query
    keep = ~adjacent | (v < u)
    return np.stack([v[keep], u[keep], w[keep]], axis=1)


def accumulate_curves(points, norms, indptr, indices, t_grid, ann_lo, ann_hi,
                      atlas, shape):
    """(h, minus) per candidate: two (M, T) bool arrays, one row per
    connected k-subset whose farthest point has norm in [ann_lo, ann_hi)."""
    k = shape.k
    n = points.shape[0]
    if k == 2:
        # all edges directly from CSR (each pair appears twice, keep i<j)
        src = np.repeat(np.arange(n), np.diff(indptr))
        keep = src < indices
        subs = np.stack([src[keep], indices[keep]], axis=1)
    elif k == 3:
        subs = _wedge_candidates(indptr, indices, n)
    else:
        flat = itertools.chain.from_iterable(_esu_candidates(indptr, indices, k, n))
        subs = np.fromiter(flat, dtype=np.int64).reshape(-1, k)
    mx = norms[subs].max(axis=1)
    subs = subs[(mx >= ann_lo) & (mx < ann_hi)]
    return atlas.indicators(points[subs], t_grid, shape)


# ---------------------------------------------------------------------------
# cube occupancy for the core-coverage experiment
# ---------------------------------------------------------------------------

def occupied_cells(points: np.ndarray, g: float, base: np.ndarray, dims: np.ndarray):
    """Boolean occupancy over the integer box [base, base+dims) of grid-g cells.

    Cell ``floor(p / g) - base`` of each point is read as one C-order flat
    index, built axis by axis over one cache-sized chunk of rows at a time; a
    coordinate is inside iff, viewed unsigned, it is below its dimension
    (negatives wrap to huge values).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    bounds = list(zip(np.asarray(base).tolist(), np.asarray(dims).tolist()))
    occ = np.zeros(int(np.prod(dims)), dtype=bool)
    for lo in range(0, points.shape[0], _CHUNK):
        chunk = points[lo:lo + _CHUNK]
        for j, (low, size) in enumerate(bounds):
            rel = np.floor(chunk[:, j] / g).astype(np.int64)
            rel -= low
            ok = rel.view(np.uint64) < size
            if j == 0:
                flat, inside = rel, ok
            else:
                flat *= size
                flat += rel
                inside &= ok
        occ[flat[inside]] = True
    return occ

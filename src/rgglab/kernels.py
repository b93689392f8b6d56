"""Hot numeric kernels: fixed-radius adjacency, connected k-subset
enumeration with per-subset curve accumulation, and cube-occupancy coverage.

There is one path per kernel, built on numpy and ``scipy.spatial``.  The
adjacency comes from a k-d tree pair search (``cKDTree.query_pairs``) and
keeps a pair iff ``sqrt(d2) <= radius``, the rule the curve classifier and
the exhaustive oracle use, so pairs at exactly the radius are never lost.
Accumulation is exact integer arithmetic and does not depend on enumeration
order.  ``python3 perfbench/run.py`` times these kernels in context.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# query slightly beyond the radius so the tree's own rounding cannot drop a
# pair at exactly ``radius``; the exact keep rule then decides
_QUERY_SLACK = 1e-9
# candidates classified per vectorized batch (bounds the (M, P, T) temporaries)
_CHUNK = 1 << 14


def _cell_coords(points: np.ndarray, side: float) -> np.ndarray:
    return np.floor(points / side).astype(np.int64)


# ---------------------------------------------------------------------------
# adjacency at a fixed radius (k-d tree pair search)
# ---------------------------------------------------------------------------

def build_adjacency(points: np.ndarray, radius: float):
    """CSR adjacency (indptr, indices) of the geometric graph at ``radius``.

    Pair {p, q} is an edge iff ``sqrt(|p - q|^2) <= radius``; each row lists
    its neighbours in ascending order.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0 or radius <= 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    pairs = cKDTree(points).query_pairs(radius * (1.0 + _QUERY_SLACK), output_type="ndarray")
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    pairs = pairs[np.sqrt((diff * diff).sum(axis=1)) <= radius].astype(np.int64, copy=False)
    p, q = pairs[:, 0], pairs[:, 1]
    # both directions of every edge as the flat key row * n + column: sorting
    # the keys lays the rows out in order, each with its neighbours ascending
    keys = np.sort(np.concatenate([p * n + q, q * n + p]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=n) + np.bincount(q, minlength=n), out=indptr[1:])
    return indptr, keys % n


# ---------------------------------------------------------------------------
# connected k-subset enumeration + curve accumulation
# ---------------------------------------------------------------------------
# ESU (exclusive-neighborhood) enumeration: every vertex set whose induced
# graph at radius t_max is connected is visited exactly once.  Each candidate
# is classified across the whole ascending t-grid at once from its pairwise
# distances.

def _esu_candidates_python(indptr, indices, k, n):
    """Yield every connected k-subset once, in ESU order."""
    neighbors = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    for v in range(n):
        marked = set(u for u in neighbors[v] if True)
        marked.add(v)
        ext0 = [u for u in neighbors[v] if u > v]
        stack = [((v,), ext0, set(marked))]
        while stack:
            sub, ext, mset = stack.pop()
            if len(sub) + 1 == k:
                for w in ext:
                    yield sub + (w,)
                continue
            while ext:
                w = ext.pop()
                new = [u for u in neighbors[w] if u > v and u not in mset]
                mset2 = mset | set(int(u) for u in neighbors[w]) | {w}
                stack.append((sub + (w,), ext + new, mset2))
                # ESU semantics: the remaining ext excludes w for later branches


def accumulate_curves(points, norms, indptr, indices, t_grid, k, ann_lo, ann_hi,
                      class_table, edge_table, shape_cid, shape_edges, pair_bits):
    """Counts (2, T): [matches of the shape, connected-with-more-edges] per t."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    t_grid = np.ascontiguousarray(t_grid, dtype=np.float64)
    n = points.shape[0]
    T = t_grid.shape[0]
    out = np.zeros((2, T), dtype=np.int64)
    if n < k:
        return out
    if k == 2:
        # all edges directly from CSR (each pair appears twice, keep i<j)
        src = np.repeat(np.arange(n), np.diff(indptr))
        keep = src < indices
        subs = np.stack([src[keep], indices[keep]], axis=1)
    else:
        cand = list(_esu_candidates_python(indptr, indices, k, n))
        subs = np.array(cand, dtype=np.int64).reshape(-1, k)
    iu = np.triu_indices(k, 1)
    bit_weights = np.int64(1) << pair_bits[iu]
    for i in range(0, len(subs), _CHUNK):
        batch = subs[i:i + _CHUNK]
        mx = norms[batch].max(axis=1)
        batch = batch[(mx >= ann_lo) & (mx < ann_hi)]
        if len(batch) == 0:
            continue
        coords = points[batch]                       # (M, k, d)
        diff = coords[:, :, None, :] - coords[:, None, :, :]
        dists = np.sqrt((diff * diff).sum(axis=3))[:, iu[0], iu[1]]  # (M, P)
        gidx = np.searchsorted(t_grid, dists, side="left")           # (M, P)
        present = gidx[:, :, None] <= np.arange(T)[None, None, :]    # (M, P, T)
        masks = (present * bit_weights[None, :, None]).sum(axis=1)   # (M, T)
        cid = class_table[masks]
        ecnt = edge_table[masks]
        out[0] += (cid == shape_cid).sum(axis=0)
        out[1] += ((cid >= 0) & (ecnt > shape_edges)).sum(axis=0)
    return out


# ---------------------------------------------------------------------------
# cube occupancy for the core-coverage experiment
# ---------------------------------------------------------------------------

def occupied_cells(points: np.ndarray, g: float, base: np.ndarray, dims: np.ndarray):
    """Boolean occupancy over the integer box [base, base+dims) of grid-g cells."""
    cells = _cell_coords(np.ascontiguousarray(points, dtype=np.float64), g)
    base = np.asarray(base, dtype=np.int64)
    dims = np.asarray(dims, dtype=np.int64)
    rel = cells - base
    inside = np.all((rel >= 0) & (rel < dims), axis=1)
    occ = np.zeros(int(np.prod(dims)), dtype=bool)
    if inside.any():
        flat = np.ravel_multi_index(rel[inside].T, dims)
        occ[flat] = True
    return occ

"""Subgraph counting curves over an ascending radius grid.

``subset_indicators`` is the engine's one pass: candidate k-subsets are
enumerated only among points whose geometric graph at the largest grid
radius (built by a k-d tree pair search) is connected, and ``Atlas.indicators``
classifies each candidate at every grid radius.  ``count_decomposed`` and
``count_subgraphs`` sum its rows.

``count_subgraphs_exhaustive`` is the independent oracle: it enumerates every
k-subset of the cloud, applies the filters directly, and classifies through
its own permutation-based isomorphism test.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .atlas import GraphShape, build_atlas, pair_bit_index


class InvalidRequestError(ValueError):
    """Raised for malformed counting requests (e.g. non-ascending grid)."""


class CloudFormatError(ValueError):
    """Raised when a binary cloud file's size does not match its header."""


class PointCloud:
    """One Poisson-process realization, possibly restricted to an exterior.

    ``norms`` (the Euclidean norm of each point) may be given; otherwise it
    is computed on first read, since the core-coverage path never reads it.
    """

    __slots__ = ("points", "_norms", "n", "seed", "restricted_to")

    def __init__(self, points: np.ndarray, norms: np.ndarray | None = None, *, n: float,
                 seed: object = None, restricted_to: float | None = None) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be (N, d)")
        if norms is not None:
            norms = np.ascontiguousarray(norms, dtype=np.float64)
            if norms.shape != (self.points.shape[0],):
                raise ValueError("norms must match points")
        self._norms = norms
        self.n = n
        self.seed = seed
        self.restricted_to = restricted_to

    @property
    def norms(self) -> np.ndarray:
        # threads may race on the first read; both compute the same array
        if self._norms is None:
            self._norms = np.linalg.norm(self.points, axis=1)
        return self._norms

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def make_cloud(points: np.ndarray, n: float = 0.0, seed=None,
               restricted_to: float | None = None) -> PointCloud:
    return PointCloud(points=np.atleast_2d(np.asarray(points, dtype=np.float64)), n=n,
                      seed=seed, restricted_to=restricted_to)


MODE_H = "h"
MODE_PLUS = "plus"
MODE_MINUS = "minus"


@dataclass(frozen=True)
class CountRequest:
    shape: GraphShape
    t_grid: np.ndarray
    R: float = 0.0
    # absolute [lo, hi) bounds on the norm of the farthest subset point; a
    # density's ``annulus_bounds`` reads an annulus in its family's units
    annulus: tuple[float, float] | None = None
    mode: str = MODE_H

    def __post_init__(self) -> None:
        grid = np.asarray(self.t_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidRequestError("t_grid must be a nonempty 1-d array")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise InvalidRequestError("t_grid must be strictly ascending")
        if not np.all(grid >= 0):
            raise InvalidRequestError("t_grid must be nonnegative")
        object.__setattr__(self, "t_grid", grid)
        if self.mode not in (MODE_H, MODE_PLUS, MODE_MINUS):
            raise InvalidRequestError(f"unknown mode {self.mode!r}")
        if self.R < 0:
            raise InvalidRequestError("exclusion radius must be >= 0")
        if self.annulus is not None:
            lo, hi = self.annulus
            if not 0 <= lo < hi:
                raise InvalidRequestError(
                    f"annulus [{lo!r}, {hi!r}) needs 0 <= lo < hi")


@dataclass
class CountingCurve:
    t_grid: np.ndarray
    counts: np.ndarray
    mode: str
    R: float
    seed: object = None
    shape: GraphShape | None = None

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")


def _annulus_bounds(req: CountRequest) -> tuple[float, float]:
    return (0.0, np.inf) if req.annulus is None else req.annulus


def subset_indicators(cloud: PointCloud,
                      req: CountRequest) -> tuple[np.ndarray, np.ndarray]:
    """(h, minus): (M, T) bool indicators, one row per candidate k-subset.

    The candidates are the subsets outside B(0, R) that are connected at the
    largest grid radius and whose farthest point passes the annulus gate;
    every other subset is 0 at every grid radius.
    """
    k = req.shape.k
    t_grid = req.t_grid
    keep = cloud.norms >= req.R if req.R > 0 else slice(None)
    pts = cloud.points[keep]
    if pts.shape[0] < k:
        empty = np.zeros((0, t_grid.size), dtype=bool)
        return empty, empty
    t_max = float(t_grid[-1])
    if t_max <= 0:
        raise InvalidRequestError("largest grid radius must be positive")
    atlas = build_atlas(k)
    indptr, indices = kernels.build_adjacency(pts, t_max)
    ann_lo, ann_hi = _annulus_bounds(req)
    return kernels.accumulate_curves(pts, cloud.norms[keep], indptr, indices, t_grid,
                                     ann_lo, ann_hi, atlas, req.shape)


def count_decomposed(cloud: PointCloud, req: CountRequest):
    """One pass producing the h, h+, h- curves (h = plus - minus pointwise)."""
    h_ind, minus_ind = subset_indicators(cloud, req)
    h_counts = h_ind.sum(axis=0, dtype=np.int64)
    minus_counts = minus_ind.sum(axis=0, dtype=np.int64)
    common = dict(t_grid=req.t_grid, R=req.R, seed=cloud.seed, shape=req.shape)
    h = CountingCurve(counts=h_counts, mode=MODE_H, **common)
    minus = CountingCurve(counts=minus_counts, mode=MODE_MINUS, **common)
    plus = CountingCurve(counts=h_counts + minus_counts, mode=MODE_PLUS, **common)
    return h, plus, minus


def count_subgraphs(cloud: PointCloud, req: CountRequest) -> CountingCurve:
    h, plus, minus = count_decomposed(cloud, req)
    return {MODE_H: h, MODE_PLUS: plus, MODE_MINUS: minus}[req.mode]


# ---------------------------------------------------------------------------
# exhaustive all-subsets oracle (independent of the engine)
# ---------------------------------------------------------------------------

class _PermutationClassifier:
    """Isomorphism test by explicit permutation search, memoized per mask.

    An isomorphism sends every vertex to a vertex of the same degree, so a
    mask whose sorted degree sequence differs from the shape's is rejected
    outright, and the search tries only the degree-preserving permutations.
    """

    def __init__(self, shape: GraphShape):
        self.k = shape.k
        self.shape_mask = shape.mask
        self.shape_edges = shape.edge_count
        self.pb = pair_bit_index(self.k).tolist()
        shape_deg = self._degrees(shape.edges)
        self.shape_degree_seq = sorted(shape_deg)
        self.shape_by_degree = self._by_degree(shape_deg)
        self._memo: dict[int, tuple[bool, bool]] = {}

    def _edges(self, mask: int) -> list[tuple[int, int]]:
        k = self.k
        return [(i, j) for i in range(k) for j in range(i + 1, k)
                if mask >> self.pb[i][j] & 1]

    def _degrees(self, edges) -> list[int]:
        deg = [0] * self.k
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    @staticmethod
    def _by_degree(deg: list[int]) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for v, dv in enumerate(deg):
            groups.setdefault(dv, []).append(v)
        return groups

    def _connected(self, mask: int) -> bool:
        adj = [[] for _ in range(self.k)]
        for i, j in self._edges(mask):
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.k

    def _isomorphic(self, mask: int) -> bool:
        edges = self._edges(mask)
        deg = self._degrees(edges)
        if sorted(deg) != self.shape_degree_seq:
            return False
        groups = self._by_degree(deg)
        choices = [itertools.permutations(self.shape_by_degree[dv]) for dv in groups]
        perm = [0] * self.k
        for targets in itertools.product(*choices):
            for group, image in zip(groups.values(), targets):
                for v, u in zip(group, image):
                    perm[v] = u
            m = 0
            for i, j in edges:
                m |= 1 << self.pb[perm[i]][perm[j]]
            if m == self.shape_mask:
                return True
        return False

    def flags(self, mask: int) -> tuple[bool, bool]:
        """(isomorphic to shape, connected with more edges)."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        edge_count = bin(mask).count("1")
        iso = edge_count == self.shape_edges and self._isomorphic(mask)
        more = edge_count > self.shape_edges and self._connected(mask)
        self._memo[mask] = (iso, more)
        return iso, more


def count_subgraphs_exhaustive(cloud: PointCloud, req: CountRequest) -> CountingCurve:
    """Brute force over every k-subset; filters and isomorphism done directly."""
    k = req.shape.k
    t_grid = req.t_grid
    T = t_grid.size
    n = len(cloud)
    out = np.zeros((2, T), dtype=np.int64)
    clf = _PermutationClassifier(req.shape)
    ann_lo, ann_hi = _annulus_bounds(req)
    pb = pair_bit_index(k)
    iu = np.triu_indices(k, 1)
    bits = (np.int64(1) << pb[iu]).astype(np.int64)
    if n >= k:
        subs = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        member_norms = cloud.norms[subs]
        keep = member_norms.min(axis=1) >= req.R
        mx = member_norms.max(axis=1)
        keep &= (mx >= ann_lo) & (mx < ann_hi)
        subs = subs[keep]
        if len(subs):
            coords = cloud.points[subs]
            diff = coords[:, :, None, :] - coords[:, None, :, :]
            dists = np.sqrt((diff * diff).sum(axis=3))[:, iu[0], iu[1]]
            for g in range(T):
                masks = ((dists <= t_grid[g]) * bits).sum(axis=1)
                uniq, inv = np.unique(masks, return_inverse=True)
                iso = np.empty(len(uniq), dtype=bool)
                more = np.empty(len(uniq), dtype=bool)
                for ui, m in enumerate(uniq):
                    iso[ui], more[ui] = clf.flags(int(m))
                out[0, g] = iso[inv].sum()
                out[1, g] = more[inv].sum()
    counts = {MODE_H: out[0], MODE_PLUS: out[0] + out[1], MODE_MINUS: out[1]}[req.mode]
    return CountingCurve(t_grid=t_grid, counts=counts, mode=req.mode, R=req.R,
                         seed=cloud.seed, shape=req.shape)


# ---------------------------------------------------------------------------
# binary cloud cache (fixed-width little-endian)
# ---------------------------------------------------------------------------
# layout: header <q q q> = (d, N, seed), then N*d float64 coordinates.

_HEADER = struct.Struct("<qqq")


def save_cloud(path, cloud: PointCloud) -> None:
    seed = cloud.seed if isinstance(cloud.seed, (int, np.integer)) else -1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(cloud.d, len(cloud), int(seed)))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())


def load_cloud(path, n: float = 0.0, restricted_to: float | None = None) -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CloudFormatError(f"{path}: {len(blob)} bytes, shorter than the "
                               f"{_HEADER.size}-byte header")
    d, count, seed = _HEADER.unpack_from(blob)
    expected = _HEADER.size + 8 * d * count
    if d < 1 or count < 0 or len(blob) != expected:
        raise CloudFormatError(f"{path}: {len(blob)} bytes, but its header "
                               f"(d={d}, N={count}) needs {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    pts = data.reshape(count, d).astype(np.float64)
    return make_cloud(pts, n=n, seed=None if seed < 0 else int(seed),
                      restricted_to=restricted_to)

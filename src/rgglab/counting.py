"""Subgraph counting curves over an ascending radius grid.

``count_subgraphs`` drives the engine: candidate k-subsets are enumerated
only among points whose geometric graph at the largest grid radius (built by
a k-d tree pair search) is connected, and each candidate is classified once
per grid point through the cached canonical-form table.

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
from .atlas import FULL_TABLE_MAX, GraphShape, build_atlas, pair_bit_index


class InvalidRequestError(ValueError):
    """Raised for malformed counting requests (e.g. non-ascending grid)."""


@dataclass
class PointCloud:
    """One Poisson-process realization, possibly restricted to an exterior."""

    points: np.ndarray
    norms: np.ndarray
    n: float
    seed: object = None
    restricted_to: float | None = None

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be (N, d)")
        self.norms = np.ascontiguousarray(self.norms, dtype=np.float64)
        if self.norms.shape != (self.points.shape[0],):
            raise ValueError("norms must match points")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def make_cloud(points: np.ndarray, n: float = 0.0, seed=None,
               restricted_to: float | None = None) -> PointCloud:
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    norms = np.linalg.norm(points, axis=1)
    return PointCloud(points=points, norms=norms, n=n, seed=seed,
                      restricted_to=restricted_to)


# annulus scaling conventions for the Max-norm gate
ANNULUS_RADIUS_MULTIPLE = "radius_multiple"  # heavy tail: Max in [K*R, L*R)
ANNULUS_SHIFTED_BY_A = "shifted_by_a"        # light tail: (Max-R)/a(R) in [K, L)
ANNULUS_ABSOLUTE = "absolute"                # explicit radii [K, L)


@dataclass(frozen=True)
class AnnulusSpec:
    """Restriction on the norm of the farthest subset point.

    The interpretation flag is explicit because the two tail families use
    different annuli (multiples of R versus a(R)-scaled shells); the engine
    must not infer it from the density.
    """

    K: float
    L: float
    scaling: str = ANNULUS_RADIUS_MULTIPLE

    def __post_init__(self) -> None:
        if self.scaling not in (ANNULUS_RADIUS_MULTIPLE, ANNULUS_SHIFTED_BY_A,
                                ANNULUS_ABSOLUTE):
            raise InvalidRequestError(f"unknown annulus scaling {self.scaling!r}")
        if not self.K < self.L:
            raise InvalidRequestError("annulus needs K < L")
        if self.scaling == ANNULUS_RADIUS_MULTIPLE and self.K < 1:
            raise InvalidRequestError("radius-multiple annulus needs 1 <= K")
        if self.scaling in (ANNULUS_SHIFTED_BY_A, ANNULUS_ABSOLUTE) and self.K < 0:
            raise InvalidRequestError("annulus needs 0 <= K")

    def bounds(self, R: float, a_of_R: float | None = None) -> tuple[float, float]:
        """Absolute [lo, hi) bounds on the max norm."""
        if self.scaling == ANNULUS_RADIUS_MULTIPLE:
            return self.K * R, self.L * R
        if self.scaling == ANNULUS_SHIFTED_BY_A:
            if a_of_R is None:
                raise InvalidRequestError("shifted annulus needs a(R)")
            return R + self.K * a_of_R, R + self.L * a_of_R
        return self.K, self.L


MODE_H = "h"
MODE_PLUS = "plus"
MODE_MINUS = "minus"


@dataclass(frozen=True)
class CountRequest:
    shape: GraphShape
    t_grid: np.ndarray
    R: float = 0.0
    annulus: AnnulusSpec | None = None
    mode: str = MODE_H
    a_of_R: float | None = None   # a(R_n), needed only for shifted annuli

    def __post_init__(self) -> None:
        grid = np.asarray(self.t_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidRequestError("t_grid must be a nonempty 1-d array")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise InvalidRequestError("t_grid must be strictly ascending")
        if np.any(grid < 0):
            raise InvalidRequestError("t_grid must be nonnegative")
        object.__setattr__(self, "t_grid", grid)
        if self.mode not in (MODE_H, MODE_PLUS, MODE_MINUS):
            raise InvalidRequestError(f"unknown mode {self.mode!r}")
        if self.R < 0:
            raise InvalidRequestError("exclusion radius must be >= 0")


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


def max_element(points: np.ndarray) -> tuple[int, float]:
    """Index and norm of the farthest point; ties go to the smallest index."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty configuration")
    norms = np.linalg.norm(pts, axis=1)
    idx = int(np.argmax(norms))   # argmax returns the first maximum
    return idx, float(norms[idx])


def _annulus_bounds(req: CountRequest) -> tuple[float, float]:
    if req.annulus is None:
        return 0.0, np.inf
    return req.annulus.bounds(req.R, req.a_of_R)


def _raw_curves(cloud: PointCloud, req: CountRequest) -> np.ndarray:
    """(2, T) counts: [shape matches, connected with more edges]."""
    k = req.shape.k
    t_grid = req.t_grid
    keep = cloud.norms >= req.R if req.R > 0 else slice(None)
    pts = cloud.points[keep]
    norms = cloud.norms[keep]
    T = t_grid.size
    if pts.shape[0] < k:
        return np.zeros((2, T), dtype=np.int64)
    t_max = float(t_grid[-1])
    if t_max <= 0:
        raise InvalidRequestError("largest grid radius must be positive")
    atlas = build_atlas(k)
    indptr, indices = kernels.build_adjacency(pts, t_max)
    ann_lo, ann_hi = _annulus_bounds(req)
    cid = atlas.shape_index(req.shape)
    if k <= FULL_TABLE_MAX:
        return kernels.accumulate_curves(
            pts, norms, indptr, indices, t_grid, k, ann_lo, ann_hi,
            atlas.class_table(), atlas.edge_count_table(), cid,
            req.shape.edge_count, pair_bit_index(k),
        )
    # k = 7: lazy per-mask classification, python enumeration
    out = np.zeros((2, T), dtype=np.int64)
    pb = pair_bit_index(k)
    iu = np.triu_indices(k, 1)
    bits = pb[iu]
    for sub in kernels._esu_candidates_python(indptr, indices, k, pts.shape[0]):
        members = np.fromiter(sub, dtype=np.int64, count=k)
        mx = norms[members].max()
        if not (ann_lo <= mx < ann_hi):
            continue
        coords = pts[members]
        diff = coords[:, None, :] - coords[None, :, :]
        dists = np.sqrt((diff * diff).sum(axis=2))[iu]
        gidx = np.searchsorted(t_grid, dists, side="left")
        for g in range(T):
            mask = int(((gidx <= g).astype(np.int64) << bits).sum())
            idx = atlas.class_index_of_mask(mask)
            if idx == cid:
                out[0, g] += 1
            if idx >= 0 and int(bin(mask).count("1")) > req.shape.edge_count:
                out[1, g] += 1
    return out


def count_decomposed(cloud: PointCloud, req: CountRequest):
    """One pass producing the h, h+, h- curves (h = plus - minus pointwise)."""
    raw = _raw_curves(cloud, req)
    common = dict(t_grid=req.t_grid, R=req.R, seed=cloud.seed, shape=req.shape)
    h = CountingCurve(counts=raw[0], mode=MODE_H, **common)
    minus = CountingCurve(counts=raw[1], mode=MODE_MINUS, **common)
    plus = CountingCurve(counts=raw[0] + raw[1], mode=MODE_PLUS, **common)
    return h, plus, minus


def count_subgraphs(cloud: PointCloud, req: CountRequest) -> CountingCurve:
    h, plus, minus = count_decomposed(cloud, req)
    return {MODE_H: h, MODE_PLUS: plus, MODE_MINUS: minus}[req.mode]


# ---------------------------------------------------------------------------
# exhaustive all-subsets oracle (independent of the engine)
# ---------------------------------------------------------------------------

class _PermutationClassifier:
    """Isomorphism test by explicit permutation search, memoized per mask."""

    def __init__(self, shape: GraphShape):
        self.k = shape.k
        self.shape_mask = shape.mask
        self.shape_edges = shape.edge_count
        self.pb = pair_bit_index(self.k)
        self.perms = list(itertools.permutations(range(self.k)))
        self._memo: dict[int, tuple[bool, bool]] = {}

    def _connected(self, mask: int) -> bool:
        k = self.k
        adj = [[] for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if mask >> self.pb[i, j] & 1:
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
        return len(seen) == k

    def flags(self, mask: int) -> tuple[bool, bool]:
        """(isomorphic to shape, connected with more edges)."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        iso = False
        if bin(mask).count("1") == self.shape_edges:
            for perm in self.perms:
                m = 0
                for i in range(self.k):
                    for j in range(i + 1, self.k):
                        if mask >> self.pb[i, j] & 1:
                            m |= 1 << self.pb[perm[i], perm[j]]
                if m == self.shape_mask:
                    iso = True
                    break
        more = bin(mask).count("1") > self.shape_edges and self._connected(mask)
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
# layered census over an annulus ladder
# ---------------------------------------------------------------------------

def annuli_census(cloud: PointCloud, shapes: dict[int, GraphShape],
                  ladder: np.ndarray, t: float) -> dict:
    """Counts of each shape with its farthest point in each ladder annulus.

    ``ladder`` is an ascending list of radii; annulus i spans
    [ladder[i], ladder[i+1]) with the last annulus open to infinity.  Subsets
    are restricted to lie entirely outside the lowest ladder radius, so the
    rows partition the unrestricted exterior counts by Max-norm shell.
    """
    ladder = np.asarray(ladder, dtype=float)
    if ladder.size == 0 or (ladder.size > 1 and not np.all(np.diff(ladder) > 0)):
        raise InvalidRequestError("ladder must be nonempty ascending")
    uppers = np.append(ladder[1:], np.inf)
    base = float(ladder[0])
    table = np.zeros((len(shapes), ladder.size), dtype=np.int64)
    order = sorted(shapes)
    for row, kk in enumerate(order):
        shape = shapes[kk]
        for col, (lo, hi) in enumerate(zip(ladder, uppers)):
            req = CountRequest(
                shape=shape, t_grid=np.array([t]), R=base,
                annulus=AnnulusSpec(K=float(lo), L=float(hi), scaling=ANNULUS_ABSOLUTE),
            )
            table[row, col] = count_subgraphs(cloud, req).counts[0]
    return {"shapes": [shapes[kk] for kk in order], "ks": order,
            "ladder": ladder, "t": t, "counts": table}


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
        d, count, seed = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(8 * d * count), dtype="<f8")
    pts = data.reshape(count, d).astype(np.float64)
    return make_cloud(pts, n=n, seed=None if seed < 0 else int(seed),
                      restricted_to=restricted_to)

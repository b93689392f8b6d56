"""Connected-graph atlas and geometric-graph indicators.

A k-point configuration induces a geometric graph (edges between points at
Euclidean distance <= t).  Graphs on k labeled vertices are encoded as edge
bitmasks; isomorphism classes are identified by the canonical form
min over all k! vertex permutations of the permuted bitmask.  The atlas
enumerates every connected isomorphism class on k vertices and provides
lookup tables so that classifying a bitmask is an array read.
``Atlas.indicators`` classifies batches of k-point configurations over a
radius grid; the counting engine, the limit oracle and the Palm check all
read it, and the scalar ``h_t`` family below is the reference it is tested
against.

Bit layout: pair (i, j), i < j, occupies bit ``i*k - i*(i+1)//2 + (j-i-1)``,
i.e. pairs in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_ORDER = 7          # largest supported vertex count
FULL_TABLE_MAX = 6     # largest k with full per-mask lookup tables
# configurations classified per vectorized batch (bounds the (m, T) temporaries)
_INDICATOR_CHUNK = 1 << 14


class UnsupportedOrderError(ValueError):
    """Raised when a vertex count outside 2..MAX_ORDER is requested."""


def pair_count(k: int) -> int:
    return k * (k - 1) // 2


@lru_cache(maxsize=None)
def pair_bit_index(k: int) -> np.ndarray:
    """(k, k) symmetric matrix mapping a vertex pair to its bit position."""
    m = np.zeros((k, k), dtype=np.int64)
    b = 0
    for i in range(k):
        for j in range(i + 1, k):
            m[i, j] = m[j, i] = b
            b += 1
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _perm_powers(k: int) -> np.ndarray:
    """(k!, P) array: 2**target_bit of each source bit under each permutation."""
    pb = pair_bit_index(k)
    perms = list(itertools.permutations(range(k)))
    out = np.empty((len(perms), pair_count(k)), dtype=np.int64)
    for pi, perm in enumerate(perms):
        for i in range(k):
            for j in range(i + 1, k):
                out[pi, pb[i, j]] = 1 << pb[perm[i], perm[j]]
    out.flags.writeable = False
    return out


def canonical_masks(masks: np.ndarray, k: int) -> np.ndarray:
    """Canonical form (min permuted bitmask) for an array of masks."""
    masks = np.asarray(masks, dtype=np.int64)
    P = pair_count(k)
    bits = (masks[:, None] >> np.arange(P)) & 1
    powers = _perm_powers(k)
    best = np.full(masks.shape, np.iinfo(np.int64).max, dtype=np.int64)
    for row in powers:
        np.minimum(best, bits @ row, out=best)
    return best


def canonical_mask(mask: int, k: int) -> int:
    return int(canonical_masks(np.array([mask]), k)[0])


def is_connected_mask(mask: int, k: int) -> bool:
    """True iff the k-vertex graph encoded by ``mask`` is connected."""
    pb = pair_bit_index(k)
    nbr = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if mask >> pb[i, j] & 1:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        v = frontier
        while v:
            low = v & -v
            nxt |= nbr[low.bit_length() - 1]
            v ^= low
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << k) - 1


def _edges_of_mask(mask: int, k: int) -> tuple[tuple[int, int], ...]:
    pb = pair_bit_index(k)
    return tuple(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if mask >> pb[i, j] & 1
    )


@dataclass(frozen=True)
class GraphShape:
    """One isomorphism class of connected graphs on k vertices.

    ``edges`` lists the canonical representative; ``canonical_form`` equals the
    class key (two shapes are isomorphic iff their canonical forms agree).
    """

    k: int
    edges: tuple[tuple[int, int], ...]
    edge_count: int
    canonical_form: int

    def __post_init__(self) -> None:
        if self.edge_count != len(self.edges):
            raise ValueError("edge_count must equal |edges|")

    @property
    def mask(self) -> int:
        pb = pair_bit_index(self.k)
        m = 0
        for i, j in self.edges:
            m |= 1 << pb[i, j]
        return m

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphShape(k={self.k}, j={self.edge_count}, canon={self.canonical_form})"


@dataclass
class Atlas:
    """All connected isomorphism classes on k vertices, with lookup tables."""

    k: int
    classes: tuple[GraphShape, ...]
    by_edge_count: dict[int, tuple[GraphShape, ...]] = field(repr=False)
    _canon_to_index: dict[int, int] = field(repr=False)
    _class_table: np.ndarray | None = field(repr=False, default=None)
    _lazy_cache: dict[int, int] = field(repr=False, default_factory=dict)

    # -- classification ----------------------------------------------------
    def class_index_of_mask(self, mask: int) -> int:
        """Index into ``classes`` for a connected mask, -1 if disconnected."""
        return int(self._class_indices(np.array([mask], dtype=np.int64))[0])

    def classify_mask(self, mask: int) -> GraphShape | None:
        idx = self.class_index_of_mask(mask)
        return None if idx < 0 else self.classes[idx]

    def shape_index(self, shape: GraphShape) -> int:
        return self._canon_to_index[shape.canonical_form]

    def _class_indices(self, masks: np.ndarray) -> np.ndarray:
        """Elementwise ``class_index_of_mask`` over an int64 mask array."""
        if self._class_table is not None:
            return self._class_table[masks]
        # no full table: canonicalize the masks not met before in one batch.
        # Threads share the memo; entries are only added and depend on the
        # mask alone, so a race at worst computes one twice.
        uniq, inv = np.unique(masks, return_inverse=True)
        uniq = uniq.tolist()
        new = [m for m in uniq if m not in self._lazy_cache]
        if new:
            canon = canonical_masks(np.array(new, dtype=np.int64), self.k).tolist()
            for m, c in zip(new, canon):
                connected = is_connected_mask(m, self.k)
                self._lazy_cache[m] = self._canon_to_index[c] if connected else -1
        idx = np.array([self._lazy_cache[m] for m in uniq], dtype=np.int16)
        return idx[inv].reshape(masks.shape)

    def indicators(self, configs: np.ndarray, t_grid: np.ndarray,
                   shape: GraphShape) -> tuple[np.ndarray, np.ndarray]:
        """(h, minus): two (M, T) bool arrays over k-point configurations.

        ``h[m, g]`` is 1 iff the geometric graph of ``configs[m]`` at radius
        ``t_grid[g]`` (closed ball: an edge iff ``sqrt(d2) <= t``) is
        isomorphic to ``shape``; ``minus[m, g]`` iff it is connected with more
        edges than ``shape``.
        """
        configs = np.asarray(configs, dtype=np.float64)
        t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
        if shape.k != self.k or configs.ndim != 3 or configs.shape[1] != self.k:
            raise ValueError(f"need (M, {self.k}, d) configurations of a k={self.k} shape")
        M, T = configs.shape[0], t_grid.size
        iu = np.triu_indices(self.k, 1)
        weights = (np.int64(1) << pair_bit_index(self.k)[iu]).tolist()
        cid = self.shape_index(shape)
        # classes are sorted by edge count, so "connected with more edges than
        # the shape" is every class index from the first denser class on
        first_denser = sum(c.edge_count <= shape.edge_count for c in self.classes)
        h = np.empty((M, T), dtype=bool)
        minus = np.empty((M, T), dtype=bool)
        for lo in range(0, M, _INDICATOR_CHUNK):
            batch = configs[lo:lo + _INDICATOR_CHUNK]
            diff = batch[:, iu[0]] - batch[:, iu[1]]
            dists = np.sqrt((diff * diff).sum(axis=2))                    # (m, P)
            masks = np.zeros((len(batch), T), dtype=np.int64)
            for p, w in enumerate(weights):
                masks += (dists[:, p, None] <= t_grid) * w
            cls = self._class_indices(masks)
            h[lo:lo + len(batch)] = cls == cid
            minus[lo:lo + len(batch)] = cls >= first_denser
        return h, minus

    # -- export -------------------------------------------------------------
    def export_text(self) -> str:
        """One class per line: k, edge list, canonical key."""
        lines = []
        for shape in self.classes:
            edges = ";".join(f"{i}-{j}" for i, j in shape.edges)
            lines.append(f"{shape.k},{edges},{shape.canonical_form}")
        return "\n".join(lines) + "\n"


def _connected_flags(k: int) -> np.ndarray:
    """(2^P,) bool: ``is_connected_mask`` of every mask at once.  The set
    reached from vertex 0 grows by its neighbours in k - 1 rounds, enough
    for any path on k vertices."""
    pb = pair_bit_index(k)
    masks = np.arange(1 << pair_count(k), dtype=np.int64)
    nbr = np.zeros((k, masks.size), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            bit = (masks >> pb[i, j]) & 1
            nbr[i] |= bit << j
            nbr[j] |= bit << i
    reached = np.ones(masks.size, dtype=np.int64)
    for _ in range(k - 1):
        for i in range(k):
            reached |= ((reached >> i) & 1) * nbr[i]
    return reached == (1 << k) - 1


def _build_full(k: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Scan every mask: the classes' canonical masks, the (2^P,) connected
    flags, and the canonical form of each connected mask in mask order."""
    connected = _connected_flags(k)
    canon = canonical_masks(np.nonzero(connected)[0].astype(np.int64), k)
    return sorted(set(canon.tolist())), connected, canon


def _build_by_augmentation(k: int) -> list[int]:
    """Canonical masks for order k from the atlas one order below.

    Every connected graph on k vertices has a non-cut vertex; removing it
    leaves a connected graph on k-1 vertices, so attaching a new vertex to
    every nonempty subset of every (k-1)-class reaches every k-class.
    """
    prev = build_atlas(k - 1)
    pb = pair_bit_index(k)
    candidates = []
    for shape in prev.classes:
        base = 0
        for i, j in shape.edges:
            base |= 1 << pb[i, j]
        for subset in range(1, 1 << (k - 1)):
            m = base
            for i in range(k - 1):
                if subset >> i & 1:
                    m |= 1 << pb[i, k - 1]
            candidates.append(m)
    canon = canonical_masks(np.array(candidates, dtype=np.int64), k)
    return sorted(set(int(c) for c in canon))


@lru_cache(maxsize=None)
def build_atlas(k: int) -> Atlas:
    """Enumerate all connected isomorphism classes on k vertices (2 <= k <= 7)."""
    if not isinstance(k, (int, np.integer)) or not 2 <= k <= MAX_ORDER:
        raise UnsupportedOrderError(f"vertex count must be an integer in 2..{MAX_ORDER}, got {k!r}")
    k = int(k)
    if k <= FULL_TABLE_MAX:
        canon_list, connected, canon_connected = _build_full(k)
    else:
        canon_list = _build_by_augmentation(k)

    classes = []
    for canon in canon_list:
        edges = _edges_of_mask(canon, k)
        classes.append(GraphShape(k=k, edges=edges, edge_count=len(edges), canonical_form=canon))
    classes.sort(key=lambda s: (s.edge_count, s.canonical_form))
    canon_to_index = {s.canonical_form: i for i, s in enumerate(classes)}

    by_edge_count: dict[int, tuple[GraphShape, ...]] = {}
    for ell in range(k - 1, pair_count(k) + 1):
        group = tuple(s for s in classes if s.edge_count == ell)
        if group:
            by_edge_count[ell] = group

    class_table = None
    if k <= FULL_TABLE_MAX:
        class_table = np.full(connected.size, -1, dtype=np.int16)
        lut = np.full(canon_list[-1] + 1, -1, dtype=np.int16)
        for canon, idx in canon_to_index.items():
            lut[canon] = idx
        class_table[connected] = lut[canon_connected]
        class_table.flags.writeable = False

    return Atlas(
        k=k,
        classes=tuple(classes),
        by_edge_count=by_edge_count,
        _canon_to_index=canon_to_index,
        _class_table=class_table,
    )


def shape_from_edges(k: int, edges) -> GraphShape:
    """The isomorphism class of an explicit edge list (must be connected)."""
    atlas = build_atlas(k)
    pb = pair_bit_index(k)
    mask = 0
    for i, j in edges:
        if i == j or not (0 <= i < k and 0 <= j < k):
            raise ValueError(f"bad edge ({i},{j}) for k={k}")
        mask |= 1 << pb[i, j]
    shape = atlas.classify_mask(mask)
    if shape is None:
        raise ValueError("edge list describes a disconnected graph")
    return shape


def named_shape(k: int, name: str) -> GraphShape:
    """Common shapes by name: complete, path, cycle, star."""
    name = name.lower()
    if name in ("complete", "clique", "edge", "triangle"):
        if name == "edge" and k != 2:
            raise ValueError("shape 'edge' needs k = 2")
        if name == "triangle" and k != 3:
            raise ValueError("shape 'triangle' needs k = 3")
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    elif name == "path":
        edges = [(i, i + 1) for i in range(k - 1)]
    elif name == "cycle":
        if k < 3:
            raise ValueError("cycle needs k >= 3")
        edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    elif name == "star":
        edges = [(0, i) for i in range(1, k)]
    else:
        raise ValueError(f"unknown shape name {name!r}")
    return shape_from_edges(k, edges)


# ---------------------------------------------------------------------------
# Indicator family over point configurations
# ---------------------------------------------------------------------------

def config_mask(points: np.ndarray, t: float) -> int:
    """Edge bitmask of the geometric graph of ``points`` at radius t (closed)."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    pb = pair_bit_index(k)
    mask = 0
    for i in range(k):
        for j in range(i + 1, k):
            if np.linalg.norm(pts[i] - pts[j]) <= t:
                mask |= 1 << pb[i, j]
    return mask


def geometric_graph(points: np.ndarray, t: float) -> list[tuple[int, int]]:
    """Edge list {i, j} with ||x_i - x_j|| <= t, 0-indexed, i < j."""
    k = np.asarray(points).shape[0]
    return list(_edges_of_mask(config_mask(points, t), k))


def h_t(points: np.ndarray, t: float, shape: GraphShape) -> int:
    """1 iff the geometric graph at radius t is isomorphic to ``shape``."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != shape.k:
        raise ValueError(f"config has {pts.shape[0]} points, shape.k = {shape.k}")
    atlas = build_atlas(shape.k)
    return int(atlas.class_index_of_mask(config_mask(pts, t)) == atlas.shape_index(shape))


def h_minus(points: np.ndarray, t: float, shape: GraphShape) -> int:
    """1 iff the geometric graph is connected with more than shape.edge_count edges."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] != shape.k:
        raise ValueError(f"config has {pts.shape[0]} points, shape.k = {shape.k}")
    atlas = build_atlas(shape.k)
    cls = atlas.classify_mask(config_mask(pts, t))
    return int(cls is not None and cls.edge_count > shape.edge_count)


def h_plus(points: np.ndarray, t: float, shape: GraphShape) -> int:
    """1 iff isomorphic to ``shape`` or connected with more edges; h = h_plus - h_minus."""
    return h_t(points, t, shape) + h_minus(points, t, shape)

"""Connected-graph atlas and geometric-graph indicators.

A k-point configuration induces a geometric graph (edges between points at
Euclidean distance <= t).  Graphs on k labeled vertices are encoded as edge
bitmasks; isomorphism classes are identified by the canonical form
min over all k! vertex permutations of the permuted bitmask.  The atlas
enumerates every connected isomorphism class on k vertices by augmentation
from order k - 1, then fills one (2^P,) lookup table by orbit: each class's
index is written at all k! relabelings of its canonical mask, and every
disconnected mask reads -1.  Classifying a bitmask is an array read for
every k.
``Atlas.indicators`` classifies batches of k-point configurations over a
radius grid; the counting engine, the limit oracle and the Palm check all
read it.

Bit layout: pair (i, j), i < j, occupies bit ``i*k - i*(i+1)//2 + (j-i-1)``,
i.e. pairs in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._numerics import row_norms

MAX_ORDER = 7          # largest supported vertex count
# configurations classified per vectorized batch (bounds the (m, T) temporaries)
_INDICATOR_CHUNK = 1 << 14
# entries of one float64 (masks, k!) product in ``_relabelings``
_CANON_PRODUCT_ENTRIES = 1 << 19


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
    """(P, k!) float64 array: 2**target_bit of each source bit under each permutation."""
    pb = pair_bit_index(k)
    perms = list(itertools.permutations(range(k)))
    out = np.empty((pair_count(k), len(perms)), dtype=np.float64)
    for pi, perm in enumerate(perms):
        for i in range(k):
            for j in range(i + 1, k):
                out[pb[i, j], pi] = 1 << pb[perm[i], perm[j]]
    out.flags.writeable = False
    return out


def _relabelings(masks: np.ndarray, k: int):
    """Yield (lo, (chunk, k!) float64) pairs: row r holds every relabeling
    of ``masks[lo + r]``.

    Each relabeled mask is one entry of the float64 product of the bit
    matrix with ``_perm_powers``: a sum of distinct powers of two below
    2**21, so exact.  Chunks keep the product near 4 MB.
    """
    powers = _perm_powers(k)
    shifts = np.arange(powers.shape[0])
    chunk = max(1, _CANON_PRODUCT_ENTRIES // powers.shape[1])
    for lo in range(0, masks.size, chunk):
        bits = ((masks[lo:lo + chunk, None] >> shifts) & 1).astype(np.float64)
        yield lo, bits @ powers


def canonical_masks(masks: np.ndarray, k: int) -> np.ndarray:
    """Canonical form (min relabeled bitmask) for a 1-d array of masks."""
    masks = np.asarray(masks, dtype=np.int64)
    best = np.empty(masks.shape, dtype=np.int64)
    for lo, relabeled in _relabelings(masks, k):
        best[lo:lo + len(relabeled)] = relabeled.min(axis=1)
    return best


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
    canonical_form: int

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def mask(self) -> int:
        pb = pair_bit_index(self.k)
        m = 0
        for i, j in self.edges:
            m |= 1 << pb[i, j]
        return m

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphShape(k={self.k}, j={self.edge_count}, canon={self.canonical_form})"


@dataclass(frozen=True)
class Atlas:
    """All connected isomorphism classes on k vertices, with a lookup table."""

    k: int
    classes: tuple[GraphShape, ...]
    _canon_to_index: dict[int, int] = field(repr=False)
    _class_table: np.ndarray = field(repr=False)

    # -- classification ----------------------------------------------------
    def classify_mask(self, mask: int) -> GraphShape | None:
        """The class of a connected mask, None if it is disconnected."""
        idx = int(self._class_table[mask])
        return None if idx < 0 else self.classes[idx]

    def shape_index(self, shape: GraphShape) -> int:
        return self._canon_to_index[shape.canonical_form]

    def _class_indices(self, masks: np.ndarray) -> np.ndarray:
        """Index into ``classes`` of each mask, -1 where it is disconnected."""
        return np.take(self._class_table, masks)

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
        M, d, T = configs.shape[0], configs.shape[2], t_grid.size
        # pairs in lexicographic order, so pair p sets bit p
        pairs = list(zip(*np.triu_indices(self.k, 1)))
        mask_dtype = np.int16 if len(pairs) < 16 else np.int32    # masks < 2**P
        cid = self.shape_index(shape)
        # classes are sorted by edge count, so "connected with more edges than
        # the shape" is every class index from the first denser class on
        first_denser = sum(c.edge_count <= shape.edge_count for c in self.classes)
        h = np.empty((M, T), dtype=bool)
        minus = np.empty((M, T), dtype=bool)
        for lo in range(0, M, _INDICATOR_CHUNK):
            batch = configs[lo:lo + _INDICATOR_CHUNK]
            m = len(batch)
            masks = np.zeros((m, T), dtype=mask_dtype)
            within = np.empty(m, dtype=bool)
            bit = np.empty(m, dtype=mask_dtype)
            for p, (i, j) in enumerate(pairs):
                dist = row_norms(lambda c: batch[:, i, c] - batch[:, j, c], d)
                weight = mask_dtype(1 << p)
                for g, t in enumerate(t_grid):
                    np.less_equal(dist, t, out=within)
                    np.multiply(within, weight, out=bit)
                    masks[:, g] += bit
            cls = self._class_indices(masks)
            h[lo:lo + m] = cls == cid
            minus[lo:lo + m] = cls >= first_denser
        return h, minus

    # -- export -------------------------------------------------------------
    def export_text(self) -> str:
        """One class per line: k, edge list, canonical key."""
        lines = []
        for shape in self.classes:
            edges = ";".join(f"{i}-{j}" for i, j in shape.edges)
            lines.append(f"{shape.k},{edges},{shape.canonical_form}")
        return "\n".join(lines) + "\n"


def _class_masks(k: int) -> set[int]:
    """Canonical masks of the connected classes on k vertices.

    Every connected graph on k vertices has a non-cut vertex; removing it
    leaves a connected graph on k-1 vertices, so attaching a new vertex to
    every nonempty subset of every (k-1)-class reaches every k-class.  The
    one class on 2 vertices is the edge, mask 1.
    """
    if k == 2:
        return {1}
    pb = pair_bit_index(k)
    subsets = np.arange(1, 1 << (k - 1), dtype=np.int64)
    attach = sum(((subsets >> i) & 1) << pb[i, k - 1] for i in range(k - 1))
    bases = np.array([sum(1 << int(pb[i, j]) for i, j in shape.edges)
                      for shape in build_atlas(k - 1).classes], dtype=np.int64)
    canon = canonical_masks((bases[:, None] | attach).ravel(), k)
    return set(canon.tolist())


def _orbit_table(canon: np.ndarray, k: int) -> np.ndarray:
    """(2^P,) int16: i at every relabeling of ``canon[i]``, -1 elsewhere."""
    table = np.full(1 << pair_count(k), -1, dtype=np.int16)
    for lo, relabeled in _relabelings(canon, k):
        index = np.arange(lo, lo + len(relabeled), dtype=np.int16)
        table[relabeled.astype(np.int64)] = index[:, None]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def build_atlas(k: int) -> Atlas:
    """Enumerate all connected isomorphism classes on k vertices (2 <= k <= 7)."""
    if not isinstance(k, (int, np.integer)) or not 2 <= k <= MAX_ORDER:
        raise UnsupportedOrderError(f"vertex count must be an integer in 2..{MAX_ORDER}, got {k!r}")
    k = int(k)
    classes = []
    for canon in _class_masks(k):
        edges = _edges_of_mask(canon, k)
        classes.append(GraphShape(k=k, edges=edges, canonical_form=canon))
    classes.sort(key=lambda s: (s.edge_count, s.canonical_form))
    return Atlas(
        k=k,
        classes=tuple(classes),
        _canon_to_index={s.canonical_form: i for i, s in enumerate(classes)},
        _class_table=_orbit_table(np.array([s.canonical_form for s in classes]), k),
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

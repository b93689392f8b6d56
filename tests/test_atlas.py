"""Atlas enumeration, canonical forms, and the indicator family."""

import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import networkx as nx
import numpy as np
import pytest

from rgglab.atlas import (
    UnsupportedOrderError,
    _connected_flags,
    build_atlas,
    canonical_mask,
    config_mask,
    geometric_graph,
    h_minus,
    h_plus,
    h_t,
    is_connected_mask,
    named_shape,
    pair_bit_index,
    shape_from_edges,
)

E1 = np.array([1.0, 0.0])


def _nx_graph(mask: int, k: int) -> nx.Graph:
    pb = pair_bit_index(k)
    g = nx.Graph()
    g.add_nodes_from(range(k))
    for i in range(k):
        for j in range(i + 1, k):
            if mask >> pb[i, j] & 1:
                g.add_edge(i, j)
    return g


def _brute_force_class_count(k: int) -> int:
    """Independent enumeration: all labeled graphs, own connectivity check,
    networkx isomorphism for deduplication."""
    reps: list[nx.Graph] = []
    for mask in range(1 << (k * (k - 1) // 2)):
        g = _nx_graph(mask, k)
        if not nx.is_connected(g):
            continue
        if not any(nx.is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


@pytest.mark.parametrize("k,expected", [(2, 1), (3, 2), (4, 6)])
def test_atlas_counts_small_vs_bruteforce(k, expected):
    assert len(build_atlas(k).classes) == expected
    assert _brute_force_class_count(k) == expected


def test_atlas_counts_k5_k6():
    # frozen from the same brute-force oracle (run once; k=6 dedup is slow,
    # so the k=5 case keeps the oracle alive in-suite)
    assert _brute_force_class_count(5) == 21
    assert len(build_atlas(5).classes) == 21
    assert len(build_atlas(6).classes) == 112


@pytest.mark.slow
def test_atlas_count_k7():
    assert len(build_atlas(7).classes) == 853


def test_atlas_order_bounds():
    with pytest.raises(UnsupportedOrderError):
        build_atlas(1)
    with pytest.raises(UnsupportedOrderError):
        build_atlas(8)


def test_atlas_structure():
    atlas = build_atlas(4)
    # by_edge_count partitions the classes
    total = sum(len(v) for v in atlas.by_edge_count.values())
    assert total == len(atlas.classes)
    for ell, group in atlas.by_edge_count.items():
        assert all(s.edge_count == ell for s in group)
    # minimum j = k-1 (tree), maximum j = k(k-1)/2 (complete)
    assert min(atlas.by_edge_count) == 3
    assert max(atlas.by_edge_count) == 6
    # canonical forms unique
    canons = [s.canonical_form for s in atlas.classes]
    assert len(set(canons)) == len(canons)


def test_canonical_iff_isomorphic(rng):
    k = 5
    n_masks = 1 << (k * (k - 1) // 2)
    masks = rng.integers(0, n_masks, size=120)
    for m1, m2 in zip(masks[::2], masks[1::2]):
        same = canonical_mask(int(m1), k) == canonical_mask(int(m2), k)
        iso = nx.is_isomorphic(_nx_graph(int(m1), k), _nx_graph(int(m2), k))
        assert same == iso


def test_classify_matches_networkx(rng):
    atlas = build_atlas(4)
    for _ in range(60):
        mask = int(rng.integers(0, 1 << 6))
        cls = atlas.classify_mask(mask)
        g = _nx_graph(mask, 4)
        if not nx.is_connected(g):
            assert cls is None
        else:
            assert cls is not None
            assert nx.is_isomorphic(g, _nx_graph(cls.mask, 4))


def test_geometric_graph_examples():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert geometric_graph(pts, 1.0) == [(0, 1), (1, 2)]
    assert geometric_graph(pts, 0.0) == []
    eq = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    assert len(geometric_graph(eq, 1.0)) == 3


def test_h_examples(path3, triangle):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert h_t(pts, 1.0, path3) == 1
    assert h_t(pts, 1.0, triangle) == 0
    assert h_t(pts, 0.5, path3) == 0 and h_t(pts, 0.5, triangle) == 0


def test_h_plus_minus_examples(path3):
    eq = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    assert h_plus(eq, 1.0, path3) == 1
    assert h_minus(eq, 1.0, path3) == 1
    assert h_t(eq, 1.0, path3) == 0
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert h_plus(line, 1.0, path3) == 1
    assert h_minus(line, 1.0, path3) == 0


def test_decomposition_and_monotonicity(rng):
    atlas = build_atlas(4)
    for _ in range(50):
        pts = rng.normal(size=(4, 3)) * 1.5
        shape = atlas.classes[int(rng.integers(len(atlas.classes)))]
        s, t = sorted(rng.uniform(0.1, 3.0, size=2))
        for radius in (s, t):
            hp, hm, h = (h_plus(pts, radius, shape), h_minus(pts, radius, shape),
                         h_t(pts, radius, shape))
            assert h == hp - hm
            assert hm <= hp
        assert h_plus(pts, s, shape) <= h_plus(pts, t, shape)
        assert h_minus(pts, s, shape) <= h_minus(pts, t, shape)


def test_shift_rotation_scaling_invariance(rng, triangle, path3):
    for shape in (triangle, path3):
        for _ in range(25):
            pts = rng.normal(size=(3, 2))
            t = float(rng.uniform(0.2, 2.5))
            shift = rng.normal(size=2) * 10
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            base = h_t(pts, t, shape)
            assert h_t(pts + shift, t, shape) == base
            assert h_t(pts @ rot.T, t, shape) == base
            assert h_t(pts / t, 1.0, shape) == base


def test_support_bound(rng):
    # h_t(0, x_1, ..., x_{k-1}) = 0 whenever some ||x_i|| > k t
    atlas = build_atlas(4)
    for _ in range(40):
        t = float(rng.uniform(0.2, 1.5))
        pts = rng.normal(size=(4, 2)) * t
        pts[0] = 0.0
        far = int(rng.integers(1, 4))
        direction = rng.normal(size=2)
        pts[far] = direction / np.linalg.norm(direction) * (4 * t * 1.01)
        for shape in atlas.classes:
            assert h_t(pts, t, shape) == 0
            assert h_plus(pts, t, shape) == 0


def test_coincident_points_allowed(k2):
    pts = np.zeros((2, 2))
    assert h_t(pts, 0.0, k2) == 1   # distance 0 -> edge at every t >= 0


def test_shape_helpers():
    assert named_shape(4, "complete").edge_count == 6
    assert named_shape(4, "path").edge_count == 3
    assert named_shape(4, "cycle").edge_count == 4
    assert named_shape(4, "star").edge_count == 3
    with pytest.raises(ValueError):
        shape_from_edges(3, [(0, 1)])   # disconnected
    star = shape_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert star.canonical_form == named_shape(4, "star").canonical_form


def test_export_text():
    text = build_atlas(3).export_text()
    lines = text.strip().splitlines()
    assert len(lines) == 2
    k, edges, canon = lines[0].split(",")
    assert k == "3" and "-" in edges and canon.isdigit()


def test_connectivity_helper():
    pb = pair_bit_index(3)
    assert is_connected_mask((1 << pb[0, 1]) | (1 << pb[1, 2]), 3)
    assert not is_connected_mask(1 << pb[0, 1], 3)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_connected_flags_match_scalar_reference(k):
    flags = _connected_flags(k)
    assert flags.dtype == bool and flags.shape == (1 << (k * (k - 1) // 2),)
    assert flags.tolist() == [is_connected_mask(m, k) for m in range(flags.size)]


def test_config_mask_boundary_tie():
    # distance ties use the closed ball: an edge at exactly ||x-y|| = t
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    pb = pair_bit_index(2)
    assert config_mask(pts, 1.0) == 1 << pb[0, 1]
    assert config_mask(pts, 0.999) == 0
    h, minus = build_atlas(2).indicators(pts[None], np.array([0.999, 1.0]),
                                         named_shape(2, "edge"))
    assert h.tolist() == [[False, True]]
    assert minus.tolist() == [[False, False]]


def test_k7_memo_shared_across_threads():
    # k = 7 classifies through a memo that replication threads share; a
    # fresh memo filled by 4 threads must give the single-thread answer
    shape = named_shape(7, "path")
    grid = np.array([0.9, 1.3, 1.7])
    rng = np.random.default_rng(7)
    chain = np.stack([np.arange(7.0), np.zeros(7)], axis=1)
    batches = [chain + 0.3 * rng.normal(size=(40, 7, 2)) for _ in range(8)]
    expected = [build_atlas(7).indicators(b, grid, shape) for b in batches]
    fresh = dataclasses.replace(build_atlas(7), _lazy_cache={})
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda b: fresh.indicators(b, grid, shape), batches))
    finally:
        sys.setswitchinterval(old)
    for (h, minus), (h_ref, minus_ref) in zip(got, expected):
        assert np.array_equal(h, h_ref) and np.array_equal(minus, minus_ref)
    assert fresh._lazy_cache

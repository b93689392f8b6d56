"""Atlas enumeration, canonical forms, and ``Atlas.indicators``."""

import itertools

import networkx as nx
import numpy as np
import pytest

from rgglab.atlas import (
    UnsupportedOrderError,
    build_atlas,
    canonical_masks,
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


def test_atlas_count_k7():
    assert len(build_atlas(7).classes) == 853


def test_atlas_order_bounds():
    with pytest.raises(UnsupportedOrderError):
        build_atlas(1)
    with pytest.raises(UnsupportedOrderError):
        build_atlas(8)


def test_atlas_structure():
    atlas = build_atlas(4)
    # classes sorted by edge count, from j = k-1 (tree) to k(k-1)/2 (complete)
    edge_counts = [s.edge_count for s in atlas.classes]
    assert edge_counts == sorted(edge_counts)
    assert edge_counts[0] == 3 and edge_counts[-1] == 6
    # canonical forms unique
    canons = [s.canonical_form for s in atlas.classes]
    assert len(set(canons)) == len(canons)


def test_canonical_iff_isomorphic(rng):
    k = 5
    n_masks = 1 << (k * (k - 1) // 2)
    masks = rng.integers(0, n_masks, size=120)
    canon = canonical_masks(masks, k)
    for m1, m2, c1, c2 in zip(masks[::2], masks[1::2], canon[::2], canon[1::2]):
        same = c1 == c2
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
    # the edge of pair (i, j) at radius t is the K2 indicator of (x_i, x_j);
    # pairs in bit order (0, 1), (0, 2), (1, 2)
    pairs = np.array(list(itertools.combinations(range(3), 2)))
    edge = named_shape(2, "edge")
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    h, _ = build_atlas(2).indicators(pts[pairs], np.array([0.0, 1.0]), edge)
    assert h.T.tolist() == [[False, False, False], [True, False, True]]
    eq = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    h, _ = build_atlas(2).indicators(eq[pairs], np.array([1.0]), edge)
    assert h.T.tolist() == [[True, True, True]]


def test_h_examples(path3, triangle):
    pts = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    grid = np.array([1.0, 0.5])
    h, _ = build_atlas(3).indicators(pts, grid, path3)
    assert h.tolist() == [[True, False]]
    h, _ = build_atlas(3).indicators(pts, grid, triangle)
    assert h.tolist() == [[False, False]]


def test_h_plus_minus_examples(path3):
    # h^+ = h + h^-: the triangle is in h^+ and h^- of the 3-path, not in h
    eq = np.array([[[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]]])
    h, minus = build_atlas(3).indicators(eq, np.array([1.0]), path3)
    assert h.tolist() == [[False]] and minus.tolist() == [[True]]
    line = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    h, minus = build_atlas(3).indicators(line, np.array([1.0]), path3)
    assert h.tolist() == [[True]] and minus.tolist() == [[False]]


def test_decomposition_and_monotonicity(rng):
    # h and h^- never both hold, so h^+ = h + h^- is an indicator; h^+ and h^-
    # are nondecreasing in t
    atlas = build_atlas(4)
    for _ in range(50):
        pts = rng.normal(size=(4, 3)) * 1.5
        shape = atlas.classes[int(rng.integers(len(atlas.classes)))]
        s, t = sorted(rng.uniform(0.1, 3.0, size=2))
        h, minus = atlas.indicators(pts[None], np.array([s, t]), shape)
        assert not np.any(h & minus)
        plus = h | minus
        assert plus[0, 0] <= plus[0, 1]
        assert minus[0, 0] <= minus[0, 1]


def test_shift_rotation_scaling_invariance(rng, triangle, path3):
    atlas = build_atlas(3)
    for shape in (triangle, path3):
        for _ in range(25):
            pts = rng.normal(size=(3, 2))
            t = float(rng.uniform(0.2, 2.5))
            shift = rng.normal(size=2) * 10
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            h, _ = atlas.indicators(np.stack([pts, pts + shift, pts @ rot.T]),
                                    np.array([t]), shape)
            scaled, _ = atlas.indicators((pts / t)[None], np.array([1.0]), shape)
            assert h.ravel().tolist() == [h[0, 0]] * 3
            assert scaled[0, 0] == h[0, 0]


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
            h, minus = atlas.indicators(pts[None], np.array([t]), shape)
            assert not h.any() and not minus.any()


def test_coincident_points_allowed(k2):
    h, _ = build_atlas(2).indicators(np.zeros((1, 2, 2)), np.array([0.0]), k2)
    assert h.tolist() == [[True]]   # distance 0 -> edge at every t >= 0


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


def _scalar_canonical(mask: int, k: int) -> int:
    """min over all k! relabelings of the mask, one bit at a time."""
    pb = pair_bit_index(k)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if mask >> pb[i, j] & 1]
    return min(sum(1 << int(pb[perm[i], perm[j]]) for i, j in edges)
               for perm in itertools.permutations(range(k)))


def test_class_table_matches_networkx():
    # every table entry, read as the classifier reads it: -1 iff networkx
    # finds the graph disconnected, else the class of its canonical form
    for k in range(2, 8):
        atlas = build_atlas(k)
        P = k * (k - 1) // 2
        table = atlas._class_table
        assert table.dtype == np.int16 and table.shape == (1 << P,)
        assert not table.flags.writeable
        if k <= 5:
            masks = np.arange(1 << P, dtype=np.int64)
        else:
            masks = np.random.default_rng(10 + k).integers(0, 1 << P, 2002)
            masks[:2] = [0, (1 << P) - 1]
        index_of = {s.canonical_form: i for i, s in enumerate(atlas.classes)}
        got = atlas._class_indices(masks).tolist()
        canon = canonical_masks(masks, k).tolist()
        for mask, idx, c in zip(masks.tolist(), got, canon):
            if nx.is_connected(_nx_graph(mask, k)):
                assert idx == index_of[c], (k, mask)
            else:
                assert idx == -1, (k, mask)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_canonical_masks_match_scalar_reference(k):
    P = k * (k - 1) // 2
    if k <= 5:
        masks = np.arange(1 << P, dtype=np.int64)
    else:
        masks = np.random.default_rng(k).integers(0, 1 << P, 60 if k == 6 else 12)
        masks[:2] = [0, (1 << P) - 1]
    got = canonical_masks(masks, k)
    assert got.dtype == np.int64 and got.shape == masks.shape
    assert got.tolist() == [_scalar_canonical(int(m), k) for m in masks]


def _indicators_by_norm_sum(atlas, configs, grid, shape):
    """The (h, minus) rule written out: np.sqrt of the summed squared
    differences of every pair at once, int64 masks, one class lookup."""
    iu = np.triu_indices(atlas.k, 1)
    diff = configs[:, iu[0]] - configs[:, iu[1]]
    dists = np.sqrt((diff * diff).sum(axis=2))
    masks = np.zeros((len(configs), grid.size), dtype=np.int64)
    for p in range(len(iu[0])):
        masks += (dists[:, p, None] <= grid).astype(np.int64) << p
    cls = atlas._class_indices(masks)
    denser = [i for i, c in enumerate(atlas.classes) if c.edge_count > shape.edge_count]
    return cls == atlas.shape_index(shape), np.isin(cls, denser)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_indicators_match_norm_sum_rule(d):
    rng = np.random.default_rng(100 + d)
    grid = np.array([0.0, 0.6, 0.9, 1.4, 2.5])
    for k in range(2, 8):
        atlas = build_atlas(k)
        # points along a jittered chain, so every class size occurs
        chain = np.zeros((k, d))
        chain[:, 0] = 0.8 * np.arange(k)
        configs = chain + (0.5 / np.sqrt(d)) * rng.normal(size=(300, k, d))
        # pairs at exactly a grid radius: point 1 at t e_c from point 0
        ties = np.repeat(chain[None], 2 * d, axis=0)
        for c in range(d):
            for r, t in enumerate((grid[2], grid[3])):
                ties[2 * c + r, 1] = ties[2 * c + r, 0]
                ties[2 * c + r, 1, c] += t
        configs = np.concatenate([ties, configs])
        for name in ("path", "star", "complete"):
            shape = named_shape(k, name)
            h, minus = atlas.indicators(configs, grid, shape)
            h_ref, minus_ref = _indicators_by_norm_sum(atlas, configs, grid, shape)
            assert np.array_equal(h, h_ref) and np.array_equal(minus, minus_ref), (k, d, name)
            assert h.dtype == bool and h.flags.c_contiguous
            if name == "path":    # met and exceeded somewhere
                assert h.any() and (minus.any() or k == 2), (k, d)


@pytest.mark.parametrize("d", [8, 9])
def test_indicators_keep_pairwise_norm_from_d8(d):
    # from 8 terms on numpy's pairwise sum adds in another order than a left
    # to right loop; pick offsets where the two orders round apart and put
    # the radius at the pairwise distance
    x = np.random.default_rng(d).normal(size=(2000, d))
    pairwise = np.sqrt((x * x).sum(axis=1))
    in_order = x[:, 0] * x[:, 0]
    for c in range(1, d):
        in_order += x[:, c] * x[:, c]
    apart = np.nonzero(np.sqrt(in_order) > pairwise)[0][:20]
    assert apart.size == 20
    edge = named_shape(2, "edge")
    for row in apart:
        configs = np.stack([np.zeros(d), x[row]])[None]
        h, _ = build_atlas(2).indicators(configs, np.array([pairwise[row]]), edge)
        assert h.tolist() == [[True]]


def test_indicators_boundary_tie():
    # distance ties use the closed ball: an edge at exactly ||x-y|| = t
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    h, minus = build_atlas(2).indicators(pts[None], np.array([0.999, 1.0]),
                                         named_shape(2, "edge"))
    assert h.tolist() == [[False, True]]
    assert minus.tolist() == [[False, False]]

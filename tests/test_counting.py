"""Counting engine: exactness against the exhaustive oracle, identities,
filters, invariances, and the binary cloud cache."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rgglab
from rgglab import kernels
from rgglab.atlas import build_atlas, named_shape
from rgglab.counting import (
    ANNULUS_ABSOLUTE,
    ANNULUS_RADIUS_MULTIPLE,
    ANNULUS_SHIFTED_BY_A,
    AnnulusSpec,
    CountRequest,
    CountingCurve,
    InvalidRequestError,
    annuli_census,
    count_decomposed,
    count_subgraphs,
    count_subgraphs_exhaustive,
    load_cloud,
    make_cloud,
    max_element,
    save_cloud,
)


def random_cloud(rng, n, d, spread=3.0):
    pts = rng.normal(size=(n, d)) * spread + rng.normal(size=d) * 2
    return make_cloud(pts, n=n, seed=0)


def test_max_element_examples():
    assert max_element(np.array([[1.0, 0.0], [2.0, 0.0]])) == (1, 2.0)
    idx, norm = max_element(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert idx == 0 and norm == 2.0        # tie -> smallest subscript
    assert max_element(np.array([[3.0, 4.0]])) == (0, 5.0)
    with pytest.raises(ValueError):
        max_element(np.empty((0, 2)))


def test_count_examples(k2):
    # three collinear points shifted outside R, K2 at t=1 -> two unit pairs
    base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]) + np.array([10.0, 0.0])
    cloud = make_cloud(base)
    req = CountRequest(shape=k2, t_grid=np.array([1.0]), R=5.0)
    assert count_subgraphs(cloud, req).counts[0] == 2
    # one point inside B(0, R): subsets containing it are excluded
    mixed = np.array([[1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    req2 = CountRequest(shape=k2, t_grid=np.array([1.0]), R=5.0)
    assert count_subgraphs(make_cloud(mixed), req2).counts[0] == 1


def test_exactness_small(rng):
    shapes = {k: build_atlas(k).classes for k in (2, 3, 4)}
    for trial in range(24):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        cloud = random_cloud(rng, int(rng.integers(5, 41)), d)
        shape = shapes[k][int(rng.integers(len(shapes[k])))]
        grid = np.unique(rng.uniform(0.05, 3.5, size=8))
        R = float(rng.uniform(0, 2.0))
        ann = None
        if trial % 3 == 0:
            ann = AnnulusSpec(K=float(rng.uniform(0, 2)), L=float(rng.uniform(3, 9)),
                              scaling=ANNULUS_ABSOLUTE)
        for mode in ("h", "plus", "minus"):
            req = CountRequest(shape=shape, t_grid=grid, R=R, annulus=ann, mode=mode)
            fast = count_subgraphs(cloud, req).counts
            slow = count_subgraphs_exhaustive(cloud, req).counts
            assert np.array_equal(fast, slow), (trial, d, k, mode)


def test_decomposition_identity(rng, path3):
    cloud = random_cloud(rng, 30, 2)
    req = CountRequest(shape=path3, t_grid=np.linspace(0.2, 3.0, 7))
    h, plus, minus = count_decomposed(cloud, req)
    assert np.array_equal(h.counts, plus.counts - minus.counts)
    assert np.all(np.diff(plus.counts) >= 0)
    assert np.all(np.diff(minus.counts) >= 0)
    assert np.all(h.counts <= plus.counts)


def test_complete_shape_minus_zero(rng, triangle):
    cloud = random_cloud(rng, 25, 2)
    req = CountRequest(shape=triangle, t_grid=np.linspace(0.3, 2.5, 5))
    _, _, minus = count_decomposed(cloud, req)
    assert np.all(minus.counts == 0)


def test_complete_graph_binomial(rng):
    # t at least the cloud diameter, no annulus: G(t) = C(N_out, k)
    k4 = named_shape(4, "complete")
    cloud = random_cloud(rng, 18, 2, spread=1.0)
    diam = np.max(np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2))
    req = CountRequest(shape=k4, t_grid=np.array([diam + 0.1]))
    from math import comb
    assert count_subgraphs(cloud, req).counts[0] == comb(18, 4)


def test_zero_below_min_gap(rng):
    for k in (2, 3):
        shape = build_atlas(k).classes[0]
        cloud = random_cloud(rng, 20, 2)
        dists = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
        gap = dists[np.triu_indices(20, 1)].min()
        req = CountRequest(shape=shape, t_grid=np.array([gap * 0.99]))
        assert count_subgraphs(cloud, req).counts[0] == 0


def test_rotation_invariance(rng, triangle):
    pts = rng.normal(size=(40, 2)) * 2 + 5
    theta = 1.234
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    req = CountRequest(shape=triangle, t_grid=np.linspace(0.3, 2.0, 6), R=3.0,
                       annulus=AnnulusSpec(K=1.0, L=2.5, scaling=ANNULUS_RADIUS_MULTIPLE))
    a = count_subgraphs(make_cloud(pts), req).counts
    b = count_subgraphs(make_cloud(pts @ rot.T), req).counts
    assert np.array_equal(a, b)


def test_annulus_interpretations(k2):
    # pair at norms (10, 11): heavy annulus keyed to multiples of R
    pts = np.array([[10.0, 0.0], [11.0, 0.0]])
    cloud = make_cloud(pts)
    grid = np.array([1.5])
    ann = AnnulusSpec(K=1.0, L=1.09, scaling=ANNULUS_RADIUS_MULTIPLE)
    req = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=ann)
    assert count_subgraphs(cloud, req).counts[0] == 0   # max norm 11 >= 1.09*10
    ann2 = AnnulusSpec(K=1.0, L=1.2, scaling=ANNULUS_RADIUS_MULTIPLE)
    req2 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=ann2)
    assert count_subgraphs(cloud, req2).counts[0] == 1
    # light scaling: (max - R)/a(R) in [K, L)
    ann3 = AnnulusSpec(K=0.0, L=0.5, scaling=ANNULUS_SHIFTED_BY_A)
    req3 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=ann3, a_of_R=4.0)
    assert count_subgraphs(cloud, req3).counts[0] == 1  # (11-10)/4 = 0.25 in [0, .5)
    ann4 = AnnulusSpec(K=0.3, L=0.5, scaling=ANNULUS_SHIFTED_BY_A)
    req4 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=ann4, a_of_R=4.0)
    assert count_subgraphs(cloud, req4).counts[0] == 0


def test_invalid_requests(k2):
    with pytest.raises(InvalidRequestError):
        CountRequest(shape=k2, t_grid=np.array([1.0, 0.5]))
    with pytest.raises(InvalidRequestError):
        CountRequest(shape=k2, t_grid=np.array([]))
    with pytest.raises(InvalidRequestError):
        CountRequest(shape=k2, t_grid=np.array([1.0]), mode="weird")
    with pytest.raises(InvalidRequestError):
        AnnulusSpec(K=2.0, L=1.0)
    with pytest.raises(InvalidRequestError):
        AnnulusSpec(K=0.5, L=2.0, scaling=ANNULUS_RADIUS_MULTIPLE)
    with pytest.raises(ValueError):
        CountingCurve(t_grid=np.array([1.0]), counts=np.array([-1]), mode="h", R=0.0)


def _brute_force_csr(pts, radius):
    """O(n^2) reference: edge iff sqrt(d2) <= radius, rows ascending."""
    n = pts.shape[0]
    if n == 0 or radius <= 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    diff = pts[:, None, :] - pts[None, :, :]
    adj = np.sqrt((diff * diff).sum(axis=2)) <= radius
    np.fill_diagonal(adj, False)
    indptr = np.concatenate([[0], np.cumsum(adj.sum(axis=1))])
    return indptr, np.nonzero(adj)[1]


def test_build_adjacency_matches_brute_force(rng):
    for d in (1, 2, 3):
        for n in (0, 1, 2, 7, 60, 250):
            pts = rng.normal(size=(n, d)) * 2
            for radius in (-1.0, 0.0, 0.3, 1.1, 4.0):
                indptr, indices = kernels.build_adjacency(pts, radius)
                ref_ptr, ref_idx = _brute_force_csr(pts, radius)
                assert indptr.dtype == np.int64 and indices.dtype == np.int64
                assert np.array_equal(indptr, ref_ptr), (d, n, radius)
                assert np.array_equal(indices, ref_idx), (d, n, radius)
                rows = np.repeat(np.arange(n), np.diff(indptr))
                for v in range(n):
                    assert np.all(np.diff(indices[indptr[v]:indptr[v + 1]]) > 0)
                # symmetric: the transposed edge list is the same set
                fwd = set(zip(rows.tolist(), indices.tolist()))
                assert fwd == {(q, p) for p, q in fwd}
    # coincident points are neighbours at any positive radius
    indptr, indices = kernels.build_adjacency(np.zeros((3, 2)), 1e-300)
    assert list(indptr) == [0, 2, 4, 6] and list(indices) == [1, 2, 0, 2, 0, 1]


def _exact_radius_pairs(t, count):
    """Offsets (t cos theta, t sin theta) that lie within t of the origin
    under sqrt(d2) <= t although d2 exceeds the rounded t * t."""
    out = []
    for theta in np.linspace(0.01, 1.56, 2000):
        dx, dy = t * np.cos(theta), t * np.sin(theta)
        d2 = dx * dx + dy * dy
        if np.sqrt(d2) <= t and d2 > t * t:
            out.append((dx, dy))
        if len(out) == count:
            break
    return out


def test_exact_radius_pairs_match_oracle(k2, path3):
    def check(pts, grid):
        cloud = make_cloud(pts)
        for shape in (k2, path3):
            for mode in ("h", "plus", "minus"):
                req = CountRequest(shape=shape, t_grid=grid, mode=mode)
                fast = count_subgraphs(cloud, req).counts
                slow = count_subgraphs_exhaustive(cloud, req).counts
                assert np.array_equal(fast, slow), (shape.k, mode, pts.tolist())
        return count_subgraphs(cloud, CountRequest(shape=k2, t_grid=grid)).counts

    # (a) square lattices with an exactly representable spacing (0.75) and
    # inexact ones (0.1, 0.7); t_max is the spacing, then the diagonal
    for t in (0.75, 0.1, 0.7):
        ij = np.stack(np.meshgrid(np.arange(5), np.arange(5), indexing="ij"), -1)
        lattice = ij.reshape(-1, 2) * t
        check(lattice, np.array([0.5 * t, t]))
        check(lattice, np.array([0.5 * t, t, np.sqrt(2) * t]))
    # (b) two-point (K2) and three-point collinear (3-path) clouds whose
    # consecutive pairs sit at t_max with d2 > fl(t_max^2)
    t = 0.7
    pairs = _exact_radius_pairs(t, 20)
    assert len(pairs) == 20
    grid = np.array([0.3, 0.6, t])
    for dx, dy in pairs:
        counts = check(np.array([[0.0, 0.0], [dx, dy]]), grid)
        assert list(counts) == [0, 0, 1]
        check(np.array([[0.0, 0.0], [dx, dy], [2 * dx, 2 * dy]]), grid)


def test_determinism_across_workers_env(tmp_path, rng):
    """A fresh interpreter prints the same h/plus/minus counts as the
    in-process engine on the same cloud."""
    cloud_path = tmp_path / "cloud.bin"
    pts = rng.normal(size=(60, 2)) * 2
    save_cloud(cloud_path, make_cloud(pts, seed=7))
    t_grid = np.linspace(0.2, 2, 6)
    script = (
        "from rgglab.counting import load_cloud, CountRequest, count_decomposed\n"
        "from rgglab.atlas import named_shape\n"
        "import numpy as np\n"
        f"cloud = load_cloud(r'{cloud_path}')\n"
        "req = CountRequest(shape=named_shape(3, 'path'), t_grid=np.linspace(0.2, 2, 6))\n"
        "h, p, m = count_decomposed(cloud, req)\n"
        "print(list(h.counts), list(p.counts), list(m.counts))\n"
    )
    h, p, m = count_decomposed(load_cloud(cloud_path),
                               CountRequest(shape=named_shape(3, "path"), t_grid=t_grid))
    expected = f"{list(h.counts)} {list(p.counts)} {list(m.counts)}\n"
    # the child imports the same rgglab as this process, however it was found
    package_root = str(Path(rgglab.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_binary_cache_roundtrip(tmp_path, rng):
    pts = rng.normal(size=(17, 3))
    cloud = make_cloud(pts, n=17.0, seed=42)
    path = tmp_path / "cloud.bin"
    save_cloud(path, cloud)
    loaded = load_cloud(path, n=17.0)
    assert loaded.seed == 42
    assert loaded.d == 3
    np.testing.assert_array_equal(loaded.points, cloud.points)
    # documented layout: 3 little-endian int64 then float64 coordinates
    raw = path.read_bytes()
    header = np.frombuffer(raw[:24], dtype="<i8")
    assert list(header) == [3, 17, 42]
    assert len(raw) == 24 + 17 * 3 * 8


def test_census_basics(rng, k2, triangle):
    pts = np.concatenate([
        rng.normal(size=(30, 2)) * 0.5 + np.array([12.0, 0.0]),
        rng.normal(size=(30, 2)) * 0.5 + np.array([0.0, 25.0]),
    ])
    cloud = make_cloud(pts)
    ladder = np.array([10.0, 20.0, 30.0])
    out = annuli_census(cloud, {2: k2, 3: triangle}, ladder, t=1.0)
    counts = out["counts"]
    assert counts.shape == (2, 3)
    assert np.all(counts >= 0)
    # totals consistent with the unrestricted exterior count
    for row, shape in enumerate(out["shapes"]):
        req = CountRequest(shape=shape, t_grid=np.array([1.0]), R=10.0)
        assert counts[row].sum() == count_subgraphs(cloud, req).counts[0]
    # empty annulus -> zero column
    ladder2 = np.array([10.0, 40.0, 50.0])
    out2 = annuli_census(cloud, {2: k2}, ladder2, t=1.0)
    assert out2["counts"][0, 1] == 0 and out2["counts"][0, 2] == 0

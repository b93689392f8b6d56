"""Counting engine: exactness against the exhaustive oracle, identities,
filters, and invariances."""

import itertools
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
    CountRequest,
    CountingCurve,
    InvalidRequestError,
    count_decomposed,
    count_subgraphs,
    count_subgraphs_exhaustive,
    make_cloud,
)
from rgglab.densities import (
    PowerLawDensity,
    VonMisesDensity,
    sample_poisson_cloud,
    weak_core_radius,
)


def random_cloud(rng, n, d, spread=3.0):
    pts = rng.normal(size=(n, d)) * spread + rng.normal(size=d) * 2
    return make_cloud(pts, n=n, seed=0)


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
    shapes = {k: build_atlas(k).classes for k in range(2, 8)}
    totals = dict.fromkeys(range(5, 8), 0)
    # k = 2..4 on clouds of up to 40 points, then k = 5..7 (the all-subsets
    # oracle's cost grows as C(n, k)) on clouds of at most 12 points
    for trial in range(36):
        d = int(rng.integers(1, 4))
        if trial < 24:
            k = int(rng.integers(2, 5))
            cloud = random_cloud(rng, int(rng.integers(5, 41)), d)
        else:
            k = 5 + trial % 3
            cloud = random_cloud(rng, int(rng.integers(k, 13)), d, spread=1.5)
        shape = shapes[k][int(rng.integers(len(shapes[k])))]
        grid = np.unique(rng.uniform(0.05, 3.5, size=8))
        R = float(rng.uniform(0, 2.0))
        ann = None
        if trial % 3 == 0:
            ann = (float(rng.uniform(0, 2)), float(rng.uniform(3, 9)))
        for mode in ("h", "plus", "minus"):
            req = CountRequest(shape=shape, t_grid=grid, R=R, annulus=ann, mode=mode)
            fast = count_subgraphs(cloud, req).counts
            slow = count_subgraphs_exhaustive(cloud, req).counts
            assert np.array_equal(fast, slow), (trial, d, k, mode)
            if k >= 5:
                totals[k] += int(slow.sum())
    assert all(totals.values()), totals   # every large k met nonzero counts


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


def test_rotation_invariance(rng, triangle, power24):
    pts = rng.normal(size=(40, 2)) * 2 + 5
    theta = 1.234
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    req = CountRequest(shape=triangle, t_grid=np.linspace(0.3, 2.0, 6), R=3.0,
                       annulus=power24.annulus_bounds(3.0, 1.0, 2.5))
    a = count_subgraphs(make_cloud(pts), req).counts
    b = count_subgraphs(make_cloud(pts @ rot.T), req).counts
    assert np.array_equal(a, b)


def test_annulus_interpretations(k2, power24):
    # pair at norms (10, 11): heavy annulus keyed to multiples of R
    pts = np.array([[10.0, 0.0], [11.0, 0.0]])
    cloud = make_cloud(pts)
    grid = np.array([1.5])
    req = CountRequest(shape=k2, t_grid=grid, R=10.0,
                       annulus=power24.annulus_bounds(10.0, 1.0, 1.09))
    assert count_subgraphs(cloud, req).counts[0] == 0   # max norm 11 >= 1.09*10
    req2 = CountRequest(shape=k2, t_grid=grid, R=10.0,
                        annulus=power24.annulus_bounds(10.0, 1.0, 1.2))
    assert count_subgraphs(cloud, req2).counts[0] == 1
    # light scaling: (max - R)/a(R) in [K, L), with a(10) = 10^(1 - 0.4) = 3.98
    vm = VonMisesDensity(2, 0.4)
    req3 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=vm.annulus_bounds(10.0, 0.0, 0.5))
    assert count_subgraphs(cloud, req3).counts[0] == 1  # (11-10)/3.98 = 0.25 in [0, .5)
    req4 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=vm.annulus_bounds(10.0, 0.3, 0.5))
    assert count_subgraphs(cloud, req4).counts[0] == 0
    # absolute bounds: the max norm 11 is in [10.5, 11.5) but not in [11.5, 12)
    req5 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=(10.5, 11.5))
    assert count_subgraphs(cloud, req5).counts[0] == 1
    req6 = CountRequest(shape=k2, t_grid=grid, R=10.0, annulus=(11.5, 12.0))
    assert count_subgraphs(cloud, req6).counts[0] == 0


def test_invalid_requests(k2):
    with pytest.raises(InvalidRequestError):
        CountRequest(shape=k2, t_grid=np.array([1.0, 0.5]))
    with pytest.raises(InvalidRequestError):
        CountRequest(shape=k2, t_grid=np.array([]))
    with pytest.raises(InvalidRequestError):
        CountRequest(shape=k2, t_grid=np.array([1.0]), mode="weird")
    for R in (-1.0, np.nan):
        with pytest.raises(InvalidRequestError, match="exclusion radius"):
            CountRequest(shape=k2, t_grid=np.array([1.0]), R=R)
    for annulus in ((2.0, 1.0), (1.0, 1.0), (-0.5, 2.0), (np.nan, 2.0), (1.0, np.nan),
                    (0.0, 0.0)):   # (0, 0): multiples of R = 0 hold no point
        with pytest.raises(InvalidRequestError, match="annulus"):
            CountRequest(shape=k2, t_grid=np.array([1.0]), annulus=annulus)
    with pytest.raises(ValueError):
        CountingCurve(counts=np.array([-1]))


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


def _kdtree_csr(pts, radius):
    """k-d tree pairs within a slack radius, kept iff ``sqrt(d2) <= radius``:
    the pair search ``build_adjacency`` used before its cell list."""
    from scipy.spatial import cKDTree

    n = pts.shape[0]
    pairs = cKDTree(pts).query_pairs(radius * (1 + 1e-9), output_type="ndarray")
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    pairs = pairs[np.sqrt((diff * diff).sum(axis=1)) <= radius].astype(np.int64)
    p, q = pairs[:, 0], pairs[:, 1]
    keys = np.sort(np.concatenate([p * n + q, q * n + p]))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(p, minlength=n)
                                            + np.bincount(q, minlength=n))])
    return indptr, keys % n


def _lattice_nd(d, side):
    """The unit-spacing lattice {0, ..., side - 1}^d."""
    axes = np.meshgrid(*[np.arange(side, dtype=float)] * d, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def test_cell_list_adjacency_is_exact(rng, monkeypatch):
    """The cell list gives the k-d tree reference's exact CSR, and the brute
    force's on small clouds: pairs at exactly the radius on lattices,
    clouds spanning +-1e7 (widened keys), a pair whose cells only the
    extent term of the cell side keeps adjacent, a radius of 1e-300 on
    spread points, a d = 8 cloud and the weak-core clouds of critical-k2's
    rungs; each in one pass and in many candidate chunks."""
    cases = []
    for d, side in ((1, 40), (2, 12), (3, 6)):
        grid = _lattice_nd(d, side)
        for r in (1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0):
            cases += [(grid, r), (grid * 0.1, r * 0.1), (grid + 1e7, r), (grid * 3.7 - 2e6, r * 3.7)]
    tri = _lattice("triangular", 20)
    cases += [(tri, 1.0), (tri, np.sqrt(3.0)), (tri - 1e7, 1.0)]
    for d in (1, 2, 3):
        wide = rng.normal(size=(400, d)) * 1e7
        cases += [(wide, 1.5), (wide, 1e7), (np.concatenate([rng.normal(size=(300, d)), wide]), 1.0),
                  (rng.normal(size=(200, d)), 1e-300), (wide, 1e-300)]
    cases += [(rng.normal(size=(120, 8)), r) for r in (0.5, 2.5, 4.0)]
    # a pair within the radius whose cells would round two apart with the
    # relative slack alone: x - lo carries an error of about ulp(1.4e7)
    far_pair = np.array([[-8780398.836418064], [5229596.390547375], [5229597.537112136]])
    r_far = 1.1465647617362682
    cases += [(far_pair, r_far), (np.column_stack([far_pair, np.zeros(3)]), r_far)]
    power = PowerLawDensity(2, 4.0)
    for n in (1e5, 1e6, 1e7):
        R = weak_core_radius(power, n)
        cases.append((sample_poisson_cloud(n, power, rng, exterior_radius=R).points, 1.5))
    exact = 0
    for (pts, r), chunk in itertools.product(cases, (kernels._PAIR_CHUNK, 64)):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", chunk)     # one pass, then many
        indptr, indices = kernels.build_adjacency(pts, r)
        ref_ptr, ref_idx = _kdtree_csr(pts, r)
        assert np.array_equal(indptr, ref_ptr) and np.array_equal(indices, ref_idx), (pts.shape, r)
        if pts.shape[0] <= 500:
            bf_ptr, bf_idx = _brute_force_csr(pts, r)
            assert np.array_equal(indptr, bf_ptr) and np.array_equal(indices, bf_idx)
        rows = np.repeat(np.arange(pts.shape[0]), np.diff(indptr))
        diff = pts[rows] - pts[indices]
        exact += int(np.sum(np.sqrt((diff * diff).sum(axis=1)) == r))
    assert exact > 0          # pairs at exactly the radius were kept


def _lattice(kind, side):
    """side x side square or triangular lattice with unit spacing."""
    i, j = (a.ravel().astype(float) for a in np.meshgrid(np.arange(side), np.arange(side)))
    if kind == "square":
        return np.stack([i, j], axis=1)
    return np.stack([i + 0.5 * j, (np.sqrt(3) / 2) * j], axis=1)


def test_wedge_list_matches_esu(rng, path3, triangle):
    clouds = [(random_cloud(rng, n, 2), 2.0) for n in (0, 1, 2)]
    clouds.append((make_cloud(np.arange(12.0)[:, None] * 2.0), 1.5))    # edgeless
    for _ in range(30):
        d, n = int(rng.integers(1, 4)), int(rng.integers(3, 41))
        clouds.append((random_cloud(rng, n, d), float(rng.uniform(0.05, 3.5))))
    # lattices whose pairs and triangles sit at exactly t_max (on the
    # triangular one, others round to an ulp either side of 1)
    lattices = [("square", 1.0), ("square", np.sqrt(2.0)), ("triangular", 1.0)]
    for kind, t_max in lattices:
        pts = _lattice(kind, 6)
        diff = pts[:, None] - pts[None]
        assert np.any(np.sqrt((diff * diff).sum(axis=2)) == t_max), kind
        clouds.append((make_cloud(pts), t_max))
    met = {path3: 0, triangle: 0}
    for cloud, t_max in clouds:
        n = len(cloud)
        indptr, indices = kernels.build_adjacency(cloud.points, t_max)
        wedges = kernels._wedge_candidates(indptr, indices, n)
        esu = {tuple(sorted(s)) for s in kernels._esu_candidates(indptr, indices, 3, n)}
        assert wedges.shape == (len(esu), 3), (n, t_max)    # each triple once
        assert {tuple(sorted(s)) for s in wedges.tolist()} == esu, (n, t_max)
        grid = np.array([0.5 * t_max, np.nextafter(t_max, 0.0), t_max])
        for shape in (path3, triangle):
            for mode in ("h", "minus"):
                req = CountRequest(shape=shape, t_grid=grid, mode=mode)
                fast = count_subgraphs(cloud, req).counts
                assert np.array_equal(fast, count_subgraphs_exhaustive(cloud, req).counts)
                if mode == "h":
                    met[shape] += int(fast[-1])
    assert all(met.values()), met


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
    points_path = tmp_path / "points.npy"
    pts = rng.normal(size=(60, 2)) * 2
    np.save(points_path, pts)
    t_grid = np.linspace(0.2, 2, 6)
    script = (
        "from rgglab.counting import make_cloud, CountRequest, count_decomposed\n"
        "from rgglab.atlas import named_shape\n"
        "import numpy as np\n"
        f"cloud = make_cloud(np.load(r'{points_path}'))\n"
        "req = CountRequest(shape=named_shape(3, 'path'), t_grid=np.linspace(0.2, 2, 6))\n"
        "h, p, m = count_decomposed(cloud, req)\n"
        "print(list(h.counts), list(p.counts), list(m.counts))\n"
    )
    h, p, m = count_decomposed(make_cloud(np.load(points_path)),
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


def test_annulus_shells_partition_exterior(rng, k2, triangle):
    """Adjacent [lo, hi) shells on the farthest point's norm sum to the
    exterior count, and a shell holding no point reads 0."""
    pts = np.concatenate([
        rng.normal(size=(30, 2)) * 0.5 + np.array([12.0, 0.0]),
        rng.normal(size=(30, 2)) * 0.5 + np.array([0.0, 25.0]),
    ])
    cloud = make_cloud(pts)
    t_grid = np.array([0.5, 1.0])
    edges = [10.0, 20.0, 30.0, np.inf]
    for shape in (k2, triangle):
        exterior = count_subgraphs(cloud, CountRequest(shape=shape, t_grid=t_grid, R=10.0))
        shells = [count_subgraphs(cloud, CountRequest(shape=shape, t_grid=t_grid, R=10.0,
                                                      annulus=(lo, hi))).counts
                  for lo, hi in zip(edges, edges[1:])]
        assert all(c[-1] > 0 for c in shells[:2])
        assert np.array_equal(np.sum(shells, axis=0), exterior.counts)
        empty = CountRequest(shape=shape, t_grid=t_grid, R=10.0, annulus=(40.0, 50.0))
        assert np.array_equal(count_subgraphs(cloud, empty).counts, [0, 0])

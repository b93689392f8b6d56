"""Limit oracle: constants, MC covariances, mixtures, Brownian identity,
self-similarity, and exact pair cumulants."""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from scipy import integrate, stats

from rgglab.densities import (
    InvalidParameterError,
    UnsupportedOperationError,
    unit_ball_volume,
)
from rgglab.limits import (
    OracleParams,
    b_constant,
    brownian_identity_check,
    covariance_L,
    covariance_M,
    d_constant,
    exact_pair_cumulants,
    mixture_covariance,
    self_similarity_report,
    _accumulate,
    _ball_draws,
    _mode_values,
    _scale_points,
    _within_reach,
)
from rgglab.atlas import build_atlas, named_shape


def params(shape, *, d=2, ell=2, alpha=4.0, c=None, grid=(1.0,),
           n=100_000, seed=0, annulus=None):
    return OracleParams(d=d, ell=ell, shape=shape, alpha=alpha, c=c,
                        t_grid=np.array(grid, dtype=float), n_samples=n,
                        seed=seed, annulus=annulus)


def test_constants_closed_forms():
    assert b_constant(2, 2, 2, 4.0) == pytest.approx(math.pi / 6)
    assert b_constant(2, 2, 1, 4.0) == pytest.approx(math.pi / 5)
    assert d_constant(2, 2, 2) == pytest.approx(math.pi)
    assert d_constant(2, 2, 1) == pytest.approx(2 * math.pi)
    # d=1: two-point unit sphere prefactor s_0 = 2
    assert d_constant(1, 2, 2) == pytest.approx(1.0)
    assert b_constant(1, 2, 2, 3.0) == pytest.approx(2 / (2 * (3 * 2 - 1)))
    # identity D = B (alpha(2k-ell) - d) for assorted parameters
    for (d, k, ell, alpha) in [(1, 2, 1, 2.5), (2, 3, 2, 4.0), (3, 4, 4, 5.0)]:
        assert d_constant(d, k, ell) == pytest.approx(
            b_constant(d, k, ell, alpha) * (alpha * (2 * k - ell) - d))
    with pytest.raises(InvalidParameterError):
        b_constant(3, 2, 2, 1.4)   # alpha(2k-ell) <= d diverges
    with pytest.raises(InvalidParameterError):
        d_constant(2, 2, 3)


def test_covariance_L_closed_form(k2):
    cov = covariance_L(params(k2, grid=(0.5, 1.0), n=200_000, seed=1))
    # L_2(t,s) = B_2 * area of the disc of radius min(t,s)
    target = math.pi / 6 * math.pi * np.minimum.outer([0.5, 1.0], [0.5, 1.0]) ** 2
    assert np.all(np.abs(cov.matrix - target) <= 5 * cov.std_err)
    assert np.array_equal(cov.matrix, cov.matrix.T)   # symmetrized exactly
    # the ell = k estimator is a Gram matrix: PSD without any jitter
    assert np.linalg.eigvalsh(cov.matrix).min() >= 0.0
    # t = 0 entries vanish for k >= 2
    cov0 = covariance_L(params(k2, grid=(0.0, 1.0), n=10_000, seed=2))
    assert cov0.matrix[0, 0] == 0.0 and cov0.matrix[0, 1] == 0.0


def test_covariance_L_rank_one_for_ell_1(k2):
    # degenerate limit: L_1(t,s) = B_1 (pi t^2)(pi s^2), a rank-one matrix with
    # all correlations equal to one
    grid = np.array([0.5, 1.0, 1.5])
    cov = covariance_L(params(k2, ell=1, grid=tuple(grid), n=150_000, seed=3))
    target = math.pi / 5 * np.outer(math.pi * grid ** 2, math.pi * grid ** 2)
    assert np.all(np.abs(cov.matrix - target) <= 5 * cov.std_err + 1e-12)
    corr = target / np.sqrt(np.outer(np.diag(target), np.diag(target)))
    assert np.allclose(corr, 1.0)


def test_covariance_M_bridge(k2):
    # c = inf: M_ell = (alpha - d/(2k-ell)) L_ell with the matching alpha
    closed_L2 = math.pi ** 2 / 6
    m2 = covariance_M(params(k2, c=np.inf, n=250_000, seed=4))
    assert m2.matrix[0, 0] / closed_L2 == pytest.approx(3.0, rel=0.03)
    closed_L1 = math.pi ** 3 / 5
    m1 = covariance_M(params(k2, ell=1, c=np.inf, n=250_000, seed=5))
    assert m1.matrix[0, 0] / closed_L1 == pytest.approx(10 / 3, rel=0.03)


def test_covariance_M_exponential_case_vs_quadrature(k2):
    """c = 1 block values against an independent quadrature oracle."""
    # M_2(1,1) = (D_2/2) int_{|y|<=1} exp(-|y_1|) dy
    i_abs, _ = integrate.quad(lambda u: math.exp(-abs(u)) * 2 * math.sqrt(1 - u * u),
                              -1, 1)
    target2 = math.pi / 2 * i_abs
    m2 = covariance_M(params(k2, c=1.0, n=250_000, seed=6))
    assert m2.matrix[0, 0] == pytest.approx(target2, rel=0.03)

    # M_1(1,1) = D_1 int_0^inf e^{-3 rho} G(rho)^2 drho
    def big_g(rho):
        lo = -min(rho, 1.0)
        val, _ = integrate.quad(lambda u: math.exp(-u) * 2 * math.sqrt(1 - u * u),
                                lo, 1)
        return val

    target1, _ = integrate.quad(lambda r: math.exp(-3 * r) * big_g(r) ** 2, 0, 40)
    target1 *= 2 * math.pi
    m1 = covariance_M(params(k2, ell=1, c=1.0, n=250_000, seed=7))
    assert m1.matrix[0, 0] == pytest.approx(target1, rel=0.03)
    # M(0, 0) = 0
    m0 = covariance_M(params(k2, c=1.0, grid=(0.0,), n=10_000, seed=8))
    assert m0.matrix[0, 0] == 0.0


def test_covariance_M_annulus_partition(k2):
    """Annulus blocks partition the full block: sum over a disjoint cover."""
    full = covariance_M(params(k2, c=1.0, n=200_000, seed=9))
    parts = [covariance_M(params(k2, c=1.0, n=200_000, seed=9, annulus=ab))
             for ab in ((0.0, 0.7), (0.7, 2.0), (2.0, np.inf))]
    total = sum(p.matrix[0, 0] for p in parts)
    # same seed -> same draws -> the indicator partition is exact
    assert total == pytest.approx(full.matrix[0, 0], rel=1e-12)


def test_mixture_weights(k2):
    base = params(k2, n=50_000, seed=11)
    # sparse with K=1, L=inf is exactly the ell=k block (weight one)
    mix = mixture_covariance("sparse", base)
    block = covariance_L(params(k2, n=50_000, seed=11 + 2))  # mixture uses seed+ell
    assert np.array_equal(mix.matrix, block.matrix)
    assert mix.provenance["formula"] == "mixture_heavy_sparse"
    # sparse with K=1, L=2: weight 1 - 2^{d - alpha k} = 1 - 2^{-6}
    mix2 = mixture_covariance("sparse", params(k2, n=50_000, seed=11, annulus=(1.0, 2.0)))
    assert np.allclose(mix2.matrix, (1 - 2.0 ** -6) * block.matrix, rtol=1e-12)
    # a missing bound is the family's start below (K = 1 heavy, K = 0 light) and inf above
    assert params(k2, annulus=(None, 2.0)).annulus == (1.0, 2.0)
    assert params(k2, c=1.0, annulus=(None, 2.0)).annulus == (0.0, 2.0)
    assert params(k2, annulus=(1.5, None)).annulus == (1.5, math.inf)
    # critical: xi-weighted sum over ell
    mix3 = mixture_covariance("critical", base, xi=1.0)
    b1 = covariance_L(params(k2, ell=1, n=50_000, seed=11 + 1))
    assert np.allclose(mix3.matrix, block.matrix + b1.matrix, rtol=1e-12)
    # dense with K=1, L=inf is exactly the ell=1 block (weight one)
    mix_dense = mixture_covariance("dense", base)
    assert np.array_equal(mix_dense.matrix, b1.matrix)
    assert np.array_equal(mix_dense.std_err, b1.std_err)
    assert mix_dense.provenance["formula"] == "mixture_heavy_dense"
    # a set c selects the light family: the annulus restricts the M blocks
    light = params(k2, c=1.0, n=50_000, seed=11, annulus=(0.0, 0.7))
    mix4 = mixture_covariance("sparse", light)
    assert mix4.provenance["formula"] == "mixture_light_sparse"
    m2 = covariance_M(params(k2, c=1.0, n=50_000, seed=11 + 2, annulus=(0.0, 0.7)))
    assert np.array_equal(mix4.matrix, m2.matrix)
    with pytest.raises(InvalidParameterError):
        mixture_covariance("critical", base)                  # missing xi
    with pytest.raises(InvalidParameterError):
        mixture_covariance("sparse", params(k2, annulus=(0.5, 2.0)))
    with pytest.raises(InvalidParameterError):
        mixture_covariance("sparse", params(k2, c=1.0, annulus=(-0.5, 2.0)))
    with pytest.raises(InvalidParameterError):
        mixture_covariance("sparse", params(k2, alpha=None))  # heavy without alpha


def test_brownian_identity(k2, triangle):
    rep = brownian_identity_check(params(k2, grid=(0.5, 1.0, 2.0), n=250_000, seed=12))
    # K_2^+ = B_2 * unit-ball volume (h+ of an edge is the unit-ball indicator)
    assert rep["K_hat"] == pytest.approx(math.pi ** 2 / 6, rel=0.03)
    assert rep["passed"]
    # min-structure: predicted (2,1) off-diagonal equals the (1,1) diagonal
    grid = [0.5, 1.0, 2.0]
    i1, i2 = grid.index(1.0), grid.index(2.0)
    assert rep["predicted"][i2, i1] == pytest.approx(rep["predicted"][i1, i1])
    # h- of a complete shape is identically zero
    rep_minus = brownian_identity_check(
        params(triangle, ell=3, grid=(0.5, 1.0), n=20_000, seed=13),
        mode="minus")
    assert rep_minus["K_hat"] == 0.0
    assert rep_minus["max_z"] == 0.0 and rep_minus["passed"]
    with pytest.raises(InvalidParameterError):
        brownian_identity_check(params(k2, ell=1, n=10_000, seed=1))


def test_self_similarity_small(k2):
    rep = self_similarity_report(params(k2, grid=(1.0,), n=120_000, seed=14))
    assert rep["target"] == 2.0          # d(2k - ell - 1) = 2
    assert rep["passed"], rep


def test_params_validation(k2, path3):
    with pytest.raises(InvalidParameterError):
        params(k2, n=999)          # MC sample floor
    with pytest.raises(InvalidParameterError):
        params(k2, ell=3)          # ell > k
    assert params(path3).k == 3    # k is the shape's order
    with pytest.raises(InvalidParameterError):
        covariance_M(params(k2, c=None))
    with pytest.raises(InvalidParameterError):
        covariance_L(params(k2, alpha=None))
    # the annulus starts at R: K >= 1 in the heavy family, K >= 0 in the light one
    for K in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(InvalidParameterError, match="annulus needs 1 <= K < L"):
            params(k2, annulus=(K, 2.0))
    for K in (-0.5, math.nan):
        with pytest.raises(InvalidParameterError, match="annulus needs 0 <= K < L"):
            params(k2, c=1.0, annulus=(K, 2.0))
    assert params(k2, c=1.0, annulus=(0.5, 2.0)).annulus == (0.5, 2.0)


def _boundary_configs(d: int, t: float) -> np.ndarray:
    """k = 3 configurations whose pair (0, 1) lies at distance exactly t along
    one axis, with the third point t + 0.6 from point 0 on the same axis, so
    the 3-path at radius t needs the closed-ball rule."""
    cfgs = np.zeros((d, 3, d))
    for axis in range(d):
        cfgs[axis, 1, axis] = t
        cfgs[axis, 2, axis] = t + 0.6
    return cfgs


def _networkx_indicators(cfg: np.ndarray, t: float, shape) -> tuple[bool, bool, bool]:
    """(h, plus, minus) of one configuration at radius t, from a networkx
    graph with an edge wherever ``np.linalg.norm(p_i - p_j) <= t``."""
    g = nx.Graph()
    g.add_nodes_from(range(shape.k))
    g.add_edges_from((i, j) for i, j in itertools.combinations(range(shape.k), 2)
                     if np.linalg.norm(cfg[i] - cfg[j]) <= t)
    connected = nx.is_connected(g)
    h = connected and nx.is_isomorphic(g, nx.Graph(shape.edges))
    minus = connected and g.number_of_edges() > len(shape.edges)
    return h, h or minus, minus


def test_indicator_values_match_reference(rng, path3):
    grid = np.array([0.4, 0.9, 1.7])
    # k = 7: jittered unit-step chains along e1
    chain = np.stack([np.arange(7.0), np.zeros(7)], axis=1)
    cases = [(path3, rng.normal(size=(50, 3, d))) for d in (1, 2, 3)]
    cases += [(named_shape(7, "path"), chain + 0.25 * rng.normal(size=(50, 7, 2)))]
    for d in (1, 2, 3):
        tie = _boundary_configs(d, grid[1])
        assert np.all(np.linalg.norm(tie[:, 0] - tie[:, 1], axis=1) == grid[1])
        assert np.array_equal(_mode_values(build_atlas(3), path3, tie, grid, "h"),
                              np.tile([False, True, False], (d, 1)))
        cases.append((path3, np.concatenate([tie, rng.normal(size=(20, 3, d))])))
    for shape, cfgs in cases:
        atlas = build_atlas(shape.k)
        vals = _mode_values(atlas, shape, cfgs, grid, "h")
        plus = _mode_values(atlas, shape, cfgs, grid, "plus")
        minus = _mode_values(atlas, shape, cfgs, grid, "minus")
        for i in range(len(cfgs)):
            for j, t in enumerate(grid):
                assert (vals[i, j], plus[i, j], minus[i, j]) == \
                    _networkx_indicators(cfgs[i], t, shape), (shape, i, t)
        assert vals.any() and minus.any(), (shape, cfgs.shape)


def _einsum_reference(p: OracleParams, mode: str, light: bool):
    """(matrix, std_err) of one oracle block by the plain arithmetic: both
    configurations classified and per-chunk three-operand einsum sums."""
    d, k, ell, grid = p.d, p.k, p.ell, p.t_grid
    n_shared, n_z = ell - 1, k - ell
    radius = k * max(float(grid.max()), np.finfo(float).tiny)
    volume = unit_ball_volume(d) * radius ** d
    if light:
        cinv = 0.0 if math.isinf(p.c) else 1.0 / p.c
        rate = 2 * k - ell
        scale = d_constant(d, k, ell) / rate * volume ** (2 * k - ell - 1)
    else:
        scale = b_constant(d, k, ell, p.alpha) * volume ** (2 * k - ell - 1)
    atlas = build_atlas(k)
    rng = np.random.default_rng(p.seed)
    sum_m = np.zeros((grid.size, grid.size))
    sq_m = np.zeros_like(sum_m)
    remaining = p.n_samples
    while remaining > 0:
        count = min(1 << 15, remaining)
        remaining -= count
        shared = _scale_points(*_ball_draws(rng, count, n_shared, d, radius))
        z1 = _scale_points(*_ball_draws(rng, count, n_z, d, radius))
        z2 = _scale_points(*_ball_draws(rng, count, n_z, d, radius))
        zeros = np.zeros((count, 1, d))
        a1 = _mode_values(atlas, p.shape, np.concatenate([zeros, shared, z1], axis=1),
                          grid, mode).astype(float)
        a2 = _mode_values(atlas, p.shape, np.concatenate([zeros, shared, z2], axis=1),
                          grid, mode).astype(float)
        w = np.ones(count)
        if light:
            rho = rng.exponential(1.0 / rate, size=count)
            proj_all = np.concatenate([shared[:, :, 0], z1[:, :, 0], z2[:, :, 0]], axis=1)
            w = np.exp(-cinv * proj_all.sum(axis=1))
            w *= np.all(rho[:, None] + cinv * proj_all >= 0, axis=1)
            if p.annulus is not None:
                K, L = p.annulus
                for z in (z1, z2):
                    sat = np.concatenate([shared[:, :, 0], z[:, :, 0]], axis=1)
                    top = np.maximum(rho, rho + cinv * sat.max(axis=1, initial=0.0))
                    w *= (K <= top) & (top < L)
        e = np.einsum("m,mt,ms->ts", w, a1, a2)
        sum_m += 0.5 * (e + e.T)
        e2 = np.einsum("m,mt,ms->ts", w * w, a1, a2)
        cross = np.einsum("m,mt,ms->ts", w * w, a1 * a2, a1 * a2)
        sq_m += 0.25 * (e2 + e2.T) + 0.5 * cross
    N = p.n_samples
    mean = sum_m / N
    var = np.maximum(sq_m / N - mean ** 2, 0.0)
    return scale * mean, scale * np.sqrt(var / N)


def test_oracle_matches_einsum_reference(path3, k2):
    # 40 000 samples cross the 2^15 chunk boundary; the grid includes t = 0
    grid = (0.0, 0.5, 1.0, 1.5)
    cases = [(params(path3, ell=ell, grid=grid, n=40_000, seed=21 + ell), mode, False)
             for ell in (1, 2, 3) for mode in ("h", "plus", "minus")]
    cases += [(params(path3, ell=ell, c=1.0, grid=grid, n=40_000, seed=31 + ell,
                      annulus=annulus), "h", True)
              for ell in (1, 2, 3) for annulus in (None, (0.7, 2.0))]
    # K2 on critical-k2's grid
    critical = (0.5, 0.75, 1.0, 1.25, 1.5)
    cases += [(params(k2, ell=ell, grid=critical, n=40_000, seed=51 + ell), mode, False)
              for ell in (1, 2) for mode in ("h", "plus")]
    cases += [(params(k2, ell=1, c=0.5, grid=critical, n=40_000, seed=53), "h", True)]
    # d = 1 and d = 3 (the 3-path's ell = 1 block gets no hit in d = 3 at this
    # size, so K2 stands in for it there)
    cases += [(params(path3, d=1, ell=ell, grid=grid, n=40_000, seed=61 + ell), "h", False)
              for ell in (1, 2, 3)]
    cases += [(params(path3, d=1, ell=2, c=1.0, grid=grid, n=40_000, seed=65), "plus", True)]
    cases += [(params(path3, d=3, ell=ell, grid=grid, n=40_000, seed=71 + ell), "h", False)
              for ell in (2, 3)]
    cases += [(params(k2, d=3, ell=1, grid=grid, n=40_000, seed=74), "h", False),
              (params(path3, d=3, ell=3, c=1.0, grid=grid, n=40_000, seed=75), "h", True)]
    # an unsorted grid
    unsorted = (1.5, 0.25, 1.0, 0.5)
    cases += [(params(path3, ell=2, grid=unsorted, n=40_000, seed=81), "minus", False),
              (params(path3, ell=2, c=1.0, grid=unsorted, n=40_000, seed=82,
                      annulus=(0.7, 2.0)), "h", True)]
    for p, mode, light in cases:
        got = (covariance_M if light else covariance_L)(p, mode=mode)
        matrix, std_err = _einsum_reference(p, mode, light)
        case = (p.d, p.k, p.ell, p.t_grid, mode, light, p.annulus)
        assert got.matrix.any(), case
        assert np.array_equal(got.matrix, matrix), case
        assert np.array_equal(got.std_err, std_err), case


@pytest.mark.parametrize("k", [2, 3, 4])
def test_radius_prefilter_keeps_what_can_connect(k):
    t_max, d = 1.5, 2
    reach = (k - 1) * t_max
    e1 = np.array([3.7, 0.0])      # normalizes to exactly (1, 0)
    z = np.tile(e1, (4, k - 1, 1))
    # row 0: a chain spaced exactly t_max along e_1, ending at radius (k-1) t_max
    r = np.tile(t_max * np.arange(1.0, k), (4, 1))
    # row 1: a zero direction far beyond reach, which leaves its point at the origin
    z[1, 0] = 0.0
    r[1, 0] = 10 * reach
    # rows 2 and 3: a point beyond reach rejects its row, from either group
    r[2, -1] = 1.01 * reach
    r[3, 0] = 1.01 * reach
    rows = _within_reach([(z[:, :1], r[:, :1]), (z[:, 1:], r[:, 1:])], k, t_max)
    assert rows.tolist() == [0, 1]
    pts = _scale_points(z.copy(), r.copy())
    assert np.array_equal(pts[0, :, 0], t_max * np.arange(1.0, k))
    assert not pts[1, 0].any()
    chain = np.concatenate([np.zeros((1, d)), pts[0]])[None]
    shape = named_shape(k, "path")
    # consecutive points lie at exactly t_max, and the chain reads connected there
    assert np.all(np.diff(chain[0, :, 0]) == t_max)
    assert _mode_values(build_atlas(k), shape, chain, [t_max], "h").all()
    assert not _mode_values(build_atlas(k), shape, chain, [np.nextafter(t_max, 0)],
                            "plus").any()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radius_prefilter_rejects_only_dead_rows(d, path3):
    # every rejected row, once scaled, reads 0 in the plus mode at t_max
    t_max, count = 1.0, 20_000
    rng = np.random.default_rng(d)
    draws = [_ball_draws(rng, count, 2, d, 3 * t_max)]
    rows = _within_reach(draws, 3, t_max)
    assert 0 < rows.size < count
    dead = np.setdiff1d(np.arange(count), rows)
    pts = _scale_points(*draws[0])
    cfg = np.concatenate([np.zeros((count, 1, d)), pts], axis=1)
    assert not _mode_values(build_atlas(3), path3, cfg[dead], [t_max], "plus").any()
    assert _mode_values(build_atlas(3), path3, cfg[rows], [t_max], "plus").any()


def test_light_oracle_finite_at_small_c(k2):
    # off the support exp(-(1/c) sum <e1, y_i>) overflows at small c; the
    # support must zero it before inf * 0 turns the block into NaN
    small = covariance_M(params(k2, c=0.002, grid=(0.5, 1.0), n=20_000, seed=3))
    assert np.all(np.isfinite(small.matrix)) and np.all(np.isfinite(small.std_err))
    assert np.all(small.matrix > 0)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_ball_points_match_plain_formula(d):
    # directions z / |z| scaled by radius * u^(1/d), from the same draws
    got = _scale_points(*_ball_draws(np.random.default_rng(d), 3000, 3, d, 2.5))
    rng = np.random.default_rng(d)
    z = rng.standard_normal((3000, 3, d))
    r = 2.5 * rng.random((3000, 3)) ** (1.0 / d)
    want = z / np.linalg.norm(z, axis=2, keepdims=True) * r[:, :, None]
    assert np.array_equal(got, want)
    assert np.linalg.norm(got, axis=2).max() <= 2.5
    empty = _scale_points(*_ball_draws(np.random.default_rng(d), 10, 0, d, 2.5))
    assert empty.shape == (10, 0, d)


def test_accumulate_unit_weights_bit_identical(rng):
    # w=None skips the weight products; with a2 = a1 (the ell = k block) the
    # products run on one operand twice
    a1 = (rng.random((5000, 6)) < 0.4).astype(float)
    a2 = (rng.random((5000, 6)) < 0.6).astype(float)
    for second in (a2, a1):
        unit = [np.full((6, 6), 0.1), np.full((6, 6), 0.3)]
        ones = [np.full((6, 6), 0.1), np.full((6, 6), 0.3)]
        for _ in range(2):
            _accumulate(*unit, None, a1, second)
            _accumulate(*ones, np.ones(len(a1)), a1, second)
        assert np.array_equal(unit[0], ones[0]) and np.array_equal(unit[1], ones[1])
        assert unit[0].max() > 100


def _poisson_pair_cumulants(n: float) -> tuple[float, float, float]:
    """Cumulants of N(N-1)/2 with N ~ Poisson(n), summed over the pmf."""
    N = np.arange(int(n + 40 * math.sqrt(n)) + 40)
    pmf = stats.poisson.pmf(N, n)
    g = N * (N - 1) / 2.0
    mean = float(pmf @ g)
    return mean, float(pmf @ (g - mean) ** 2), float(pmf @ (g - mean) ** 3)


@pytest.mark.parametrize("family,t", [("power", 1e7), ("vonmises", 100.0)])
def test_exact_pair_cumulants_closed_form(power24, vm21, family, t):
    # R = 0 and t beyond the cloud's diameter: h = 1, so G = N(N-1)/2
    density = power24 if family == "power" else vm21
    n = 50.0
    closed = (n ** 2 / 2, n ** 2 / 2 + n ** 3, n ** 2 / 2 + 4 * n ** 3 + 4 * n ** 4)
    np.testing.assert_allclose(_poisson_pair_cumulants(n), closed, rtol=1e-10)
    got = exact_pair_cumulants(density, n, 0.0, t)
    np.testing.assert_allclose([got.kappa1, got.kappa2, got.kappa3], closed, rtol=1e-9)
    assert got.kappa3_se <= 1e-9 * got.kappa3


def test_exact_pair_cumulants_heavy_sparse_rung(power24):
    # criterion 5's middle rung: R = n^0.3, t = 1; the references come from
    # an independent nested quadrature of the same formulas
    n = 1e5
    got = exact_pair_cumulants(power24, n, n ** 0.3, 1.0)
    assert got.kappa1 == pytest.approx(0.6493, rel=1e-3)
    assert got.kappa2 == pytest.approx(0.6955, rel=1e-3)
    assert got.skewness == pytest.approx(1.419, rel=1e-3)
    assert 4 * got.skewness_se <= 1e-3 * got.skewness   # MC error fits the tolerance


def test_exact_pair_cumulants_validation(power12, power24):
    with pytest.raises(UnsupportedOperationError):
        exact_pair_cumulants(power12, 1e3, 1.0, 1.0)
    for n, R, t in ((0.0, 1.0, 1.0), (1e3, -1.0, 1.0), (1e3, 1.0, 0.0)):
        with pytest.raises(InvalidParameterError):
            exact_pair_cumulants(power24, n, R, t)

"""Experiment harness: seed derivation, determinism, reports, and the
statistical helpers."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.spatial import cKDTree

from rgglab.counting import CountRequest, count_subgraphs
from rgglab.densities import (
    CoreSchedule,
    PoissonLayerSchedule,
    PowerSchedule,
    sample_poisson_cloud,
)
from rgglab.harness import (
    ExperimentConfig,
    ExperimentError,
    _chi2_sf,
    _poisson_pmf,
    _poisson_upper_tail,
    cubes_inside_ball,
    palm_expectation,
    palm_mean_check,
    poisson_gof,
    replication_seed,
    run_clt_experiment,
    run_core_experiment,
    run_poisson_layer_experiment,
    write_report,
)
from rgglab.regimes import BoundaryRegimeError


def small_cfg(power24, k2, **kw):
    defaults = dict(
        density=power24, schedule=PowerSchedule(beta=0.3), shape=k2,
        t_grid=np.array([0.6, 1.0]), n_ladder=(1e4, 3e4), replications=60,
        master_seed=5, workers=1, oracle_samples=20_000,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_seed_derivation_injective():
    draws = {}
    for rung in range(3):
        for rep in range(4):
            seq = replication_seed(7, rung, rep)
            val = tuple(np.random.default_rng(seq).integers(0, 2 ** 32, 4))
            assert val not in draws.values()
            draws[(rung, rep)] = val
    # reproducible
    again = tuple(np.random.default_rng(replication_seed(7, 2, 3)).integers(0, 2 ** 32, 4))
    assert again == draws[(2, 3)]


def test_clt_report_structure_and_identities(power24, k2):
    cfg = small_cfg(power24, k2)
    rep = run_clt_experiment(cfg)
    assert rep.flags["regime"] == "sparse"
    assert rep.flags["decomposition_exact_all"]
    assert rep.flags["monotone_curves_all"]
    assert len(rep.rungs) == 2
    for rung in rep.rungs:
        assert rung["ratio"].shape == (2, 2)
        assert rung["standardized_mean_max"] < 1e-9
        assert math.isfinite(rung["ref_ratio_se"])


def test_clt_determinism_across_workers(power24, k2, tmp_path):
    outs = []
    for workers in (1, 4):
        cfg = small_cfg(power24, k2, workers=workers)
        rep = run_clt_experiment(cfg)
        out = tmp_path / f"w{workers}"
        write_report(rep, out)
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name


def test_clt_refuses_boundary_schedule(power24, k2):
    cfg = small_cfg(power24, k2, schedule=PowerSchedule(beta=0.4))
    with pytest.raises(BoundaryRegimeError):
        run_clt_experiment(cfg)


def test_palm_factorial_moment_case(power24, k2):
    """R = 0 and t beyond the diameter: E G = E[N(N-1)]/2 = n^2/2 exactly."""
    rng = np.random.default_rng(0)
    n = 120.0
    vals = []
    for _ in range(250):
        cloud = sample_poisson_cloud(n, power24, rng)
        req = CountRequest(shape=k2, t_grid=np.array([1e6]))
        vals.append(count_subgraphs(cloud, req).counts[0])
    vals = np.array(vals, dtype=float)
    target = n ** 2 / 2
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3 * se


def test_palm_mean_check_runs(power24, k2):
    cfg = small_cfg(power24, k2, replications=300, oracle_samples=150_000,
                    n_ladder=(1e4,), t_grid=np.array([1.0]))
    rep = palm_mean_check(cfg)
    assert rep.flags["mean_within_3se"], rep.flags
    assert rep.flags["joint_within_3se"], rep.flags
    with pytest.raises(ExperimentError):
        big = small_cfg(power24, k2)
        big.shape = __import__("rgglab.atlas", fromlist=["named_shape"]).named_shape(4, "path")
        palm_mean_check(big)


def test_palm_expectation_consistency(power24, k2):
    # against a direct 2-d quadrature for the pair integral at R = 0, t = 1
    rng = np.random.default_rng(1)
    m1, se1, m2, se2 = palm_expectation(power24, k2, 0.0, (1.0, 1.0), 200_000, rng)
    from scipy import integrate

    def inner(r):
        def g(rho):
            def h(phi):
                rr = math.sqrt(r * r + rho * rho + 2 * r * rho * math.cos(phi))
                return float(power24.radial_profile(rr))
            v, _ = integrate.quad(h, 0, math.pi, limit=100)
            return 2 * v * rho
        v, _ = integrate.quad(g, 0, 1.0, limit=100)
        return v

    target, _ = integrate.quad(lambda r: 2 * math.pi * r
                               * float(power24.radial_profile(r)) * inner(r),
                               0, 60, limit=200)
    assert m1 == pytest.approx(target, abs=4 * se1 + 0.01 * target)
    assert m2 == pytest.approx(m1, rel=1e-12)   # t = s: joint equals single


def test_poisson_gof_calibration():
    rng = np.random.default_rng(2)
    true_pois = rng.poisson(3.0, size=2000)
    assert poisson_gof(true_pois)["p_value"] > 0.001
    overdispersed = rng.poisson(3.0, size=2000) + 3 * rng.poisson(0.35, size=2000)
    assert poisson_gof(overdispersed)["p_value"] < 1e-4


def test_poisson_gof_lumped_tail_matches_scipy():
    # the lumped upper bin is n P(X > kmax), summed directly: one less the
    # lower terms lost 4.5e-12 relative to cancellation on the overdispersed
    # sample of test_poisson_gof_calibration
    rng = np.random.default_rng(2)
    rng.poisson(3.0, size=2000)
    overdispersed = rng.poisson(3.0, size=2000) + 3 * rng.poisson(0.35, size=2000)
    n, kmax, lam = 2000, int(overdispersed.max()), overdispersed.mean()
    assert n * _poisson_upper_tail(kmax, lam) == pytest.approx(
        n * stats.poisson.sf(kmax, lam), rel=1e-13, abs=0)
    for kmax, lam in [(0, 0.0), (5, 0.1), (12, 3.0), (30, 29.5), (200, 150.3)]:
        assert _poisson_upper_tail(kmax, lam) == pytest.approx(
            stats.poisson.sf(kmax, lam), rel=1e-13, abs=0), (kmax, lam)


@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.37, 1.0, 4.85, 19.0, 120.5])
def test_poisson_pmf_matches_scipy(mu):
    """Within 1e-12 relative of scipy wherever scipy's value is a normal
    float; in the subnormal range, within the smallest normal float."""
    k = np.arange(0, 400)
    mu = np.float64(mu)
    np.testing.assert_allclose(_poisson_pmf(k, mu), stats.poisson.pmf(k, mu),
                               rtol=1e-12, atol=np.finfo(float).tiny)


def test_chi2_sf_matches_scipy():
    """The finite sums for integer dof against scipy, within 1e-12 relative."""
    for dof in range(1, 41):
        assert _chi2_sf(0.0, dof) == 1.0
        for x in np.geomspace(1e-6, 900.0, 60):
            assert _chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof),
                                                     rel=1e-12, abs=0), (dof, x)


def test_poisson_layer_experiment(power24, k2):
    cfg = small_cfg(power24, k2, schedule=PoissonLayerSchedule(k=2),
                    replications=500, n_ladder=(1e5,), t_grid=np.array([1.0]))
    rep = run_poisson_layer_experiment(cfg)
    rung = rep.rungs[0]
    assert 0.5 < rung["dispersion"] < 1.5
    assert rung["mean"] > 0.5
    cfg_bad = small_cfg(power24, k2)
    with pytest.raises(ExperimentError):
        run_poisson_layer_experiment(cfg_bad)


def test_cubes_inside_ball_and_coverage_implication(power24):
    g = 1.0 / (2 * math.sqrt(2))
    cubes = cubes_inside_ball(3.0, g, 2)
    # every cube's far corner is inside the ball
    far = np.maximum(np.abs(cubes * g), np.abs((cubes + 1) * g))
    assert np.all(np.linalg.norm(far, axis=1) <= 3.0)
    # cube criterion implies coverage by unit balls (probe a fine grid)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform(-4, 4, size=(600, 2))
        cells = np.floor(pts / g).astype(int)
        occupied = set(map(tuple, cells))
        if not all(tuple(c) in occupied for c in cubes):
            continue
        probe = np.stack(np.meshgrid(np.linspace(-2.1, 2.1, 43),
                                     np.linspace(-2.1, 2.1, 43)), axis=-1).reshape(-1, 2)
        probe = probe[np.linalg.norm(probe, axis=1) <= 3.0]
        dist, _ = cKDTree(pts).query(probe)
        assert np.all(dist <= 1.0)


def test_core_experiment(power24, k2):
    cfg = small_cfg(power24, k2, schedule=CoreSchedule(delta1=0.125, delta2=0.5),
                    replications=40, n_ladder=(1e4, 1e5))
    rep = run_core_experiment(cfg)
    assert rep.flags["radius_monotone_all"]
    assert rep.flags["frequency_nondecreasing"]
    assert rep.rungs[-1]["frequency"] >= 0.9
    # memory guard: at n = 1e17 the core radius is about 2870, so the cube
    # count estimate passes CORE_CELL_BUDGET and the run raises before sampling
    cfg_huge = small_cfg(power24, k2, schedule=CoreSchedule(delta1=0.125, delta2=0.5),
                         replications=2, n_ladder=(1e17,))
    with pytest.raises(ExperimentError, match="exceeds budget"):
        run_core_experiment(cfg_huge)


def test_write_report_csvs(power24, k2, tmp_path):
    cfg = small_cfg(power24, k2, replications=20)
    rep = run_clt_experiment(cfg)
    files = write_report(rep, tmp_path)
    raw = (tmp_path / "raw_curves.csv").read_text().splitlines()
    assert raw[0] == "n,seed,t,count_h,count_plus,count_minus"
    # rows: rungs * replications * grid points
    assert len(raw) - 1 == 2 * 20 * 2
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "oracle_covariance.csv").read_text().startswith("# provenance")

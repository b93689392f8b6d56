"""Experiment harness: seed derivation, determinism, reports, and the
statistical helpers."""

import hashlib
import json
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
    WeakCoreSchedule,
    sample_poisson_cloud,
    weak_core_radius,
)
from rgglab.harness import (
    ExperimentConfig,
    ExperimentError,
    _chi2_sf,
    _default_classify_range,
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
from rgglab.limits import exact_pair_cumulants
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
    # a band needs lo <= hi, an annulus K < L, t_ref a finite value and
    # workers at least 1, also in a config built in code
    for key, value in (("band", (1.2, 0.8)), ("band", (math.nan, 2.0)),
                       ("annulus", (2.0, 1.0)), ("annulus", (1.0, math.nan)),
                       ("t_ref", math.nan), ("t_ref", math.inf), ("workers", 0),
                       ("workers", -3)):
        with pytest.raises(ExperimentError, match=f"^{key}: "):
            small_cfg(power24, k2, **{key: value})


def test_default_classify_range_steps_up_to_the_schedule(power24, k2):
    """The default range starts two decades below the ladder, a decade
    higher per try while the schedule is undefined there.  The weak core of
    ``PowerLawDensity(2, 4)`` needs n f(0) > 1, which fails at n = 1 and
    holds at n = 10."""
    cfg = small_cfg(power24, k2, schedule=WeakCoreSchedule(), n_ladder=(1e2, 1e3))
    assert _default_classify_range(cfg) == (10.0, 1e3)
    cfg = small_cfg(power24, k2, schedule=WeakCoreSchedule(), n_ladder=(1.0, 2.0))
    with pytest.raises(ExperimentError, match="schedule undefined over any classification range"):
        _default_classify_range(cfg)


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


def test_palm_check_passes_runs_without_events(power24, path3):
    """About 0.33 joint events are expected over all 300 replications, so a
    correct run may see none; its SE is then the Poisson floor, not 0."""
    cfg = small_cfg(power24, path3, replications=300, oracle_samples=200_000,
                    n_ladder=(1e4,), t_grid=np.array([1.0]))
    rep = palm_mean_check(cfg)
    assert rep.rungs[0]["empirical_joint"] == 0.0
    assert rep.flags["mean_within_3se"], rep.flags
    assert rep.flags["joint_within_3se"], rep.flags


@pytest.mark.parametrize("family, n, core_factor", [("power", 1e5, 1.0),
                                                    ("vonmises", 1e6, 1.3)])
def test_palm_expectation_matches_exact_pair_mean(power24, vm21, k2, family, n,
                                                  core_factor):
    """Outside R, (n^2/2) E{h_t 1} is the exact pair mean kappa1 at t; for K2
    the joint term at (1, 0.75) is kappa1 at t = 0.75."""
    density = power24 if family == "power" else vm21
    R = core_factor * weak_core_radius(density, n)
    m1, se1, m2, se2 = palm_expectation(density, k2, R, (1.0, 0.75), 200_000,
                                        np.random.default_rng(3))
    half_n2 = n * n / 2
    for m, se, t in ((m1, se1, 1.0), (m2, se2, 0.75)):
        exact = exact_pair_cumulants(density, n, R, t).kappa1
        assert abs(half_n2 * m - exact) <= 3 * half_n2 * se, (t, half_n2 * m, exact)


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


def test_write_report_layer_counts(power24, k2, tmp_path):
    """A Poisson-layer report writes ``layer_counts.csv``, one row per rung
    and replication holding that replication's count, and lists it in the
    manifest with its sha256."""
    cfg = small_cfg(power24, k2, schedule=PoissonLayerSchedule(k=2), replications=30,
                    n_ladder=(1e4, 3e4), t_grid=np.array([1.0]))
    rep = run_poisson_layer_experiment(cfg)
    files = write_report(rep, tmp_path)
    path = tmp_path / "layer_counts.csv"
    assert files["layer_counts"] == path
    header, *rows = path.read_text().splitlines()
    assert header == "n,seed,count"
    got = [(float(n), int(seed), int(count))
           for n, seed, count in (row.split(",") for row in rows)]
    assert got == [(rung["n"], i, int(c)) for rung in rep.rungs
                   for i, c in enumerate(rung["counts"])]
    assert len(got) == 2 * 30 and any(count > 0 for _, _, count in got)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "poisson_layer"
    assert manifest["artifacts"]["layer_counts"] == {
        "path": "layer_counts.csv", "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

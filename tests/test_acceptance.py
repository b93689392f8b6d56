"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Statistical criteria run at their stated replication counts and tolerances
with a fixed master seed; nothing is deferred to later calibration.  Where a
benchmark pins every parameter, those parameters appear verbatim below.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from rgglab.atlas import build_atlas, named_shape
from rgglab.counting import (
    CountRequest,
    count_subgraphs,
    count_subgraphs_exhaustive,
    make_cloud,
)
from rgglab.densities import (
    CoreSchedule,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerLawDensity,
    PowerSchedule,
    VonMisesDensity,
    WeakCoreSchedule,
    poisson_layer_radius,
    sample_poisson_cloud,
    unit_ball_volume,
)
from rgglab.harness import (
    ExperimentConfig,
    _covariance_with_se,
    palm_mean_check,
    run_clt_experiment,
    run_core_experiment,
    run_poisson_layer_experiment,
    write_report,
)
from rgglab.limits import (
    OracleParams,
    b_constant,
    brownian_identity_check,
    covariance_L,
    covariance_M,
    exact_pair_cumulants,
    self_similarity_report,
)
from rgglab.regimes import log_tau

MASTER_SEED = 7
WORKERS = 4

pytestmark = pytest.mark.acceptance


class Checker:
    def __init__(self, name: str):
        self.name = name
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, desc: str) -> None:
        state = "PASS" if ok else "FAIL"
        print(f"  [{state}] {desc}")
        if not ok:
            self.failures.append(desc)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.t0
        state = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.name}: {state} ({elapsed:.1f}s)")
        assert not self.failures, f"criterion {self.name}: " + "; ".join(self.failures)


def test_criterion_01_counting_exactness():
    """Spatial engine equals the exhaustive all-subsets oracle: 100 seeded
    random clouds, <= 40 points, d in {1,2,3}, k in {2,3,4}, all three modes,
    8-point t-grid, zero mismatches, under a minute."""
    c = Checker("1 (counting exactness)")
    rng = np.random.default_rng(MASTER_SEED)
    combos = [(d, k) for d in (1, 2, 3) for k in (2, 3, 4)]
    mismatches = 0
    clouds = 0
    for trial in range(100):
        d, k = combos[trial % len(combos)]
        n_pts = int(rng.integers(6, 41))
        pts = rng.normal(size=(n_pts, d)) * rng.uniform(0.5, 3.0) \
            + rng.normal(size=d) * 2.0
        cloud = make_cloud(pts, n=n_pts, seed=trial)
        atlas = build_atlas(k)
        shape = atlas.classes[int(rng.integers(len(atlas.classes)))]
        grid = np.unique(rng.uniform(0.05, 3.5, size=8))
        while grid.size < 8:
            grid = np.unique(np.append(grid, rng.uniform(0.05, 3.5)))
        R = float(rng.uniform(0.0, 2.0))
        ann = None
        if trial % 4 == 0:
            ann = (float(rng.uniform(0, 2)), float(rng.uniform(3, 9)))
        clouds += 1
        for mode in ("h", "plus", "minus"):
            req = CountRequest(shape=shape, t_grid=grid, R=R, annulus=ann, mode=mode)
            fast = count_subgraphs(cloud, req).counts
            slow = count_subgraphs_exhaustive(cloud, req).counts
            if not np.array_equal(fast, slow):
                mismatches += 1
    c.check(clouds == 100, f"ran {clouds} seeded clouds")
    c.check(mismatches == 0, f"zero mismatches across all modes (got {mismatches})")
    c.finish()


def test_criterion_02_oracle_closed_form():
    """L_2(1,1) for K_2, d=2, k=2, alpha=4 within 2% of pi^2/6 at 1e6 samples;
    Brownian identity K_2+ within 2% of B_2 * omega_d."""
    c = Checker("2 (oracle closed form)")
    k2 = named_shape(2, "complete")
    p = OracleParams(d=2, ell=2, shape=k2, alpha=4.0,
                     t_grid=np.array([1.0]), n_samples=1_000_000, seed=MASTER_SEED)
    est = covariance_L(p).matrix[0, 0]
    target = math.pi ** 2 / 6
    c.check(abs(est / target - 1) < 0.02,
            f"L2(1,1) = {est:.5f} within 2% of pi^2/6 = {target:.5f}")
    rep = brownian_identity_check(p)
    k_target = (math.pi / 6) * math.pi    # B_2 * omega_2
    c.check(abs(rep["K_hat"] / k_target - 1) < 0.02,
            f"K2+ = {rep['K_hat']:.5f} within 2% of B2*omega_d = {k_target:.5f}")
    c.check(rep["passed"], f"covariance matches K+ min(t,s)^d (max z = {rep['max_z']:.2f})")
    c.finish()


def test_criterion_03_self_similarity():
    """Log-log slope of L_ell(ct,ct) over c in {1,2,4} within 3 MC standard
    errors of d(2k-ell-1) for (d,k,ell) in {(2,2,1),(2,2,2),(2,3,2)}."""
    c = Checker("3 (self-similarity)")
    cases = [
        (2, 2, 1, named_shape(2, "complete"), 400_000),
        (2, 2, 2, named_shape(2, "complete"), 400_000),
        (2, 3, 2, named_shape(3, "path"), 500_000),
    ]
    for d, k, ell, shape, n in cases:
        p = OracleParams(d=d, ell=ell, shape=shape, alpha=4.0,
                         t_grid=np.array([1.0]), n_samples=n, seed=MASTER_SEED + ell)
        rep = self_similarity_report(p)
        c.check(rep["passed"],
                f"(d,k,ell)=({d},{k},{ell}): slope {rep['slope']:.3f} "
                f"+- {rep['slope_se']:.3f} vs d(2k-ell-1) = {rep['target']:.0f} "
                f"(z = {rep['z']:.2f})")
    c.finish()


def test_criterion_04_bridge_identity():
    """c = inf: MC ratio M_ell/L_ell within 3% of alpha - d/(2k-ell):
    (2,2,2,4) -> 3.0 and (2,2,1,4) -> 4 - 2/3."""
    c = Checker("4 (light/heavy bridge)")
    k2 = named_shape(2, "complete")
    for ell, target in ((2, 3.0), (1, 4 - 2 / 3)):
        pl = OracleParams(d=2, ell=ell, shape=k2, alpha=4.0,
                          t_grid=np.array([1.0]), n_samples=1_000_000,
                          seed=MASTER_SEED + 31 * ell)
        pm = OracleParams(d=2, ell=ell, shape=k2, alpha=4.0, c=np.inf,
                          t_grid=np.array([1.0]), n_samples=1_000_000,
                          seed=MASTER_SEED + 31 * ell + 1)
        ratio = covariance_M(pm).matrix[0, 0] / covariance_L(pl).matrix[0, 0]
        c.check(abs(ratio / target - 1) < 0.03,
                f"ell={ell}: M/L = {ratio:.4f} within 3% of {target:.4f}")
    c.finish()


def _heavy_sparse_config(replications=1000, rungs=(1e4, 1e5, 1e6)):
    return ExperimentConfig(
        density=PowerLawDensity(2, 4.0), schedule=PowerSchedule(c0=1.0, beta=0.3),
        shape=named_shape(2, "complete"), t_grid=np.array([0.5, 0.75, 1.0, 1.25]),
        n_ladder=rungs, replications=replications, master_seed=MASTER_SEED,
        workers=WORKERS, oracle_samples=400_000, t_ref=1.0, band=(0.8, 1.2),
        classify_n_range=(1e2, rungs[-1]),
    )


def test_criterion_05_heavy_sparse_clt():
    """Pinned benchmark: d=2, alpha=4, C=2/pi^2, K_2, R_n = n^0.3, rungs
    {1e4, 1e5, 1e6}, 1000 replications, restricted sampling.

    The FCLT is a limit statement: as n -> inf, Var(G_n(1))/tau_n -> L_2(1,1)
    and the standardized count becomes Gaussian.  At the pinned rungs the
    count has mean 0.39 to 1.05 and exact skewness 1.93 to 1.07, so the
    finite-n law is still far from that limit.  The Monte Carlo run is
    therefore checked against the exact finite-n cumulants of
    ``exact_pair_cumulants``, and the approach to the limit is read from the
    exact values further out:

    * the regime is classified sparse, and the top-rung ratio of
      Var(G_n(1))/tau_n to the oracle L_2(1,1) lies in [0.8, 1.2];
    * at each rung the MC Var(G_n(1))/tau_n lies within 3 SE of the exact
      kappa_2/tau_n, and the MC skewness within 3 bootstrap SE of the exact
      kappa_3/kappa_2^(3/2);
    * along n = 1e6, 1e8, 1e10, 1e12 the exact |kappa_2/tau_n / L_2(1,1) - 1|
      is non-increasing, and the exact skewness decreases and ends <= 0.3.

    Excess kurtosis and the KS-vs-normal p-value are printed as diagnostics
    only: their reference is the limit law, which the finite-n law at mean
    about 1 is not, and no exact finite-n value for them is computed here
    (that would need kappa_4).
    """
    c = Checker("5 (heavy sparse CLT benchmark)")
    cfg = _heavy_sparse_config()
    rep = run_clt_experiment(cfg)
    c.check(rep.flags["regime"] == "sparse", f"regime classified {rep.flags['regime']}")
    ratios = rep.flags["ref_ratios"]
    print(f"  Var/tau ratio to L2(1,1) per rung: {[round(r, 4) for r in ratios]}")
    c.check(0.8 <= ratios[-1] <= 1.2,
            f"top-rung ratio {ratios[-1]:.4f} in [0.8, 1.2]")

    density, t_ref = cfg.density, cfg.t_ref
    t_idx = int(np.argmin(np.abs(cfg.t_grid - t_ref)))
    far = (1e6, 1e8, 1e10, 1e12)
    exact_at = {n: exact_pair_cumulants(density, n, cfg.schedule.radius(density, n), t_ref)
                for n in sorted({*cfg.n_ladder, *far})}
    curves_at = {}
    for n, _, curve, _, _ in rep.tables["raw_rows"]:
        curves_at.setdefault(n, []).append(curve)
    boot_rng = np.random.default_rng(MASTER_SEED)
    for rung in rep.rungs:
        n = rung["n"]
        exact = exact_at[n]
        curves = np.array(curves_at[n])
        mc_var = rung["cov_scaled"][t_idx, t_idx]
        var_se = _covariance_with_se(curves.astype(float))[1][t_idx, t_idx] / rung["tau"]
        exact_var = exact.kappa2 / rung["tau"]
        z_var = abs(mc_var - exact_var) / var_se
        c.check(z_var <= 3.0,
                f"n = {n:.0e}: Var/tau MC {mc_var:.4f} +- {var_se:.4f} vs exact "
                f"{exact_var:.4f} (z = {z_var:.2f})")
        values = curves[:, t_idx].astype(float)
        boot = stats.skew(values[boot_rng.integers(0, values.size, (2000, values.size))],
                          axis=1)
        skew_se = float(boot.std(ddof=1))
        mc_skew = float(stats.skew(values))
        z_skew = abs(mc_skew - exact.skewness) / skew_se
        c.check(z_skew <= 3.0 and exact.skewness_se <= 0.1 * skew_se,
                f"n = {n:.0e}: skew MC {mc_skew:.3f} +- {skew_se:.3f} vs exact "
                f"{exact.skewness:.3f} +- {exact.skewness_se:.1e} (z = {z_skew:.2f})")
        print(f"  n = {n:.0e}: mean count MC {curves.mean(axis=0)[t_idx]:.4f} "
              f"vs exact {exact.kappa1:.4f}")

    # the ell = k block of K_2 reduces to B_2 |B(0, t)|
    limit = b_constant(2, 2, 2, density.alpha) * unit_ball_volume(2) * t_ref ** 2
    deltas, skews = [], []
    for n in far:
        tau_n = math.exp(log_tau(density, "sparse", n, cfg.schedule.radius(density, n), 2))
        deltas.append(abs(exact_at[n].kappa2 / tau_n / limit - 1))
        skews.append(exact_at[n].skewness)
    along = ", ".join(f"{n:.0e}" for n in far)
    c.check(all(b <= a for a, b in zip(deltas, deltas[1:])),
            f"exact |Var/tau / L2(1,1) - 1| non-increasing along n = {along}: "
            + ", ".join(f"{x:.4f}" for x in deltas))
    c.check(all(b < a for a, b in zip(skews, skews[1:])) and skews[-1] <= 0.3,
            f"exact skewness decreasing along n = {along} and <= 0.3 at the last: "
            + ", ".join(f"{x:.3f}" for x in skews))

    top_n = rep.rungs[-1]["n"]
    values = np.array(curves_at[top_n])[:, t_idx].astype(float)
    z = (values - values.mean()) / values.std(ddof=1)
    print(f"  diagnostics at n = {top_n:.0e} (reference is the limit law): "
          f"ex-kurt = {stats.kurtosis(values):.3f}, KS p = {stats.kstest(z, 'norm').pvalue:.3g}")
    c.finish()


def test_criterion_06_critical_regime():
    """Weak-core schedule (xi = 1), same family: covariance ratio to
    sum_ell xi^(2k-ell) L_ell within [0.75, 1.25] at the top rung
    (>= 90% of grid entries), with tau_n = R_n^d used exactly."""
    c = Checker("6 (critical regime)")
    density = PowerLawDensity(2, 4.0)
    cfg = ExperimentConfig(
        density=density, schedule=WeakCoreSchedule(),
        shape=named_shape(2, "complete"),
        t_grid=np.array([0.5, 0.75, 1.0, 1.25, 1.5]),
        n_ladder=(1e5, 1e6, 1e7), replications=1000, master_seed=MASTER_SEED,
        workers=WORKERS, oracle_samples=400_000, band=(0.75, 1.25),
    )
    rep = run_clt_experiment(cfg)
    c.check(rep.flags["regime"] == "critical" and abs(rep.flags["xi"] - 1) < 1e-9,
            f"regime critical with xi = {rep.flags['xi']:.6f}")
    top = rep.rungs[-1]
    print(f"  per-rung (1,1)-ratios: {[round(r['ref_ratio'], 4) for r in rep.rungs]}")
    c.check(top["band_fraction"] >= 0.9,
            f"{top['band_fraction']:.0%} of covariance entries in [0.75, 1.25] "
            f"at n = {top['n']:.0e}")
    # tau_n = R_n^d exactly in the critical regime
    tau_exact = all(abs(r["tau"] - r["R"] ** 2) <= 1e-9 * r["tau"] for r in rep.rungs)
    c.check(tau_exact, "tau_n equals R_n^d exactly on every rung")
    c.finish()


def test_criterion_07_poisson_layer():
    """R = R_(2,n)^(p) = (Cn)^(1/3), t = 1, 2000 replications, n = 1e6:
    dispersion in [0.8, 1.2] and chi-square GOF vs Poisson(mean) p >= 0.01."""
    c = Checker("7 (poisson layer)")
    density = PowerLawDensity(2, 4.0)
    R_root = poisson_layer_radius(density, 1e6, 2)
    closed = (density.C * 1e6) ** (1 / 3)
    c.check(abs(R_root / closed - 1) < 1e-4,
            f"layer radius root {R_root:.4f} matches (Cn)^(1/3) = {closed:.4f}")
    cfg = ExperimentConfig(
        density=density, schedule=PoissonLayerSchedule(k=2),
        shape=named_shape(2, "complete"), t_grid=np.array([1.0]),
        n_ladder=(1e5, 1e6), replications=2000, master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    rep = run_poisson_layer_experiment(cfg)
    top = rep.rungs[-1]
    means = [r["mean"] for r in rep.rungs]
    print(f"  mean counts per rung: {[round(m, 3) for m in means]} (flat trend)")
    c.check(0.8 <= top["dispersion"] <= 1.2,
            f"dispersion Var/Mean = {top['dispersion']:.4f} in [0.8, 1.2]")
    c.check(top["p_value"] >= 0.01,
            f"chi-square GOF vs Poisson(mean) p = {top['p_value']:.4f} >= 0.01 "
            f"(chi2 = {top['chi2']:.1f}, dof = {top['dof']})")
    c.finish()


def test_criterion_08_light_tail_run():
    """d=2, tau=1 (c=1), K_2, sparse schedule strictly between the weak core
    and the Poisson layer: Var(G_n(1))/tau_n ratio to M_2(1,1) within
    [0.7, 1.3] at the top rung, trending toward 1 across rungs.

    The rung intensities are free parameters here; n f(R_n) decays only
    logarithmically inside the sparse band, so the ladder spans
    {1e10, 1e20, 1e40, 1e80} (restricted exterior sampling keeps every
    replication around a hundred points even at n = 1e80)."""
    c = Checker("8 (light-tail run)")
    density = VonMisesDensity(2, 1.0)
    c.check(density.c_limit == 1.0, "exponential tail: a(z) -> c = 1")
    cfg = ExperimentConfig(
        density=density, schedule=LogBandSchedule(beta=0.45),
        shape=named_shape(2, "complete"), t_grid=np.array([0.5, 0.75, 1.0]),
        n_ladder=(1e10, 1e20, 1e40, 1e80), replications=2000,
        master_seed=MASTER_SEED, workers=WORKERS, oracle_samples=400_000,
        band=(0.7, 1.3), classify_n_range=(1e4, 1e80),
    )
    rep = run_clt_experiment(cfg)
    c.check(rep.flags["regime"] == "sparse", f"regime {rep.flags['regime']}")
    ratios = rep.flags["ref_ratios"]
    print(f"  Var/tau ratio to M2(1,1) per rung: {[round(r, 4) for r in ratios]}")
    c.check(0.7 <= ratios[-1] <= 1.3,
            f"top-rung ratio {ratios[-1]:.4f} in [0.7, 1.3]")
    deltas = [abs(r - 1) for r in ratios]
    c.check(all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:])),
            f"trend toward 1 across rungs: {[round(x, 4) for x in deltas]}")
    c.finish()


def test_criterion_09_core_coverage():
    """Power law d=2, alpha=4, delta2=0.5, delta1 mid-range (0.125), rungs
    {1e4, 1e5, 1e6}, 200 replications: coverage frequency non-decreasing and
    >= 0.9 at n=1e6; frequency at 1.5R <= frequency at R in every rung."""
    c = Checker("9 (core coverage)")
    cfg = ExperimentConfig(
        density=PowerLawDensity(2, 4.0),
        schedule=CoreSchedule(delta1=0.125, delta2=0.5),
        shape=named_shape(2, "complete"), t_grid=np.array([1.0]),
        n_ladder=(1e4, 1e5, 1e6), replications=200, master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    rep = run_core_experiment(cfg)
    freqs = [r["frequency"] for r in rep.rungs]
    print(f"  coverage frequencies: {freqs}; at 1.5R: "
          f"{[r['frequency_1p5R'] for r in rep.rungs]}")
    c.check(rep.flags["frequency_nondecreasing"],
            f"frequency non-decreasing across rungs: {freqs}")
    c.check(freqs[-1] >= 0.9, f"top-rung frequency {freqs[-1]:.3f} >= 0.9")
    c.check(rep.flags["radius_monotone_all"],
            "freq(1.5R) <= freq(R) holds in every rung")
    c.finish()


def test_criterion_10_palm_mean():
    """Empirical mean of G_n(1) within 3 combined SEs of the
    (n^2/2) E{h 1} Monte Carlo integral on the heavy benchmark; exact
    factorial-moment case (R = 0, t large) matches n^2/2 within 3 SE."""
    c = Checker("10 (palm mean)")
    cfg = _heavy_sparse_config(replications=1000, rungs=(1e5,))
    rep = palm_mean_check(cfg)
    r = rep.rungs[0]
    c.check(rep.flags["mean_within_3se"],
            f"mean {r['empirical_mean']:.4f} +- {r['empirical_mean_se']:.4f} vs "
            f"Palm {r['palm_mean']:.4f} +- {r['palm_mean_se']:.4f} "
            f"(z = {rep.flags['z_mean']:.2f})")
    c.check(rep.flags["joint_within_3se"],
            f"joint-persistence count vs Palm second identity "
            f"(z = {rep.flags['z_joint']:.2f})")

    # factorial-moment case: no exclusion, t beyond the diameter
    density = PowerLawDensity(2, 4.0)
    rng = np.random.default_rng(MASTER_SEED + 1)
    n = 200.0
    k2 = named_shape(2, "complete")
    vals = []
    for _ in range(300):
        cloud = sample_poisson_cloud(n, density, rng)
        req = CountRequest(shape=k2, t_grid=np.array([1e7]))
        vals.append(count_subgraphs(cloud, req).counts[0])
    vals = np.array(vals, dtype=float)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    z = abs(vals.mean() - n ** 2 / 2) / se
    c.check(z <= 3.0,
            f"E G = {vals.mean():.1f} vs n^2/2 = {n ** 2 / 2:.1f} (z = {z:.2f})")
    c.finish()


def test_criterion_11_determinism_and_decomposition(tmp_path):
    """Byte-identical outputs across worker counts for fixed seeds;
    G = G+ - G- exact and monotone h+/h- curves on every replication."""
    c = Checker("11 (determinism & decomposition)")
    blobs = []
    flags = []
    for workers in (1, 8):
        cfg = _heavy_sparse_config(replications=150, rungs=(1e4, 1e5))
        cfg.workers = workers
        rep = run_clt_experiment(cfg)
        out = tmp_path / f"workers{workers}"
        write_report(rep, out)
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        flags.append(rep.flags)
    identical = blobs[0].keys() == blobs[1].keys() and all(
        blobs[0][name] == blobs[1][name] for name in blobs[0])
    c.check(identical, "all artifact files byte-identical for workers 1 vs 8")
    c.check(flags[0]["decomposition_exact_all"] and flags[1]["decomposition_exact_all"],
            "G = G+ - G- exactly on every replication")
    c.check(flags[0]["monotone_curves_all"] and flags[1]["monotone_curves_all"],
            "h+ and h- curves monotone on every replication")
    c.finish()

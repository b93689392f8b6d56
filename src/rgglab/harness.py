"""Replicated experiments and their statistical reports.

Replications are the unit of parallelism: replication r of rung g draws its
generator from ``SeedSequence(master_seed, spawn_key=(g, r))``, a counter
style derivation that cannot collide, so a report is bit-identical for a
fixed (config, master_seed) regardless of the worker count.  Every reported
ratio carries a standard error and every flag is recomputable from the
persisted raw tables.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .atlas import GraphShape
from .counting import CountRequest, count_decomposed, subset_indicators
from .densities import (
    PoissonLayerSchedule,
    RadialDensity,
    RadiusSchedule,
    ScheduleUndefinedError,
    sample_poisson_cloud,
)
from .limits import (
    LimitCovariance,
    OracleParams,
    block_moments,
    mixture_covariance,
)
from .regimes import (
    BoundaryRegimeError,
    check_growth_condition,
    classify_regime,
    log_tau,
    standardize,
)

# p-value floor of the Poisson-layer goodness-of-fit flag; the p-values are
# always persisted so the flag can be re-evaluated after the fact
GOF_P_THRESHOLD = 0.01
GOF_MIN_EXPECTED = 5.0   # fewest expected counts per chi-square bin
_TAIL_BLOCK = 64         # Poisson tail terms summed per step
BAND_FRACTION = 0.9
# most grid cubes a core-coverage rung may enumerate; a larger rung raises
# ExperimentError before it draws any cloud
CORE_CELL_BUDGET = 1 << 27


class ExperimentError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    density: RadialDensity
    schedule: RadiusSchedule
    shape: GraphShape
    t_grid: np.ndarray
    n_ladder: tuple[float, ...]
    replications: int
    master_seed: int = 0
    workers: int = 1
    oracle_samples: int = 400_000
    t_ref: float = 1.0
    band: tuple[float, float] = (0.8, 1.2)
    annulus: tuple[float, float] | None = None
    classify_n_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        ladder = tuple(float(n) for n in self.n_ladder)
        if len(ladder) == 0 or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ExperimentError("n_ladder must be nonempty ascending")
        self.n_ladder = ladder
        if self.replications < 2:
            raise ExperimentError("need at least 2 replications for variance tests")
        if not self.band[0] <= self.band[1]:
            raise ExperimentError(f"band: needs lo <= hi, got {self.band}")
        if self.annulus is not None and not self.annulus[0] < self.annulus[1]:
            raise ExperimentError(f"annulus: needs K < L, got {self.annulus}")
        if not math.isfinite(self.t_ref):
            raise ExperimentError(f"t_ref: needs a finite value, got {self.t_ref}")
        if self.workers < 1:
            raise ExperimentError(f"workers: needs at least 1, got {self.workers}")


@dataclass
class ExperimentReport:
    kind: str
    rungs: list[dict]
    flags: dict
    seed_audit: dict
    oracle: LimitCovariance | None = None
    tables: dict = field(default_factory=dict)


def replication_seed(master_seed: int, rung_idx: int, rep: int) -> np.random.SeedSequence:
    """Injective counter-based stream derivation (no collisions possible)."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(rung_idx, rep))


def _seed_audit(cfg: ExperimentConfig) -> dict:
    return {
        "master_seed": cfg.master_seed,
        "derivation": "SeedSequence(master_seed, spawn_key=(rung_index, replication))",
        "replications": cfg.replications,
        "rungs": len(cfg.n_ladder),
    }


def _run_replications(cfg: ExperimentConfig, rung_idx: int, work) -> list:
    """Map ``work(rep, rng)`` over replications, deterministically ordered."""
    def one(rep: int):
        rng = np.random.default_rng(replication_seed(cfg.master_seed, rung_idx, rep))
        return work(rep, rng)

    reps = range(cfg.replications)
    if cfg.workers <= 1:
        return [one(r) for r in reps]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(one, reps))


def _replicate(cfg: ExperimentConfig, rung_idx: int, work) -> list[np.ndarray]:
    """One array per field of the tuples ``work(rep, rng)`` returns, with a
    row per replication."""
    results = _run_replications(cfg, rung_idx, work)
    return [np.array(column) for column in zip(*results)]


def _default_classify_range(cfg: ExperimentConfig) -> tuple[float, float]:
    """Ladder extended down to >= 4 decades, clipped where the schedule works.

    The regimes are tail statements; starting far below the ladder would probe
    the head of the density where the evidence trend is not yet meaningful, so
    the default reaches just two decades below the ladder.  Configs can widen
    it via ``classify_n_range``.
    """
    n_top = cfg.n_ladder[-1]
    n_lo = cfg.n_ladder[0] / 100.0
    for _ in range(60):
        if n_lo >= n_top:
            raise ExperimentError("schedule undefined over any classification range")
        try:
            cfg.schedule.radius(cfg.density, n_lo)
            break
        except (ScheduleUndefinedError, ValueError, OverflowError):
            n_lo *= 10
    return (n_lo, n_top)


def _covariance_with_se(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance over replications with per-entry standard errors."""
    reps = curves.shape[0]
    centered = curves - curves.mean(axis=0, keepdims=True)
    prods = centered[:, :, None] * centered[:, None, :]
    cov = prods.sum(axis=0) / (reps - 1)
    se = prods.std(axis=0, ddof=1) / math.sqrt(reps)
    return cov, se


# ---------------------------------------------------------------------------
# CLT experiment
# ---------------------------------------------------------------------------

def run_clt_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Replicated counting runs versus the mixture covariance oracle."""
    density, schedule, shape = cfg.density, cfg.schedule, cfg.shape
    k = shape.k
    n_range = cfg.classify_n_range or _default_classify_range(cfg)
    regime = classify_regime(density, schedule, n_range)
    growth = check_growth_condition(density, schedule, k, n_range)
    if not growth.passed:
        raise BoundaryRegimeError(
            "growth condition fails on this schedule "
            f"(final-decade log gain {growth.final_decade_gain:.3g}); "
            "the normalizing product must diverge for the CLT experiment")

    oracle_params = OracleParams(
        d=density.d, ell=k, shape=shape, t_grid=cfg.t_grid,
        alpha=getattr(density, "alpha", None),
        c=getattr(density, "c_limit", None), annulus=cfg.annulus,
        n_samples=cfg.oracle_samples, seed=cfg.master_seed + 10_000,
    )
    oracle = mixture_covariance(regime, oracle_params)

    rungs = []
    raw_rows = []
    for rung_idx, n in enumerate(cfg.n_ladder):
        R = schedule.radius(density, n)
        tau_n = math.exp(log_tau(density, regime, n, R, k))
        annulus = None if cfg.annulus is None else density.annulus_bounds(R, *cfg.annulus)
        req = CountRequest(shape=shape, t_grid=cfg.t_grid, R=R, annulus=annulus)

        def work(rep, rng, _n=n, _R=R, _req=req):
            cloud = sample_poisson_cloud(_n, density, rng, exterior_radius=_R,
                                         seed=rep)
            h, plus, minus = count_decomposed(cloud, _req)
            return h.counts, plus.counts, minus.counts, len(cloud)

        curves, plus, minus, sizes = _replicate(cfg, rung_idx, work)
        for rep in range(cfg.replications):
            raw_rows.append((n, rep, curves[rep], plus[rep], minus[rep]))

        decomposition_exact = bool(np.array_equal(curves, plus - minus))
        monotone = bool(np.all(np.diff(plus, axis=1) >= 0)
                        and np.all(np.diff(minus, axis=1) >= 0))

        cov, cov_se = _covariance_with_se(curves.astype(float))
        scaled = cov / tau_n
        scaled_se = cov_se / tau_n
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(oracle.matrix != 0, scaled / oracle.matrix, np.nan)
            rel = np.sqrt((scaled_se / np.where(scaled != 0, scaled, np.nan)) ** 2
                          + (oracle.std_err / np.where(oracle.matrix != 0,
                                                       oracle.matrix, np.nan)) ** 2)
            ratio_se = np.abs(ratio) * rel
        finite = np.isfinite(ratio)
        in_band = (ratio[finite] >= cfg.band[0]) & (ratio[finite] <= cfg.band[1])
        band_fraction = float(in_band.mean()) if finite.any() else math.nan

        t_idx = int(np.argmin(np.abs(cfg.t_grid - cfg.t_ref)))
        paths = standardize(curves.astype(float), tau_n)

        rungs.append({
            "n": n, "R": R, "tau": tau_n,
            "q": n * float(density.radial_profile(R)),
            "mean_cloud_size": float(sizes.mean()),
            "cov_scaled": scaled,
            "ratio": ratio, "ratio_se": ratio_se,
            "band_fraction": band_fraction,
            "ref_ratio": float(ratio[t_idx, t_idx]),
            "ref_ratio_se": float(ratio_se[t_idx, t_idx]),
            "decomposition_exact": decomposition_exact,
            "monotone_curves": monotone,
            "standardized_mean_max": float(np.abs(paths.mean(axis=0)).max()),
        })

    ref_ratios = [r["ref_ratio"] for r in rungs]
    deltas = [abs(x - 1.0) for x in ref_ratios]
    flags = {
        "regime": regime.tag,
        "xi": regime.xi,
        "growth_passed": growth.passed,
        "top_rung_band_fraction_ok": rungs[-1]["band_fraction"] >= BAND_FRACTION,
        "top_rung_ref_in_band": cfg.band[0] <= ref_ratios[-1] <= cfg.band[1],
        "ratio_trend_monotone_to_one": all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:])),
        "decomposition_exact_all": all(r["decomposition_exact"] for r in rungs),
        "monotone_curves_all": all(r["monotone_curves"] for r in rungs),
        "ref_ratios": ref_ratios,
    }
    return ExperimentReport(
        kind="clt", rungs=rungs, flags=flags, seed_audit=_seed_audit(cfg),
        oracle=oracle, tables={"raw_rows": raw_rows},
    )


# ---------------------------------------------------------------------------
# Palm-identity checks
# ---------------------------------------------------------------------------

def palm_expectation(density: RadialDensity, shape: GraphShape, R: float,
                     t_pair: tuple[float, float], n_samples: int,
                     rng: np.random.Generator) -> tuple[float, float, float, float]:
    """MC estimates of E{h_t 1{m>=R}} and E{h_t h_s 1{m>=R}} with SEs.

    They are entries of the oracle's ell = k block at (t, t) and (t, s),
    shifted by an anchor that follows f conditioned on the exterior: each
    draw is weighted by the density values of the other k - 1 points, and
    by 0 if one of them lies inside B(0, R).
    """
    params = OracleParams(d=density.d, ell=shape.k, shape=shape, t_grid=t_pair,
                          n_samples=n_samples)

    def weight(anchor, cfg, _):
        norms = np.linalg.norm(anchor[:, None, :] + cfg[:, 1:], axis=2)
        return np.prod(density.radial_profile(norms) * (norms >= R), axis=1)

    anchors = (lambda rng, count: density.sample_exterior(rng, count, R), weight)
    mean, se, domain = block_moments(params, "h", rng, anchors)
    scale = density.tail_prob(R) * domain
    return scale * mean[0, 0], scale * se[0, 0], scale * mean[0, 1], scale * se[0, 1]


def palm_mean_check(cfg: ExperimentConfig) -> ExperimentReport:
    """First two Palm identities as testable mean / joint-count formulas.

    Empirical mean of G_n(t) against (n^k/k!) E{h_t 1{m >= R}}, and the
    joint-persistence count sum h_t h_s against (n^k/k!) E{h_t h_s 1}, at
    the ladder's top rung n with t = t_ref and s = 0.75 t_ref.
    """
    shape, density, schedule = cfg.shape, cfg.density, cfg.schedule
    k = shape.k
    if k > 3:
        raise ExperimentError("palm check limited to k <= 3")
    n = cfg.n_ladder[-1]
    t, s = cfg.t_ref, 0.75 * cfg.t_ref
    R = schedule.radius(density, n)
    grid = np.array(sorted({t, s}))
    ti, si = int(np.searchsorted(grid, t)), int(np.searchsorted(grid, s))
    req = CountRequest(shape=shape, t_grid=grid, R=R)

    # the prediction runs first, so that an invalid oracle setting fails
    # before any replication; it draws from a stream of its own
    rng = np.random.default_rng(replication_seed(cfg.master_seed, 9999, 0))
    m1, se1, m2, se2 = palm_expectation(density, shape, R, (t, s),
                                        cfg.oracle_samples, rng)
    coeff = math.exp(k * math.log(n) - math.log(math.factorial(k)))
    pred_mean, pred_mean_se = coeff * m1, coeff * se1
    pred_joint, pred_joint_se = coeff * m2, coeff * se2

    def work(rep, rng):
        cloud = sample_poisson_cloud(n, density, rng, exterior_radius=R, seed=rep)
        h, _ = subset_indicators(cloud, req)
        # G_n(t), and the joint persistence: subsets matching the shape at both radii
        return int(h[:, ti].sum()), int((h[:, ti] & h[:, si]).sum())

    counts, joints = (column.astype(float) for column in _replicate(cfg, 0, work))

    # A count of a 0/1 kernel has Var >= E (its ell = k Mecke term is its mean),
    # so the floor keeps a correct run that sees no event from reading SE 0
    emp_mean = counts.mean()
    emp_mean_se = math.sqrt(max(counts.var(ddof=1), pred_mean) / len(counts))
    emp_joint = joints.mean()
    emp_joint_se = math.sqrt(max(joints.var(ddof=1), pred_joint) / len(joints))
    z_mean = abs(emp_mean - pred_mean) / math.hypot(emp_mean_se, pred_mean_se)
    z_joint = abs(emp_joint - pred_joint) / math.hypot(emp_joint_se, pred_joint_se)

    flags = {
        "mean_within_3se": bool(z_mean <= 3.0),
        "joint_within_3se": bool(z_joint <= 3.0),
        "z_mean": float(z_mean), "z_joint": float(z_joint),
    }
    rung = {
        "n": n, "R": R, "t": t, "s": s,
        "empirical_mean": emp_mean, "empirical_mean_se": emp_mean_se,
        "palm_mean": pred_mean, "palm_mean_se": pred_mean_se,
        "empirical_joint": emp_joint, "empirical_joint_se": emp_joint_se,
        "palm_joint": pred_joint, "palm_joint_se": pred_joint_se,
    }
    return ExperimentReport(kind="palm", rungs=[rung], flags=flags,
                            seed_audit=_seed_audit(cfg))


# ---------------------------------------------------------------------------
# Poisson-layer experiment
# ---------------------------------------------------------------------------

def _poisson_pmf(k, mu) -> np.ndarray:
    """mu^k e^-mu / Gamma(k + 1) at a 1-d array of reals k >= 0, with 0^0 = 1:
    the Poisson(mu) pmf at integer k.  Each term is the exp of its logarithm."""
    k = np.asarray(k, dtype=float)
    log_gamma = np.array([math.lgamma(v + 1) for v in k.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_mu = np.where(k == 0, 0.0, k * np.log(mu))
    return np.clip(np.exp(k_log_mu - log_gamma - mu), 0, 1)


def _poisson_upper_tail(kmax: int, mu: float) -> float:
    """P(X > kmax) for X ~ Poisson(mu) with kmax >= mu, summed term by term
    until the (falling) terms vanish against the sum; taking it as one less
    the lower terms would cancel."""
    total, lo = 0.0, kmax + 1
    while True:
        terms = _poisson_pmf(np.arange(lo, lo + _TAIL_BLOCK), mu)
        total += terms.sum()
        if terms[-1] <= total * np.finfo(float).eps:
            return total
        lo += _TAIL_BLOCK


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X > x) for an integer dof >= 1; 1 for x <= 0.

    For an integer dof the tail is a finite sum (Abramowitz & Stegun 1964,
    26.4.4-5): with h = x/2, sum_{j < dof/2} h^j e^-h / j! for even dof, and
    erfc(sqrt(h)) + sum_{j = 1/2, 3/2, ... < dof/2} h^j e^-h / Gamma(j + 1)
    for odd dof.
    """
    if x <= 0:
        return 1.0
    half = x / 2
    tail = float(_poisson_pmf(np.arange(dof % 2 / 2, dof / 2), half).sum())
    return tail + math.erfc(math.sqrt(half)) if dof % 2 else tail


def poisson_gof(counts: np.ndarray) -> dict:
    """Chi-square goodness of fit of integer counts against Poisson(mean);
    adjacent bins are merged until each expects ``GOF_MIN_EXPECTED`` counts."""
    counts = np.asarray(counts, dtype=int)
    n = len(counts)
    lam = counts.mean()
    kmax = int(counts.max())
    obs = np.bincount(counts, minlength=kmax + 2).astype(float)
    exp = _poisson_pmf(np.arange(kmax + 2), lam) * n
    exp[-1] = n * _poisson_upper_tail(kmax, lam)   # lump the upper tail
    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= GOF_MIN_EXPECTED:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and merged_obs:
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    dof = len(merged_obs) - 2
    if dof < 1:
        return {"chi2": 0.0, "dof": 0, "p_value": 1.0, "bins": len(merged_obs)}
    chi2 = float(sum((o - e) ** 2 / e for o, e in zip(merged_obs, merged_exp)))
    return {"chi2": chi2, "dof": dof, "p_value": _chi2_sf(chi2, dof),
            "bins": len(merged_obs)}


def run_poisson_layer_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispersion and Poisson GOF of G_n(t_ref) at the Poisson-layer radius."""
    if not isinstance(cfg.schedule, PoissonLayerSchedule):
        raise ExperimentError("poisson-layer experiment needs the poisson_layer schedule")
    t = float(cfg.t_ref)
    req_grid = np.array([t])
    rungs = []
    for rung_idx, n in enumerate(cfg.n_ladder):
        R = cfg.schedule.radius(cfg.density, n)
        req = CountRequest(shape=cfg.shape, t_grid=req_grid, R=R)

        def work(rep, rng, _n=n, _R=R, _req=req):
            cloud = sample_poisson_cloud(_n, cfg.density, rng, exterior_radius=_R,
                                         seed=rep)
            h, _, _ = count_decomposed(cloud, _req)
            return (int(h.counts[0]),)

        (counts,) = _replicate(cfg, rung_idx, work)
        mean = counts.mean()
        disp = counts.var(ddof=1) / mean if mean > 0 else math.nan
        gof = poisson_gof(counts)
        rungs.append({"n": n, "R": R, "t": t, "mean": float(mean),
                      "dispersion": float(disp), "counts": counts, **gof})
    means = [r["mean"] for r in rungs]
    flags = {
        "top_dispersion_in_band": 0.8 <= rungs[-1]["dispersion"] <= 1.2,
        "top_gof_p_ok": rungs[-1]["p_value"] >= GOF_P_THRESHOLD,
        "mean_trend_flat": max(means) <= 4 * max(min(means), 1e-9),
    }
    return ExperimentReport(kind="poisson_layer", rungs=rungs, flags=flags,
                            seed_audit=_seed_audit(cfg))


# ---------------------------------------------------------------------------
# core-coverage experiment
# ---------------------------------------------------------------------------

def cubes_inside_ball(radius: float, g: float, d: int) -> np.ndarray:
    """Integer coordinates of every grid-g cube contained in B(0, radius)."""
    m = int(math.ceil(radius / g))
    axes = [np.arange(-m - 1, m + 1, dtype=np.int64)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([a.ravel() for a in mesh], axis=1)
    far = np.maximum(np.abs(coords * g), np.abs((coords + 1) * g))
    inside = np.linalg.norm(far, axis=1) <= radius
    return coords[inside]


def run_core_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Frequency of the cube-grid coverage criterion at the core radius.

    The event {every grid-g cube inside B(0, R)} with g = 1/(2 sqrt(d)) is
    sufficient for coverage of B(0, R) by unit balls around the points.
    Dense-region sampling uses full (unrestricted) clouds.
    """
    density = cfg.density
    d = density.d
    g = 1.0 / (2.0 * math.sqrt(d))
    rungs = []
    for rung_idx, n in enumerate(cfg.n_ladder):
        R = cfg.schedule.radius(density, n)
        R_big = 1.5 * R
        n_cells_est = (2 * (R_big / g + 2)) ** d
        if n_cells_est > CORE_CELL_BUDGET:
            raise ExperimentError(
                f"cube count ~{n_cells_est:.3g} exceeds budget {CORE_CELL_BUDGET}")
        cubes_R = cubes_inside_ball(R, g, d)
        cubes_big = cubes_inside_ball(R_big, g, d)
        base = cubes_big.min(axis=0) - 1
        dims = cubes_big.max(axis=0) - base + 2
        flat_R = np.ravel_multi_index((cubes_R - base).T, dims)
        flat_big = np.ravel_multi_index((cubes_big - base).T, dims)

        def work(rep, rng, _n=n):
            cloud = sample_poisson_cloud(_n, density, rng, seed=rep)
            occ = kernels.occupied_cells(cloud.points, g, base, dims)
            return bool(occ[flat_R].all()), bool(occ[flat_big].all())

        cov_R, cov_big = _replicate(cfg, rung_idx, work)
        rungs.append({
            "n": n, "R_core": R, "cubes": len(cubes_R), "g": g,
            "frequency": float(cov_R.mean()),
            "frequency_1p5R": float(cov_big.mean()),
            "radius_monotone": bool(np.all(cov_big <= cov_R)),
        })
    freqs = [r["frequency"] for r in rungs]
    flags = {
        "frequency_nondecreasing": all(b >= a for a, b in zip(freqs, freqs[1:])),
        "top_frequency": freqs[-1],
        "radius_monotone_all": all(r["radius_monotone"] for r in rungs),
    }
    return ExperimentReport(kind="core", rungs=rungs, flags=flags,
                            seed_audit=_seed_audit(cfg))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_report(report: ExperimentReport, out_dir: Path) -> dict:
    """Persist raw tables, summaries, and the structured text report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}

    if report.kind == "clt":
        raw = out_dir / "raw_curves.csv"
        with open(raw, "w") as fh:
            fh.write("n,seed,t,count_h,count_plus,count_minus\n")
            for n, rep, h, p, m in report.tables["raw_rows"]:
                grid = report.oracle.t_grid
                for j, t in enumerate(grid):
                    fh.write(f"{_fmt(n)},{rep},{_fmt(float(t))},{h[j]},{p[j]},{m[j]}\n")
        files["raw_curves"] = raw
        ratio = out_dir / "covariance_ratio.csv"
        with open(ratio, "w") as fh:
            fh.write("n,t,s,cov_scaled,oracle,ratio,ratio_se\n")
            grid = report.oracle.t_grid
            for rung in report.rungs:
                for i, t in enumerate(grid):
                    for j, s in enumerate(grid):
                        fh.write(
                            f"{_fmt(rung['n'])},{_fmt(float(t))},{_fmt(float(s))},"
                            f"{_fmt(float(rung['cov_scaled'][i, j]))},"
                            f"{_fmt(float(report.oracle.matrix[i, j]))},"
                            f"{_fmt(float(rung['ratio'][i, j]))},"
                            f"{_fmt(float(rung['ratio_se'][i, j]))}\n")
        files["covariance_ratio"] = ratio
        oracle_path = out_dir / "oracle_covariance.csv"
        write_covariance_csv(report.oracle, oracle_path)
        files["oracle_covariance"] = oracle_path
    elif report.kind == "poisson_layer":
        raw = out_dir / "layer_counts.csv"
        with open(raw, "w") as fh:
            fh.write("n,seed,count\n")
            for rung in report.rungs:
                for rep, c in enumerate(rung["counts"]):
                    fh.write(f"{_fmt(rung['n'])},{rep},{int(c)}\n")
        files["layer_counts"] = raw

    summary = out_dir / "summary.csv"
    with open(summary, "w") as fh:
        keys = sorted({k for rung in report.rungs for k, v in rung.items()
                       if np.isscalar(v) or isinstance(v, (bool, int, float, str))})
        fh.write(",".join(keys) + "\n")
        for rung in report.rungs:
            fh.write(",".join(_fmt(rung.get(k, "")) for k in keys) + "\n")
    files["summary"] = summary

    # runtime is deliberately absent from every artifact: outputs must be
    # byte-identical across worker counts for a fixed seed
    text = out_dir / "report.txt"
    with open(text, "w") as fh:
        fh.write(f"experiment: {report.kind}\n")
        for key, val in report.seed_audit.items():
            fh.write(f"seed_audit.{key}: {val}\n")
        for key, val in report.flags.items():
            fh.write(f"flag.{key}: {_fmt(val)}\n")
    files["report"] = text

    manifest = {
        "kind": report.kind,
        "artifacts": {
            name: {
                "path": str(path.name),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            } for name, path in files.items()
        },
        "flags": {k: (v if not isinstance(v, (np.bool_, np.floating)) else
                      (bool(v) if isinstance(v, np.bool_) else float(v)))
                  for k, v in report.flags.items()
                  if isinstance(v, (bool, int, float, str, np.bool_, np.floating))},
        "seed_audit": report.seed_audit,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                        default=str) + "\n")
    files["manifest"] = manifest_path
    return files


def write_covariance_csv(cov: LimitCovariance, path: Path) -> None:
    """Matrix and SEs as CSV rows with a provenance header."""
    with open(path, "w") as fh:
        fh.write(f"# provenance: {json.dumps(cov.provenance, sort_keys=True, default=str)}\n")
        write_covariance_rows(cov, fh)


def write_covariance_rows(cov: LimitCovariance, fh) -> None:
    """The ``t,s,value,std_err`` header and one row per grid pair."""
    fh.write("t,s,value,std_err\n")
    for i, t in enumerate(cov.t_grid):
        for j, s in enumerate(cov.t_grid):
            fh.write(f"{_fmt(float(t))},{_fmt(float(s))},"
                     f"{_fmt(float(cov.matrix[i, j]))},"
                     f"{_fmt(float(cov.std_err[i, j]))}\n")

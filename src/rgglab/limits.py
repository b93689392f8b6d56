"""Monte Carlo oracle for the limiting Gaussian structure.

Covariance building blocks:

* heavy tail   L_ell(t,s) = B_ell int dy dz1 dz2 h_t(0,y,z1) h_s(0,y,z2)
* light tail   M_ell(t,s) = D_ell int e^{-(2k-ell) rho - (1/c) sum <e1,y_i>}
                            1{rho + <e1,y_i>/c >= 0} h^(ell)_{t,s}(0,y) dy drho

Both integrands are indicators on bounded supports (any point of a unit-t
configuration lies within k*t of the center), so plain Monte Carlo over the
support balls with per-entry standard errors is the estimator of choice;
rho is importance-sampled from its exponential envelope.  All grid entries
share the same draws, which keeps the noise strongly correlated across the
matrix and the symmetrized estimator exactly symmetric.  ``block_moments``
is that estimator, and only the weight of a draw differs between its uses:
1 for the heavy family, the exponential for the light one, and the density
values at finite n for ``harness.palm_expectation``.

Finite-n reference: ``exact_pair_cumulants`` gives the first three
cumulants of the K_2 count outside R at intensity n (d = 2) by the Mecke
and diagram formulas for Poisson U-statistics, so a Monte Carlo run can be
read against the exact law at its own n rather than against the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._numerics import gauss_legendre
from .atlas import GraphShape, build_atlas
from .densities import (
    InvalidParameterError,
    RadialDensity,
    UnsupportedOperationError,
    _scale_directions,
    sphere_surface_area,
    unit_ball_volume,
)
from .regimes import CRITICAL, DENSE, SPARSE

_CHUNK = 1 << 15
_MIN_SAMPLES = 1000


def b_constant(d: int, k: int, ell: int, alpha: float) -> float:
    """Heavy-tail block constant s_{d-1} / (ell! ((k-ell)!)^2 (alpha(2k-ell) - d))."""
    _check_ell(k, ell)
    denom = alpha * (2 * k - ell) - d
    if not denom > 0:
        raise InvalidParameterError(
            f"divergent block constant: need alpha(2k-ell) > d = {d}, got {alpha * (2*k-ell)}")
    return sphere_surface_area(d) / (
        math.factorial(ell) * math.factorial(k - ell) ** 2 * denom)


def d_constant(d: int, k: int, ell: int) -> float:
    """Light-tail block constant s_{d-1} / (ell! ((k-ell)!)^2)."""
    _check_ell(k, ell)
    return sphere_surface_area(d) / (
        math.factorial(ell) * math.factorial(k - ell) ** 2)


def _check_ell(k: int, ell: int) -> None:
    if not 1 <= ell <= k:
        raise InvalidParameterError(f"need 1 <= ell <= k, got ell={ell}, k={k}")


@dataclass(frozen=True)
class OracleParams:
    """Oracle inputs.  ``mixture_covariance`` takes a set ``c`` for the light
    family and an unset one for the heavy family; ``annulus`` is in that
    family's units (multiples of R, or a(R)-scaled shells beyond R).  The
    annulus starts at R or beyond: K >= 0 in the light family's shells and
    K >= 1 in the heavy family's multiples."""

    d: int
    ell: int
    shape: GraphShape
    t_grid: np.ndarray
    alpha: float | None = None      # heavy-tail exponent
    c: float | None = None          # light-tail a-limit, np.inf for subexponential
    annulus: tuple[float, float] | None = None
    n_samples: int = 200_000
    seed: int = 0

    @property
    def k(self) -> int:
        return self.shape.k

    def __post_init__(self) -> None:
        _check_ell(self.k, self.ell)
        if self.d < 1:
            raise InvalidParameterError("dimension d must be >= 1")
        grid = np.asarray(self.t_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or not np.all(grid >= 0):
            raise InvalidParameterError("t_grid must be a nonempty nonnegative 1-d array")
        object.__setattr__(self, "t_grid", grid)
        if self.n_samples < _MIN_SAMPLES:
            raise InvalidParameterError(f"need at least {_MIN_SAMPLES} MC samples")
        if self.annulus is not None:
            start = 0.0 if self.c is not None else 1.0
            K, L = self.annulus
            if not start <= K < L:
                raise InvalidParameterError(f"annulus needs {start:g} <= K < L, got ({K}, {L})")


@dataclass
class LimitCovariance:
    """Covariance matrix over a t-grid with per-entry MC standard errors."""

    t_grid: np.ndarray
    matrix: np.ndarray
    std_err: np.ndarray
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# configuration sampling and indicator evaluation
# ---------------------------------------------------------------------------

def _ball_draws(rng, count: int, m: int, d: int, radius: float):
    """Variates of (count, m, d) points uniform in B(0, radius), before
    ``_scale_points`` scales them: Gaussian directions, then (count, m) radii
    ``radius * u^(1/d)``, drawn in that order."""
    if m == 0:
        return np.empty((count, 0, d)), np.empty((count, 0))
    z = rng.standard_normal((count, m, d))
    r = rng.random(count * m)
    r **= 1.0 / d
    r *= radius
    return z, r.reshape(count, m)


def _scale_points(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (N, m, d) points ``z / |z| * r`` of ``_ball_draws``' variates, in
    place; a zero direction stays at the origin."""
    _scale_directions(z.reshape(-1, z.shape[2]), r.reshape(-1))
    return z


def _within_reach(draws, k: int, t_max: float) -> np.ndarray:
    """Indices of the rows of ``_ball_draws``' variates whose points could
    all belong to a k-point configuration connected at ``t_max``, before any
    point is scaled.

    Such a configuration lies within (k - 1) t_max of its first point, the
    origin.  The relative slack covers the rounding of the scaled points and
    of their distances; the floor keeps squared distances clear of underflow,
    which would read them short.  A point with a zero direction sits at the
    origin whatever its radius, so it never rejects its row.
    """
    reach = max((k - 1) * t_max * (1 + 1e-9), 1e-100)
    far = np.zeros(len(draws[0][1]), dtype=bool)
    for z, r in draws:
        for j in range(r.shape[1]):
            beyond = r[:, j] > reach
            if not z[:, j].all():
                beyond &= z[:, j].any(axis=1)
            far |= beyond
    return np.flatnonzero(~far)


def _mode_values(atlas, shape: GraphShape, configs: np.ndarray,
                 t_grid: np.ndarray, mode: str) -> np.ndarray:
    """(N, T) indicator values of h / h+ / h- on a batch of k-point configs."""
    if mode not in ("h", "plus", "minus"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    h, minus = atlas.indicators(configs, t_grid, shape)
    if mode == "plus":
        h |= minus
    return minus if mode == "minus" else h


def _accumulate(sum_m, sq_m, w, a1, a2):
    """Add symmetrized per-sample contributions w * (a1(t) a2(s) + a1(s) a2(t))/2.

    ``w=None`` means unit weights and skips the weight products: multiplying
    by 1.0 is exact, and sums of products of 0/1 indicators are exact
    integers whichever BLAS kernel forms them, so the bits are those of
    ``w = np.ones(N)``.
    """
    e = (a1 if w is None else w[:, None] * a1).T @ a2
    sum_m += 0.5 * (e + e.T)
    both = a1 * a2
    if w is None:
        e2 = e
        cross = both.T @ both
    else:
        w2 = w * w
        e2 = (w2[:, None] * a1).T @ a2
        cross = (w2[:, None] * both).T @ both
    sq_m += 0.25 * (e2 + e2.T) + 0.5 * cross


def _light_weights(rho, cinv, annulus, proj_shared, proj_z1, proj_z2):
    """Per-draw weights exp(-(1/c) sum <e1, y_i>) of the light family on the
    support rho + <e1, y_i>/c >= 0, restricted to the annulus domain when one
    is set; each ``proj_*`` holds the first coordinates of a point group."""
    proj_all = np.concatenate([proj_shared, proj_z1, proj_z2], axis=1)
    support = np.all(rho[:, None] + cinv * proj_all >= 0, axis=1)
    if annulus is not None:
        K, L = annulus
        for proj_z in (proj_z1, proj_z2):
            sat = np.concatenate([proj_shared, proj_z], axis=1)
            m = np.maximum(rho, rho + cinv * sat.max(axis=1, initial=0.0))
            support &= (K <= m) & (m < L)
    # Off the support the exponential overflows at small c, and inf * 0 would
    # be NaN, so the support goes in first.
    return np.exp(np.where(support, -cinv * proj_all.sum(axis=1), -np.inf))


def block_moments(params: OracleParams, mode: str, rng: np.random.Generator,
                  weigh=None) -> tuple[np.ndarray, np.ndarray, float]:
    """One block over ``params.t_grid``, unscaled: the mean of
    w (a1(t) a2(s) + a1(s) a2(t)) / 2 over the draws, its standard error, and
    the volume of the sampling domain, by which the caller scales both.

    a1 and a2 are the ``mode`` values of the configurations (0, shared, z1)
    and (0, shared, z2), whose 2k - ell - 1 points are uniform in the support
    ball, so the domain is that ball's (2k - ell - 1)-th power.  ``weigh`` is
    None for unit weights, or a pair (draw, weight):
    ``draw(rng, count)`` takes each chunk's own variates after its ball
    draws, and ``weight(v, cfg1, cfg2)`` maps those of the draws that reach
    the classification, with their configurations, to their weights.
    """
    d, k, ell = params.d, params.k, params.ell
    grid = params.t_grid
    T = grid.size
    t_max = float(grid.max())
    atlas = build_atlas(k)
    n_shared, n_z = ell - 1, k - ell
    radius = k * max(t_max, np.finfo(float).tiny)
    top = np.array([t_max])
    sum_m = np.zeros((T, T))
    sq_m = np.zeros((T, T))
    remaining = params.n_samples
    while remaining > 0:
        count = min(_CHUNK, remaining)
        remaining -= count
        draws = [_ball_draws(rng, count, m, d, radius) for m in (n_shared, n_z, n_z)]
        extra = None if weigh is None else weigh[0](rng, count)
        # Every grid graph is a subgraph of the one at t_max, so a draw whose
        # configurations are not both the shape or denser there reads 0 at
        # every t in every mode.  Such draws are rejected before they are
        # classified: first by radius, then by the plus mode at t_max.
        rows = _within_reach(draws, k, t_max)
        shared, z1, z2 = (_scale_points(z[rows], r[rows]) for z, r in draws)
        # the configurations (0, shared, z1) and (0, shared, z2)
        cfg1 = np.zeros((rows.size, k, d))
        cfg1[:, 1:ell] = shared
        cfg1[:, ell:] = z1
        live = np.flatnonzero(_mode_values(atlas, params.shape, cfg1, top, "plus")[:, 0])
        cfg1 = cfg1[live]
        if n_z == 0:    # ell = k: no z points, so both configurations are the first
            cfg2 = cfg1
        else:
            cfg2 = cfg1.copy()
            cfg2[:, ell:] = z2[live]
            on = _mode_values(atlas, params.shape, cfg2, top, "plus")[:, 0]
            live, cfg1, cfg2 = live[on], cfg1[on], cfg2[on]
        a1 = _mode_values(atlas, params.shape, cfg1, grid, mode).astype(float)
        a2 = a1 if n_z == 0 else _mode_values(
            atlas, params.shape, cfg2, grid, mode).astype(float)
        if weigh is None:
            # unit-weight sums are exact integers, which zero rows leave alone
            w = None
        else:
            # Weighted sums are rounded, so they run on full-length operands
            # with zero rows for the rejected draws, as if each were classified.
            hit = rows[live]

            def full(x):
                out = np.zeros((count,) + x.shape[1:])
                out[hit] = x
                return out

            w = full(weigh[1](extra[hit], cfg1, cfg2))
            a1 = full(a1)
            a2 = a1 if n_z == 0 else full(a2)
        _accumulate(sum_m, sq_m, w, a1, a2)

    N = params.n_samples
    mean = sum_m / N
    var = np.maximum(sq_m / N - mean ** 2, 0.0)
    volume = unit_ball_volume(d) * radius ** d
    return mean, np.sqrt(var / N), volume ** (2 * k - ell - 1)


def _covariance_core(params: OracleParams, mode: str, light: bool) -> LimitCovariance:
    d, k, ell = params.d, params.k, params.ell
    if light:
        if params.c is None or not params.c > 0:
            raise InvalidParameterError("light-tail covariance needs c in (0, inf]")
        cinv = 0.0 if math.isinf(params.c) else 1.0 / params.c
        rate = 2 * k - ell
        const = d_constant(d, k, ell) / rate
        weigh = (lambda rng, count: rng.exponential(1.0 / rate, size=count),
                 lambda rho, cfg1, cfg2: _light_weights(
                     rho, cinv, params.annulus, cfg1[:, 1:ell, 0], cfg1[:, ell:, 0],
                     cfg2[:, ell:, 0]))
    else:
        if params.alpha is None:
            raise InvalidParameterError("heavy-tail covariance needs alpha")
        if params.annulus is not None:
            raise InvalidParameterError(
                "annulus restriction enters the heavy-tail blocks through closed-form "
                "weights; pass it to mixture_covariance instead")
        const, weigh = b_constant(d, k, ell, params.alpha), None

    mean, se, domain = block_moments(params, mode, np.random.default_rng(params.seed), weigh)
    scale = const * domain
    prov = {
        "formula": ("M_ell" if light else "L_ell"), "d": d, "k": k, "ell": ell,
        "mode": mode, "alpha": params.alpha, "c": params.c,
        "annulus": params.annulus, "seed": params.seed, "n_samples": params.n_samples,
        "shape_canonical": params.shape.canonical_form,
    }
    return LimitCovariance(t_grid=params.t_grid.copy(), matrix=scale * mean,
                           std_err=scale * se, provenance=prov)


def covariance_L(params: OracleParams, mode: str = "h") -> LimitCovariance:
    """Heavy-tail block covariance L_ell by Monte Carlo (per-entry SEs)."""
    return _covariance_core(params, mode, light=False)


def covariance_M(params: OracleParams, mode: str = "h") -> LimitCovariance:
    """Light-tail block covariance M_ell, optionally restricted to the
    annulus domain (K, L); c = inf recovers the subexponential case."""
    return _covariance_core(params, mode, light=True)


# ---------------------------------------------------------------------------
# regime mixtures
# ---------------------------------------------------------------------------

def _heavy_weight(d: int, k: int, ell: int, alpha: float, annulus) -> float:
    """K^(d-alpha(2k-ell)) - L^(d-alpha(2k-ell)); 1 without an annulus (K = 1,
    L = inf)."""
    if annulus is None:
        return 1.0
    K, L = annulus
    expo = d - alpha * (2 * k - ell)
    upper = 0.0 if math.isinf(L) else L ** expo
    return K ** expo - upper


def mixture_covariance(tag: str, params: OracleParams,
                       xi: float | None = None) -> LimitCovariance:
    """Regime-appropriate combination of block covariances.

    Heavy family (``params.c`` unset): ``params.annulus`` enters through the
    closed-form weights (K^(d-alpha(2k-ell)) - L^(d-alpha(2k-ell))); light
    family: the block integrals are restricted to the annulus domain directly.
    """
    k = params.k
    if tag == SPARSE:
        ells = [k]
    elif tag == DENSE:
        ells = [1]
    elif tag == CRITICAL:
        if xi is None or not 0 < xi < math.inf:
            raise InvalidParameterError("critical mixture needs a finite positive xi")
        ells = list(range(1, k + 1))
    else:
        raise InvalidParameterError(f"unknown regime tag {tag!r}")

    light = params.c is not None
    annulus = params.annulus
    if not light and params.alpha is None:
        raise InvalidParameterError("heavy mixture needs alpha")

    T = params.t_grid.size
    matrix = np.zeros((T, T))
    var = np.zeros((T, T))
    for ell in ells:
        sub = replace(params, ell=ell, seed=params.seed + ell,
                      annulus=annulus if light else None)
        block = covariance_M(sub) if light else covariance_L(sub)
        weight = 1.0 if tag != CRITICAL else xi ** (2 * k - ell)
        if not light:
            weight *= _heavy_weight(params.d, k, ell, params.alpha, annulus)
        matrix += weight * block.matrix
        var += (weight * block.std_err) ** 2
    family = "light" if light else "heavy"
    prov = {"formula": f"mixture_{family}_{tag}", "xi": xi, "annulus": annulus}
    return LimitCovariance(t_grid=params.t_grid.copy(), matrix=matrix,
                           std_err=np.sqrt(var), provenance=prov)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def brownian_identity_check(params: OracleParams, mode: str = "plus") -> dict:
    """For ell = k: the +/- block covariance must equal
    K_mode * min(t,s)^(d(k-1)), a time-changed Brownian motion."""
    if params.ell != params.k:
        raise InvalidParameterError("Brownian representation holds for ell = k")
    if mode not in ("plus", "minus"):
        raise InvalidParameterError("mode must be 'plus' or 'minus'")
    d, k = params.d, params.k
    cov = covariance_L(params, mode=mode)
    # K = B_k int h_mode(0, y) dy is the block at t = s = 1, from independent draws
    unit = covariance_L(replace(params, t_grid=np.array([1.0]), seed=params.seed + 977),
                        mode=mode)
    k_hat, k_se = unit.matrix[0, 0], unit.std_err[0, 0]

    expo = d * (k - 1)
    tt, ss = np.meshgrid(params.t_grid, params.t_grid, indexing="ij")
    predicted = k_hat * np.minimum(tt, ss) ** expo
    combined = np.sqrt(cov.std_err ** 2 + (np.minimum(tt, ss) ** expo * k_se) ** 2)
    dev = np.abs(cov.matrix - predicted)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(combined > 0, dev / combined, np.where(dev > 0, np.inf, 0.0))
    return {
        "mode": mode, "exponent": expo, "K_hat": k_hat, "K_se": k_se,
        "covariance": cov, "predicted": predicted, "max_z": float(z.max()),
        "passed": bool(z.max() <= 3.0),
    }


_SCALE_FACTORS = (1.0, 2.0, 4.0)


def self_similarity_report(params: OracleParams) -> dict:
    """Estimated log-log slope of L_ell(c, c) over c in ``_SCALE_FACTORS``
    against the exact self-similarity exponent d(2k - ell - 1) of the
    covariance scaling."""
    d, k, ell = params.d, params.k, params.ell
    values, ses = [], []
    for i, c in enumerate(_SCALE_FACTORS):
        sub = replace(params, t_grid=np.array([c]), seed=params.seed + 131 * i)
        block = covariance_L(sub)
        values.append(float(block.matrix[0, 0]))
        ses.append(float(block.std_err[0, 0]))
    x = np.log(np.asarray(_SCALE_FACTORS))
    y = np.log(values)
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    slope = float(w @ y)
    rel = np.asarray(ses) / np.asarray(values)
    slope_se = float(np.sqrt(np.sum(w ** 2 * rel ** 2)))
    target = d * (2 * k - ell - 1)
    z = abs(slope - target) / slope_se if slope_se > 0 else math.inf
    return {
        "slope": slope, "slope_se": slope_se, "target": float(target),
        "z": float(z), "passed": bool(z <= 3.0),
        "values": values, "std_errs": ses, "factors": list(_SCALE_FACTORS),
    }


# ---------------------------------------------------------------------------
# exact finite-n cumulants of the pair count
# ---------------------------------------------------------------------------

# Composite Gauss-Legendre rules.  Radii are split into segments of ratio 2
# (the radial mass spans many decades), and the partial rings of a disk are
# integrated in theta with s = mid - half cos(theta), which absorbs the
# square-root ends of the ring fraction at s = |r - t| and s = r + t.
_GL_SEGMENT = 12            # nodes per segment of the composite rule
_GL_LENS = np.polynomial.legendre.leggauss(64)
_FULL_CUTS = np.concatenate([[0.0], np.geomspace(2.0 ** -40, 1.0, 41)])
_OUTER_TAIL = 1e-16        # radial mass left beyond the outer rule, relative
_PAIR_CHUNK = 8            # outer nodes per block of the nested F evaluation
_FAR_PAIR_SAMPLES = 1 << 15   # offset pairs of the triangle term's MC integral
_FAR_PAIR_SEED = 0


@dataclass(frozen=True)
class PairCumulants:
    """kappa_1..kappa_3 of the K_2 count G_n(t) outside R.

    ``kappa3_se`` is the Monte Carlo standard error of ``kappa3``, which
    comes from its triangle term; every other term is deterministic
    quadrature, accurate to about 1e-8 relative.
    """

    kappa1: float
    kappa2: float
    kappa3: float
    kappa3_se: float

    @property
    def skewness(self) -> float:
        return self.kappa3 / self.kappa2 ** 1.5

    @property
    def skewness_se(self) -> float:
        return self.kappa3_se / self.kappa2 ** 1.5


def _ring_fraction(s: np.ndarray, r: np.ndarray, t: float) -> np.ndarray:
    """Fraction of the circle |y| = s lying in the disk B(r e_1, t)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (s * s + r * r - t * t) / (2 * s * r)
    c = np.where((s == 0) | (r == 0), np.where(s + r <= t, -1.0, 1.0), c)
    return np.arccos(np.clip(c, -1.0, 1.0)) / math.pi


class _PairIntegrals:
    """Radial quadrature for the measure mu = n f 1{|x| >= R} in d = 2.

    mu is rotation invariant, so ``nu(ds) = 2 pi n f(s) s ds`` carries it
    to radii, and an integral of h(x, y) = 1{|x - y| <= t} against mu(dy)
    becomes an integral of the ring fraction against nu.
    """

    def __init__(self, density: RadialDensity, n: float, R: float, t: float):
        self.density, self.n, self.R, self.t = density, n, R, t

    def nu(self, s):
        return 2 * math.pi * self.n * self.density.radial_profile(s) * s

    def outer_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and nu-weights for int_R^inf . nu(dr), with breakpoints
        where the disk B(x, t) becomes tangent to the circle |y| = R."""
        density, R, t = self.density, self.R, self.t
        base = density.log_tail_prob(R)
        r_hi = 2 * max(R, 1.0)
        while density.log_tail_prob(r_hi) - base > math.log(_OUTER_TAIL):
            r_hi *= 2
        v0 = min(t, max(R, 1.0)) / 16
        steps = max(math.ceil(math.log2((r_hi - R) / v0)), 1)
        kinks = [b - R for b in (t - R, t, t + R) if R < b < r_hi]
        cuts = R + np.unique(np.concatenate(
            [[0.0], np.geomspace(v0, r_hi - R, steps + 1), kinks]))
        r, w = gauss_legendre(cuts, _GL_SEGMENT)
        return r, w * self.nu(r)

    def ring_rule(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodes S and weights W of shape (len(r), K) with
        sum_k W[:, k] g(S[:, k]) = int h(r e_1, y) g(|y|) mu(dy)."""
        R, t = self.R, self.t
        r = np.asarray(r, dtype=float)[:, None]
        # partial rings: s in [max(R, |t - r|), r + t]
        lo = np.maximum(R, np.abs(t - r))
        half = np.clip(r + t - lo, 0.0, None) / 2
        x, wx = _GL_LENS
        theta = (x + 1) * (math.pi / 2)
        S = lo + half * (1 - np.cos(theta))
        W = (half * np.sin(theta) * wx * (math.pi / 2)
             * self.nu(S) * _ring_fraction(S, r, t))
        # full rings: s in [R, t - r] lies wholly inside the disk
        span = np.clip(t - r - R, 0.0, None)
        if np.any(span > 0):
            u, wu = gauss_legendre(_FULL_CUTS, _GL_SEGMENT)
            s_full = R + span * u
            S = np.concatenate([s_full, S], axis=1)
            W = np.concatenate([span * wu * self.nu(s_full), W], axis=1)
        return S, W

    def disk_mass(self, r: np.ndarray) -> np.ndarray:
        """F(x) = mu(B(x, t)) at |x| = r."""
        return self.ring_rule(r)[1].sum(axis=1)

    def smoothed_disk_mass(self, r: np.ndarray) -> np.ndarray:
        """int h(x, y) F(y) mu(dy) at |x| = r."""
        out = np.empty(len(r))
        for i in range(0, len(r), _PAIR_CHUNK):
            S, W = self.ring_rule(r[i:i + _PAIR_CHUNK])
            F = self.disk_mass(S.ravel()).reshape(S.shape)
            out[i:i + _PAIR_CHUNK] = (W * F).sum(axis=1)
        return out

    def far_pair_mass(self, r: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """int nu(dr) mu^2{(y, z) in B(x, t)^2 : |y - z| > t} by importance
        sampling y, z uniform in B(x, t), with its standard error.  The same
        offsets serve every outer node.  When no two points of the support
        are farther apart than t, the integral and every draw vanish."""
        t, area = self.t, math.pi * self.t ** 2
        rng = np.random.default_rng(_FAR_PAIR_SEED)
        samples = _FAR_PAIR_SAMPLES

        def uniform_disk():
            phi = 2 * math.pi * rng.random(samples)
            rho = t * np.sqrt(rng.random(samples))
            return np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=1)

        u, v = uniform_disk(), uniform_disk()
        far = np.linalg.norm(u - v, axis=1) > t
        u, v = u[far], v[far]
        totals = np.zeros(samples)
        for x, wx in zip(r, w):
            ny = np.hypot(x + u[:, 0], u[:, 1])
            nz = np.hypot(x + v[:, 0], v[:, 1])
            dens = self.density.radial_profile(ny) * self.density.radial_profile(nz)
            totals[far] += wx * (self.n * area) ** 2 * dens * ((ny >= self.R) & (nz >= self.R))
        return float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(samples))


def exact_pair_cumulants(density: RadialDensity, n: float, R: float,
                         t: float) -> PairCumulants:
    """First three cumulants of G_n(t) = #{pairs at distance <= t, both
    outside B(0, R)} for the Poisson cloud of intensity n f, in d = 2.

    With mu = n f 1{|x| >= R}, h = 1{|x - y| <= t} and F(x) = int h(x,y) mu(dy),
    the Mecke formula and the diagram formula for Poisson U-statistics
    (Last & Penrose 2017, ch. 4 and 12; Reitzner & Schulte 2013) give

        kappa1 = 1/2 int int h dmu^2
        kappa2 = kappa1 + int F^2 dmu
        kappa3 = kappa1 + 3 int F^2 dmu + int int int h(x,y) h(y,z) h(z,x) dmu^3
                 + int F^3 dmu + 3 int int F(x) h(x,y) F(y) dmu^2.

    All terms but the triangle are radial integrals, done by nested
    Gauss-Legendre quadrature.  The triangle term is int F^2 dmu less the
    mass of pairs in B(x, t)^2 farther apart than t, and that mass is a
    seeded Monte Carlo integral; its standard error is ``kappa3_se``.
    """
    if density.d != 2:
        raise UnsupportedOperationError(
            f"exact pair cumulants are implemented for d = 2, not d = {density.d}")
    if not (n > 0 and t > 0 and R >= 0):
        raise InvalidParameterError(f"need n > 0, t > 0, R >= 0 (got {n}, {t}, {R})")
    pairs = _PairIntegrals(density, float(n), float(R), float(t))
    r, w = pairs.outer_rule()
    F = pairs.disk_mass(r)
    F2 = float(np.sum(w * F ** 2))
    far, far_se = pairs.far_pair_mass(r, w)
    kappa1 = 0.5 * float(np.sum(w * F))
    kappa3 = (kappa1 + 3 * F2 + (F2 - far) + float(np.sum(w * F ** 3))
              + 3 * float(np.sum(w * F * pairs.smoothed_disk_mass(r))))
    return PairCumulants(kappa1=kappa1, kappa2=kappa1 + F2, kappa3=kappa3,
                         kappa3_se=far_se)

"""Spherically symmetric radial laws and their derived radii.

Two families:

* power law            f(x) = C / (1 + ||x||^alpha),       alpha > d
* von Mises (Weibull)  f(x) = C exp(-||x||^tau / tau),     tau > 0

plus the radius schedules built from them: weak core (n f(R) = 1), maximal
core, and Poisson-layer radii.  All tail quantities are computed through
ratio integrands so that exterior sampling stays exact even when the
exterior probability underflows (intensities up to ~1e300 are fine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, interpolate, optimize, special


class InvalidParameterError(ValueError):
    """Family parameters outside their admissible range."""


class ScheduleUndefinedError(RuntimeError):
    """A derived radius has no root at this intensity."""


class UnsupportedOperationError(RuntimeError):
    """Operation not defined for this density family."""


def sphere_surface_area(d: int) -> float:
    """Surface area s_{d-1} of the unit sphere in R^d (s_0 = 2)."""
    return 2 * math.pi ** (d / 2) / special.gamma(d / 2)

def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / special.gamma(d / 2 + 1)


_TABLE_SIZE = 4096
_TABLE_TAIL = 1e-12          # tabulate the inverse CDF out to this tail mass
_RESIDUAL_W = 1e-18          # truncate ratio integrands below this weight
_TAIL_CACHE_SIZE = 256       # memoized tail integrals kept per density


@dataclass
class _InverseCdf:
    """Monotone tabulated inverse of a CDF given on an r-grid."""

    r: np.ndarray
    cdf: np.ndarray
    _interp: interpolate.PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cdf, idx = np.unique(self.cdf, return_index=True)
        self._interp = interpolate.PchipInterpolator(cdf, self.r[idx], extrapolate=False)
        self.max_cdf = float(cdf[-1])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self._interp(np.minimum(u, self.max_cdf))


class RadialDensity:
    """Base class: subclasses define the radial profile g and its log."""

    family = "base"

    def __init__(self, d: int):
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise InvalidParameterError(f"dimension must be a positive integer, got {d!r}")
        self.d = int(d)
        self.C = self._normalize()
        self._full_inverse: _InverseCdf | None = None
        self._exterior_cache: dict[float, tuple[_InverseCdf, float]] = {}
        self._tail_integral_cache: dict[float, float] = {}

    # -- profile (overridden) ------------------------------------------------
    def _g(self, r):
        raise NotImplementedError

    def _log_g(self, r):
        raise NotImplementedError

    def _table_hi(self) -> float:
        """Radius with tail mass below _TABLE_TAIL (doubling search)."""
        r = self._scale()
        while self.tail_prob(r) > _TABLE_TAIL:
            r *= 2
        return r

    def _scale(self) -> float:
        return 1.0

    def _tail_inverse_asymptotic(self, u_tail: np.ndarray) -> np.ndarray:
        """Analytic inversion of the tail beyond the tabulated quantile."""
        raise NotImplementedError

    # -- densities -----------------------------------------------------------
    def radial_profile(self, r):
        """f(r e_1), the density value at radius r."""
        return self.C * self._g(np.asarray(r, dtype=float))

    def log_radial_profile(self, r):
        return math.log(self.C) + self._log_g(np.asarray(r, dtype=float))

    def pdf(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.radial_profile(np.linalg.norm(x, axis=1))

    def _normalize(self) -> float:
        """Normalizing constant by radial quadrature: C^-1 = s_{d-1} int r^{d-1} g."""
        s = sphere_surface_area(self.d)
        val, _ = integrate.quad(lambda r: r ** (self.d - 1) * float(self._g(r)),
                                0, np.inf, limit=400)
        if not np.isfinite(val) or val <= 0:
            raise InvalidParameterError("density does not normalize")
        return 1.0 / (s * val)

    # -- tail ----------------------------------------------------------------
    def _tail_ratio_integral(self, R: float) -> float:
        """T = int_0^inf (1 + v/R)^{d-1} g(R+v)/g(R) dv (well scaled), memoized per R.

        Worker threads share the memo: a value is stored only once complete,
        so a race at worst recomputes it.
        """
        cached = self._tail_integral_cache.get(R)
        if cached is not None:
            return cached
        logg_R = float(self._log_g(R))

        def w(v):
            return ((R + v) / R) ** (self.d - 1) * np.exp(self._log_g(R + v) - logg_R)

        # piecewise quadrature over log-spaced segments: the integrand can
        # spread its mass across many decades for slowly decaying tails
        hi = self._delta_hi(R)
        cuts = np.concatenate([[0.0], np.geomspace(hi * 1e-14, hi, 64)])
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            seg, _ = integrate.quad(w, a, b, limit=100)
            total += seg
        if len(self._tail_integral_cache) > _TAIL_CACHE_SIZE:
            self._tail_integral_cache.clear()
        self._tail_integral_cache[R] = total
        return total

    def _delta_hi(self, R: float) -> float:
        logg_R = float(self._log_g(R))
        v = max(self._scale(), R * 1e-6)
        while (self.d - 1) * math.log1p(v / R) + float(self._log_g(R + v)) - logg_R \
                > math.log(_RESIDUAL_W):
            v *= 2
        return v

    def log_tail_prob(self, R: float) -> float:
        """log P(||X|| >= R), safe far below float underflow of the probability."""
        if R <= 0:
            return 0.0
        T = self._tail_ratio_integral(R)
        return (math.log(sphere_surface_area(self.d) * self.C)
                + (self.d - 1) * math.log(R) + float(self._log_g(R)) + math.log(T))

    def tail_prob(self, R: float) -> float:
        if R <= 0:
            return 1.0
        return math.exp(self.log_tail_prob(R))

    def radial_cdf(self, r):
        """P(||X|| <= r) via the quadrature tail (test oracle, not the sampler table)."""
        rs = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.array([1.0 - self.tail_prob(float(v)) if v > 0 else 0.0 for v in rs])
        return out if np.ndim(r) else float(out[0])

    # -- sampling ------------------------------------------------------------
    def _radial_inverse(self) -> _InverseCdf:
        if self._full_inverse is None:
            hi = self._table_hi()
            lo = min(self._scale(), hi) * 1e-9   # anchor to the density scale
            grid = np.concatenate([[0.0], np.geomspace(lo, hi, _TABLE_SIZE)])
            pdf = sphere_surface_area(self.d) * self.C * grid ** (self.d - 1) * self._g(grid)
            cdf = integrate.cumulative_simpson(pdf, x=grid, initial=0.0)
            cdf[-1] = 1.0 - self.tail_prob(hi)
            self._full_inverse = _InverseCdf(r=grid, cdf=np.clip(cdf, 0.0, 1.0))
        return self._full_inverse

    def _directions(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return z / norms

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """iid points from f: tabulated inverse-CDF radius, uniform direction."""
        inv = self._radial_inverse()
        u = rng.random(size)
        r = np.asarray(inv(u), dtype=float)
        beyond = u > inv.max_cdf
        if beyond.any():
            r[beyond] = self._tail_inverse_asymptotic(1.0 - u[beyond])
        return r[:, None] * self._directions(rng, size)

    def _exterior_inverse(self, R: float) -> tuple[_InverseCdf, float]:
        cached = self._exterior_cache.get(R)
        if cached is not None:
            return cached
        logg_R = float(self._log_g(R))

        def w(v):
            v = np.asarray(v, dtype=float)
            return ((R + v) / R) ** (self.d - 1) * np.exp(self._log_g(R + v) - logg_R)

        hi = self._delta_hi(R)
        total = self._tail_ratio_integral(R)
        # w(0) = 1 and the mass sits within ~total of the boundary: anchor there
        lo = min(total, hi) * 1e-9
        grid = np.concatenate([[0.0], np.geomspace(lo, hi, _TABLE_SIZE)])
        vals = w(grid)
        cdf = integrate.cumulative_simpson(vals, x=grid, initial=0.0)
        inv = _InverseCdf(r=grid, cdf=np.clip(cdf / total, 0.0, 1.0))
        if len(self._exterior_cache) > 32:
            self._exterior_cache.clear()
        self._exterior_cache[R] = (inv, total)
        return inv, total

    def sample_exterior(self, rng: np.random.Generator, size: int, R: float) -> np.ndarray:
        """iid points from f conditioned on ||X|| >= R (exact restriction law)."""
        if R <= 0:
            return self.sample(rng, size)
        inv, _ = self._exterior_inverse(R)
        u = rng.random(size)
        r = R + np.asarray(inv(u), dtype=float)
        return r[:, None] * self._directions(rng, size)

    # -- family-specific hooks ------------------------------------------------
    def a_function(self, r):
        raise UnsupportedOperationError(
            f"a(r) = 1/psi'(r) is defined for the von Mises family only, not {self.family}")


class PowerLawDensity(RadialDensity):
    """f(x) = C / (1 + ||x||^alpha) with alpha > d."""

    family = "power"

    def __init__(self, d: int, alpha: float):
        if not alpha > d:
            raise InvalidParameterError(
                f"power-law tail needs alpha > d (got alpha={alpha}, d={d}); "
                "the integral diverges otherwise")
        self.alpha = float(alpha)
        super().__init__(d)

    def _g(self, r):
        return 1.0 / (1.0 + np.asarray(r, dtype=float) ** self.alpha)

    def _log_g(self, r):
        return -np.log1p(np.asarray(r, dtype=float) ** self.alpha)

    def _tail_inverse_asymptotic(self, u_tail):
        # P(>r) ~ s C r^{d-alpha}/(alpha-d)
        s = sphere_surface_area(self.d)
        return (s * self.C / ((self.alpha - self.d) * np.asarray(u_tail))) \
            ** (1.0 / (self.alpha - self.d))


class VonMisesDensity(RadialDensity):
    """f(x) = C exp(-psi(||x||)) with psi(r) = r^tau / tau and constant slowly
    varying factor L = C.

    tau in (0, 1] gives the (sub)exponential tails used by the CLT
    experiments; tau > 1 (superexponential) is allowed only for core-radius
    computations.  gamma and z0 are the polynomial-bound parameters of the
    slowly varying factor; with L constant any gamma >= 0 works.
    """

    family = "vonmises"

    def __init__(self, d: int, tau: float, gamma: float = 0.0, z0: float = 1.0):
        if not tau > 0:
            raise InvalidParameterError(f"von Mises exponent must be positive, got {tau}")
        if gamma < 0 or z0 <= 0:
            raise InvalidParameterError("need gamma >= 0 and z0 > 0")
        self.tau = float(tau)
        self.gamma = float(gamma)
        self.z0 = float(z0)
        super().__init__(d)

    def psi(self, r):
        return np.asarray(r, dtype=float) ** self.tau / self.tau

    def psi_inverse(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise ScheduleUndefinedError("psi inverse of a negative value")
        return (self.tau * y) ** (1.0 / self.tau)

    def a_function(self, r):
        """a(r) = 1/psi'(r) = r^{1-tau}."""
        return np.asarray(r, dtype=float) ** (1.0 - self.tau)

    @property
    def c_limit(self) -> float:
        """lim a(r): inf (subexponential), 1 (exponential), 0 (superexponential)."""
        if self.tau < 1:
            return math.inf
        return 1.0 if self.tau == 1 else 0.0

    @property
    def slowly_varying_constant(self) -> float:
        """The constant slowly varying factor L(r) = C."""
        return self.C

    def _g(self, r):
        return np.exp(-self.psi(r))

    def _log_g(self, r):
        return -self.psi(r)

    def _scale(self) -> float:
        return float(self.psi_inverse(1.0)) + 1.0

    def _tail_inverse_asymptotic(self, u_tail):
        # P(>r) ~ s C a(r) r^{d-1} e^{-psi(r)}; fixed-point iteration on psi
        s = sphere_surface_area(self.d)
        u = np.asarray(u_tail, dtype=float)
        x = self.psi_inverse(-np.log(u / (s * self.C)))
        for _ in range(4):
            corr = np.log(self.a_function(x) * x ** (self.d - 1))
            x = self.psi_inverse(np.maximum(-np.log(u / (s * self.C)) + corr, 0.0))
        return x


# ---------------------------------------------------------------------------
# derived radii
# ---------------------------------------------------------------------------

def _solve_increasing(fn, lo: float, hi_start: float, what: str) -> float:
    """Root of an increasing function fn on (lo, inf), bracketed by doubling."""
    hi = hi_start
    f_lo = fn(lo)
    if f_lo > 0:
        raise ScheduleUndefinedError(f"{what}: no root (already positive at {lo})")
    for _ in range(200):
        if fn(hi) > 0:
            break
        hi *= 2
    else:
        raise ScheduleUndefinedError(f"{what}: no sign change found")
    return float(optimize.brentq(fn, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300))


def weak_core_radius(density: RadialDensity, n: float) -> float:
    """R with n f(R e_1) = 1, by bisection on the monotone log equation."""
    n = float(n)
    if n * density.radial_profile(0.0) <= 1.0:
        raise ScheduleUndefinedError(
            f"weak core undefined: n f(0) = {n * density.radial_profile(0.0):.3g} <= 1")
    log_n = math.log(n)

    def fn(r):  # increasing in r
        return -(log_n + density.log_radial_profile(r))

    return _solve_increasing(fn, 0.0, max(1.0, density._scale()), "weak core radius")


def _default_core_deltas(density: RadialDensity) -> tuple[float, float]:
    """delta1 at half its admissible bound (power law), delta2 = 1/2."""
    if density.family == "power":
        bound = density.alpha / (2 ** density.d * density.d ** (density.d / 2 + 1))
        return 0.5 * bound, 0.5
    return math.nan, 0.5   # von Mises delta1 is determined by the family


def core_radius(density: RadialDensity, n: float,
                delta1: float | None = None, delta2: float | None = None) -> float:
    """Largest-coverage core radius (family-specific closed criterion)."""
    n = float(n)
    if density.family == "power":
        d1_default, d2_default = _default_core_deltas(density)
        delta1 = d1_default if delta1 is None else float(delta1)
        delta2 = d2_default if delta2 is None else float(delta2)
        bound = density.alpha / (2 ** density.d * density.d ** (density.d / 2 + 1))
        if not 0 < delta1 < bound:
            raise InvalidParameterError(f"delta1 must lie in (0, {bound:.6g}), got {delta1}")
        if not 0 < delta2 < 1:
            raise InvalidParameterError(f"delta2 must lie in (0, 1), got {delta2}")
        ln = math.log(n)
        if ln <= 1 or ln - delta2 * math.log(ln) <= 0:
            raise ScheduleUndefinedError("core radius needs larger n")
        target = delta1 * n / (ln - delta2 * math.log(ln))
        # solve 1/p(R) = target;  1/p increasing
        if target * density.radial_profile(0.0) <= 1.0:
            raise ScheduleUndefinedError("core radius undefined: target below 1/p(0)")
        log_t = math.log(target)

        def fn(r):
            return -density.log_radial_profile(r) - log_t

        return _solve_increasing(fn, 0.0, 1.0, "core radius")

    if density.family == "vonmises":
        if delta1 is not None:
            raise InvalidParameterError(
                "von Mises core: delta1 is determined by the family, do not pass it")
        delta2 = 0.5 if delta2 is None else float(delta2)
        if delta2 <= 0:
            raise InvalidParameterError(f"delta2 must be positive, got {delta2}")
        v = density.tau
        delta1 = (density.d * math.log(2) - math.log(v)
                  + (1 + density.d / 2) * math.log(density.d) - math.log(density.C))
        ln = math.log(n)
        if ln <= math.e:   # log log log n > 0 needs n > e^e
            raise ScheduleUndefinedError("core radius needs n > e^e")
        lll = math.log(math.log(ln))
        target = ln - lll - delta1 - delta2
        if target <= 0:
            raise ScheduleUndefinedError("core radius undefined at this n")

        def fn(r):
            return float(density.psi(r)) - target

        return _solve_increasing(fn, 0.0, 1.0, "core radius")

    raise UnsupportedOperationError(f"core radius not defined for family {density.family}")


def poisson_layer_radius(density: RadialDensity, n: float, k: int) -> float:
    """Root of n^k R^d f(R)^k = 1 (heavy) or n^k a(R) R^{d-1} f(R)^k = 1 (light)."""
    if k < 2:
        raise InvalidParameterError("layer radius needs k >= 2")
    n = float(n)
    d = density.d
    log_n = math.log(n)
    lo = weak_core_radius(density, n)

    if density.family == "power":
        def log_eq(r):  # decreasing in r
            return k * (log_n + density.log_radial_profile(r)) + d * math.log(r)
    else:
        def log_eq(r):
            return (k * (log_n + density.log_radial_profile(r))
                    + (d - 1) * math.log(r) + math.log(density.a_function(r)))

    if log_eq(lo) <= 0:
        raise ScheduleUndefinedError("poisson layer radius: no root beyond the weak core")
    return _solve_increasing(lambda r: -log_eq(r), lo, lo * 1.5, "poisson layer radius")


def a_function(density: RadialDensity, r):
    """Auxiliary scale a(r) = 1/psi'(r); errors on non-von-Mises families."""
    return density.a_function(r)


# ---------------------------------------------------------------------------
# radius schedules
# ---------------------------------------------------------------------------

class RadiusSchedule:
    """R_n as a function of intensity n (strictly increasing over its range)."""

    kind = "base"

    def radius(self, density: RadialDensity, n: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class PowerSchedule(RadiusSchedule):
    """R_n = c0 * n^beta."""

    c0: float = 1.0
    beta: float = 0.3
    kind = "power"

    def radius(self, density, n):
        return self.c0 * float(n) ** self.beta

    def describe(self):
        return f"power(c0={self.c0}, beta={self.beta})"


@dataclass(frozen=True)
class WeakCoreSchedule(RadiusSchedule):
    kind = "weak_core"

    def radius(self, density, n):
        return weak_core_radius(density, n)


@dataclass(frozen=True)
class CoreSchedule(RadiusSchedule):
    delta1: float | None = None
    delta2: float | None = None
    kind = "core"

    def radius(self, density, n):
        return core_radius(density, n, self.delta1, self.delta2)

    def describe(self):
        return f"core(delta1={self.delta1}, delta2={self.delta2})"


@dataclass(frozen=True)
class PoissonLayerSchedule(RadiusSchedule):
    k: int = 2
    kind = "poisson_layer"

    def radius(self, density, n):
        return poisson_layer_radius(density, n, self.k)

    def describe(self):
        return f"poisson_layer(k={self.k})"


@dataclass(frozen=True)
class LogBandSchedule(RadiusSchedule):
    """Light-tail band schedule R_n = psi^inv(log(Cn) + beta log(tau log n)).

    beta in (0, (d - tau)/(k tau)) places R_n strictly between the weak core
    and the k-th Poisson layer; n f(R_n) decays like (tau log n)^(-beta).
    """

    beta: float = 0.45
    kind = "log_band"

    def radius(self, density, n):
        if density.family != "vonmises":
            raise UnsupportedOperationError("log-band schedule needs the von Mises family")
        n = float(n)
        arg = math.log(density.C) + math.log(n) \
            + self.beta * math.log(density.tau * math.log(n))
        return float(density.psi_inverse(arg))

    def describe(self):
        return f"log_band(beta={self.beta})"


@dataclass(frozen=True)
class TableSchedule(RadiusSchedule):
    """Explicit (n -> R_n) table with log-log interpolation between entries."""

    entries: tuple[tuple[float, float], ...] = ()
    kind = "table"

    def __post_init__(self):
        ns = [e[0] for e in self.entries]
        rs = [e[1] for e in self.entries]
        ascending = all(a < b for a, b in zip(ns, ns[1:])) and \
            all(a < b for a, b in zip(rs, rs[1:]))
        if len(ns) < 1 or not ascending:
            raise InvalidParameterError("table entries must strictly ascend in n and R")

    def radius(self, density, n):
        ns = np.array([e[0] for e in self.entries])
        rs = np.array([e[1] for e in self.entries])
        if not ns[0] <= n <= ns[-1]:
            raise ScheduleUndefinedError(f"n={n} outside table range")
        return float(np.exp(np.interp(np.log(n), np.log(ns), np.log(rs))))

    def describe(self):
        return f"table({len(self.entries)} entries)"


# ---------------------------------------------------------------------------
# Poisson cloud sampling
# ---------------------------------------------------------------------------

def sample_point(density: RadialDensity, rng: np.random.Generator) -> np.ndarray:
    """One draw from f."""
    return density.sample(rng, 1)[0]


def sample_poisson_cloud(n: float, density: RadialDensity, rng: np.random.Generator,
                         exterior_radius: float | None = None, seed=None):
    """Poisson(n f) process; with ``exterior_radius`` only its restriction to
    {||x|| >= R} is realized (count thinned by the exterior probability)."""
    from .counting import PointCloud   # local import to avoid a cycle

    n = float(n)
    if n <= 0:
        raise InvalidParameterError("intensity must be positive")
    if exterior_radius is None or exterior_radius <= 0:
        lam = n
        count = int(rng.poisson(lam))
        pts = density.sample(rng, count)
        restricted = None
    else:
        lam = math.exp(math.log(n) + density.log_tail_prob(exterior_radius))
        count = int(rng.poisson(lam))
        pts = density.sample_exterior(rng, count, exterior_radius)
        restricted = float(exterior_radius)
    norms = np.linalg.norm(pts, axis=1) if count else np.empty(0)
    return PointCloud(points=pts.reshape(count, density.d), norms=norms, n=n,
                      seed=seed, restricted_to=restricted)

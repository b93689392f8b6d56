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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
# numpy loads its random module on first use; load it with rgglab, so that
# start-up and not the first draw pays for it
import numpy.random  # noqa: F401

from ._numerics import (brentq, cumulative_simpson, gauss_legendre, pchip_coefficients, quad,
                        row_norms)


class InvalidParameterError(ValueError):
    """Family parameters outside their admissible range."""


class ScheduleUndefinedError(RuntimeError):
    """A derived radius has no root at this intensity."""


class UnsupportedOperationError(RuntimeError):
    """Operation not defined for this density family."""


def sphere_surface_area(d: int) -> float:
    """Surface area s_{d-1} of the unit sphere in R^d (s_0 = 2)."""
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2)

def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


_TABLE_SIZE = 4096
_TABLE_TAIL = 1e-12          # tabulate the inverse CDF out to this tail mass
_RESIDUAL_W = 1e-18          # truncate ratio integrands below this weight
_TAIL_CACHE_SIZE = 256       # memoized tail integrals kept per density
# inverse-CDF interval lookup buckets over [0, max_cdf], 16 bytes each; more
# were no faster, and every cached exterior table holds its own
_BUCKETS = 1 << 14
_CHUNK = 8192                # rows per cache-sized pass over a full cloud
_FILLER = ThreadPoolExecutor(1)   # starts its thread on the first submit
if hasattr(os, "register_at_fork"):   # a forked child inherits no helper thread
    os.register_at_fork(after_in_child=lambda: globals().update(_FILLER=ThreadPoolExecutor(1)))


@dataclass
class _InverseCdf:
    """Monotone tabulated inverse of a CDF given on an r-grid.

    ``pchip_coefficients`` (scipy's ``PchipInterpolator``, ported) builds
    the cubic coefficients; ``eval_chunk`` evaluates them with the same
    arithmetic as scipy's ``PPoly(extrapolate=False)`` on
    ``min(u, max_cdf)``, bit for bit, one cache-sized chunk at a time.  A
    bucket table over [0, max_cdf] finds each u's interval without a full
    binary search, and five coefficient columns hold each interval's left
    end and its cubic; every lookup is a ``take`` from one contiguous
    array.  All tables are built in ``__post_init__`` and never written
    afterwards: exterior tables are shared by worker threads.
    """

    r: np.ndarray
    cdf: np.ndarray
    max_cdf: float = field(init=False)

    def __post_init__(self) -> None:
        cdf, idx = np.unique(self.cdf, return_index=True)
        if cdf[0] < 0:
            raise ValueError("CDF values must be nonnegative")
        c = pchip_coefficients(cdf, self.r[idx])
        self.max_cdf = float(cdf[-1])
        self._x = cdf
        # scipy evaluates (0 + c3) + c2*s + c1*(s*s) + c0*((s*s)*s) on the
        # interval x[i] <= u < x[i+1], and on the last one at u = x[-1].  The
        # columns left, c3, c2, c1, c0 are indexed by k = #{breakpoints <= u}
        # = i + 1, so they are shifted by one, and k = len(x) repeats the last
        # interval
        self._left, self._c3, self._c2, self._c1, self._c0 = (
            np.concatenate([[np.nan], col, col[-1:]])
            for col in (cdf[:-1], 0.0 + c[3], c[2], c[1], c[0]))
        # a breakpoint's bucket uses the expression queries use; as
        # floor(v * scale) is monotone in v, the breakpoints of buckets before
        # v's are below v and those of buckets after it above v.  So k is the
        # count of earlier buckets' breakpoints, plus one if v reaches the
        # bucket's own breakpoint: inf if it has none, NaN if it has several,
        # which a binary search then settles
        self._scale = _BUCKETS / self.max_cdf      # max_cdf > 0: PCHIP needs two points
        bucket = (cdf * self._scale).astype(np.intp)
        # breakpoints in earlier buckets: j for the buckets in (bucket[j-1], bucket[j]]
        self._before = np.repeat(np.arange(cdf.size + 1),
                                 np.diff(bucket, prepend=-1, append=_BUCKETS))
        held = np.diff(self._before, append=cdf.size)
        self._split = np.where(held == 0, np.inf, np.nan)
        self._split[held == 1] = cdf[self._before[held == 1]]

    def eval_chunk(self, u: np.ndarray) -> np.ndarray:
        """The inverse CDF at a 1-d chunk of u >= 0, about ``_CHUNK`` long, as
        a new array.  Both tables start at CDF 0, so every u the sampler
        draws from [0, 1) lies in the table or beyond its end."""
        v = np.minimum(u, self.max_cdf)
        bucket = (v * self._scale).astype(np.intp)             # floor, as v >= 0
        split = self._split.take(bucket)
        k = self._before.take(bucket)
        k += v >= split
        crowded = np.isnan(split)
        if crowded.any():
            k[crowded] = np.searchsorted(self._x, v[crowded], side="right")
        s = v - self._left.take(k)
        res = self._c2.take(k)
        res *= s
        res += self._c3.take(k)
        term = self._c1.take(k)
        s2 = s * s
        term *= s2
        res += term
        s2 *= s
        self._c0.take(k, out=term)
        term *= s2
        res += term
        return res


def _scale_directions(z: np.ndarray, r: np.ndarray) -> None:
    """Set each row of the (N, d) z, in place, to ``z / np.linalg.norm(z) * r``.

    Bit for bit, with a zero row left zero.  It runs column by column, since
    an (N, 1) broadcast runs an inner loop of length d.
    """
    norms = row_norms(lambda c: z[:, c], z.shape[1])
    norms[norms == 0] = 1.0
    for c in range(z.shape[1]):
        z[:, c] /= norms
        z[:, c] *= r


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

    def _normalize(self) -> float:
        """Normalizing constant by radial quadrature: C^-1 = s_{d-1} int r^{d-1} g."""
        s = sphere_surface_area(self.d)
        val, _ = quad(lambda r: r ** (self.d - 1) * float(self._g(r)), 0, limit=400)
        if not np.isfinite(val) or val <= 0:
            raise InvalidParameterError("density does not normalize")
        return 1.0 / (s * val)

    # -- tail ----------------------------------------------------------------
    def _tail_ratio(self, R: float, v: np.ndarray) -> np.ndarray:
        """(1 + v/R)^{d-1} g(R+v)/g(R): T times the density of ||X|| - R given ||X|| >= R."""
        return ((R + v) / R) ** (self.d - 1) * np.exp(self._log_g(R + v) - float(self._log_g(R)))

    def _tail_ratio_integral(self, R: float) -> float:
        """T = int_0^inf _tail_ratio(R, v) dv (well scaled), memoized per R.

        Worker threads share the memo: a value is stored only once complete,
        so a race at worst recomputes it.
        """
        cached = self._tail_integral_cache.get(R)
        if cached is not None:
            return cached
        # a 20-point rule on each of 64 log-spaced segments: the integrand
        # varies on the scale R and can spread its mass across many decades
        # for slowly decaying tails
        hi = self._delta_hi(R)
        cuts = np.concatenate([[0.0], np.geomspace(min(hi * 1e-14, R * 1e-3), hi, 64)])
        v, w = gauss_legendre(cuts, 20)
        total = float(w @ self._tail_ratio(R, v))
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

    # -- sampling ------------------------------------------------------------
    def _radial_inverse(self) -> _InverseCdf:
        if self._full_inverse is None:
            hi = self._table_hi()
            lo = min(self._scale(), hi) * 1e-9   # anchor to the density scale
            grid = np.concatenate([[0.0], np.geomspace(lo, hi, _TABLE_SIZE)])
            pdf = sphere_surface_area(self.d) * self.C * grid ** (self.d - 1) * self._g(grid)
            cdf = cumulative_simpson(pdf, grid)
            cdf[-1] = 1.0 - self.tail_prob(hi)
            self._full_inverse = _InverseCdf(r=grid, cdf=np.clip(cdf, 0.0, 1.0))
        return self._full_inverse

    def _points(self, rng: np.random.Generator, size: int, radius) -> np.ndarray:
        """size points with radius ``radius(u)`` of a uniform u and a uniform
        direction: the bits of ``u = rng.random(size)`` then
        ``rng.standard_normal((size, d))``, with ``rng`` left where those
        draws leave it, but with no more than a chunk of u held at a time.

        ``rng`` draws u chunk by chunk while a second generator, advanced
        past them, draws the directions into the output: above one chunk on
        ``_FILLER``, in chunk order, so that the bits do not depend on the
        thread.  One helper serves the process, as one per call would crowd
        the cores that replication workers fill.  This needs a PCG64
        generator, whose random doubles take one 64-bit word each.
        """
        bits = getattr(rng, "bit_generator", None)
        if type(bits) is not np.random.PCG64:
            raise TypeError("sampling needs a numpy Generator on PCG64 (np.random.default_rng), "
                            f"got {rng!r}")
        start = bits.state
        # a fresh PCG64 set to rng's state costs a third of copy.deepcopy(rng)
        normals = np.random.Generator(np.random.PCG64(0))
        normals.bit_generator.state = start
        normals.bit_generator.advance(size)
        z = np.empty((size, self.d))
        if size <= _CHUNK:                    # fills inline, never starting _FILLER
            _scale_directions(normals.standard_normal(out=z), radius(rng.random(size)))
        else:
            chunks = [z[lo:lo + _CHUNK] for lo in range(0, size, _CHUNK)]
            fills = [_FILLER.submit(normals.standard_normal, out=chunk) for chunk in chunks]
            try:
                for chunk, fill in zip(chunks, fills):
                    r = radius(rng.random(chunk.shape[0]))
                    fill.result()
                    _scale_directions(chunk, r)
            finally:                          # drops the pending fills after an error
                for fill in fills:
                    fill.cancel()
        # rng goes on after the directions with its buffered 32-bit word,
        # which random doubles never use and advance drops
        bits.state = {**normals.bit_generator.state, "has_uint32": start["has_uint32"],
                      "uinteger": start["uinteger"]}
        return z

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """iid points from f: tabulated inverse-CDF radius, uniform direction."""
        inv = self._radial_inverse()

        def radius(u):
            r = inv.eval_chunk(u)
            beyond = u > inv.max_cdf
            if beyond.any():
                # the asymptote can start below the table's last radius (von
                # Mises); the clamp keeps the radius monotone in u at the join
                r[beyond] = np.maximum(self._tail_inverse_asymptotic(1.0 - u[beyond]),
                                       inv.r[-1])
            return r

        return self._points(rng, size, radius)

    def _exterior_inverse(self, R: float) -> tuple[_InverseCdf, float]:
        cached = self._exterior_cache.get(R)
        if cached is not None:
            return cached
        hi = self._delta_hi(R)
        total = self._tail_ratio_integral(R)
        # the ratio is 1 at v = 0 and the mass sits within ~total of the
        # boundary: anchor there
        lo = min(total, hi) * 1e-9
        grid = np.concatenate([[0.0], np.geomspace(lo, hi, _TABLE_SIZE)])
        cdf = cumulative_simpson(self._tail_ratio(R, grid), grid)
        # normalized by its own last value, so that the table's CDF ends at 1
        inv = _InverseCdf(r=grid, cdf=cdf / cdf[-1])
        if len(self._exterior_cache) > 32:
            self._exterior_cache.clear()
        self._exterior_cache[R] = (inv, total)
        return inv, total

    def sample_exterior(self, rng: np.random.Generator, size: int, R: float) -> np.ndarray:
        """iid points from f conditioned on ||X|| >= R (exact restriction law)."""
        if R <= 0:
            return self.sample(rng, size)
        inv, _ = self._exterior_inverse(R)
        return self._points(rng, size, lambda u: R + inv.eval_chunk(u))

    # -- family-specific hooks ------------------------------------------------
    def a_function(self, r):
        raise UnsupportedOperationError(
            f"a(r) = 1/psi'(r) is defined for the von Mises family only, not {self.family}")

    def log_shell_volume(self, R: float) -> float:
        """log V(R), the volume factor of the normalizing product n^k f(R)^k V(R)."""
        raise NotImplementedError

    def annulus_bounds(self, R: float, K: float, L: float) -> tuple[float, float]:
        """Absolute [lo, hi) bounds on the max norm of the annulus [K, L),
        read in this family's units at the radius R."""
        raise NotImplementedError


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

    def log_shell_volume(self, R: float) -> float:
        """d log R: heavy tails normalize by the ball volume R^d."""
        return self.d * math.log(R)

    def annulus_bounds(self, R: float, K: float, L: float) -> tuple[float, float]:
        """[K R, L R): heavy-tail annuli are multiples of R, with 1 <= K < L."""
        if not K < L:
            raise InvalidParameterError("annulus needs K < L")
        if K < 1:
            raise InvalidParameterError("radius-multiple annulus needs 1 <= K")
        return K * R, L * R


class VonMisesDensity(RadialDensity):
    """f(x) = C exp(-psi(||x||)) with psi(r) = r^tau / tau and constant slowly
    varying factor L = C.

    tau in (0, 1] gives the (sub)exponential tails used by the CLT
    experiments; tau > 1 (superexponential) is allowed only for core-radius
    computations.
    """

    family = "vonmises"

    def __init__(self, d: int, tau: float):
        if not tau > 0:
            raise InvalidParameterError(f"von Mises exponent must be positive, got {tau}")
        self.tau = float(tau)
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

    def log_shell_volume(self, R: float) -> float:
        """(d-1) log R + log a(R): light tails normalize by the shell a(R) R^{d-1}."""
        return (self.d - 1) * math.log(R) + math.log(float(self.a_function(R)))

    def annulus_bounds(self, R: float, K: float, L: float) -> tuple[float, float]:
        """[R + K a(R), R + L a(R)): light-tail annuli are a(R)-scaled shells
        beyond R, with 0 <= K < L."""
        if not K < L:
            raise InvalidParameterError("annulus needs K < L")
        if K < 0:
            raise InvalidParameterError("annulus needs 0 <= K")
        if not R > 0:    # a(R) = R^(1 - tau) has no shell width at R <= 0
            raise InvalidParameterError(f"a(R)-scaled annulus needs R > 0, got R = {R}")
        a_R = float(self.a_function(R))
        return R + K * a_R, R + L * a_R


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
    return brentq(fn, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=300)


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


def core_radius(density: RadialDensity, n: float,
                delta1: float | None = None, delta2: float | None = None) -> float:
    """Largest-coverage core radius (family-specific closed criterion).

    Power law: delta1 defaults to half its admissible bound; delta2 to 1/2.
    """
    n = float(n)
    if density.family == "power":
        bound = density.alpha / (2 ** density.d * density.d ** (density.d / 2 + 1))
        delta1 = 0.5 * bound if delta1 is None else float(delta1)
        delta2 = 0.5 if delta2 is None else float(delta2)
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
    """Root of n^k f(R)^k V(R) = 1, with log V(R) the family's ``log_shell_volume``."""
    if k < 2:
        raise InvalidParameterError("layer radius needs k >= 2")
    n = float(n)
    log_n = math.log(n)
    lo = weak_core_radius(density, n)

    def log_eq(r):  # decreasing in r
        return k * (log_n + density.log_radial_profile(r)) + density.log_shell_volume(r)

    if log_eq(lo) <= 0:
        raise ScheduleUndefinedError("poisson layer radius: no root beyond the weak core")
    return _solve_increasing(lambda r: -log_eq(r), lo, lo * 1.5, "poisson layer radius")


# ---------------------------------------------------------------------------
# radius schedules
# ---------------------------------------------------------------------------

class RadiusSchedule:
    """R_n as a function of intensity n (strictly increasing over its range)."""

    def radius(self, density: RadialDensity, n: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerSchedule(RadiusSchedule):
    """R_n = c0 * n^beta."""

    c0: float = 1.0
    beta: float = 0.3

    def radius(self, density, n):
        return self.c0 * float(n) ** self.beta


@dataclass(frozen=True)
class WeakCoreSchedule(RadiusSchedule):
    def radius(self, density, n):
        return weak_core_radius(density, n)


@dataclass(frozen=True)
class CoreSchedule(RadiusSchedule):
    delta1: float | None = None
    delta2: float | None = None

    def radius(self, density, n):
        return core_radius(density, n, self.delta1, self.delta2)


@dataclass(frozen=True)
class PoissonLayerSchedule(RadiusSchedule):
    k: int = 2

    def radius(self, density, n):
        return poisson_layer_radius(density, n, self.k)


@dataclass(frozen=True)
class LogBandSchedule(RadiusSchedule):
    """Light-tail band schedule R_n = psi^inv(log(Cn) + beta log(tau log n)).

    beta in (0, (d - tau)/(k tau)) places R_n strictly between the weak core
    and the k-th Poisson layer; n f(R_n) decays like (tau log n)^(-beta).
    """

    beta: float = 0.45

    def radius(self, density, n):
        if density.family != "vonmises":
            raise UnsupportedOperationError("log-band schedule needs the von Mises family")
        n = float(n)
        arg = math.log(density.C) + math.log(n) \
            + self.beta * math.log(density.tau * math.log(n))
        return float(density.psi_inverse(arg))


# ---------------------------------------------------------------------------
# Poisson cloud sampling
# ---------------------------------------------------------------------------

def sample_poisson_cloud(n: float, density: RadialDensity, rng: np.random.Generator,
                         exterior_radius: float | None = None, seed=None):
    """Poisson(n f) process; with ``exterior_radius`` only its restriction to
    {||x|| >= R} is realized (count thinned by the exterior probability)."""
    from .counting import PointCloud   # local import to avoid a cycle

    n = float(n)
    if not 0 < n < math.inf:
        raise InvalidParameterError(f"intensity must be positive and finite, got {n}")
    full = exterior_radius is None or exterior_radius <= 0
    if not (full or math.isfinite(exterior_radius)):
        raise InvalidParameterError(
            f"exterior radius must be finite, got {exterior_radius}")
    if full:
        lam = n
        count = int(rng.poisson(lam))
        pts = density.sample(rng, count)
        restricted = None
    else:
        lam = math.exp(math.log(n) + density.log_tail_prob(exterior_radius))
        count = int(rng.poisson(lam))
        pts = density.sample_exterior(rng, count, exterior_radius)
        restricted = float(exterior_radius)
    return PointCloud(points=pts.reshape(count, density.d), n=n, seed=seed,
                      restricted_to=restricted)

"""The numpy ports in ``rgglab._numerics`` against scipy, bit for bit.

scipy is the oracle: each port must return exactly the bits of the scipy
routine it follows, on the inputs rgglab gives it and on inputs that drive
the ports through their rarer branches.  The tail integral, a fixed
Gauss-Legendre rule rather than a port, must agree with scipy's adaptive
``quad`` to 1e-11.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, interpolate, optimize

from rgglab import _numerics, densities
from rgglab.densities import PowerLawDensity, VonMisesDensity

DENSITIES = [PowerLawDensity(d, d + a) for d in (1, 2, 3) for a in (0.5, 2.0)] + \
    [VonMisesDensity(d, tau) for d in (1, 2, 3) for tau in (0.5, 1.0)]

# scipy's warning text for each QUADPACK code
_SCIPY_CODES = {"The maximum": 1, "The occurrence of roundoff": 2, "Extremely bad": 3,
                "The algorithm does not converge": 4, "The integral is probably divergent": 5}


def _scipy_quad(f, a, limit, epsabs=1.49e-8, epsrel=1.49e-8):
    """scipy's (result, abserr, ier, last) over [a, inf)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(f, a, math.inf, limit=limit, epsabs=epsabs, epsrel=epsrel,
                             full_output=1)
    ier = 0 if len(out) == 3 else next(v for k, v in _SCIPY_CODES.items() if out[3].startswith(k))
    return out[0], out[1], ier, out[2]["last"]


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("density", DENSITIES,
                         ids=lambda p: f"{p.family}-d{p.d}-{getattr(p, 'alpha', None) or p.tau}")
def test_quad_matches_scipy_on_rgglab_integrands(density):
    """The normalizing integral gives scipy's result and error estimate, and
    the tail integral lies within 1e-11 of scipy's quad summed over its cuts."""
    d = density.d
    norm = lambda r: r ** (d - 1) * float(density._g(r))       # noqa: E731
    assert _numerics._qagie(norm, 0.0, limit=400) == _scipy_quad(norm, 0.0, 400)
    assert _numerics.quad(norm, 0.0, limit=400) == \
        integrate.quad(norm, 0.0, math.inf, limit=400)
    for R in (0.01, 1.0, 100.0, 1e6):
        hi = density._delta_hi(R)
        cuts = np.concatenate([[0.0], np.geomspace(min(hi * 1e-14, R * 1e-3), hi, 64)]).tolist()
        ref = sum(integrate.quad(lambda v: float(density._tail_ratio(R, v)), a, b, limit=100)[0]
                  for a, b in zip(cuts[:-1], cuts[1:]))
        assert density._tail_ratio_integral(R) == pytest.approx(ref, rel=1e-11, abs=0), R


HARD = [
    ("log", lambda x: math.log(x) if x else 0.0, 0.0, 1.0),
    ("x^-0.5", lambda x: x ** -0.5 if x else 0.0, 0.0, 1.0),
    ("x^-0.9", lambda x: x ** -0.9 if x else 0.0, 0.0, 1.0),
    ("cos(100x)", lambda x: math.cos(100 * x), 0.0, math.pi),
    ("cos", math.cos, 0.0, 3.0),
    ("step", lambda x: 1.0 if x > math.sqrt(2) - 1 else 0.0, 0.0, 1.0),
    ("1/x", lambda x: 1 / x if x else 0.0, 0.0, 1.0),
    ("1/(x-0.3)^2", lambda x: 1 / (x - 0.3) ** 2 if x != 0.3 else 0.0, 0.0, 1.0),
    ("|x-1/3|^-0.999", lambda x: abs(x - 1 / 3) ** -0.999, 0.0, 1.0),
    ("1/|x-c|", lambda x: 1 / gap if (gap := abs(x - math.sqrt(2) + 1)) else 0.0, 0.0, 1.0),
    ("exp tail", lambda x: math.exp(-x), 0.0, math.inf),
    ("1/(1+x^1.1) tail", lambda x: 1 / (1 + x ** 1.1), 0.0, math.inf),
    ("sin(x)/(1+x^2) tail", lambda x: math.sin(x) / (1 + x * x), 0.0, math.inf),
    ("sin tail", math.sin, 0.0, math.inf),
    ("1/(1+x) tail", lambda x: 1 / (1 + x), 0.0, math.inf),
    ("x^-0.5 e^-x tail", lambda x: x ** -0.5 * math.exp(-x) if x else 0.0, 0.0, math.inf),
]


def _on_half_line(f, a, b):
    """The integral of f over [a, b] as one over [0, inf): unchanged for
    [0, inf), and mapped by y = a + (b - a) / (1 + x) for a finite b."""
    if b == math.inf:
        assert a == 0.0
        return f
    return lambda x: f(a + (b - a) / (1 + x)) * (b - a) / (1 + x) ** 2


def test_quad_matches_scipy_on_hard_integrands():
    """Singular, oscillatory, discontinuous and divergent integrands at
    several limits and tolerances give scipy's result, error, code and
    subinterval count; between them they raise every QUADPACK code 0-5,
    so bisection, extrapolation and the roundoff tests all run."""
    codes = set()
    for name, f, a, b in HARD:
        g = _on_half_line(f, a, b)
        for limit in (1, 3, 50, 400):
            for tol in ((1.49e-8, 1.49e-8), (0.0, 1.2e-14)):
                got = _numerics._qagie(g, 0.0, *tol, limit)
                ref = _scipy_quad(g, 0.0, limit, *tol)
                assert _same(got[0], ref[0]) and got[1:] == ref[1:], (name, limit, tol, got, ref)
                codes.add(got[2])
    assert codes == {0, 1, 2, 3, 4, 5}
    with pytest.warns(RuntimeWarning, match="maximum number of subdivisions"):
        assert _numerics.quad(math.sin, 0.0, limit=1) == \
            _numerics._qagie(math.sin, 0.0, limit=1)[:2]
    with pytest.raises(ValueError):
        _numerics.quad(math.cos, 0.0, limit=0)


def test_brentq_matches_scipy(monkeypatch):
    """Every root rgglab's radius schedules solve, and random roots."""
    pairs = []

    def both(f, a, b, **kw):
        got = _numerics.brentq(f, a, b, **kw)
        pairs.append((got, optimize.brentq(f, a, b, **kw)))
        return got

    monkeypatch.setattr(densities, "brentq", both)
    for density in DENSITIES:
        for n in (1e2, 1e4, 1e6, 1e10, 1e30):
            for solve in (lambda: densities.weak_core_radius(density, n),
                          lambda: densities.core_radius(density, n),
                          lambda: densities.poisson_layer_radius(density, n, 2),
                          lambda: densities.poisson_layer_radius(density, n, 3)):
                try:
                    solve()
                except (densities.ScheduleUndefinedError, densities.InvalidParameterError):
                    pass
    assert len(pairs) > 150
    assert all(got == ref and type(got) is float for got, ref in pairs)

    rng = np.random.default_rng(3)
    for _ in range(1000):
        c, s, p = rng.uniform(-5, 5), rng.uniform(0.1, 10), int(rng.integers(1, 6))

        def f(x):
            return math.copysign(abs(x - c) ** (p / 2), x - c) * s + (x - c) ** 3 * 0.01

        a, b = c - rng.uniform(0.01, 20), c + rng.uniform(0.01, 20)
        kw = dict(xtol=10 ** rng.uniform(-300, -3), rtol=8.9e-16, maxiter=300)
        assert _numerics.brentq(f, a, b, **kw) == optimize.brentq(f, a, b, **kw)
    with pytest.raises(ValueError, match="different signs"):
        _numerics.brentq(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-12, rtol=1e-15, maxiter=100)
    with pytest.raises(ValueError, match="NaN"):
        _numerics.brentq(lambda x: math.nan, -1.0, 1.0, xtol=1e-12, rtol=1e-15, maxiter=100)
    with pytest.raises(RuntimeError):
        _numerics.brentq(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-12, rtol=1e-15, maxiter=1)


def _tables(density):
    """rgglab's full table and three exterior tables: (grid, values to integrate)."""
    hi = density._table_hi()
    lo = min(density._scale(), hi) * 1e-9
    grid = np.concatenate([[0.0], np.geomspace(lo, hi, densities._TABLE_SIZE)])
    yield grid, (densities.sphere_surface_area(density.d) * density.C
                 * grid ** (density.d - 1) * density._g(grid))
    for R in (0.5, 3.0, 50.0):
        total = density._tail_ratio_integral(R)
        logg_R = float(density._log_g(R))
        h = density._delta_hi(R)
        g = np.concatenate([[0.0], np.geomspace(min(total, h) * 1e-9, h, densities._TABLE_SIZE)])
        yield g, ((R + g) / R) ** (density.d - 1) * np.exp(density._log_g(R + g) - logg_R)


def test_pchip_and_simpson_match_scipy(rng):
    """Full and exterior inverse-CDF tables, then small random tables with
    flat, rising and sign-changing runs."""
    for density in DENSITIES:
        for grid, vals in _tables(density):
            cdf = _numerics.cumulative_simpson(vals, grid)
            assert np.array_equal(cdf, integrate.cumulative_simpson(vals, x=grid, initial=0.0))
            x, idx = np.unique(np.clip(cdf / cdf[-1], 0.0, 1.0), return_index=True)
            ref = interpolate.PchipInterpolator(x, grid[idx], extrapolate=False).c
            assert np.array_equal(_numerics.pchip_coefficients(x, grid[idx]), ref)
    for i in range(400):
        x = np.unique(rng.uniform(0, 10, int(rng.integers(2, 30))))
        if x.size < 2:
            continue
        y = rng.normal(size=x.size) if i % 2 else np.cumsum(rng.random(x.size))
        if i % 5 == 0:
            y[rng.integers(0, x.size)] = y[0]
        assert np.array_equal(_numerics.pchip_coefficients(x, y),
                              interpolate.PchipInterpolator(x, y).c)
        if x.size >= 3:
            assert np.array_equal(_numerics.cumulative_simpson(y, x),
                                  integrate.cumulative_simpson(y, x=x, initial=0.0))
    with pytest.raises(ValueError):
        _numerics.pchip_coefficients(np.array([0.0]), np.array([1.0]))

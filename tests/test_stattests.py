"""rgglab.stattests against scipy.stats: every value must be bit-identical."""

import warnings

import numpy as np
import pytest
from scipy import stats

from rgglab import stattests


def _same(a, b) -> bool:
    return bool(np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True))


def test_ks_norm_pvalue_matches_kstest():
    rng = np.random.default_rng(11)
    for n in list(range(2, 201)) + [500, 2000, 10000]:
        raw = rng.normal(size=n) if n % 2 else rng.standard_t(4, size=n)
        z = (raw - raw.mean()) / raw.std(ddof=1)   # as the harness standardizes
        for sample in (z, raw + 0.3):
            got = stattests.ks_norm_pvalue(sample)
            assert got == stats.kstest(sample, "norm").pvalue, n


# (n, x) points aimed at each branch of scipy's two-sided KS survival function
_KSTWO_GRID = [
    # outside the support (x <= 1/(2n) or x >= 1) and t = n x <= 0.5 inside it
    (3, 0.5 / 3), (3, np.nextafter(0.5 / 3, 1.0)), (10, 0.0), (10, 1.0), (500, 0.5 / 500),
    (10, np.nan),
    # 1/(2n) < x <= 1/n: Ruben-Gambino product (n <= 140) and Stirling (n > 140)
    (10, 0.075), (10, 0.1), (140, 0.7 / 140), (141, 0.9 / 141), (500, 0.75 / 500),
    (3000, 1.0 / 3000),
    # t >= n - 1
    (4, 0.75), (10, 0.95), (300, 0.999),
    # x >= 0.5: 2 * smirnov
    (10, 0.5), (10, 0.6), (200, 0.55),
    # n <= 140: Durbin matrix, Pomeranz recursion, Miller's 2 * smirnov
    (2, 0.52), (5, 0.3), (50, 0.1), (140, 0.07), (50, 0.2), (50, 0.122),
    (7, 0.4), (140, 0.15), (50, 0.35), (120, 0.3), (140, 0.17),
    # n > 140: n x^2 >= 370, >= 2.2, Durbin matrix, Pelz-Good
    (2000, 0.45), (5000, 0.3), (1000, 0.05), (10000, 0.02), (141, 0.2),
    (1000, 0.005), (10000, 0.0005), (100000, 0.00005), (1000, 0.03),
    (10000, 0.01), (200000, 0.002), (200000, 1.5 / 200000),
]


def test_kstwo_sf_matches_scipy_on_every_branch():
    for n, x in _KSTWO_GRID:
        assert _same(stattests.kstwo_sf(x, n), stats.kstwo.sf(x, n)), (n, x)
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 17, 80, 140, 141, 400, 3000):
        for x in np.concatenate([rng.uniform(0, 1, 12), rng.uniform(0, 3 / np.sqrt(n), 12)]):
            assert _same(stattests.kstwo_sf(x, n), stats.kstwo.sf(x, n)), (n, x)


def _moment_samples():
    rng = np.random.default_rng(3)
    for n in (2, 3, 7, 50, 1000, 20000):
        yield rng.normal(size=n)
        yield rng.exponential(size=n) ** 2
        yield rng.poisson(2.5, size=n).astype(float)               # integer-valued
        yield 1e8 + rng.normal(size=n)                              # heavily offset
        yield 1e8 + rng.poisson(4.0, size=n).astype(float)
        yield 0.1 + 1e-17 * (np.arange(n) % 2)                      # nearly constant
        yield 3.0 + 1e-9 * rng.normal(size=n)


def test_skew_and_kurtosis_match_scipy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # scipy's precision warning
        for values in _moment_samples():
            assert _same(stattests.skew(values), stats.skew(values)), values[:3]
            assert _same(stattests.excess_kurtosis(values), stats.kurtosis(values)), values[:3]
    assert np.isnan(stattests.skew(np.full(5, 2.0)))


@pytest.mark.parametrize("mu", [0.0, 1e-3, 0.37, 1.0, 4.85, 19.0, 120.5])
def test_poisson_pmf_matches_scipy(mu):
    k = np.arange(0, 200)
    mu = np.float64(mu)
    assert np.array_equal(stattests.poisson_pmf(k, mu), stats.poisson.pmf(k, mu))


def test_chi2_sf_matches_scipy():
    for dof in (1, 2, 3, 6, 25):
        for x in (0.0, 1e-6, 0.4, 1.0, 2.7, 11.3, 60.0, 900.0):
            assert _same(stattests.chi2_sf(x, dof), stats.chi2.sf(x, dof)), (dof, x)

"""Radial laws: normalization, samplers, tails, and derived radii."""

import math

import numpy as np
import pytest
from scipy import integrate, interpolate, stats

from rgglab.counting import CountRequest, count_subgraphs, make_cloud
from rgglab.densities import (
    InvalidParameterError,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerLawDensity,
    PowerSchedule,
    ScheduleUndefinedError,
    TableSchedule,
    UnsupportedOperationError,
    VonMisesDensity,
    WeakCoreSchedule,
    a_function,
    core_radius,
    poisson_layer_radius,
    sample_poisson_cloud,
    weak_core_radius,
)

KS_CRIT_1PCT = 1.6276  # asymptotic 1% one-sample Kolmogorov-Smirnov factor


def quad_cdf(density, r_hi, anchors=400):
    """Independent radial CDF: per-segment quadrature of the radial density."""
    from rgglab.densities import sphere_surface_area

    s = sphere_surface_area(density.d)
    grid = np.concatenate([[0.0], np.geomspace(r_hi * 1e-6, r_hi, anchors)])
    masses = [
        integrate.quad(lambda r: s * density.C * r ** (density.d - 1)
                       * float(np.exp(density._log_g(r))), a, b, limit=200)[0]
        for a, b in zip(grid[:-1], grid[1:])
    ]
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    return interpolate.PchipInterpolator(grid, np.clip(cdf, 0, 1))


def test_normalization_closed_forms(power12, power24, vm11):
    assert power12.C == pytest.approx(1 / math.pi, rel=1e-8)
    assert power24.C == pytest.approx(2 / math.pi ** 2, rel=1e-8)
    assert vm11.C == pytest.approx(0.5, rel=1e-10)


def test_normalization_invalid():
    with pytest.raises(InvalidParameterError):
        PowerLawDensity(2, 2.0)   # alpha <= d diverges
    with pytest.raises(InvalidParameterError):
        VonMisesDensity(2, -0.5)


def test_radial_profile_monotone(power24, vm21):
    r = np.linspace(0, 50, 200)
    for den in (power24, vm21):
        vals = den.radial_profile(r)
        assert np.all(np.diff(vals) <= 0)


@pytest.mark.parametrize("fixture", ["power24", "vm21"])
def test_sampler_ks(request, fixture):
    density = request.getfixturevalue(fixture)
    rng = np.random.default_rng(99)
    n = 100_000
    pts = density.sample(rng, n)
    r = np.sort(np.linalg.norm(pts, axis=1))
    cdf = quad_cdf(density, max(r.max() * 1.05, 10.0))
    stat = stats.kstest(r, cdf).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(n)


def test_direction_uniformity(power24):
    rng = np.random.default_rng(3)
    pts = power24.sample(rng, 50_000)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    hist, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    chi2 = ((hist - len(pts) / 16) ** 2 / (len(pts) / 16)).sum()
    assert stats.chi2.sf(chi2, 15) > 0.001


def test_tail_examples(power12, vm11):
    rng = np.random.default_rng(11)
    pts = power12.sample(rng, 80_000)
    # P(||X|| > 1) = 1/2 for the d=1, alpha=2 law (arctan closed form)
    assert abs((np.abs(pts[:, 0]) > 1).mean() - 0.5) < 0.01
    pts = vm11.sample(rng, 80_000)
    for r in (0.5, 1.5, 3.0):
        assert (np.abs(pts[:, 0]) > r).mean() == pytest.approx(math.exp(-r), abs=0.01)


def test_poisson_cloud_mean(power24):
    rng = np.random.default_rng(5)
    sizes = [len(sample_poisson_cloud(200, power24, rng)) for _ in range(300)]
    mean = np.mean(sizes)
    assert abs(mean - 200) < 3 * math.sqrt(200 / 300)


def test_restricted_cloud_poisson_count(power24):
    rng = np.random.default_rng(6)
    R = 10.0
    lam = 300 * power24.tail_prob(R)
    sizes = np.array([len(sample_poisson_cloud(300, power24, rng, exterior_radius=R))
                      for _ in range(400)])
    assert abs(sizes.mean() - lam) < 3 * math.sqrt(lam / 400)
    # Poisson: variance/mean ratio near 1
    assert 0.8 < sizes.var(ddof=1) / sizes.mean() < 1.25
    assert np.all(np.abs(sizes - sizes) == 0)


def test_restricted_equals_filtered_in_distribution(power24, k2):
    """Restriction property: counts from the exterior sampler match counts
    from full sampling plus filtering (two-sample KS on G_n(1))."""
    rng = np.random.default_rng(7)
    n, R = 3000.0, 6.0
    grid = np.array([1.0])
    req = CountRequest(shape=k2, t_grid=grid, R=R)
    a, b = [], []
    for _ in range(350):
        full = sample_poisson_cloud(n, power24, rng)
        a.append(count_subgraphs(full, req).counts[0])
        restr = sample_poisson_cloud(n, power24, rng, exterior_radius=R)
        b.append(count_subgraphs(restr, req).counts[0])
    res = stats.ks_2samp(a, b)
    assert res.pvalue > 0.005


def test_weak_core_radius(power24, vm21):
    for n in (1e4, 1e6):
        R = weak_core_radius(power24, n)
        assert abs(n * power24.radial_profile(R) - 1) < 1e-9
        # asymptotic closed form (Cn)^(1/alpha)
        assert R == pytest.approx((power24.C * n) ** 0.25, rel=1e-3)
        Rv = weak_core_radius(vm21, n)
        assert Rv == pytest.approx(math.log(vm21.C * n), rel=1e-12)
    with pytest.raises(ScheduleUndefinedError):
        weak_core_radius(power24, 1.0)


def test_core_radius_power(power24):
    # ratio identity against the closed reference sequence
    for n in (1e5, 1e8, 1e12):
        R = core_radius(power24, n, delta1=0.125, delta2=0.5)
        Rw = weak_core_radius(power24, n)
        ln = math.log(n)
        ref = (0.125 / (ln - 0.5 * math.log(ln))) ** 0.25
        assert abs(R / Rw - ref) < 0.05 / math.log10(n)
    with pytest.raises(InvalidParameterError):
        core_radius(power24, 1e6, delta1=0.3)   # above alpha/(2^d d^{d/2+1}) = 0.25
    with pytest.raises(InvalidParameterError):
        core_radius(power24, 1e6, delta1=0.1, delta2=1.5)


def test_core_radius_vonmises(vm21):
    # defining equation psi(R) = log n - logloglog n - delta1 - delta2
    n = 1e8
    R = core_radius(vm21, n, delta2=0.5)
    d1 = (2 * math.log(2) - math.log(1.0) + 2 * math.log(2) - math.log(vm21.C))
    target = math.log(n) - math.log(math.log(math.log(n))) - d1 - 0.5
    assert float(vm21.psi(R)) == pytest.approx(target, abs=1e-9)
    ratio = R / weak_core_radius(vm21, n)
    ref = 1 - (math.log(math.log(math.log(n))) + d1 + 0.5 + math.log(vm21.C)) \
        / math.log(vm21.C * n)
    assert ratio == pytest.approx(ref, abs=0.02)
    with pytest.raises(ScheduleUndefinedError):
        core_radius(vm21, 10.0)
    with pytest.raises(InvalidParameterError):
        core_radius(vm21, 1e8, delta1=0.3)


def test_poisson_layer_radius(power24, vm21):
    for n in (1e5, 1e7):
        R = poisson_layer_radius(power24, n, 2)
        resid = n ** 2 * R ** 2 * power24.radial_profile(R) ** 2 - 1
        assert abs(resid) < 1e-9
        assert R == pytest.approx((power24.C * n) ** (1 / 3), rel=2e-5)
        # ordering: weak < layer(3) < layer(2)
        Rw = weak_core_radius(power24, n)
        R3 = poisson_layer_radius(power24, n, 3)
        assert Rw < R3 < R
    # von Mises closed-form asymptote
    n = 1e10
    Rv = poisson_layer_radius(vm21, n, 2)
    approx = (math.log(n) + 0.5 * math.log(math.log(n)) + math.log(vm21.C))
    assert Rv == pytest.approx(approx, rel=0.01)
    resid = (2 * (math.log(n) + vm21.log_radial_profile(Rv))
             + math.log(Rv) + math.log(vm21.a_function(Rv)))
    assert abs(resid) < 1e-9


def test_radii_ordering(power24):
    n = 1e8
    Rc = core_radius(power24, n)
    Rw = weak_core_radius(power24, n)
    R3 = poisson_layer_radius(power24, n, 3)
    R2 = poisson_layer_radius(power24, n, 2)
    assert Rc < Rw < R3 < R2


def test_a_function(vm21, power24):
    vm_half = VonMisesDensity(2, 0.5)
    assert float(a_function(vm21, 7.0)) == 1.0
    assert float(a_function(vm_half, 4.0)) == pytest.approx(2.0)
    r = np.geomspace(1, 1e6, 20)
    ratio = vm_half.a_function(r) / r
    assert np.all(np.diff(ratio) < 0) and ratio[-1] < 1e-2
    with pytest.raises(UnsupportedOperationError):
        a_function(power24, 2.0)


def test_c_limit():
    assert VonMisesDensity(2, 0.5).c_limit == math.inf
    assert VonMisesDensity(2, 1.0).c_limit == 1.0
    assert VonMisesDensity(2, 1.5).c_limit == 0.0


def test_schedules(power24, vm21):
    sched = PowerSchedule(c0=2.0, beta=0.3)
    assert sched.radius(power24, 1e4) == pytest.approx(2.0 * 1e4 ** 0.3)
    ns = np.geomspace(1e3, 1e9, 13)
    for schedule in (PowerSchedule(beta=0.3), WeakCoreSchedule(),
                     PoissonLayerSchedule(k=2)):
        radii = [schedule.radius(power24, n) for n in ns]
        assert all(a < b for a, b in zip(radii, radii[1:]))
    band = LogBandSchedule(beta=0.45)
    radii = [band.radius(vm21, n) for n in ns]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    with pytest.raises(UnsupportedOperationError):
        band.radius(power24, 1e5)
    table = TableSchedule(entries=((1e3, 5.0), (1e6, 20.0)))
    assert table.radius(power24, 1e3) == pytest.approx(5.0)
    assert 5.0 < table.radius(power24, 1e4) < 20.0
    with pytest.raises(ScheduleUndefinedError):
        table.radius(power24, 1e9)
    with pytest.raises(InvalidParameterError):
        TableSchedule(entries=((1e3, 5.0), (1e6, 4.0)))


def test_exterior_sampler_law(vm21):
    """Exterior radii follow the conditional law (KS against quadrature CDF)."""
    rng = np.random.default_rng(12)
    R = 14.0
    pts = vm21.sample_exterior(rng, 50_000, R)
    r = np.linalg.norm(pts, axis=1)
    assert r.min() >= R
    # conditional CDF 1 - S(x)/S(R) for the tau=1 closed form S(x)=(x+1)e^-x
    def cond_cdf(x):
        sr = (R + 1) * math.exp(-R)
        return 1 - (x + 1) * np.exp(-x) / sr
    stat = stats.kstest(r, cond_cdf).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(len(r))


def test_tail_integral_memoized(monkeypatch):
    """log_tail_prob and the exterior sampler share one quadrature per R, and
    concurrent first calls all return the same bits."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from rgglab import densities

    R = 7.5
    expected = PowerLawDensity(2, 4.0).log_tail_prob(R)
    fresh = PowerLawDensity(2, 4.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(fresh.log_tail_prob, [R] * 16, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 16

    calls = []
    quad = densities.integrate.quad
    monkeypatch.setattr(densities.integrate, "quad",
                        lambda *a, **kw: calls.append(1) or quad(*a, **kw))
    density = PowerLawDensity(2, 4.0)
    calls.clear()
    first = density.log_tail_prob(R)
    n_quad = len(calls)
    assert n_quad > 0
    assert density.log_tail_prob(R) == first == expected
    _, total = density._exterior_inverse(R)
    assert total == density._tail_ratio_integral(R)
    assert len(calls) == n_quad

"""Radial laws: normalization, samplers, tails, and derived radii."""

import dataclasses
import itertools
import math
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import integrate, interpolate, stats

from rgglab.counting import CountRequest, count_subgraphs
from rgglab.densities import (
    CoreSchedule,
    InvalidParameterError,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerLawDensity,
    PowerSchedule,
    ScheduleUndefinedError,
    UnsupportedOperationError,
    VonMisesDensity,
    WeakCoreSchedule,
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


def test_sphere_area_and_ball_volume_closed_forms():
    """s_{d-1} = 2 pi^(d/2) / Gamma(d/2) and V_d = pi^(d/2) / Gamma(d/2 + 1):
    exact at even d = 2m (Gamma is a factorial there), and within 4e-16 of
    2^(2m+1) pi^m m! / (2m)! and of the same over (2m + 1) at odd d = 2m + 1."""
    from rgglab.densities import sphere_surface_area, unit_ball_volume

    for d in range(1, 9):
        m = d // 2
        if d % 2 == 0:
            area = 2 * math.pi ** m / math.factorial(m - 1)
            volume = math.pi ** m / math.factorial(m)
            assert sphere_surface_area(d) == area and unit_ball_volume(d) == volume, d
        else:
            area = 2 ** (2 * m + 1) * math.pi ** m * math.factorial(m) / math.factorial(2 * m)
            assert sphere_surface_area(d) == pytest.approx(area, rel=4e-16, abs=0), d
            assert unit_ball_volume(d) == pytest.approx(area / d, rel=4e-16, abs=0), d


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
    assert float(vm21.a_function(7.0)) == 1.0
    assert float(vm_half.a_function(4.0)) == pytest.approx(2.0)
    r = np.geomspace(1, 1e6, 20)
    ratio = vm_half.a_function(r) / r
    assert np.all(np.diff(ratio) < 0) and ratio[-1] < 1e-2
    with pytest.raises(UnsupportedOperationError):
        power24.a_function(2.0)


def test_annulus_bounds(power24, vm21):
    # power law: multiples of R
    assert power24.annulus_bounds(10.0, 1.0, 2.5) == (10.0, 25.0)
    assert power24.annulus_bounds(4.0, 1.5, math.inf) == (6.0, math.inf)
    # von Mises: a(R)-scaled shells beyond R, a(16) = 4 at tau = 1/2, a = 1 at tau = 1
    assert VonMisesDensity(2, 0.5).annulus_bounds(16.0, 0.25, 1.0) == (17.0, 20.0)
    assert vm21.annulus_bounds(10.0, 0.0, 0.5) == (10.0, 10.5)
    for density in (power24, vm21):
        for K, L in ((2.0, 1.0), (1.0, 1.0), (math.nan, 2.0), (1.0, math.nan)):
            with pytest.raises(InvalidParameterError, match="annulus needs K < L"):
                density.annulus_bounds(10.0, K, L)
    with pytest.raises(InvalidParameterError, match="needs 1 <= K"):
        power24.annulus_bounds(10.0, 0.5, 2.0)
    assert vm21.annulus_bounds(10.0, 0.0, 2.0) == (10.0, 12.0)   # K = 0 is allowed
    with pytest.raises(InvalidParameterError, match="needs 0 <= K"):
        vm21.annulus_bounds(10.0, -0.1, 2.0)
    # a(R) = R^(1 - tau) has no shell width at R <= 0 (at tau > 1 it divides by zero)
    for R in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParameterError, match="needs R > 0"):
            VonMisesDensity(2, 1.5).annulus_bounds(R, 0.0, 1.0)


def test_log_shell_volume(power24, vm21):
    assert power24.log_shell_volume(3.0) == 2 * math.log(3.0)
    assert vm21.log_shell_volume(3.0) == math.log(3.0)      # a = 1
    vm_half = VonMisesDensity(3, 0.5)
    assert vm_half.log_shell_volume(4.0) == pytest.approx(math.log(16.0 * 2.0), rel=1e-15)


def test_family_decision_lives_in_densities():
    """Heavy vs light tail is decided by the density classes alone."""
    import inspect

    from rgglab import counting, harness, limits, regimes

    for module in (counting, harness, limits, regimes):
        assert ".family" not in inspect.getsource(module), module.__name__


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
    """log_tail_prob and the exterior sampler share one evaluation of the
    tail rule per R, and concurrent first calls all return the same bits."""
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
    rule = densities.gauss_legendre
    monkeypatch.setattr(densities, "gauss_legendre",
                        lambda *a, **kw: calls.append(1) or rule(*a, **kw))
    density = PowerLawDensity(2, 4.0)
    first = density.log_tail_prob(R)
    assert len(calls) == 1
    assert density.log_tail_prob(R) == first == expected
    _, total = density._exterior_inverse(R)
    assert total == density._tail_ratio_integral(R)
    assert len(calls) == 1


def _pchip_reference(inv, u):
    """scipy's own evaluation of the inverse-CDF table, as rgglab did before."""
    cdf, idx = np.unique(inv.cdf, return_index=True)
    spline = interpolate.PchipInterpolator(cdf, inv.r[idx], extrapolate=False)
    return spline(np.minimum(u, inv.max_cdf))


def _probe_points(inv, rng):
    """Random u, every breakpoint and its neighbouring floats, and the edges."""
    x = np.unique(inv.cdf)
    return np.concatenate([
        rng.random(20_000), x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        [0.0, inv.max_cdf, 1.0, 1.5, np.inf],          # u = 0 and u >= max_cdf
    ])


@pytest.mark.parametrize("density", [
    PowerLawDensity(1, 2.0), PowerLawDensity(2, 4.0), PowerLawDensity(3, 5.0),
    VonMisesDensity(2, 0.5), VonMisesDensity(2, 1.0),
], ids=["power-d1", "power-d2", "power-d3", "vonmises-0.5", "vonmises-1"])
def test_inverse_cdf_matches_pchip(density):
    """The bucketed evaluator reproduces scipy's PCHIP evaluation bit for bit."""
    rng = np.random.default_rng(17)
    tables = [density._radial_inverse()]
    tables += [density._exterior_inverse(R)[0] for R in (0.7, 4.0, 25.0)]
    for inv in tables:
        u = _probe_points(inv, rng)
        got = inv.eval_chunk(u)
        assert got.shape == u.shape
        assert np.array_equal(got, _pchip_reference(inv, u), equal_nan=True)


def test_inverse_cdf_crowded_buckets():
    """Breakpoints packed into single buckets fall back to a binary search."""
    from rgglab.densities import _BUCKETS, _InverseCdf

    rng = np.random.default_rng(5)
    width = 1.0 / _BUCKETS
    cdf = np.concatenate([
        np.linspace(0.0, 0.3 * width, 40),               # bucket 0
        0.5 + np.linspace(0.1, 0.9, 25) * width,         # one bucket mid-table
        np.sort(rng.uniform(0.6, 1.0, 300)),
    ])
    inv = _InverseCdf(r=np.cumsum(rng.uniform(0.1, 1.0, cdf.size)), cdf=cdf)
    bucket = (np.unique(cdf) * (_BUCKETS / cdf.max())).astype(np.intp)   # the table's buckets
    assert (np.bincount(bucket) > 1).sum() >= 2          # buckets holding several breakpoints
    u = np.concatenate([_probe_points(inv, rng),
                        rng.uniform(0.0, width, 2000), 0.5 + rng.uniform(0.0, width, 2000)])
    assert np.array_equal(inv.eval_chunk(u), _pchip_reference(inv, u), equal_nan=True)
    # a call leaves the table as it was: worker threads share exterior tables
    before = {k: v.tobytes() for k, v in vars(inv).items() if isinstance(v, np.ndarray)}
    inv.eval_chunk(u)
    assert all(vars(inv)[k].tobytes() == v for k, v in before.items())


def _reference_directions(rng, n, d):
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return z / norms


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_directions_match_linalg_norm(d):
    """Scaled directions keep the bits of dividing by np.linalg.norm, on both
    sides of the column count where numpy's summation changes order, and a
    zero row stays zero."""
    from rgglab.densities import _scale_directions

    rng = np.random.default_rng(3)
    z = rng.standard_normal((5000, d))
    z[17] = 0.0
    r = rng.uniform(0.5, 9.0, 5000)
    expected = _reference_directions(np.random.default_rng(3), 5000, d)
    expected[17] = 0.0
    _scale_directions(z, r)
    assert np.array_equal(z, expected * r[:, None])


class _ChosenUniforms:
    """A Generator stand-in whose ``random`` hands out chosen u in order and
    whose bit generator is a real PCG64, from which the sampler draws the
    directions after skipping ``len(u)`` words, as it does for a real one."""

    def __init__(self, u, seed):
        self._u = np.asarray(u, dtype=float)
        self._taken = 0
        self.bit_generator = np.random.default_rng(seed).bit_generator

    def random(self, size):
        assert self._taken + size <= self._u.size
        self._taken += size
        return self._u[self._taken - size:self._taken].copy()


def _expected_sample(density, inv, shift, u, normals, tail):
    """The sample as the reference formulas build it from the same draws."""
    r = shift + np.asarray(_pchip_reference(inv, u), dtype=float)
    beyond = u > inv.max_cdf
    if tail and beyond.any():
        r[beyond] = np.maximum(density._tail_inverse_asymptotic(1.0 - u[beyond]), inv.r[-1])
    return r[:, None] * _reference_directions(normals, u.size, density.d)


def _sampler_cases(density, R):
    """(draw, table, shift, tail) for the full and the exterior sampler."""
    return ((lambda g, n: density.sample(g, n), density._radial_inverse(), 0.0, True),
            (lambda g, n: density.sample_exterior(g, n, R), density._exterior_inverse(R)[0], R,
             False))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_keeps_draw_everything_stream(d):
    """The chunked sampler gives the bits of drawing every u with
    ``rng.random(n)`` and then every direction with
    ``rng.standard_normal((n, d))``, and leaves the generator in that
    reference's state, a buffered 32-bit word included."""
    from rgglab.densities import _CHUNK

    sizes = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 5000, 3 * _CHUNK + 17)
    for density in (PowerLawDensity(d, d + 2.0), VonMisesDensity(d, 0.5)):
        for draw, inv, shift, tail in _sampler_cases(density, 2.5):
            for n, buffered in itertools.product(sizes, (False, True)):
                ref, rng = np.random.default_rng(8), np.random.default_rng(8)
                if buffered:                    # leaves half a 64-bit word buffered
                    for g in (ref, rng):
                        g.integers(1000, dtype=np.int32)
                u = ref.random(n)
                expected = _expected_sample(density, inv, shift, u, ref, tail)
                got = draw(rng, n)
                assert np.array_equal(got, expected), (density.family, shift, n)
                assert rng.bit_generator.state == ref.bit_generator.state, (shift, n, buffered)
                assert rng.integers(0, 2**31, size=3, dtype=np.int32).tolist() \
                    == ref.integers(0, 2**31, size=3, dtype=np.int32).tolist()


def test_concurrent_clouds_share_one_helper_bit_for_bit(monkeypatch, power24, k2):
    """Multi-chunk clouds sampled by four replication workers at once keep
    the bits and generator states of one worker and of the draw-everything
    stream, and their directions fill on one helper thread, not one per call."""
    from rgglab import densities, harness
    from rgglab.densities import _CHUNK

    cfg = harness.ExperimentConfig(density=power24, schedule=CoreSchedule(), shape=k2,
                                   t_grid=[1.0], n_ladder=(3e4,), replications=8)
    scale, alive = densities._scale_directions, []

    def scale_counting_threads(z, r):
        alive.append(threading.active_count())
        scale(z, r)

    monkeypatch.setattr(densities, "_scale_directions", scale_counting_threads)
    power24.sample(np.random.default_rng(0), 2 * _CHUNK)     # the helper is up
    baseline = threading.active_count()

    def work(rep, rng):
        return sample_poisson_cloud(cfg.n_ladder[-1], power24, rng).points, rng.bit_generator.state

    alive.clear()
    runs = [harness._run_replications(dataclasses.replace(cfg, workers=w), 0, work)
            for w in (1, 4)]
    assert max(alive) <= baseline + 4                        # the pool's 4 threads
    for rep, ((serial, serial_state), (pooled, pooled_state)) in enumerate(zip(*runs)):
        ref = np.random.default_rng(harness.replication_seed(cfg.master_seed, 0, rep))
        u = ref.random(ref.poisson(cfg.n_ladder[-1]))
        assert u.size > 3 * _CHUNK
        expected = _expected_sample(power24, power24._radial_inverse(), 0.0, u, ref, True)
        assert np.array_equal(serial, expected) and np.array_equal(pooled, expected), rep
        assert serial_state == pooled_state == ref.bit_generator.state, rep


def test_one_chunk_cloud_fills_inline(monkeypatch, power24):
    """A cloud of at most one chunk never reaches the helper thread."""
    from rgglab import densities
    from rgglab.densities import _CHUNK

    def refuse(*args, **kwargs):
        raise AssertionError("the helper was asked to fill")

    monkeypatch.setattr(densities._FILLER, "submit", refuse)
    for draw in (power24.sample, lambda g, n: power24.sample_exterior(g, n, 2.0)):
        assert draw(np.random.default_rng(2), _CHUNK).shape == (_CHUNK, 2)
        with pytest.raises(AssertionError, match="helper"):
            draw(np.random.default_rng(2), _CHUNK + 1)


class _RadiusFailed(Exception):
    pass


def test_failed_radius_cancels_pending_fills(monkeypatch, power24):
    """A radius that raises on the second chunk propagates its own exception
    and cancels the fills still queued; the next multi-chunk sample keeps
    the draw-everything stream's bits and state."""
    from rgglab import densities
    from rgglab.densities import _CHUNK

    submit, gate, held, fills = densities._FILLER.submit, threading.Event(), [], []

    def gated_submit(fn, out):
        if fills:
            fills.append(submit(fn, out=out))
            return fills[-1]
        first = Future()

        def fill_then_hold():             # holds the helper, so later fills stay queued
            first.set_result(fn(out=out))
            gate.wait(timeout=10)

        held.append(submit(fill_then_hold))
        fills.append(first)
        return first

    calls = []

    def radius(u):
        calls.append(u.size)
        if len(calls) == 2:
            raise _RadiusFailed
        return 1.0 + u

    monkeypatch.setattr(densities._FILLER, "submit", gated_submit)
    try:
        with pytest.raises(_RadiusFailed):
            power24._points(np.random.default_rng(4), 4 * _CHUNK, radius)
        assert [fill.cancelled() for fill in fills] == [False, True, True, True]
    finally:
        gate.set()
    held[0].result(timeout=10)
    monkeypatch.undo()

    n = 3 * _CHUNK + 17
    ref, rng = np.random.default_rng(8), np.random.default_rng(8)
    expected = _expected_sample(power24, power24._radial_inverse(), 0.0, ref.random(n), ref, True)
    assert np.array_equal(power24.sample(rng, n), expected)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper(power24):
    """A child forked once the helper runs inherits no helper thread, so it
    starts its own: its multi-chunk samples finish, with the same bits."""
    from rgglab.densities import _CHUNK

    expected = power24.sample(np.random.default_rng(5), 2 * _CHUNK + 1)   # the helper is up
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(power24.sample, (np.random.default_rng(5), 2 * _CHUNK + 1))
        assert np.array_equal(got.get(timeout=30), expected)


def test_sample_refuses_other_bit_generators(power24):
    """Skipping the uniforms counts one 64-bit word per u, which holds for PCG64."""
    for draw in (lambda g: power24.sample(g, 10), lambda g: power24.sample_exterior(g, 10, 2.0)):
        with pytest.raises(TypeError, match="PCG64"):
            draw(np.random.Generator(np.random.MT19937(1)))


def test_sample_memory_is_points_plus_a_chunk(power24):
    """A full cloud holds its points and O(_CHUNK) scratch, not every u at
    once: 1e6 points in d = 2 peak within 1 MiB of their own 15.3 MiB."""
    for draw in (power24.sample, lambda g, n: power24.sample_exterior(g, n, 2.0)):
        rng = np.random.default_rng(6)
        draw(rng, 1)                                  # builds the cached tables
        tracemalloc.start()
        try:
            points = draw(rng, 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= points.nbytes + 2**20, (peak, points.nbytes)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_matches_reference(d):
    """Full and exterior samples keep the bits of scipy's PCHIP and
    np.linalg.norm at chunk boundaries, take the asymptotic tail past the
    table's last quantile (full samples only), and give no NaN point for
    any u in [0, 1)."""
    from rgglab.densities import _CHUNK

    for density in (PowerLawDensity(d, d + 2.0), VonMisesDensity(d, 0.5)):
        for draw, inv, shift, tail in _sampler_cases(density, 2.5):
            # random u passes max_cdf with probability ~1e-12 per draw, so the
            # tail branch and the edges of [0, 1) come from chosen values
            n = 3 * _CHUNK + 17
            u = np.random.default_rng(9).random(n)
            top = inv.max_cdf
            chosen = [np.nextafter(top, 1.0), (top + 1.0) / 2, np.nextafter(1.0, 0.0), top,
                      np.nextafter(0.0, 1.0), 0.5, np.nextafter(top, 0.0), 0.0,
                      np.nextafter(top, 1.0)]
            at = [0, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 3, 3 * _CHUNK - 1,
                  3 * _CHUNK, n - 1]
            u[at] = chosen
            got = draw(_ChosenUniforms(u, seed=10), n)
            normals = np.random.default_rng(10)
            normals.bit_generator.advance(n)              # past the words of n uniforms
            expected = _expected_sample(density, inv, shift, u, normals, tail)
            assert np.array_equal(got, expected), (density.family, shift)   # NaN-free
            if tail and density.family == "power":     # its full table ends short of 1
                assert (u > top).sum() == 4


def test_full_sample_tail_joins_table_monotonically():
    """Past the table's last quantile the full sampler's radius starts at the
    table's end and does not decrease in u: the von Mises asymptote alone
    starts below it (319.69 against 320.0 for VonMisesDensity(1, 0.5))."""
    for density in (VonMisesDensity(1, 0.5), VonMisesDensity(2, 1.0),
                    PowerLawDensity(2, 4.0), PowerLawDensity(1, 3.0)):
        inv = density._radial_inverse()
        top = inv.max_cdf
        assert top < 1.0
        below = [top]
        above = [np.nextafter(top, 1.0)]
        for _ in range(40):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 1.0))
        u = np.sort(np.concatenate([below, above, np.linspace(top, 1.0, 50)[1:-1],
                                    [np.nextafter(1.0, 0.0)]]))
        r = np.linalg.norm(density.sample(_ChosenUniforms(u, seed=3), u.size), axis=1)
        # the norm of a scaled direction carries a few ulps of rounding
        slack = 4 * np.spacing(r)
        first_beyond = int(np.searchsorted(u, top, side="right"))
        assert r[first_beyond] >= inv.r[-1] - slack[first_beyond], type(density).__name__
        assert np.all(np.diff(r) >= -slack[1:]), type(density).__name__


def test_point_cloud_norms_lazy(power24):
    from rgglab.counting import PointCloud

    cloud = sample_poisson_cloud(300, power24, np.random.default_rng(4))
    assert cloud._norms is None                       # the sampler computes no norms
    assert np.array_equal(cloud.norms, np.linalg.norm(cloud.points, axis=1))
    given = np.arange(len(cloud), dtype=float)
    kept = PointCloud(points=cloud.points, norms=given, n=cloud.n, seed=1, restricted_to=None)
    assert np.array_equal(kept.norms, given)
    with pytest.raises(ValueError):
        PointCloud(points=cloud.points, norms=given[:-1], n=cloud.n, seed=1, restricted_to=None)
    with pytest.raises(ValueError):
        PointCloud(points=np.zeros(3), n=1.0)
    assert len(PointCloud(points=np.empty((0, 2)), n=1.0).norms) == 0

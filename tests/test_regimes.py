"""Regime classification, growth condition, tau formulas, standardization."""

import math

import numpy as np
import pytest

from rgglab.densities import (
    PoissonLayerSchedule,
    PowerSchedule,
    RadiusSchedule,
    VonMisesDensity,
    WeakCoreSchedule,
)
from rgglab.regimes import (
    CRITICAL,
    DENSE,
    SPARSE,
    BoundaryRegimeError,
    RegimeClass,
    UnclassifiableError,
    check_growth_condition,
    classify_regime,
    log_tau,
    standardize,
)


def test_weak_core_is_critical(power24, vm21):
    for density, rng in ((power24, (1e3, 1e7)), (vm21, (1e3, 1e7))):
        regime = classify_regime(density, WeakCoreSchedule(), rng)
        assert regime.tag == CRITICAL
        assert regime.xi == pytest.approx(1.0, abs=1e-9)


def test_power_schedule_regimes(power24):
    # beta = 0.3 > 1/alpha = 0.25: q_n ~ C n^{-0.2} -> sparse
    assert classify_regime(power24, PowerSchedule(beta=0.3), (1e2, 1e6)).tag == SPARSE
    # beta = 0.2 < 1/alpha: q_n ~ C n^{0.2} -> dense
    assert classify_regime(power24, PowerSchedule(beta=0.2), (1e2, 1e6)).tag == DENSE


class _WigglySchedule(RadiusSchedule):
    """Log-log interpolation of a table whose radius trend oscillates around the weak core."""

    def radius(self, density, n):
        return float(np.exp(np.interp(np.log(n), np.log([1e2, 1e3, 1e4, 1e5]),
                                      np.log([1.4, 4.5, 5.2, 14.0]))))


def test_unclassifiable(power24):
    with pytest.raises(UnclassifiableError):
        classify_regime(power24, _WigglySchedule(), (1e2, 1e5))


def _growth(density, schedule, k, n_range):
    return check_growth_condition(density, classify_regime(density, schedule, n_range), k)


def test_growth_condition(power24, vm21):
    # exponent k(1 - alpha beta) + d beta: beta=0.3 -> +0.2, beta=0.4 -> -0.4
    assert _growth(power24, PowerSchedule(beta=0.3), 2, (1e2, 1e6)).passed
    assert not _growth(power24, PowerSchedule(beta=0.4), 2, (1e2, 1e6)).passed
    # boundary case: the Poisson-layer schedule pins the product at 1
    report = _growth(power24, PoissonLayerSchedule(k=2), 2, (1e3, 1e7))
    assert not report.passed
    assert abs(report.final_decade_gain) < 1e-6
    assert np.allclose(report.log_products, 0.0, atol=1e-8)
    # the light-tail product n^k a(R) R^{d-1} f^k is pinned at 1 by its own layer
    report = _growth(vm21, PoissonLayerSchedule(k=2), 2, (1e3, 1e7))
    assert not report.passed
    assert np.allclose(report.log_products, 0.0, atol=1e-8)


def test_tau_formulas(power24, vm21):
    # critical: tau = R^d exactly
    n = 1e6
    sched = WeakCoreSchedule()
    R = sched.radius(power24, n)
    assert math.exp(log_tau(power24, CRITICAL, n, R, 2)) == pytest.approx(R ** 2, rel=1e-12)
    # sparse heavy: direct evaluation with the exact f (spec example numbers)
    sp = PowerSchedule(beta=0.3)
    n = 1e5
    R = sp.radius(power24, n)
    expected = n ** 2 * R ** 2 * power24.radial_profile(R) ** 2
    assert math.exp(log_tau(power24, SPARSE, n, R, 2)) == pytest.approx(expected, rel=1e-10)
    # light sparse with tau=1 (a == 1): n^k * 1 * R^{d-1} * (C e^{-R})^k
    R = 14.0
    expected = (1e5) ** 2 * R * (vm21.C * math.exp(-R)) ** 2
    assert math.exp(log_tau(vm21, SPARSE, 1e5, R, 2)) == pytest.approx(expected, rel=1e-9)


def test_tau_consistency_at_weak_core(power24):
    """All three formulas agree (to machine precision) when n f(R) = 1."""
    R = 17.0
    n = math.exp(-float(power24.log_radial_profile(R)))
    for k in (2, 3):
        taus = [math.exp(log_tau(power24, tag, n, R, k))
                for tag in (SPARSE, CRITICAL, DENSE)]
        assert taus[0] == pytest.approx(taus[1], rel=5e-13)
        assert taus[2] == pytest.approx(taus[1], rel=5e-13)


def test_tau_rejects_superexponential():
    den = VonMisesDensity(2, 1.5)   # a(r) -> 0: outside the CLT scope
    with pytest.raises(BoundaryRegimeError):
        log_tau(den, SPARSE, 1e5, 5.0, 2)


def test_standardize():
    curves = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 4.0]])
    paths = standardize(curves, 4.0)
    assert np.allclose(paths.mean(axis=0), 0.0)
    # each replication is centered by the mean of the other two
    others = (curves.sum(axis=0) - curves) / 2.0
    assert np.allclose(paths * 2.0, curves - others)
    assert np.allclose(paths * 2.0, (curves - curves.mean(axis=0)) * 1.5)
    # constant curves -> identically zero paths
    assert np.all(standardize(np.full((5, 3), 2.0), 1.0) == 0)
    with pytest.raises(ValueError):
        standardize(curves, 0.0)
    with pytest.raises(ValueError):
        standardize(curves[:1], 1.0)


def test_regime_class_validation():
    with pytest.raises(ValueError):
        RegimeClass(tag=CRITICAL, xi=None, n_values=np.array([1.0]),
                    r_values=np.array([1.0]), q_values=np.array([1.0]))

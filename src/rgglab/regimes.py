"""Regime classification, growth-condition check, FCLT normalization tau_n,
and path standardization.

The three regimes are read off the evidence sequence q_n = n f(R_n e_1)
evaluated on a geometric n-grid: critical when the per-decade relative drift
stays below 1%, otherwise sparse/dense by the monotone trend.  All tau_n
formulas are evaluated in log space with the exact density, which makes the
three variants agree to machine precision whenever q_n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import RadialDensity, RadiusSchedule, VonMisesDensity

SPARSE = "sparse"
CRITICAL = "critical"
DENSE = "dense"

_CRITICAL_DRIFT = 0.01   # max |relative drift| per decade for the critical tag
_PER_DECADE = 8          # evidence-grid points per decade of n


class UnclassifiableError(RuntimeError):
    """Evidence sequence is non-monotone/oscillating."""


class BoundaryRegimeError(RuntimeError):
    """Growth condition failed or the regime is a boundary case."""


@dataclass(frozen=True)
class RegimeClass:
    tag: str
    xi: float | None
    n_values: np.ndarray
    q_values: np.ndarray

    def __post_init__(self) -> None:
        if self.tag == CRITICAL and not (self.xi is not None and self.xi > 0):
            raise ValueError("critical regime carries a finite positive xi")


def _check_light_usable(density: RadialDensity) -> None:
    if isinstance(density, VonMisesDensity) and density.c_limit == 0.0:
        raise BoundaryRegimeError(
            "superexponential tail (tau > 1): outside the scope of the CLT "
            "normalizations, usable for core computations only")


def evidence_grid(n_range) -> np.ndarray:
    lo, hi = float(n_range[0]), float(n_range[1])
    if not 0 < lo < hi:
        raise ValueError("need 0 < n_lo < n_hi")
    decades = math.log10(hi / lo)
    count = max(int(round(decades * _PER_DECADE)) + 1, 5)
    return np.geomspace(lo, hi, count)


def classify_regime(density: RadialDensity, schedule: RadiusSchedule,
                    n_range) -> RegimeClass:
    """Tag the schedule by the trend of q_n = n f(R_n e_1) over ``n_range``."""
    ns = evidence_grid(n_range)
    qs = np.array([n * density.radial_profile(schedule.radius(density, n)) for n in ns])
    if np.any(qs <= 0) or not np.all(np.isfinite(qs)):
        raise UnclassifiableError("evidence sequence must be positive and finite")
    log_q = np.log(qs)
    decades_per_step = math.log10(ns[1] / ns[0])
    drift = np.diff(log_q) / decades_per_step       # relative drift per decade
    if np.all(np.abs(drift) < _CRITICAL_DRIFT):
        return RegimeClass(tag=CRITICAL, xi=float(qs[-1]), n_values=ns, q_values=qs)
    tol = 1e-12
    if np.all(drift < tol):
        return RegimeClass(tag=SPARSE, xi=None, n_values=ns, q_values=qs)
    if np.all(drift > -tol):
        return RegimeClass(tag=DENSE, xi=None, n_values=ns, q_values=qs)
    raise UnclassifiableError(
        "evidence n f(R_n) is non-monotone over the evaluated range; "
        "refusing to guess a regime")


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    n_values: np.ndarray
    log_products: np.ndarray
    final_decade_gain: float    # log-product increase over the last decade


def check_growth_condition(density: RadialDensity, schedule: RadiusSchedule,
                           k: int, n_range) -> GrowthReport:
    """Pass iff the normalizing product n^k f(R_n)^k V(R_n) still increases
    over the last decade (its log is the sparse log tau_n)."""
    _check_light_usable(density)
    ns = evidence_grid(n_range)
    logs = np.array([
        log_tau(density, SPARSE, n, schedule.radius(density, n), k) for n in ns
    ])
    steps_per_decade = max(int(round(1.0 / math.log10(ns[1] / ns[0]))), 1)
    gain = float(logs[-1] - logs[-1 - min(steps_per_decade, len(logs) - 1)])
    passed = gain > 1e-9
    return GrowthReport(passed=passed, n_values=ns, log_products=logs,
                        final_decade_gain=gain)


def log_tau(density: RadialDensity, tag: str, n: float, R: float, k: int) -> float:
    """log tau_n for the regime ``tag``; the family sets its volume factor."""
    _check_light_usable(density)
    n = float(n)
    log_f = float(density.log_radial_profile(R))
    geom = density.log_shell_volume(R)
    if tag == SPARSE:
        return k * (math.log(n) + log_f) + geom
    if tag == CRITICAL:
        return geom
    if tag == DENSE:
        return (2 * k - 1) * (math.log(n) + log_f) + geom
    raise BoundaryRegimeError(f"unknown regime tag {tag!r}")


def standardize(curves: np.ndarray, tau_n: float) -> np.ndarray:
    """X_r(t) = (G_r(t) - center_r(t)) / sqrt(tau_n) across replications.

    Each replication is centered by the mean of the others, avoiding the
    small self-centering bias of the plain sample mean.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[0] < 2:
        raise ValueError("need a (replications, grid) array with >= 2 replications")
    if not tau_n > 0:
        raise ValueError("tau must be positive")
    reps = curves.shape[0]
    mean = curves.mean(axis=0, keepdims=True)
    centered = (curves - mean) * (reps / (reps - 1.0))
    return centered / math.sqrt(tau_n)

"""Command-line front end.

Subcommands wrap the library modules: ``atlas`` (class enumeration),
``radii`` (derived radius tables), ``sample`` (point clouds), ``count``
(counting curves), ``oracle`` (limit covariances), ``regime``
(classification report), and ``experiment`` (configured runs).

Exit codes: 0 success / checks passed, 1 experiment checks failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .atlas import build_atlas
from .config import (
    ConfigError,
    _float_list,
    _float_pair,
    _int_list,
    build_density,
    build_schedule,
    build_shape,
    parse_config,
)
from .counting import CountRequest, count_decomposed
from .densities import (
    InvalidParameterError,
    ScheduleUndefinedError,
    UnsupportedOperationError,
    core_radius,
    poisson_layer_radius,
    sample_poisson_cloud,
    weak_core_radius,
)
from .harness import (
    ExperimentError,
    palm_mean_check,
    run_clt_experiment,
    run_core_experiment,
    run_poisson_layer_experiment,
    write_covariance_csv,
    write_report,
)
from .limits import OracleParams, brownian_identity_check, covariance_L, covariance_M, mixture_covariance
from .regimes import (
    BoundaryRegimeError,
    UnclassifiableError,
    check_growth_condition,
    classify_regime,
    log_tau,
)

_CONFIG_ERRORS = (ConfigError, InvalidParameterError, ScheduleUndefinedError,
                  UnsupportedOperationError, UnclassifiableError, BoundaryRegimeError,
                  ExperimentError, ValueError)


# per config section, its builder and the flag (argparse dest) of each key
_SECTIONS = {
    "density": (build_density, {"family": "family", "d": "d", "alpha": "alpha",
                                "tau": "tau"}),
    "shape": (build_shape, {"k": "k", "name": "shape_name", "edges": "edges"}),
    "schedule": (build_schedule, {"kind": "schedule", "beta": "beta", "c0": "c0",
                                  "k": "layer_k"}),
}


def _from_flags(args, section: str):
    """The section built from the flags given, as one INI section, so that
    they go through the config file's rules; an unset flag leaves its key to
    the builder's default."""
    build, dests = _SECTIONS[section]
    parser = configparser.ConfigParser(interpolation=None)
    parser[section] = {key: str(getattr(args, dest)) for key, dest in dests.items()
                       if getattr(args, dest) is not None}
    return build(parser)


def _given(**values) -> dict:
    """The keyword arguments whose flag was given; the others keep the
    library's defaults."""
    return {key: value for key, value in values.items() if value is not None}


def _add_density_flags(sub):
    sub.add_argument("--family", choices=("power", "vonmises"), required=True)
    sub.add_argument("--d", type=int, required=True, help="dimension")
    sub.add_argument("--alpha", type=float, help="power-law tail exponent")
    sub.add_argument("--tau", type=float, help="von Mises shape exponent")


def _cmd_atlas(args) -> int:
    sys.stdout.write(build_atlas(args.k).export_text())
    return 0


def _cmd_radii(args) -> int:
    density = _from_flags(args, "density")
    layers = _int_list("radii", "--k-layers", args.k_layers)
    header = ["n", "R_weak", "R_core"] + [f"R_layer_k{k}" for k in layers]
    lines = [",".join(header)]
    for n in args.n:
        row = [f"{n:g}"]
        row.append(repr(weak_core_radius(density, n)))
        try:
            row.append(repr(core_radius(density, n)))
        except ScheduleUndefinedError:
            row.append("nan")
        for k in layers:
            row.append(repr(poisson_layer_radius(density, n, k)))
        lines.append(",".join(row))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cloud(args, density):
    """The cloud that ``sample`` prints and ``count`` counts, outside ``--R``
    when given: the seed fixes it."""
    return sample_poisson_cloud(args.n, density, np.random.default_rng(args.seed),
                                exterior_radius=args.R, seed=args.seed)


def _cmd_sample(args) -> int:
    density = _from_flags(args, "density")
    cloud = _cloud(args, density)
    sys.stdout.write(",".join(f"x{i}" for i in range(density.d)) + "\n")
    for row in cloud.points:
        sys.stdout.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def _cmd_count(args) -> int:
    density = _from_flags(args, "density")
    cloud = _cloud(args, density)
    shape = _from_flags(args, "shape")
    t_grid = np.array(_float_list("count", "--t-grid", args.t_grid))
    req = CountRequest(shape=shape, t_grid=t_grid, **_given(R=args.R))
    if args.annulus:
        K, L = _float_pair("count", "--annulus", args.annulus)
        req = replace(req, annulus=density.annulus_bounds(req.R, K, L))
    h, plus, minus = count_decomposed(cloud, req)
    sys.stdout.write("seed,t,count_h,count_plus,count_minus\n")
    for j, t in enumerate(t_grid):
        sys.stdout.write(f"{args.seed},{float(t)!r},{h.counts[j]},"
                         f"{plus.counts[j]},{minus.counts[j]}\n")
    return 0


def _cmd_oracle(args) -> int:
    shape = _from_flags(args, "shape")
    t_grid = np.array(_float_list("oracle", "--t-grid", args.t_grid))
    annulus = _float_pair("oracle", "--annulus", args.annulus) if args.annulus else None
    if args.kind == "mixture" and args.ell is not None:
        raise ConfigError("[oracle] --ell: a mixture sums its own blocks; drop --ell")
    ell = args.k if args.ell is None else args.ell
    params = OracleParams(d=args.d, ell=ell, shape=shape,
                          alpha=args.alpha, c=args.c, t_grid=t_grid, annulus=annulus,
                          **_given(n_samples=args.samples, seed=args.seed))
    mode = _given(mode=args.mode)
    if args.kind == "L":
        cov = covariance_L(params, **mode)
    elif args.kind == "M":
        cov = covariance_M(params, **mode)
    elif args.kind == "mixture":
        cov = mixture_covariance(args.regime, params, xi=args.xi)
    else:  # brownian
        report = brownian_identity_check(params, **mode)
        sys.stdout.write(json.dumps(
            {k: v for k, v in report.items() if np.isscalar(v)},
            indent=2, sort_keys=True, default=float) + "\n")
        return 0 if report["passed"] else 1
    write_covariance_csv(cov, sys.stdout)
    return 0


def _cmd_regime(args) -> int:
    density = _from_flags(args, "density")
    schedule = _from_flags(args, "schedule")
    regime = classify_regime(density, schedule, _float_pair("regime", "--n-range", args.n_range))
    growth = check_growth_condition(density, regime, args.k)
    sys.stdout.write("n,R_n,q_n,log_growth_product\n")
    for row in zip(regime.n_values, regime.r_values, regime.q_values, growth.log_products):
        sys.stdout.write(",".join(repr(float(v)) for v in row) + "\n")
    sys.stdout.write(f"# regime: {regime.tag}"
                     + (f" (xi={float(regime.xi)!r})" if regime.xi is not None else "") + "\n")
    sys.stdout.write(f"# growth_condition: {'pass' if growth.passed else 'fail'} "
                     f"(final decade gain {growth.final_decade_gain!r})\n")
    n, R = regime.n_values[-1], regime.r_values[-1]
    for tag in ("sparse", "critical", "dense"):
        sys.stdout.write(f"# tau[{tag}] at n={n:g}: "
                         f"{math.exp(log_tau(density, tag, n, R, args.k))!r}\n")
    return 0


_PASS_FLAGS = {
    "clt": ("growth_passed", "decomposition_exact_all", "monotone_curves_all",
            "top_rung_band_fraction_ok"),
    "poisson_layer": ("top_dispersion_in_band", "top_gof_p_ok"),
    "core": ("frequency_nondecreasing", "radius_monotone_all"),
    "palm": ("mean_within_3se", "joint_within_3se"),
}


def _cmd_experiment(args) -> int:
    parsed = parse_config(path=args.config, overrides=args.set or [])
    out_dir = Path(args.out) if args.out else None

    # built per call, so each runner is read from the module globals at call time
    runners = {"clt": run_clt_experiment, "poisson_layer": run_poisson_layer_experiment,
               "core": run_core_experiment, "palm": palm_mean_check}
    started = time.perf_counter()
    report = runners[parsed.kind](parsed.experiment)
    runtime = time.perf_counter() - started

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        # echo the effective config, with the --set overrides applied
        (out_dir / "effective_config.ini").write_text(parsed.echo())
        write_report(report, out_dir)
    passed = all(bool(report.flags[name]) for name in _PASS_FLAGS[parsed.kind]
                 if name in report.flags)
    for name in _PASS_FLAGS[parsed.kind]:
        state = "PASS" if bool(report.flags.get(name)) else "FAIL"
        sys.stdout.write(f"{state} {parsed.kind}.{name}\n")
    sys.stdout.write(f"runtime_seconds: {runtime:.3f}\n")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgglab",
        description="subgraph counting processes outside expanding balls: "
                    "simulation, oracles, experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atlas", help="enumerate connected graph classes")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("radii", help="derived radius table (CSV)")
    _add_density_flags(p)
    p.add_argument("--n", type=float, action="append", required=True,
                   help="intensity (repeatable)")
    p.add_argument("--k-layers", default="2,3", help="comma list of layer orders")
    p.set_defaults(func=_cmd_radii)

    p = sub.add_parser("sample", help="sample a Poisson cloud")
    _add_density_flags(p)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--R", type=float, help="exclusion radius: the cloud outside B(0, R)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("count", help="counting curves for a cloud")
    _add_density_flags(p)
    p.add_argument("--n", type=float, default=1000.0)
    p.add_argument("--R", type=float, help="exclusion radius: sample and count outside B(0, R)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--shape-name")
    p.add_argument("--edges", help="explicit edge list i-j;i-j")
    p.add_argument("--t-grid", required=True, help="comma list of radii")
    p.add_argument("--annulus", help="K,L bounds for the Max-norm gate, in the "
                   "family's units: [K R, L R) (power) or [R + K a(R), R + L a(R)) "
                   "(vonmises)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="limit covariance oracle (CSV)")
    p.add_argument("--kind", choices=("L", "M", "mixture", "brownian"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int,
                   help="block of L, M and brownian (default: --k); mixture takes none")
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float, help="light-tail a-limit (inf allowed)")
    p.add_argument("--shape-name")
    p.add_argument("--edges")
    p.add_argument("--t-grid", required=True)
    p.add_argument("--mode", choices=("h", "plus", "minus"))
    p.add_argument("--regime", choices=("sparse", "critical", "dense"), default="sparse")
    p.add_argument("--xi", type=float)
    p.add_argument("--annulus", help="K,L bounds in the family's units, as for count")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("regime", help="classification and growth report")
    _add_density_flags(p)
    p.add_argument("--schedule", choices=("power", "weak_core", "core",
                                          "poisson_layer", "log_band"), required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--c0", type=float)
    p.add_argument("--layer-k", type=int)
    p.add_argument("--k", type=int, default=2, help="subgraph order")
    p.add_argument("--n-range", required=True, help="lo,hi")
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="section.key=value",
                   help="override a config field (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    return parser


def parse_and_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()

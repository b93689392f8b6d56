"""Command-line front end.

Subcommands wrap the library modules: ``atlas`` (class enumeration),
``radii`` (derived radius tables), ``sample`` (point clouds), ``count``
(counting curves), ``oracle`` (limit covariances), ``regime``
(classification report), and ``experiment`` (configured runs).

Exit codes: 0 success / checks passed, 1 experiment checks failed,
2 configuration error.  Environment fallbacks (used when the flag is
absent): RGGLAB_SEED, RGGLAB_WORKERS, RGGLAB_OUT.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .atlas import GraphShape, build_atlas
from .config import ConfigError, build_density, build_shape, parse_config
from .counting import (
    ANNULUS_ABSOLUTE,
    ANNULUS_RADIUS_MULTIPLE,
    ANNULUS_SHIFTED_BY_A,
    AnnulusSpec,
    CloudFormatError,
    CountRequest,
    count_decomposed,
    load_cloud,
    save_cloud,
)
from .densities import (
    InvalidParameterError,
    RadialDensity,
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
    run_annuli_census_experiment,
    run_clt_experiment,
    run_core_experiment,
    run_poisson_layer_experiment,
    write_covariance_csv,
    write_report,
)
from .limits import OracleParams, brownian_identity_check, covariance_L, covariance_M, mixture_covariance
from .regimes import UnclassifiableError, check_growth_condition, classify_regime, evidence_grid

_CONFIG_ERRORS = (ConfigError, InvalidParameterError, ScheduleUndefinedError,
                  UnsupportedOperationError, UnclassifiableError, ExperimentError,
                  ValueError)


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    return cast(raw)


def _config_section(name: str, values: dict) -> configparser.ConfigParser:
    """Flags as one INI section, so they go through the config file's rules."""
    parser = configparser.ConfigParser(interpolation=None)
    parser[name] = values
    return parser


def _density_from_args(args) -> RadialDensity:
    values = {"family": args.family, "d": str(args.d)}
    for key in ("alpha", "tau"):
        if getattr(args, key) is not None:
            values[key] = repr(getattr(args, key))
    return build_density(_config_section("density", values))


def _add_density_flags(sub):
    sub.add_argument("--family", choices=("power", "vonmises"), required=True)
    sub.add_argument("--d", type=int, required=True, help="dimension")
    sub.add_argument("--alpha", type=float, help="power-law tail exponent")
    sub.add_argument("--tau", type=float, help="von Mises shape exponent")


def _cmd_atlas(args) -> int:
    atlas = build_atlas(args.k)
    out = atlas.export_text()
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_radii(args) -> int:
    density = _density_from_args(args)
    layers = [int(k) for k in args.k_layers.split(",")] if args.k_layers else [2, 3]
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
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sample(args) -> int:
    density = _density_from_args(args)
    rng = np.random.default_rng(args.seed)
    cloud = sample_poisson_cloud(args.n, density, rng,
                                 exterior_radius=args.exterior_radius,
                                 seed=args.seed)
    if args.binary_out:
        save_cloud(args.binary_out, cloud)
    else:
        out = sys.stdout if not args.out else open(args.out, "w")
        try:
            out.write(",".join(f"x{i}" for i in range(density.d)) + "\n")
            for row in cloud.points:
                out.write(",".join(repr(float(v)) for v in row) + "\n")
        finally:
            if args.out:
                out.close()
    return 0


def _shape_from_args(args) -> GraphShape:
    values = {"k": str(args.k)}
    if args.edges:
        values["edges"] = args.edges
    else:
        values["name"] = args.shape_name
    return build_shape(_config_section("shape", values))


def _cmd_count(args) -> int:
    if args.cloud:
        try:
            cloud = load_cloud(args.cloud)
        except (OSError, CloudFormatError) as exc:
            raise ConfigError(f"unreadable cloud: {exc}") from exc
    else:
        density = _density_from_args(args)
        rng = np.random.default_rng(args.seed)
        cloud = sample_poisson_cloud(args.n, density, rng,
                                     exterior_radius=args.exterior_radius,
                                     seed=args.seed)
    shape = _shape_from_args(args)
    t_grid = np.array([float(x) for x in args.t_grid.split(",")])
    annulus = None
    if args.annulus:
        K, L = (float(x) for x in args.annulus.split(","))
        scaling = {"multiple": ANNULUS_RADIUS_MULTIPLE, "shifted": ANNULUS_SHIFTED_BY_A,
                   "absolute": ANNULUS_ABSOLUTE}[args.annulus_scaling]
        annulus = AnnulusSpec(K=K, L=L if math.isfinite(L) else math.inf, scaling=scaling)
    req = CountRequest(shape=shape, t_grid=t_grid, R=args.R, annulus=annulus,
                       a_of_R=args.a_of_r)
    h, plus, minus = count_decomposed(cloud, req)
    out = sys.stdout if not args.out else open(args.out, "w")
    try:
        out.write("seed,t,count_h,count_plus,count_minus\n")
        for j, t in enumerate(t_grid):
            out.write(f"{args.seed},{float(t)!r},{h.counts[j]},"
                      f"{plus.counts[j]},{minus.counts[j]}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_oracle(args) -> int:
    shape = _shape_from_args(args)
    t_grid = np.array([float(x) for x in args.t_grid.split(",")])
    annulus = None
    if args.K is not None or args.L is not None:
        annulus = (args.K if args.K is not None else 0.0,
                   args.L if args.L is not None else math.inf)
    params = OracleParams(d=args.d, k=args.k, ell=args.ell, shape=shape,
                          alpha=args.alpha, c=args.c, t_grid=t_grid,
                          n_samples=args.samples, seed=args.seed)
    if args.kind == "L":
        cov = covariance_L(params, mode=args.mode)
    elif args.kind == "M":
        cov = covariance_M(params, mode=args.mode)
    elif args.kind == "mixture":
        family = "light" if args.c is not None else "heavy"
        cov = mixture_covariance(family, args.regime, params, annulus=annulus,
                                 xi=args.xi)
    else:  # brownian
        report = brownian_identity_check(params, mode="plus" if args.mode == "h"
                                         else args.mode)
        sys.stdout.write(json.dumps(
            {k: v for k, v in report.items() if np.isscalar(v)},
            indent=2, sort_keys=True, default=float) + "\n")
        return 0 if report["passed"] else 1
    path = Path(args.out) if args.out else None
    if path:
        write_covariance_csv(cov, path)
    else:
        fh = sys.stdout
        fh.write("t,s,value,std_err\n")
        for i, t in enumerate(cov.t_grid):
            for j, s in enumerate(cov.t_grid):
                fh.write(f"{float(t)!r},{float(s)!r},{float(cov.matrix[i, j])!r},"
                         f"{float(cov.std_err[i, j])!r}\n")
    return 0


def _schedule_from_args(args):
    from .densities import (CoreSchedule, LogBandSchedule, PoissonLayerSchedule,
                            PowerSchedule, WeakCoreSchedule)
    if args.schedule == "power":
        return PowerSchedule(c0=args.c0, beta=args.beta)
    if args.schedule == "weak_core":
        return WeakCoreSchedule()
    if args.schedule == "core":
        return CoreSchedule()
    if args.schedule == "poisson_layer":
        return PoissonLayerSchedule(k=args.layer_k)
    return LogBandSchedule(beta=args.beta)


def _cmd_regime(args) -> int:
    density = _density_from_args(args)
    schedule = _schedule_from_args(args)
    lo, hi = (float(x) for x in args.n_range.split(","))
    regime = classify_regime(density, schedule, (lo, hi))
    growth = check_growth_condition(density, schedule, args.k, (lo, hi))
    sys.stdout.write("n,R_n,q_n,log_growth_product\n")
    ns = evidence_grid((lo, hi))
    from .regimes import log_tau
    for i, n in enumerate(ns):
        R = schedule.radius(density, n)
        sys.stdout.write(f"{float(n)!r},{float(R)!r},{float(regime.q_values[i])!r},"
                         f"{float(growth.log_products[i])!r}\n")
    sys.stdout.write(f"# regime: {regime.tag}"
                     + (f" (xi={float(regime.xi)!r})" if regime.xi is not None else "") + "\n")
    sys.stdout.write(f"# growth_condition: {'pass' if growth.passed else 'fail'} "
                     f"(final decade gain {growth.final_decade_gain!r})\n")
    for tag in ("sparse", "critical", "dense"):
        n = ns[-1]
        R = schedule.radius(density, n)
        sys.stdout.write(f"# tau[{tag}] at n={n:g}: "
                         f"{math.exp(log_tau(density, tag, n, R, args.k))!r}\n")
    return 0


_PASS_FLAGS = {
    "clt": ("growth_passed", "decomposition_exact_all", "monotone_curves_all",
            "top_rung_band_fraction_ok"),
    "poisson_layer": ("top_dispersion_in_band", "top_gof_p_ok"),
    "core": ("frequency_nondecreasing", "radius_monotone_all"),
    "palm": ("mean_within_3se", "joint_within_3se"),
    "annuli_census": ("all_nonnegative",),
}


def _cmd_experiment(args) -> int:
    parsed = parse_config(path=args.config, overrides=args.set or [])
    cfg = parsed.experiment
    if args.workers is not None:
        cfg.workers = args.workers
    if args.seed is not None:
        cfg.master_seed = args.seed
    out_dir = Path(args.out) if args.out else None

    if parsed.kind == "clt":
        report = run_clt_experiment(cfg)
    elif parsed.kind == "poisson_layer":
        report = run_poisson_layer_experiment(cfg, t_fixed=parsed.t_fixed)
    elif parsed.kind == "core":
        report = run_core_experiment(cfg)
    elif parsed.kind == "annuli_census":
        report = run_annuli_census_experiment(cfg)
    else:
        report = palm_mean_check(cfg, n=parsed.palm_n)

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        # echo the effective config (with overrides and CLI adjustments applied)
        parsed.raw["experiment"]["workers"] = str(cfg.workers)
        parsed.raw["experiment"]["master_seed"] = str(cfg.master_seed)
        (out_dir / "effective_config.ini").write_text(parsed.echo())
        write_report(report, out_dir)
    passed = all(bool(report.flags[name]) for name in _PASS_FLAGS[parsed.kind]
                 if name in report.flags)
    for name in _PASS_FLAGS[parsed.kind]:
        state = "PASS" if bool(report.flags.get(name)) else "FAIL"
        sys.stdout.write(f"{state} {parsed.kind}.{name}\n")
    sys.stdout.write(f"runtime_seconds: {report.runtime_seconds:.3f}\n")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgglab",
        description="subgraph counting processes outside expanding balls: "
                    "simulation, oracles, experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atlas", help="enumerate connected graph classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("radii", help="derived radius table (CSV)")
    _add_density_flags(p)
    p.add_argument("--n", type=float, action="append", required=True,
                   help="intensity (repeatable)")
    p.add_argument("--k-layers", default="2,3", help="comma list of layer orders")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_radii)

    p = sub.add_parser("sample", help="sample a Poisson cloud")
    _add_density_flags(p)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--exterior-radius", type=float, default=None)
    p.add_argument("--seed", type=int, default=_env_default("RGGLAB_SEED", int, 0))
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--binary-out", help="binary cloud cache path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("count", help="counting curves for a cloud")
    _add_density_flags(p)
    p.add_argument("--n", type=float, default=1000.0)
    p.add_argument("--exterior-radius", type=float, default=None)
    p.add_argument("--cloud", help="binary cloud cache to load instead of sampling")
    p.add_argument("--seed", type=int, default=_env_default("RGGLAB_SEED", int, 0))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--shape-name", default="complete")
    p.add_argument("--edges", help="explicit edge list i-j;i-j")
    p.add_argument("--t-grid", required=True, help="comma list of radii")
    p.add_argument("--R", type=float, default=0.0, help="exclusion radius")
    p.add_argument("--annulus", help="K,L bounds for the Max-norm gate")
    p.add_argument("--annulus-scaling", choices=("multiple", "shifted", "absolute"),
                   default="multiple")
    p.add_argument("--a-of-r", type=float, default=None,
                   help="a(R) for the shifted annulus scaling")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="limit covariance oracle (CSV)")
    p.add_argument("--kind", choices=("L", "M", "mixture", "brownian"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float, help="light-tail a-limit (inf allowed)")
    p.add_argument("--shape-name", default="complete")
    p.add_argument("--edges")
    p.add_argument("--t-grid", required=True)
    p.add_argument("--mode", choices=("h", "plus", "minus"), default="h")
    p.add_argument("--regime", choices=("sparse", "critical", "dense"), default="sparse")
    p.add_argument("--xi", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=_env_default("RGGLAB_SEED", int, 0))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("regime", help="classification and growth report")
    _add_density_flags(p)
    p.add_argument("--schedule", choices=("power", "weak_core", "core",
                                          "poisson_layer", "log_band"), required=True)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--layer-k", type=int, default=2)
    p.add_argument("--k", type=int, default=2, help="subgraph order")
    p.add_argument("--n-range", required=True, help="lo,hi")
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="section.key=value",
                   help="override a config field (repeatable)")
    p.add_argument("--out", default=_env_default("RGGLAB_OUT", str, None))
    p.add_argument("--workers", type=int,
                   default=_env_default("RGGLAB_WORKERS", int, None))
    p.add_argument("--seed", type=int, default=_env_default("RGGLAB_SEED", int, None))
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

"""Experiment configuration files: INI sections with strict key validation.

Unknown sections or keys are rejected so that a typo in an experiment
definition cannot silently select defaults.  The effective configuration
(after ``--set section.key=value`` overrides) is echoed into every output
directory and re-parses to an identical run.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atlas import GraphShape, named_shape, shape_from_edges
from .densities import (
    CoreSchedule,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerLawDensity,
    PowerSchedule,
    RadialDensity,
    RadiusSchedule,
    TableSchedule,
    VonMisesDensity,
    WeakCoreSchedule,
)
from .harness import ExperimentConfig


class ConfigError(ValueError):
    """Malformed configuration: unknown keys, missing fields, bad values."""


_SCHEMA = {
    "density": {"family", "d", "alpha", "tau"},
    "schedule": {"kind", "beta", "c0", "k", "delta1", "delta2", "entries"},
    "shape": {"k", "name", "edges"},
    "experiment": {
        "kind", "t_grid", "n_ladder", "replications", "master_seed", "workers",
        "oracle_samples", "t_ref", "band", "annulus", "classify_lo",
        "classify_hi", "kmax_census",
    },
}
_REQUIRED = {
    "density": {"family", "d"},
    "schedule": {"kind"},
    "shape": {"k"},
    "experiment": {"kind", "t_grid", "n_ladder", "replications"},
}
EXPERIMENT_KINDS = ("clt", "poisson_layer", "core", "annuli_census", "palm")


@dataclass
class ParsedConfig:
    experiment: ExperimentConfig
    kind: str
    raw: configparser.ConfigParser

    def echo(self) -> str:
        buf = io.StringIO()
        self.raw.write(buf)
        return buf.getvalue()


def _float(section, key, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from exc


def _int(section, key, raw: str) -> int:
    value = _float(section, key, raw)
    if not value.is_integer():
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")
    return int(value)


def _list_items(section, key, raw: str) -> list[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: expected a comma list of numbers")
    return items


def _float_list(section, key, raw: str) -> list[float]:
    return [_float(section, key, part) for part in _list_items(section, key, raw)]


def _int_list(section, key, raw: str) -> list[int]:
    return [_int(section, key, part) for part in _list_items(section, key, raw)]


def _float_pair(section, key, raw: str) -> tuple[float, float]:
    values = _float_list(section, key, raw)
    if len(values) != 2:
        raise ConfigError(f"[{section}] {key}: expected two numbers, got {raw!r}")
    return values[0], values[1]


def _validate_sections(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section, required in _REQUIRED.items():
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")
        for key in required:
            if key not in parser[section]:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")


def build_density(parser: configparser.ConfigParser) -> RadialDensity:
    sec = parser["density"]
    family = sec["family"].strip().lower()
    d = _int("density", "d", sec["d"])
    if family == "power":
        if "alpha" not in sec:
            raise ConfigError("[density] power family needs alpha")
        if "tau" in sec:
            raise ConfigError("[density] tau is a von Mises parameter")
        return PowerLawDensity(d, _float("density", "alpha", sec["alpha"]))
    if family == "vonmises":
        if "tau" not in sec:
            raise ConfigError("[density] vonmises family needs tau")
        if "alpha" in sec:
            raise ConfigError("[density] alpha is a power-law parameter")
        return VonMisesDensity(d, _float("density", "tau", sec["tau"]))
    raise ConfigError(f"[density] unknown family {family!r}")


def build_schedule(parser: configparser.ConfigParser) -> RadiusSchedule:
    sec = parser["schedule"]
    kind = sec["kind"].strip().lower()
    if kind == "power":
        return PowerSchedule(c0=_float("schedule", "c0", sec.get("c0", "1.0")),
                             beta=_float("schedule", "beta", sec.get("beta", "0.3")))
    if kind == "weak_core":
        return WeakCoreSchedule()
    if kind == "core":
        d1 = _float("schedule", "delta1", sec["delta1"]) if "delta1" in sec else None
        d2 = _float("schedule", "delta2", sec["delta2"]) if "delta2" in sec else None
        return CoreSchedule(delta1=d1, delta2=d2)
    if kind == "poisson_layer":
        return PoissonLayerSchedule(k=_int("schedule", "k", sec.get("k", "2")))
    if kind == "log_band":
        return LogBandSchedule(beta=_float("schedule", "beta", sec.get("beta", "0.45")))
    if kind == "table":
        if "entries" not in sec:
            raise ConfigError("[schedule] table kind needs entries")
        pairs = []
        for item in sec["entries"].split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise ConfigError("[schedule] entries must look like n:R, n:R, ...")
            n_raw, r_raw = item.split(":", 1)
            pairs.append((_float("schedule", "entries", n_raw),
                          _float("schedule", "entries", r_raw)))
        return TableSchedule(entries=tuple(pairs))
    raise ConfigError(f"[schedule] unknown kind {kind!r}")


def build_shape(parser: configparser.ConfigParser) -> GraphShape:
    sec = parser["shape"]
    k = _int("shape", "k", sec["k"])
    if "edges" in sec and "name" in sec:
        raise ConfigError("[shape] give either name or edges, not both")
    if "edges" in sec:
        edges = []
        for item in sec["edges"].split(";"):
            item = item.strip()
            if not item:
                continue
            try:
                i, j = item.split("-")
                edges.append((int(i), int(j)))
            except ValueError as exc:
                raise ConfigError(f"[shape] bad edge {item!r}; use i-j;i-j") from exc
        return shape_from_edges(k, edges)
    name = sec.get("name", "complete")
    try:
        return named_shape(k, name)
    except ValueError as exc:
        raise ConfigError(f"[shape] {exc}") from exc


def parse_config(path: Path | str | None = None, text: str | None = None,
                 overrides: list[str] | None = None) -> ParsedConfig:
    """Parse an experiment configuration file plus ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    if text is None:
        if path is None:
            raise ConfigError("no configuration given")
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read_string(path.read_text(), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
    else:
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"override names unknown field [{section}] {key}")
        if section not in parser:
            parser.add_section(section)
        parser[section][key] = value.strip()

    _validate_sections(parser)

    density = build_density(parser)
    schedule = build_schedule(parser)
    shape = build_shape(parser)
    sec = parser["experiment"]
    kind = sec["kind"].strip().lower()
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"[experiment] unknown kind {kind!r}; "
                          f"choose from {EXPERIMENT_KINDS}")

    t_grid = np.array(_float_list("experiment", "t_grid", sec["t_grid"]))
    n_ladder = tuple(_float_list("experiment", "n_ladder", sec["n_ladder"]))
    band = (0.8, 1.2)
    if "band" in sec:
        band = _float_pair("experiment", "band", sec["band"])
        if not band[0] <= band[1]:
            raise ConfigError(f"[experiment] band: needs lo <= hi, got {sec['band']!r}")
    annulus = None
    if "annulus" in sec:
        annulus = _float_pair("experiment", "annulus", sec["annulus"])
        if not annulus[0] < annulus[1]:
            raise ConfigError(f"[experiment] annulus: needs K < L, got {sec['annulus']!r}")
    classify = None
    if "classify_lo" in sec or "classify_hi" in sec:
        if not ("classify_lo" in sec and "classify_hi" in sec):
            raise ConfigError("[experiment] classify_lo and classify_hi go together")
        classify = (_float("experiment", "classify_lo", sec["classify_lo"]),
                    _float("experiment", "classify_hi", sec["classify_hi"]))

    try:
        experiment = ExperimentConfig(
            density=density, schedule=schedule, shape=shape, t_grid=t_grid,
            n_ladder=n_ladder,
            replications=_int("experiment", "replications", sec["replications"]),
            master_seed=_int("experiment", "master_seed", sec.get("master_seed", "0")),
            workers=_int("experiment", "workers", sec.get("workers", "1")),
            oracle_samples=_int("experiment", "oracle_samples",
                                sec.get("oracle_samples", "400000")),
            t_ref=_float("experiment", "t_ref", sec.get("t_ref", "1.0")),
            band=band, annulus=annulus, classify_n_range=classify,
            kmax_census=_int("experiment", "kmax_census", sec.get("kmax_census", "3")),
        )
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return ParsedConfig(experiment=experiment, kind=kind, raw=parser)

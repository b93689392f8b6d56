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

from .atlas import GraphShape, named_shape, shape_from_edges
from .densities import (
    CoreSchedule,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerLawDensity,
    PowerSchedule,
    RadialDensity,
    RadiusSchedule,
    VonMisesDensity,
    WeakCoreSchedule,
)
from .harness import ExperimentConfig, ExperimentError


class ConfigError(ValueError):
    """Malformed configuration: unknown keys, missing fields, bad values."""


EXPERIMENT_KINDS = ("clt", "poisson_layer", "core", "palm")


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


# per schedule kind, its class and the keys it reads; a kind ignores the others
_SCHEDULE_KINDS = {
    "power": (PowerSchedule, {"c0": _float, "beta": _float}),
    "weak_core": (WeakCoreSchedule, {}),
    "core": (CoreSchedule, {"delta1": _float, "delta2": _float}),
    "poisson_layer": (PoissonLayerSchedule, {"k": _int}),
    "log_band": (LogBandSchedule, {"beta": _float}),
}
# the [experiment] keys that are ExperimentConfig fields; ``kind`` picks the runner
_EXPERIMENT_FIELDS = {
    "t_grid": _float_list, "n_ladder": _float_list, "replications": _int,
    "master_seed": _int, "workers": _int, "oracle_samples": _int, "t_ref": _float,
    "band": _float_pair, "annulus": _float_pair, "classify_n_range": _float_pair,
}
_SCHEMA = {
    "density": {"family", "d", "alpha", "tau"},
    "schedule": {"kind"}.union(*(keys for _, keys in _SCHEDULE_KINDS.values())),
    "shape": {"k", "name", "edges"},
    "experiment": {"kind", *_EXPERIMENT_FIELDS},
}
_REQUIRED = {
    "density": {"family", "d"},
    "schedule": {"kind"},
    "shape": {"k"},
    "experiment": {"kind", "t_grid", "n_ladder", "replications"},
}


def _read_section(section: str, values, readers: dict) -> dict:
    """The keys of ``readers`` that ``values`` holds, each read by its reader;
    an absent key is left to the dataclass default."""
    return {key: read(section, key, values[key]) for key, read in readers.items()
            if key in values}


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
    if kind not in _SCHEDULE_KINDS:
        raise ConfigError(f"[schedule] unknown kind {kind!r}")
    cls, readers = _SCHEDULE_KINDS[kind]
    return cls(**_read_section("schedule", sec, readers))


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

    fields = _read_section("experiment", sec, _EXPERIMENT_FIELDS)
    try:
        experiment = ExperimentConfig(density=density, schedule=schedule, shape=shape,
                                      **fields)
    except ExperimentError as exc:
        raise ConfigError(f"[experiment] {exc}") from exc
    return ParsedConfig(experiment=experiment, kind=kind, raw=parser)

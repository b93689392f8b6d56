"""CLI subcommands, config parsing, exit codes, and output determinism."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import rgglab
from rgglab import cli, kernels
from rgglab.atlas import build_atlas, named_shape
from rgglab.cli import _from_flags, build_parser, parse_and_dispatch
from rgglab.config import _SCHEMA, ConfigError, parse_config
from rgglab.counting import CountRequest, count_decomposed, make_cloud
from rgglab.densities import (
    CoreSchedule,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerSchedule,
    VonMisesDensity,
    WeakCoreSchedule,
    sample_poisson_cloud,
)
from rgglab.harness import ExperimentError, write_covariance_csv
from rgglab.limits import OracleParams, mixture_covariance

SMALL_CLT = """
[density]
family = power
d = 2
alpha = 4.0

[schedule]
kind = power
beta = 0.3

[shape]
k = 2
name = complete

[experiment]
kind = clt
t_grid = 0.6, 1.0
n_ladder = 1e4, 3e4
replications = 40
master_seed = 3
oracle_samples = 20000
band = 0.3, 3.0
"""


SMALL_POISSON_LAYER = """
[density]
family = power
d = 2
alpha = 4.0

[schedule]
kind = poisson_layer
k = 2

[shape]
k = 2
name = complete

[experiment]
kind = poisson_layer
t_grid = 1.0
n_ladder = 1e4
replications = 200
master_seed = 1
t_ref = 1.0
"""

SMALL_CORE = """
[density]
family = power
d = 2
alpha = 4.0

[schedule]
kind = core
delta1 = 0.125
delta2 = 0.5

[shape]
k = 2
name = complete

[experiment]
kind = core
t_grid = 1.0
n_ladder = 1e4
replications = 4
master_seed = 1
"""


def _child_env() -> dict:
    """The environment of a child that imports the same rgglab as this process."""
    package_root = str(Path(rgglab.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atlas_subcommand(capsys):
    code, out, _ = run_cli(capsys, "atlas", "--k", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_atlas_bad_order(capsys):
    code, _, err = run_cli(capsys, "atlas", "--k", "9")
    assert code == 2
    assert "configuration error" in err


def test_module_entry_point():
    """``python -m rgglab.cli`` dispatches, exit code included."""
    env = _child_env()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rgglab.cli", *argv],
                              capture_output=True, text=True, env=env)

    bad = run("atlas", "--k", "8")
    assert bad.returncode == 2
    assert "configuration error" in bad.stderr
    good = run("atlas", "--k", "3")
    assert good.returncode == 0, good.stderr
    assert good.stdout == build_atlas(3).export_text()   # the path and the triangle


def test_radii_subcommand(capsys, power24):
    code, out, _ = run_cli(capsys, "radii", "--family", "power", "--d", "2",
                           "--alpha", "4", "--n", "1e5")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,R_weak,R_core")
    r_weak = float(row.split(",")[1])
    assert r_weak == pytest.approx((power24.C * 1e5) ** 0.25, rel=1e-3)


def test_sample_and_count_roundtrip(capsys):
    """``count`` run with ``sample``'s flags prints the counts that
    ``count_decomposed`` gives on the points ``sample`` prints, for a full
    and an exterior cloud, K2 and the 3-path: the seed fixes the cloud, and
    ``--R`` is both the sampling and the counting exclusion radius.  The
    full cloud is almost all core, so its grid stops at a small radius."""
    density = ("--family", "power", "--d", "2", "--alpha", "4")
    for cloud_flags, R, grid in ((("--n", "500", "--seed", "9"), 0.0, "0.1,0.2,0.3"),
                                 (("--n", "2e4", "--seed", "4", "--R", "6"), 6.0, "0.5,1.0,1.5")):
        t_grid = np.array(grid.split(","), dtype=float)
        code, out, _ = run_cli(capsys, "sample", *density, *cloud_flags)
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "x0,x1"
        points = np.array([row.split(",") for row in rows], dtype=float)
        assert len(points) > 300 and (np.linalg.norm(points, axis=1) >= R).all()
        for k, shape in (("2", "complete"), ("3", "path")):
            req = CountRequest(shape=named_shape(int(k), shape), t_grid=t_grid, R=R)
            expected = np.stack([curve.counts
                                 for curve in count_decomposed(make_cloud(points), req)], axis=1)
            assert expected[-1, 0] > 0
            code, out, _ = run_cli(capsys, "count", *density, *cloud_flags,
                                   "--k", k, "--shape-name", shape, "--t-grid", grid)
            assert code == 0
            header, *lines = out.splitlines()
            assert header == "seed,t,count_h,count_plus,count_minus"
            seed = cloud_flags[3]
            assert [line.split(",")[:2] for line in lines] == [[seed, repr(float(t))] for t in t_grid]
            got = np.array([line.split(",")[2:] for line in lines], dtype=np.int64)
            assert np.array_equal(got, expected), (cloud_flags, shape)


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--kind", "L", "--d", "2", "--k", "2",
                           "--ell", "2", "--alpha", "4", "--t-grid", "1.0",
                           "--samples", "50000", "--seed", "1")
    assert code == 0
    provenance, header, row = out.strip().splitlines()
    assert provenance.startswith("# provenance: ") and header == "t,s,value,std_err"
    value = float(row.split(",")[2])
    assert value == pytest.approx(math.pi ** 2 / 6, rel=0.05)
    # the Brownian check prints its scalar fields as JSON, and its verdict is the exit code
    code, out, _ = run_cli(capsys, "oracle", "--kind", "brownian", "--d", "2", "--k", "2",
                           "--ell", "2", "--alpha", "4", "--t-grid", "0.5,1.0",
                           "--samples", "50000", "--seed", "1")
    report = json.loads(out)
    assert set(report) == {"K_hat", "K_se", "exponent", "max_z", "mode", "passed"}
    assert report["mode"] == "plus" and report["exponent"] == 2
    assert report["passed"] is True and code == 0
    assert report["K_hat"] == pytest.approx(math.pi ** 2 / 6, rel=0.05)
    # h is not a Brownian mode: refused, not read as plus
    code, out, err = run_cli(capsys, "oracle", "--kind", "brownian", "--d", "2", "--k", "2",
                             "--ell", "2", "--alpha", "4", "--t-grid", "0.5,1.0",
                             "--samples", "50000", "--seed", "1", "--mode", "h")
    assert code == 2 and out == ""
    assert err == "configuration error: mode must be 'plus' or 'minus'\n"


def test_oracle_flags_keep_library_defaults(capsys, monkeypatch):
    """Without ``--samples``, ``--seed`` or ``--mode`` the oracle runs on
    ``OracleParams``' and ``covariance_L``'s own defaults."""
    seen = []
    real = cli.covariance_L

    def recording(params, **kwargs):
        seen.append((params, kwargs))
        return real(OracleParams(**{**vars(params), "n_samples": 20_000}), **kwargs)

    monkeypatch.setattr(cli, "covariance_L", recording)
    code, _, _ = run_cli(capsys, "oracle", "--kind", "L", "--d", "2", "--k", "2", "--ell", "2",
                         "--alpha", "4", "--t-grid", "1.0")
    assert code == 0
    (params, kwargs), = seen
    defaults = OracleParams(d=2, ell=2, shape=named_shape(2, "complete"), t_grid=[1.0],
                            alpha=4.0)
    assert (params.n_samples, params.seed, kwargs) == (defaults.n_samples, defaults.seed, {})


def test_regime_subcommand(capsys):
    code, out, _ = run_cli(capsys, "regime", "--family", "power", "--d", "2",
                           "--alpha", "4", "--schedule", "power", "--beta", "0.3",
                           "--n-range", "1e2,1e6")
    assert code == 0
    assert "# regime: sparse" in out
    assert "# growth_condition: pass" in out


def test_experiment_run_and_echo_roundtrip(capsys, tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_CLT)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--out", str(out_dir))
    assert code == 0, out
    assert (out_dir / "manifest.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "raw_curves" in manifest["artifacts"]
    # the echoed effective config re-parses to an identical run
    echoed = parse_config(out_dir / "effective_config.ini")
    original = parse_config(cfg_path)
    assert echoed.kind == original.kind
    assert echoed.experiment.n_ladder == original.experiment.n_ladder
    assert np.array_equal(echoed.experiment.t_grid, original.experiment.t_grid)
    assert echoed.experiment.master_seed == original.experiment.master_seed
    assert echoed.experiment.shape.canonical_form == original.experiment.shape.canonical_form


def test_experiment_workers_byte_identical(capsys, tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_CLT)
    digests = []
    for workers in ("1", "8"):
        out_dir = tmp_path / f"w{workers}"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out", str(out_dir), "--set", f"experiment.workers={workers}")
        assert code == 0
        blobs = {}
        for p in sorted(out_dir.iterdir()):
            data = p.read_bytes()
            if p.name == "effective_config.ini":
                # echo includes the workers override itself
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"workers"))
            blobs[p.name] = data
        digests.append(blobs)
    assert digests[0] == digests[1]


def test_experiment_set_override(capsys, tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_CLT)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                         "--set", "experiment.replications=25",
                         "--out", str(out_dir))
    assert code == 0
    echoed = parse_config(out_dir / "effective_config.ini")
    assert echoed.experiment.replications == 25
    out_dir = tmp_path / "seed"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                         "--out", str(out_dir), "--set", "experiment.master_seed=5")
    assert code == 0
    assert parse_config(out_dir / "effective_config.ini").experiment.master_seed == 5
    assert "seed_audit.master_seed: 5\n" in (out_dir / "report.txt").read_text()


def test_removed_settings_exit_2(capsys, tmp_path):
    """Settings that no longer exist are refused with exit code 2 and an
    error message, never a traceback."""
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_CLT)
    for flags, message in (
        (["--set", "experiment.classify_lo=1e2"],
         "configuration error: override names unknown field [experiment] classify_lo"),
        (["--set", "experiment.kmax_census=3"],
         "configuration error: override names unknown field [experiment] kmax_census"),
        (["--set", "schedule.kind=table"], "configuration error: [schedule] unknown kind 'table'"),
        (["--set", "experiment.kind=annuli_census"],
         "configuration error: [experiment] unknown kind 'annuli_census'"),
        (["--seed", "5"], "unrecognized arguments: --seed 5"),
        (["--workers", "2"], "unrecognized arguments: --workers 2"),
    ):
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), *flags)
        assert code == 2 and out == "", flags
        assert message in err and "Traceback" not in err, flags
    for key in ("classify_lo", "kmax_census"):
        cfg_path.write_text(SMALL_CLT.replace("[experiment]", f"[experiment]\n{key} = 3"))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 2 and out == "", key
        assert err == f"configuration error: unknown key {key!r} in section [experiment]\n"


def test_missing_field_exit_2_no_partial_output(capsys, tmp_path):
    bad = SMALL_CLT.replace("t_grid = 0.6, 1.0\n", "")
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(bad)
    out_dir = tmp_path / "never"
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--out", str(out_dir))
    assert code == 2
    assert "t_grid" in err
    assert not out_dir.exists()


def test_unknown_key_rejected(capsys, tmp_path):
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(SMALL_CLT + "\n[experiment]\n")
    cfg_path.write_text(SMALL_CLT.replace("[experiment]", "[experiment]\ntypo_key = 1"))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 2
    assert "typo_key" in err


def test_malformed_ini_exit_2(capsys, tmp_path):
    """INI text that configparser cannot read is a ``ConfigError``, from a
    file through ``rgglab experiment --config`` (exit 2) and as text."""
    for name, text in (("no_header", "family = power\n" + SMALL_CLT),
                       ("duplicate", SMALL_CLT.replace("d = 2\n", "d = 2\nd = 3\n")),
                       ("open_bracket", SMALL_CLT.replace("[shape]", "[shape"))):
        with pytest.raises(ConfigError, match="^malformed config: "):
            parse_config(text=text)
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(text)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                                 "--out", str(tmp_path / name))
        assert code == 2 and out == "", name
        assert err.startswith("configuration error: malformed config: "), name
        assert not (tmp_path / name).exists()


def test_override_creates_a_missing_section():
    """``--set shape.k=2`` on a config with no ``[shape]`` section adds the
    section, and the echoed config re-parses to the same run."""
    start = SMALL_CLT.index("[shape]")
    text = SMALL_CLT[:start] + SMALL_CLT[SMALL_CLT.index("[experiment]"):]
    with pytest.raises(ConfigError, match=r"missing required section \[shape\]"):
        parse_config(text=text)
    parsed = parse_config(text=text, overrides=["shape.k=2"])
    assert dict(parsed.raw["shape"]) == {"k": "2"}
    assert parsed.experiment.shape.canonical_form == named_shape(2, "complete").canonical_form
    echoed = parse_config(text=parsed.echo())
    assert echoed.echo() == parsed.echo()
    assert echoed.experiment.shape.canonical_form == parsed.experiment.shape.canonical_form


def test_broken_classifier_fails_the_decomposition_check(capsys, tmp_path, monkeypatch):
    """A classifier that also marks some shape rows as denser breaks
    G = G+ - G-: the CLT run reports ``decomposition_exact_all`` False and
    ``rgglab experiment`` exits 1."""
    accumulate = kernels.accumulate_curves

    def broken(*args):
        h, minus = accumulate(*args)
        minus[::7] |= h[::7]
        return h, minus

    monkeypatch.setattr(kernels, "accumulate_curves", broken)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_CLT)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--out", str(out_dir))
    assert code == 1
    assert "FAIL clt.decomposition_exact_all\n" in out
    assert "flag.decomposition_exact_all: False\n" in (out_dir / "report.txt").read_text()
    assert json.loads((out_dir / "manifest.json").read_text())["flags"][
        "decomposition_exact_all"] is False


def test_config_parser_validation(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(text=SMALL_CLT.replace("[density]", "[densety]"))
    with pytest.raises(ConfigError):
        parse_config(text=SMALL_CLT, overrides=["experiment.bogus=1"])
    with pytest.raises(ConfigError):
        parse_config(text=SMALL_CLT, overrides=["no_dot"])
    with pytest.raises(ConfigError):
        parse_config(path=tmp_path / "absent.ini")
    # family/parameter mismatches
    with pytest.raises(ConfigError):
        parse_config(text=SMALL_CLT.replace("alpha = 4.0", "tau = 1.0"))
    # band, annulus and classify_n_range take exactly two numbers; a band
    # needs lo <= hi and an annulus K < L, which NaN and -inf bounds fail
    for key, value in (("band", "0.5"), ("band", "0.5, 1, 2"), ("band", "nan, 2"),
                       ("band", "3, 2"), ("annulus", "1.0"),
                       ("annulus", "1.0, nan"), ("annulus", "1.0, -inf"),
                       ("annulus", "nan, 2"), ("annulus", "2, 1"),
                       ("classify_n_range", "1e2"), ("classify_n_range", "1e2, 1e4, 1e6"),
                       ("classify_n_range", "1e2, x"),
                       # a t-grid is finite, nonnegative and strictly ascending
                       ("t_grid", "2.5, 2.0, 1.5, 1.0, 0.5"), ("t_grid", "0.5, inf"),
                       ("t_grid", "nan"), ("t_grid", "-0.5, 1"), ("t_grid", "1, 1"),
                       ("master_seed", "-5")):
        with pytest.raises(ConfigError, match=rf"^\[experiment\] {key}: "):
            parse_config(text=SMALL_CLT, overrides=[f"experiment.{key}={value}"])
    with pytest.raises(ExperimentError, match=r"^t_grid: "):     # no parsed list is empty
        replace(parse_config(text=SMALL_CLT).experiment, t_grid=[])
    parsed = parse_config(text=SMALL_CLT, overrides=["experiment.annulus=1.0, inf"])
    assert parsed.experiment.annulus == (1.0, math.inf)
    # the atlas's refusals of an edge list are [shape] errors, as a bad name is
    for shape, message in (("k = 3\nedges = 0-0", "bad edge (0,0) for k=3"),
                           ("k = 3\nedges = 0-1", "edge list describes a disconnected graph"),
                           ("k = 3\nname = edge", "shape 'edge' needs k = 2"),
                           ("k = 2.5\nname = complete", "k: expected an integer, got '2.5'"),
                           ("k = 2\nname = path\nedges = 0-1",
                            "give either name or edges, not both")):
        with pytest.raises(ConfigError, match=r"^\[shape\] ") as info:
            parse_config(text=SMALL_CLT.replace("k = 2\nname = complete", shape))
        assert str(info.value) == f"[shape] {message}", shape
    for override, message in (
        ("experiment.t_grid= , ", "[experiment] t_grid: expected a comma list of numbers"),
        ("density.family=gauss", "[density] unknown family 'gauss'"),
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(text=SMALL_CLT, overrides=[override])
        assert str(info.value) == message, override
    with pytest.raises(ConfigError, match="^no configuration given$"):
        parse_config()


def test_readme_ini_example_parses():
    """The README's configuration example is a valid config, key for key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parsed = parse_config(text=block)
    assert parsed.kind == "clt"
    assert parsed.experiment.density.family == "power"
    assert parsed.experiment.shape.k == 2
    assert parsed.experiment.band == (0.8, 1.2)
    # every key the parser accepts is named in its section, set or as a comment
    sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
    assert sections.keys() == _SCHEMA.keys()
    for section, keys in _SCHEMA.items():
        named = set(re.findall(r"^;? ?(\w+) = ", sections[section], re.M))
        assert named == keys, section


def test_readme_cli_examples_parse():
    """Every ``rgglab ...`` line of the README's command-line block parses,
    with ``\\`` continuations joined and ``#`` comments dropped; the lines
    cover every subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    parser = build_parser()
    seen = set()
    for argv in filter(None, lines):
        assert argv[0] == "rgglab", argv
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
        seen.add(args.command)
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    assert seen == subcommands.keys()


def test_shipped_config_parses_and_echoes():
    """``configs/heavy_sparse_clt.ini`` parses, classification range
    included, and its echo re-parses to the same run."""
    path = Path(__file__).resolve().parents[1] / "configs" / "heavy_sparse_clt.ini"
    parsed = parse_config(path)
    cfg = parsed.experiment
    assert parsed.kind == "clt"
    assert cfg.classify_n_range == (1e2, 1e6)
    echoed = parse_config(text=parsed.echo())
    assert echoed.echo() == parsed.echo()
    again = echoed.experiment
    for name in ("n_ladder", "replications", "master_seed", "workers", "oracle_samples",
                 "t_ref", "band", "annulus", "classify_n_range", "schedule"):
        assert getattr(again, name) == getattr(cfg, name), name
    assert np.array_equal(again.t_grid, cfg.t_grid)
    assert (again.density.family, again.density.d, again.density.alpha, again.density.C) == \
        (cfg.density.family, cfg.density.d, cfg.density.alpha, cfg.density.C)
    assert again.shape.canonical_form == cfg.shape.canonical_form


def test_usage_error_exit_2(capsys):
    assert parse_and_dispatch(["radii", "--family", "power"]) == 2
    capsys.readouterr()


def _run_with_scipy_blocked(cwd, runs):
    """Run each argv of ``runs`` through ``parse_and_dispatch`` in one fresh
    interpreter in which ``import scipy`` fails; return the exit codes and
    the scipy submodules that ended up loaded."""
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None   # any import of scipy now raises\n"
        "from rgglab.cli import parse_and_dispatch\n"
        f"codes = [parse_and_dispatch(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy.'))]))\n"
    )
    child = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                           capture_output=True, text=True, env=_child_env())
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_experiments_never_import_scipy_stats(tmp_path):
    """All four experiment kinds run in a fresh interpreter in which
    ``import scipy`` fails; the chi-square p-value the Poisson-layer run
    reports is scipy's within 1e-12 relative."""
    for name, text in (("clt", SMALL_CLT), ("core", SMALL_CORE),
                       ("layer", SMALL_POISSON_LAYER)):
        (tmp_path / f"{name}.ini").write_text(text)
    experiments = [
        ["--config", "clt.ini", "--out", "clt"],
        ["--config", "core.ini", "--out", "core"],
        ["--config", "layer.ini", "--out", "layer"],
        ["--config", "clt.ini", "--out", "palm", "--set", "experiment.kind=palm",
         "--set", "experiment.replications=10"],
    ]
    codes, loaded = _run_with_scipy_blocked(tmp_path, [["experiment", *argv] for argv in experiments])
    assert set(codes) <= {0, 1}, codes   # each ran to a verdict, pass or fail
    assert loaded == []
    header, row = (tmp_path / "layer" / "summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), row.split(",")))
    assert int(summary["dof"]) >= 1
    assert float(summary["p_value"]) == pytest.approx(
        stats.chi2.sf(float(summary["chi2"]), int(summary["dof"])), rel=1e-12, abs=0)


def test_commands_never_import_scipy(tmp_path):
    """The ``atlas``, ``radii``, ``sample``, ``count``, ``oracle`` and
    ``regime`` commands each succeed in a fresh interpreter in which
    ``import scipy`` fails."""
    density = ["--family", "power", "--d", "2", "--alpha", "4"]
    commands = [
        ["atlas", "--k", "3"],
        ["radii", *density, "--n", "1e5"],
        ["sample", *density, "--n", "200", "--seed", "2"],
        ["count", *density, "--n", "1e4", "--R", "5", "--seed", "2",
         "--k", "2", "--t-grid", "0.5,1.0"],
        ["oracle", "--kind", "L", "--d", "2", "--k", "2", "--ell", "2", "--alpha", "4",
         "--t-grid", "1.0", "--samples", "20000", "--seed", "1"],
        ["regime", *density, "--schedule", "power", "--n-range", "1e2,1e4"],
    ]
    codes, loaded = _run_with_scipy_blocked(tmp_path, commands)
    assert codes == [0] * 6, codes
    assert loaded == []


def test_density_and_shape_flags_follow_config_rules(capsys):
    base = ("radii", "--d", "2", "--n", "1e5")
    for flags, message in (
        (("--family", "power", "--alpha", "4", "--tau", "1"), "tau is a von Mises parameter"),
        (("--family", "vonmises", "--tau", "1", "--alpha", "4"), "alpha is a power-law parameter"),
        (("--family", "power"), "power family needs alpha"),
        (("--family", "vonmises"), "vonmises family needs tau"),
    ):
        code, out, err = run_cli(capsys, *base, *flags)
        assert code == 2 and out == "", flags
        assert f"configuration error: [density] {message}" in err
    count = ("count", "--family", "power", "--d", "2", "--alpha", "4", "--n", "200",
             "--k", "3", "--t-grid", "1.0")
    for edges in ("0-1;1-x", "0-1-2", "0-1;2"):
        code, out, err = run_cli(capsys, *count, "--edges", edges)
        assert code == 2 and out == "", edges
        assert "configuration error: [shape] bad edge" in err
    code, _, err = run_cli(capsys, *count, "--shape-name", "no_such_shape")
    assert code == 2 and "configuration error: [shape]" in err
    code, out, _ = run_cli(capsys, *count, "--edges", "0-1; 1-2;")
    assert code == 0
    assert out == run_cli(capsys, *count, "--shape-name", "path")[1]


def test_oracle_annulus_flags_restrict_or_are_refused(capsys):
    light = ("oracle", "--kind", "M", "--d", "2", "--k", "2", "--ell", "2", "--c", "1",
             "--t-grid", "1", "--samples", "20000", "--seed", "1")
    code, full, _ = run_cli(capsys, *light)
    assert code == 0
    code, restricted, _ = run_cli(capsys, *light, "--annulus", "0.5,1")
    assert code == 0
    assert float(restricted.splitlines()[2].split(",")[2]) < float(full.splitlines()[2].split(",")[2])
    heavy = ("--d", "2", "--k", "2", "--alpha", "4", "--t-grid", "1", "--samples", "20000")
    for kind in ("L", "brownian"):
        code, out, err = run_cli(capsys, "oracle", "--kind", kind, *heavy, "--annulus", "1.5,3")
        assert code == 2 and out == "", kind
        assert "configuration error: annulus restriction" in err
    # a heavy annulus starts at K = 1, a multiple of R
    code, out, err = run_cli(capsys, "oracle", "--kind", "mixture", "--regime", "sparse",
                             *heavy, "--annulus", "0.5,2")
    assert code == 2 and out == ""
    assert err == "configuration error: annulus needs 1 <= K < L, got (0.5, 2.0)\n"


def test_oracle_prints_the_report_csv(capsys):
    """``oracle`` prints what ``write_covariance_csv`` writes into a report,
    provenance line included; the rows are the ones the command printed when
    the annulus was spelled ``--K 1 --L 2``."""
    code, out, err = run_cli(capsys, "oracle", "--kind", "mixture", "--d", "2", "--k", "2",
                             "--alpha", "4", "--regime", "sparse",
                             "--t-grid", "0.5,1", "--samples", "20000", "--seed", "1",
                             "--annulus", "1,2")
    assert code == 0 and err == ""
    params = OracleParams(d=2, ell=2, shape=named_shape(2, "complete"), t_grid=[0.5, 1.0],
                          alpha=4.0, annulus=(1.0, 2.0), n_samples=20_000, seed=1)
    buf = io.StringIO()
    write_covariance_csv(mixture_covariance("sparse", params), buf)
    assert out == buf.getvalue()
    assert out.splitlines()[0] == ('# provenance: {"annulus": [1.0, 2.0], '
                                   '"formula": "mixture_heavy_sparse", "xi": null}')
    assert out.splitlines()[1:] == [
        "t,s,value,std_err",
        "0.5,0.5,0.42488646946689684,0.011338938467685732",
        "0.5,1.0,0.42488646946689684,0.011338938467685732",
        "1.0,0.5,0.42488646946689684,0.011338938467685732",
        "1.0,1.0,1.6548550754389046,0.019974773676262637",
    ]


def test_bad_input_is_a_typed_error_exit_2(capsys, tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_CLT)
    experiment = ("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                  "--set")
    oracle = ("oracle", "--kind", "L", "--k", "2", "--ell", "2", "--alpha", "4",
              "--samples", "20000")
    count = ("count", "--family", "power", "--d", "2", "--alpha", "4", "--n", "200",
             "--k", "2", "--t-grid")
    for argv, message in (
        (("regime", "--family", "vonmises", "--d", "2", "--tau", "2", "--schedule",
          "weak_core", "--n-range", "1e2,1e6"), "superexponential tail"),
        ((*oracle, "--d", "0", "--t-grid", "1"), "dimension d must be >= 1"),
        ((*oracle, "--d", "2", "--t-grid", "nan"), "t_grid must be a nonempty nonnegative"),
        ((*oracle, "--d", "2", "--t-grid", "0.5,inf"), "t_grid must be a nonempty nonnegative"),
        ((*oracle, "--d", "2", "--t-grid", "1", "--annulus", "1"),
         "[oracle] --annulus: expected two numbers"),
        ((*count, "nan"), "t_grid must be nonnegative"),
        ((*count, "1", "--R", "-1"), "exclusion radius must be >= 0, got -1.0"),
        (("oracle", "--kind", "L", "--d", "2", "--k", "2", "--ell", "2", "--alpha", "nan",
          "--t-grid", "1", "--samples", "5000"), "divergent block constant"),
        (("oracle", "--kind", "mixture", "--regime", "critical", "--xi", "inf", "--d", "2",
          "--k", "2", "--alpha", "4", "--t-grid", "1", "--samples", "5000"),
         "critical mixture needs a finite positive xi"),
        (("oracle", "--kind", "mixture", "--d", "2", "--k", "2", "--ell", "1", "--alpha", "4",
          "--t-grid", "1", "--samples", "5000"),
         "[oracle] --ell: a mixture sums its own blocks; drop --ell"),
        ((*count, "1", "--annulus", "1,nan"), "annulus needs K < L"),
        ((*count, "1", "--annulus", "1,-inf"), "annulus needs K < L"),
        ((*count, "1", "--annulus", "1"), "[count] --annulus: expected two numbers"),
        ((*count, "1", "--annulus", "1,2"), "annulus [0.0, 0.0) needs 0 <= lo < hi"),
        (("count", "--family", "vonmises", "--tau", "1.5", "--d", "2", "--n", "200", "--k", "2",
          "--t-grid", "1", "--annulus", "0,1"), "a(R)-scaled annulus needs R > 0, got R = 0.0"),
        ((*count, "1.0,x"), "[count] --t-grid: expected a number, got 'x'"),
        (("sample", "--family", "power", "--d", "2", "--alpha", "4", "--n", "200",
          "--R", "inf"), "exterior radius must be finite, got inf"),
        ((*count, "1", "--R", "nan"), "exterior radius must be finite, got nan"),
        (("sample", "--family", "power", "--d", "2", "--alpha", "4", "--n", "200",
          "--R", "-1"), "exclusion radius must be >= 0, got -1.0"),
        (("sample", "--family", "power", "--d", "2", "--alpha", "4", "--n", "200",
          "--R=-inf"), "exterior radius must be finite, got -inf"),
        (("sample", "--family", "power", "--d", "2", "--alpha", "4", "--n", "nan"),
         "intensity must be positive and finite, got nan"),
        (("regime", "--family", "power", "--d", "2", "--alpha", "4", "--schedule",
          "power", "--n-range", "1e2"), "[regime] --n-range: expected two numbers"),
        ((*experiment, "experiment.t_ref=nan"), "[experiment] t_ref: needs a finite value"),
        ((*experiment, "experiment.t_ref=-inf"), "[experiment] t_ref: needs a finite value"),
        ((*experiment, "experiment.workers=-3"), "[experiment] workers: needs at least 1, got -3"),
        ((*experiment, "experiment.workers=0"), "[experiment] workers: needs at least 1, got 0"),
        ((*experiment, "experiment.t_grid=0.5, inf"),
         "[experiment] t_grid: needs a nonempty, finite, nonnegative and strictly ascending "
         "list, got [0.5, inf]"),
        ((*experiment, "experiment.master_seed=-5"),
         "[experiment] master_seed: needs at least 0, got -5"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # a numpy warning is not a typed error
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"configuration error: {message}" in err, argv
        assert err.startswith("configuration error: ") and err.count("\n") == 1, argv


def test_process_exits_with_the_helper_thread_idle():
    """A full cloud above one chunk fills its directions on the helper
    thread, and the idle helper does not hold the interpreter open."""
    code = ("import threading, numpy as np\n"
            "from rgglab.densities import PowerLawDensity\n"
            "PowerLawDensity(2, 4.0).sample(np.random.default_rng(1), 20000)\n"
            "print(threading.active_count())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2\n"                # the main thread and the helper


def test_count_annulus_in_the_family_units(capsys):
    """A von Mises ``--annulus K,L`` is the shell [R + K a(R), R + L a(R))."""
    density = VonMisesDensity(2, 0.5)
    cloud = sample_poisson_cloud(1000.0, density, np.random.default_rng(4),
                                 exterior_radius=10.0, seed=4)
    req = CountRequest(shape=named_shape(2, "complete"), t_grid=np.array([0.5, 1.0, 2.0]),
                       R=10.0, annulus=density.annulus_bounds(10.0, 0.0, 0.5))
    expected = np.stack([curve.counts for curve in count_decomposed(cloud, req)], axis=1)
    assert expected[-1, 0] > 0
    code, out, _ = run_cli(capsys, "count", "--family", "vonmises", "--d", "2", "--tau", "0.5",
                           "--n", "1000", "--R", "10", "--seed", "4", "--k", "2",
                           "--t-grid", "0.5,1.0,2.0", "--annulus", "0,0.5")
    assert code == 0
    rows = [line.split(",")[2:] for line in out.strip().splitlines()[1:]]
    assert np.array_equal(np.array(rows, dtype=np.int64), expected)


def test_schedule_flags_follow_config_builder():
    regime = ("regime", "--family", "power", "--d", "2", "--alpha", "4",
              "--n-range", "1e2,1e6", "--schedule")
    expected = {
        "power": PowerSchedule(c0=2.0, beta=0.25), "weak_core": WeakCoreSchedule(),
        "core": CoreSchedule(), "poisson_layer": PoissonLayerSchedule(k=3),
        "log_band": LogBandSchedule(beta=0.25),
    }
    for kind, schedule in expected.items():
        args = build_parser().parse_args(
            [*regime, kind, "--beta", "0.25", "--c0", "2", "--layer-k", "3"])
        text = SMALL_CLT.replace("kind = power\nbeta = 0.3",
                                 f"kind = {kind}\nbeta = 0.25\nc0 = 2\nk = 3")
        got = _from_flags(args, "schedule")
        assert got == parse_config(text=text).experiment.schedule == schedule, kind
        # with no parameter flag, each kind keeps the config's defaults
        args = build_parser().parse_args([*regime, kind])
        text = SMALL_CLT.replace("kind = power\nbeta = 0.3", f"kind = {kind}")
        assert _from_flags(args, "schedule") == parse_config(text=text).experiment.schedule
    args = build_parser().parse_args([*regime, "log_band"])
    assert _from_flags(args, "schedule") == LogBandSchedule()

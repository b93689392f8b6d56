"""CLI subcommands, config parsing, exit codes, and output determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import rgglab
from rgglab.atlas import build_atlas, named_shape
from rgglab.cli import _schedule_from_args, build_parser, parse_and_dispatch
from rgglab.config import ConfigError, parse_config
from rgglab.counting import (
    CloudFormatError,
    CountRequest,
    count_decomposed,
    load_cloud,
    make_cloud,
    save_cloud,
)
from rgglab.densities import (
    CoreSchedule,
    LogBandSchedule,
    PoissonLayerSchedule,
    PowerSchedule,
    VonMisesDensity,
    WeakCoreSchedule,
    sample_poisson_cloud,
)

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


def test_count_unreadable_cloud_exit_2(capsys, tmp_path):
    whole = tmp_path / "whole.bin"
    save_cloud(whole, make_cloud(np.arange(12.0).reshape(6, 2), seed=1))
    blob = whole.read_bytes()
    (tmp_path / "ten.bin").write_bytes(blob[:10])
    (tmp_path / "short.bin").write_bytes(blob[:-8])
    (tmp_path / "long.bin").write_bytes(blob + blob[-8:])
    for name in ("ten.bin", "short.bin", "long.bin"):
        with pytest.raises(CloudFormatError):
            load_cloud(tmp_path / name)
    for name in ("missing.bin", "ten.bin", "short.bin"):
        code, out, err = run_cli(capsys, "count", "--family", "power", "--d", "2",
                                 "--alpha", "4", "--cloud", str(tmp_path / name),
                                 "--k", "2", "--t-grid", "1.0")
        assert code == 2, name
        assert "unreadable cloud" in err and out == ""
    assert len(load_cloud(whole)) == 6


def test_radii_subcommand(capsys, power24):
    code, out, _ = run_cli(capsys, "radii", "--family", "power", "--d", "2",
                           "--alpha", "4", "--n", "1e5")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,R_weak,R_core")
    r_weak = float(row.split(",")[1])
    assert r_weak == pytest.approx((power24.C * 1e5) ** 0.25, rel=1e-3)


def test_sample_and_count_roundtrip(capsys, tmp_path):
    cloud_path = tmp_path / "cloud.bin"
    code, _, _ = run_cli(capsys, "sample", "--family", "power", "--d", "2",
                         "--alpha", "4", "--n", "500", "--seed", "9",
                         "--binary-out", str(cloud_path))
    assert code == 0
    cloud = load_cloud(cloud_path)
    assert cloud.d == 2 and len(cloud) > 300
    code, out, _ = run_cli(capsys, "count", "--family", "power", "--d", "2",
                           "--alpha", "4", "--cloud", str(cloud_path),
                           "--k", "2", "--t-grid", "0.5,1.0", "--R", "2.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,t,count_h,count_plus,count_minus"
    assert len(lines) == 3
    assert all(line.startswith("9,") for line in lines[1:])   # the header's seed


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--kind", "L", "--d", "2", "--k", "2",
                           "--ell", "2", "--alpha", "4", "--t-grid", "1.0",
                           "--samples", "50000", "--seed", "1")
    assert code == 0
    _, row = out.strip().splitlines()
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
                       ("classify_n_range", "1e2, x")):
        with pytest.raises(ConfigError, match=rf"^\[experiment\] {key}: "):
            parse_config(text=SMALL_CLT, overrides=[f"experiment.{key}={value}"])
    parsed = parse_config(text=SMALL_CLT, overrides=["experiment.annulus=1.0, inf"])
    assert parsed.experiment.annulus == (1.0, math.inf)


def test_readme_ini_example_parses():
    """The README's configuration example is a valid config, key for key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parsed = parse_config(text=block)
    assert parsed.kind == "clt"
    assert parsed.experiment.density.family == "power"
    assert parsed.experiment.shape.k == 2
    assert parsed.experiment.band == (0.8, 1.2)


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
        ["atlas", "--k", "3", "--out", "atlas.txt"],
        ["radii", *density, "--n", "1e5", "--out", "radii.csv"],
        ["sample", *density, "--n", "200", "--seed", "2", "--out", "cloud.csv"],
        ["count", *density, "--n", "1e4", "--exterior-radius", "5", "--seed", "2",
         "--k", "2", "--t-grid", "0.5,1.0", "--R", "5", "--out", "count.csv"],
        ["oracle", "--kind", "L", "--d", "2", "--k", "2", "--ell", "2", "--alpha", "4",
         "--t-grid", "1.0", "--samples", "20000", "--seed", "1", "--out", "oracle.csv"],
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
    code, restricted, _ = run_cli(capsys, *light, "--K", "0.5", "--L", "1")
    assert code == 0
    assert float(restricted.splitlines()[1].split(",")[2]) < float(full.splitlines()[1].split(",")[2])
    heavy = ("--d", "2", "--k", "2", "--ell", "2", "--alpha", "4", "--t-grid", "1",
             "--samples", "20000", "--K", "1.5", "--L", "3")
    for kind in ("L", "brownian"):
        code, out, err = run_cli(capsys, "oracle", "--kind", kind, *heavy)
        assert code == 2 and out == "", kind
        assert "configuration error: annulus restriction" in err
    # a heavy mixture's missing --K is the family's start, K = 1 (a multiple of R)
    mixture = ("oracle", "--kind", "mixture", "--d", "2", "--k", "2", "--ell", "1",
               "--alpha", "4", "--L", "2", "--regime", "sparse", "--t-grid", "0.5,1")
    code, out, err = run_cli(capsys, *mixture)
    assert code == 0 and err == ""
    assert out == run_cli(capsys, *mixture, "--K", "1")[1]


def test_bad_input_is_a_typed_error_exit_2(capsys):
    oracle = ("oracle", "--kind", "L", "--k", "2", "--ell", "2", "--alpha", "4",
              "--samples", "20000")
    count = ("count", "--family", "power", "--d", "2", "--alpha", "4", "--n", "200",
             "--k", "2", "--t-grid")
    for argv, message in (
        (("regime", "--family", "vonmises", "--d", "2", "--tau", "2", "--schedule",
          "weak_core", "--n-range", "1e2,1e6"), "superexponential tail"),
        ((*oracle, "--d", "0", "--t-grid", "1"), "dimension d must be >= 1"),
        ((*oracle, "--d", "2", "--t-grid", "nan"), "t_grid must be a nonempty nonnegative"),
        ((*count, "nan"), "t_grid must be nonnegative"),
        ((*count, "1", "--annulus", "1,nan"), "annulus needs K < L"),
        ((*count, "1", "--annulus", "1,-inf"), "annulus needs K < L"),
        ((*count, "1", "--annulus", "1"), "[count] --annulus: expected two numbers"),
        ((*count, "1", "--annulus", "1,2"), "annulus [0.0, 0.0) needs 0 <= lo < hi"),
        (("count", "--family", "vonmises", "--tau", "1.5", "--d", "2", "--n", "200", "--k", "2",
          "--t-grid", "1", "--annulus", "0,1"), "a(R)-scaled annulus needs R > 0, got R = 0.0"),
        ((*count, "1.0,x"), "[count] --t-grid: expected a number, got 'x'"),
        (("regime", "--family", "power", "--d", "2", "--alpha", "4", "--schedule",
          "power", "--n-range", "1e2"), "[regime] --n-range: expected two numbers"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # a numpy warning is not a typed error
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"configuration error: {message}" in err, argv
        assert err.startswith("configuration error: ") and err.count("\n") == 1, argv


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
                           "--n", "1000", "--exterior-radius", "10", "--seed", "4", "--k", "2",
                           "--t-grid", "0.5,1.0,2.0", "--R", "10", "--annulus", "0,0.5")
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
        got = _schedule_from_args(args)
        assert got == parse_config(text=text).experiment.schedule == schedule, kind
    # without --beta, log_band keeps the flag's default 0.3, not the config's 0.45
    args = build_parser().parse_args([*regime, "log_band"])
    assert _schedule_from_args(args) == LogBandSchedule(beta=0.3)

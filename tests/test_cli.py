"""CLI subcommands, config parsing, exit codes, and output determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import rgglab
from rgglab.atlas import build_atlas
from rgglab.cli import parse_and_dispatch
from rgglab.config import ConfigError, parse_config
from rgglab.counting import CloudFormatError, load_cloud, make_cloud, save_cloud

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
t_fixed = 1.0
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


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--kind", "L", "--d", "2", "--k", "2",
                           "--ell", "2", "--alpha", "4", "--t-grid", "1.0",
                           "--samples", "50000", "--seed", "1")
    assert code == 0
    _, row = out.strip().splitlines()
    value = float(row.split(",")[2])
    assert value == pytest.approx(math.pi ** 2 / 6, rel=0.05)


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
                             "--out", str(out_dir), "--workers", workers)
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


def test_usage_error_exit_2(capsys):
    assert parse_and_dispatch(["radii", "--family", "power"]) == 2
    capsys.readouterr()


def test_experiments_never_import_scipy_stats(tmp_path):
    """A CLT and a Poisson-layer experiment run in a fresh interpreter without
    loading ``scipy.stats``; the chi-square p-value it reports is scipy's."""
    (tmp_path / "clt.ini").write_text(SMALL_CLT)
    (tmp_path / "layer.ini").write_text(SMALL_POISSON_LAYER)
    script = (
        "import json, sys\n"
        "from rgglab.cli import parse_and_dispatch\n"
        "codes = [parse_and_dispatch(['experiment', '--config', name + '.ini',"
        " '--out', name]) for name in ('clt', 'layer')]\n"
        "print(json.dumps([codes, 'scipy.stats' in sys.modules]))\n"
    )
    child = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                           capture_output=True, text=True, env=_child_env())
    assert child.returncode == 0, child.stderr
    codes, loaded = json.loads(child.stdout.splitlines()[-1])
    assert set(codes) <= {0, 1}   # both ran to a verdict, pass or fail
    assert loaded is False
    header, row = (tmp_path / "layer" / "summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), row.split(",")))
    assert int(summary["dof"]) >= 1
    assert float(summary["p_value"]) == stats.chi2.sf(float(summary["chi2"]),
                                                      int(summary["dof"]))


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

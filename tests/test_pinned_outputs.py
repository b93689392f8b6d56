"""The benchmark workloads reproduce the artifact hashes and exact counts
pinned for them.

``perfbench/reference.json`` stores, per workload at seed 1 with the
workload's default replications, the sha256 of every artifact that
``write_report`` lists in ``manifest.json``, and the counts that
``spans.EXACT_COUNTS`` names (points sampled, edges, candidates, atlas
builds, oracle blocks and samples, report bytes).  Each workload runs here
once as the benchmark's traced repetitions run it: ``perfbench/child.py`` in
a fresh interpreter.  So a change of any output bit or of any pinned count
fails tier-1, not only the benchmark.  The ``perfbench/`` files are read,
never written: the child runs with ``PYTHONDONTWRITEBYTECODE=1``, and
``runpy`` caches no bytecode.
"""

import configparser
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
SPANS = runpy.run_path(str(PERFBENCH / "spans.py"))
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_artifacts_match_reference(name, tmp_path):
    text = WORKLOADS[name].config_text(REFERENCE["seed"])
    config = tmp_path / f"{name}.ini"
    config.write_text(text)
    out_dir, result = tmp_path / "out", tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(config), str(out_dir), str(result), "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] in (0, 1)    # a statistical FAIL is a result, not an error
    pinned = REFERENCE["workloads"][name]

    manifest = json.loads((out_dir / "manifest.json").read_text())
    hashes = {key: art["sha256"] for key, art in manifest["artifacts"].items()}
    assert hashes == pinned["sha256"]

    # the workers the benchmark's run.py reads off the same config text
    ini = configparser.ConfigParser()
    ini.read_string(text)
    metrics = SPANS["layer_metrics"](record["spans"], int(ini["experiment"]["workers"]))
    assert {key: metrics[key] for key in SPANS["EXACT_COUNTS"]} == pinned["counts"]

"""The benchmark workloads reproduce the artifact hashes pinned for them.

``perfbench/reference.json`` stores, per workload, the sha256 of every
artifact that ``write_report`` lists in ``manifest.json`` at seed 1 with the
workload's default replications.  The benchmark checks them too; running the
same configurations here catches a change of any output bit in tier-1.  The
``perfbench/`` files are read, never written (``runpy`` caches no bytecode).
"""

import json
import runpy
from pathlib import Path

import pytest

from rgglab.cli import parse_and_dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_artifacts_match_reference(name, tmp_path, capsys):
    config = tmp_path / f"{name}.ini"
    config.write_text(WORKLOADS[name].config_text(REFERENCE["seed"]))
    out_dir = tmp_path / "out"
    code = parse_and_dispatch(["experiment", "--config", str(config), "--out", str(out_dir)])
    capsys.readouterr()
    assert code in (0, 1)    # a statistical FAIL is a result, not an error
    manifest = json.loads((out_dir / "manifest.json").read_text())
    hashes = {key: art["sha256"] for key, art in manifest["artifacts"].items()}
    assert hashes == REFERENCE["workloads"][name]["sha256"]

"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

    python3 benchmarks/bench_e2e.py --label NAME

Run from anywhere inside a source checkout.  For each of the benchmark's
workloads it runs ``perfbench/run.py`` twice, at seed 1 for 20 s each, so
that every point of the trajectory is taken under the same settings: once with
``--trace 0`` for the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, medians over the run's repetitions, plus every
repetition's sample) and once with ``--trace 1`` for the per-layer metrics.
It writes their figures, the gate results (``correct``, ``attempted``,
``failed``) and perfbench's environment line to ``BENCH_<label>.json`` at
the root of the checkout.  perfbench's gates, bounds and reference are
used as they are; a run that fails its checks is recorded, not hidden.

The runs compile rgglab from source, as a fresh clone does: the children
write no bytecode, and the script exits 2, naming the files, if any ``.pyc``
file lies under ``src/``, since a cached import shortens ``setup_s``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 1
SECONDS = 20.0


def run_perfbench(workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result object, samples and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py {workload} --trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["environment"] = next(
        (line.split(": ", 1)[1] for line in lines if line.startswith("environment: ")), None)
    result["samples"] = {line.split(" samples: ")[0]: ast.literal_eval(line.split(" samples: ")[1])
                         for line in lines if " samples: " in line}
    result["check_failures"] = [line for line in lines if line.startswith("CHECK FAILED")]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = p.parse_args(argv)
    cached = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "src").rglob("*.pyc"))
    if cached:
        sys.stderr.write("bytecode under src/ would shorten setup_s; delete it first:\n"
                         + "".join(f"  {path}\n" for path in cached))
        return 2

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True, check=False).stdout.strip()
    record = {"label": args.label, "commit": commit or None, "seed": SEED,
              "seconds": SECONDS, "environment": None, "workloads": {}}
    for workload in WORKLOADS:
        plain = run_perfbench(workload, trace=0)
        traced = run_perfbench(workload, trace=1)
        record["environment"] = plain["environment"]
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "check_failures": plain["check_failures"] + traced["check_failures"],
            "end_to_end": plain["metrics"],
            "end_to_end_samples": plain["samples"],
            "per_layer": traced["metrics"],
        }
        e2e = {name: round(m["value"], 3) for name, m in plain["metrics"].items()}
        print(f"{workload}: correct={record['workloads'][workload]['correct']} {e2e}",
              flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rgglab's benchmark: time to a checked experiment result, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rgglab is imported from ``src/``
and needs no install step.  Each repetition starts a fresh interpreter
(``child.py``) that runs one configured experiment through
``rgglab.cli.parse_and_dispatch(["experiment", ...])`` and writes its report.
Repetitions of one seed repeat until the repetition boundary nearest to
``--seconds``; every figure is the median over them.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh
interpreter to a parsed configuration), ``wall_s`` (experiment plus report)
and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones (lower
medians, so counts stay whole), plus ``trace.overhead_frac``.  After the
timed region the output gate, the exhaustive-oracle recounts and the
exact-count checks run; a failed replication or check counts in
``failed`` (``fail_frac`` is ``failed / attempted``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 90
MIN_REPETITIONS = 2

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# metric names and units, as BENCHMARK.json declares them
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# the call whose absence leaves a per-layer metric without samples
ABSENT_WHEN_UNCALLED = {
    "densities.sample_exterior.": "densities.sample_exterior",
    "densities.sample.": "densities.sample",
    "densities.log_tail_prob.": "densities.log_tail_prob",
    "kernels.build_adjacency.": "kernels.build_adjacency",
    "kernels.edges": "kernels.build_adjacency",
    "kernels.accumulate_curves.": "kernels.accumulate_curves",
    "kernels.occupied_cells.": "kernels.occupied_cells",
    "counting.": "counting.count_decomposed",
    "atlas.": "atlas.build_atlas",
    "regimes.classify_regime.": "regimes.classify_regime",
    "regimes.check_growth_condition.": "regimes.check_growth_condition",
    "limits.": "limits.mixture_covariance",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replications", type=int, default=None,
                   help="override the workload's replications (smoke tests)")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's artifact hashes and counts as the "
                        "reference for its workload and seed")
    return p.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGGLAB_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work: Path, config: Path, idx: int, trace: int) -> dict:
    """One fresh-interpreter repetition; ``ok`` is False if it raised."""
    out = work / f"out{idx}"
    result = work / f"result{idx}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(out),
           str(result), str(trace)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stdout.write(f"repetition {idx} killed after {CHILD_TIMEOUT_S} s\n")
        return {"ok": False, "trace": trace}
    if proc.returncode != 0 or not result.exists():
        sys.stdout.write(f"repetition {idx} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}\n")
        return {"ok": False, "trace": trace}
    rec = json.loads(result.read_text())
    if rec["exit_code"] not in (0, 1):    # 1 is a statistical FAIL, a science result
        sys.stdout.write(f"repetition {idx}: experiment exit {rec['exit_code']}\n"
                         f"{proc.stderr[-2000:]}\n")
        return {"ok": False, "trace": trace}
    return {
        "ok": True, "trace": trace, "out": out,
        "setup_s": rec["parsed"] - started,
        "wall_s": rec["done"] - rec["parsed"],
        "peak_rss_mb": rec["max_rss_kb"] / 1024.0,
        "spans": rec["spans"],
        "window": (rec["perf_parsed"], rec["perf_done"]),
        "main_thread": rec["main_thread"],
    }


def environment() -> str:
    import numpy
    import scipy
    numba = "present" if find_spec("numba") else "absent"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} numba={numba}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rgglab" / "__init__.py").is_file():
        sys.stderr.write(f"no rgglab sources under {SRC}; run from a source checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    text = workload.config_text(args.seed, args.replications)
    ini = configparser.ConfigParser()
    ini.read_string(text)
    kind = ini["experiment"]["kind"]
    workers = int(ini["experiment"]["workers"])
    replications = (len(ini["experiment"]["n_ladder"].split(","))
                    * int(ini["experiment"]["replications"]))
    reference = None
    if args.replications is None and not args.record_reference and REFERENCE.exists():
        stored = json.loads(REFERENCE.read_text())
        if stored["seed"] == args.seed:
            reference = stored["workloads"].get(workload.name)

    work = OUTPUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "experiment.ini"
        config.write_text(text)
        records = []
        began = time.monotonic()
        while (len(records) < MIN_REPETITIONS
               or not any(r["trace"] == args.trace for r in records)
               or _ends_nearer(records, time.monotonic() - began, args.seconds)):
            trace = args.trace and len(records) % 2
            started = time.monotonic()
            records.append(run_child(work, config, len(records), trace))
            records[-1]["elapsed_s"] = time.monotonic() - started
        measured_s = time.monotonic() - began

        sys.path.insert(0, str(SRC))
        good = [r for r in records if r["ok"]]
        checked = []
        if good:
            checked += checks.agree("gate", [checks.artifact_hashes(r["out"]) for r in good],
                                    reference and reference.get("sha256"))
            for r in good:
                checked += checks.invariant_flags(kind, checks.manifest_flags(r["out"]))
            checked += checks.oracle_checks(text, good[0]["out"], workload.exhaustive_limit)
        traced = [r for r in good if r["trace"]]
        layer = [spans.layer_metrics(r["spans"], workers) for r in traced]
        if traced:
            counts = [{k: m[k] for k in spans.EXACT_COUNTS} for m in layer]
            checked += checks.agree("counts", counts, reference and reference.get("counts"))
        attempted = replications * len(records) + len(checked)
        failed = (replications * (len(records) - len(good))
                  + sum(not ok for _, ok, _ in checked))

        print(f"workload {workload.name}: {workload.why}")
        print(f"environment: {environment()}")
        print(f"seed {args.seed}, {len(records)} repetitions in {measured_s:.1f} s, "
              f"{replications} replications each")
        for name, ok, detail in checked:
            if not ok:
                print(f"CHECK FAILED {name}: {detail}")
        print(f"checks: {len(checked) - sum(not c[1] for c in checked)}/{len(checked)} passed")

        if args.trace == 0:
            plain = [r for r in good if not r["trace"]]
            metrics = {name: statistics.median(r[name] for r in plain) if plain else 0.0
                       for name in END_TO_END_UNITS}
            units = END_TO_END_UNITS
            for name in units:
                print(f"{name} samples: {[round(r[name], 4) for r in plain]}")
            print(f"fail_frac = {failed / attempted!r} ratio "
                  f"({failed} of {attempted} operations failed)")
        else:
            metrics = {name: statistics.median_low(m[name] for m in layer) if layer else 0
                       for name in LAYER_UNITS if name != "trace.overhead_frac"}
            plain_wall = [r["wall_s"] for r in good if not r["trace"]]
            traced_wall = [r["wall_s"] for r in traced]
            metrics["trace.overhead_frac"] = (
                statistics.median(traced_wall) / statistics.median(plain_wall) - 1.0
                if plain_wall and traced_wall else 0.0)
            units = LAYER_UNITS
            _report_absent(workload.name, traced)
            if traced:
                _write_trace(workload.name, args.seed, traced[-1])
        for name, value in metrics.items():
            print(f"{name} = {value!r} {units[name]}")

        if args.record_reference and good and failed == 0:
            _record_reference(workload.name, args.seed,
                              checks.artifact_hashes(good[0]["out"]),
                              counts[0] if traced else None)
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _ends_nearer(records: list[dict], elapsed: float, seconds: float) -> bool:
    """Whether one more repetition ends the run nearer to ``seconds``."""
    typical = statistics.median(r["elapsed_s"] for r in records)
    return elapsed + typical / 2 < seconds


def _report_absent(workload: str, traced: list[dict]) -> None:
    if not traced:
        return
    called = {s[1] for s in traced[0]["spans"]}
    for prefix, fn in ABSENT_WHEN_UNCALLED.items():
        if fn not in called:
            print(f"absent on {workload}: {prefix}* metrics read 0 because "
                  f"{fn} is never called by this experiment")


def _write_trace(workload: str, seed: int, record: dict) -> None:
    """Spans of the last traced repetition, for inspection (outside any --out)."""
    path = OUTPUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "thread", "replication",
                   "info"],
        "main_thread": record["main_thread"], "window": record["window"],
        "wall_s": record["wall_s"], "spans": record["spans"]}))


def _record_reference(workload: str, seed: int, hashes: dict, counts: dict | None) -> None:
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if stored.get("seed") != seed:
        stored = {"seed": seed, "workloads": {}}
    entry = stored["workloads"].setdefault(workload, {})
    entry["sha256"] = hashes
    if counts is not None:
        entry["counts"] = counts
    REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())

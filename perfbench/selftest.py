"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints every metric
   that ``BENCHMARK.json`` declares, by name and with its unit.
2. The output gate, the invariant flags and the artifact recount all trip
   on a report whose counts were deliberately altered.
3. In each traced run the spans' self times plus the untraced remainder
   add up to the traced ``wall_s`` on the main thread.
4. Outside a source checkout the benchmark exits non-zero without a result.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from run import OUTPUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_metrics_printed() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                         "--trace", trace, "--replications", "2")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            expect(result.get("correct") is True and result.get("failed") == 0,
                   f"{name} trace={trace}: tiny run correct, exit {proc.returncode}")
            metrics = result.get("metrics", {})
            missing = [m["name"] for m in declared[key]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]
                       or not any(line.startswith(f"{m['name']} = ")
                                  and line.endswith(f" {m['unit']}") for line in lines)]
            expect(not missing and len(metrics) == len(declared[key]),
                   f"{name} trace={trace}: all {len(declared[key])} {key} metrics "
                   f"printed with units (missing {missing})")
            if trace == "0":
                expect(any(line.startswith("fail_frac = ") for line in lines),
                       f"{name}: fail_frac printed")
            else:
                check_balance(name)


def check_balance(name: str) -> None:
    trace = json.loads((OUTPUT / f"trace-{name}-seed{SEED}.json").read_text())
    start, end = trace["window"]
    inside = [s for s in trace["spans"] if s[2] >= start and s[3] <= end]
    balance = spans.main_thread_balance(inside, trace["main_thread"], end - start)
    own = spans.self_times(trace["spans"])
    expect(abs(balance) < 1e-6 and min(own.values()) > -1e-9,
           f"{name}: self times + untraced remainder = traced wall_s "
           f"(off by {balance:.3g} s)")
    reps = [s for s in trace["spans"] if s[1] == "harness.replication"]
    expect(bool(reps) and all(s[6] is not None for s in reps),
           f"{name}: every replication span carries its (rung, replication) tag")


def test_gate_trips() -> None:
    from rgglab import harness
    from rgglab.config import parse_config

    workload = WORKLOADS["motif-k3"]
    text = workload.config_text(SEED, replications=3)
    base = OUTPUT / "selftest-gate"
    shutil.rmtree(base, ignore_errors=True)
    clean, altered = base / "clean", base / "altered"
    harness.write_report(harness.run_clt_experiment(parse_config(text=text).experiment), clean)

    count_decomposed = harness.count_decomposed

    def off_by_one(cloud, req):
        h, plus, minus = count_decomposed(cloud, req)
        if cloud.seed == 1:
            h.counts = h.counts.copy()
            h.counts[-1] += 1
        return h, plus, minus

    harness.count_decomposed = off_by_one
    try:
        harness.write_report(
            harness.run_clt_experiment(parse_config(text=text).experiment), altered)
    finally:
        harness.count_decomposed = count_decomposed

    gate = checks.agree("gate", [checks.artifact_hashes(clean),
                                 checks.artifact_hashes(altered)], None)
    expect(not all(ok for _, ok, _ in gate), "output gate trips on an altered count")
    flags = checks.invariant_flags("clt", checks.manifest_flags(altered))
    expect(not all(ok for _, ok, _ in flags), "invariant flags trip on an altered count")
    recount = checks.oracle_checks(text, altered, workload.exhaustive_limit)
    expect(not all(ok for _, ok, _ in recount), "artifact recount trips on an altered count")
    recount = checks.oracle_checks(text, clean, workload.exhaustive_limit)
    expect(all(ok for _, ok, _ in recount), "artifact recount passes on the clean report")
    shutil.rmtree(base, ignore_errors=True)


def test_bare_directory_fails() -> None:
    bare = OUTPUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "critical-k2", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit {proc.returncode} and no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_gate_trips()
    test_bare_directory_fails()
    test_metrics_printed()
    print(f"{len(failures)} self-test failures")
    sys.exit(1 if failures else 0)

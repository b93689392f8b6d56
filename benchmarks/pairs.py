"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 benchmarks/pairs.py PARENT CHANGE --workload W [--pairs 10]
                                [--seconds 36] [--seed 1]

PARENT and CHANGE are source checkouts (say, two ``git archive`` exports).
Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with
the checkout's own benchmark code and ``PYTHONDONTWRITEBYTECODE=1``; the
side that runs first alternates from pair to pair.  The script refuses,
with exit 2, two checkouts whose ``perfbench/`` trees differ and a
checkout with ``.pyc`` files under ``src/``, since a cached import shortens
``setup_s``.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles over the pairs' run medians, the pairs the change
won (ties count for neither), and a verdict by the rules the metric's
``bound`` sets:

* ``gain``: the change won at least nine tenths of the pairs, and the
  medians differ by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the bound, relative to the parent's median;
* ``unresolved``: either side's interquartile range over its median is
  wider than the bound, unless every change run beats every parent run;
* ``within bound`` otherwise.

It also prints, per side, how many runs passed every check and the failed
and attempted operations summed over the runs.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_e2e import bytecode_refusal, run_perfbench  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on paired run medians ``parent[i]``, ``change[i]`` of one
    metric whose ``better`` is "lower" or "higher", with relative ``bound``."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if won >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        return "gain"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regression"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    return "unresolved" if spread > bound and not separated else "within bound"


def _differing(a: Path, b: Path) -> list[str]:
    """Files under ``a`` and ``b`` that differ or exist on one side only,
    bytecode caches aside."""
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    out = [str(a / name) for name in cmp.left_only + cmp.right_only + cmp.funny_files]
    # dircmp compares by os.stat signature first; compare contents instead
    out += [str(a / name) for name in cmp.common_files
            if not filecmp.cmp(a / name, b / name, shallow=False)]
    for name in cmp.common_dirs:
        out += _differing(a / name, b / name)
    return out


def refusal(parent: Path, change: Path) -> str | None:
    """Why the two checkouts cannot be compared, or None."""
    for root in (parent, change):
        if not (root / "perfbench" / "run.py").is_file():
            return f"{root} holds no perfbench/run.py"
        why = bytecode_refusal(root)
        if why:
            return why
    differ = _differing(parent / "perfbench", change / "perfbench")
    if differ:
        return "the perfbench/ trees differ:\n" + "".join(f"  {p}\n" for p in differ)
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs: needs at least 2 pairs for quartiles")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    why = refusal(sides["parent"], sides["change"])
    if why:
        sys.stderr.write(why if why.endswith("\n") else why + "\n")
        return 2

    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    results = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_perfbench(sides[side], args.workload, args.seed,
                                               args.seconds, trace=0))
        row = "  ".join(f"{side} {m['name']} {results[side][-1]['metrics'][m['name']]['value']:.4g}"
                        for side in sides for m in declared)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {row}", flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    for side, runs in results.items():
        print(f"{side}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed/attempted {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = sum(sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"]))
        print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']}):")
        for side, vals in values.items():
            q1, med, q3 = quartiles(vals)
            print(f"  {side}: median {med:.4g}, quartiles {q1:.4g} / {q3:.4g}")
        print(f"  change won {won}/{args.pairs} pairs; verdict: "
              f"{verdict(values['parent'], values['change'], metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

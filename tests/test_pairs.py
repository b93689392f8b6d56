"""``benchmarks/pairs.py``: the verdict rules on fixed numbers, and the
refusal of checkouts that cannot be compared."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [0.30, 0.31, 0.32, 0.33, 0.34, 0.30, 0.31, 0.32, 0.33, 0.34]


def test_quartiles_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles(PARENT) == pytest.approx((0.31, 0.32, 0.33))


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    change = [v - 0.1 for v in PARENT]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == "gain"
    # 8 of 10 pairs won: no gain, and no regression either
    eight = change[:8] + PARENT[8:]
    assert pairs.verdict(PARENT, eight, "lower", 0.25) == "within bound"
    # every pair won by less than the parent's IQR (0.02): no gain
    close = [v - 0.01 for v in PARENT]
    assert pairs.verdict(PARENT, close, "lower", 0.25) == "within bound"
    # ties count for neither side
    assert pairs.verdict(PARENT, list(PARENT), "lower", 0.25) == "within bound"


def test_regression_is_worse_than_the_bound_relative_to_the_parent():
    worse = [v * 1.3 for v in PARENT]
    assert pairs.verdict(PARENT, worse, "lower", 0.25) == "regression"
    assert pairs.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.25) == "within bound"
    # a higher-is-better metric reads the other way
    assert pairs.verdict(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25) == "regression"
    assert pairs.verdict(PARENT, worse, "higher", 0.25) == "gain"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate():
    wide = [1.0, 1.0, 2.0, 3.0]               # IQR 1.25 over a median of 1.5
    same = [1.0, 1.1, 2.0, 2.9]
    assert pairs.verdict(wide, same, "lower", 0.25) == "unresolved"
    # every change run below every parent run, by less than the parent's IQR
    below = [0.9, 0.9, 0.95, 0.99]
    assert pairs.verdict(wide, below, "lower", 0.25) == "within bound"
    # the change's own spread counts too
    assert pairs.verdict([1.0, 1.0, 1.0, 1.0], [0.5, 1.0, 1.0, 1.6], "lower", 0.25) \
        == "unresolved"


def _checkout(root: Path, run_text: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_text)
    (root / "src" / "rgglab").mkdir(parents=True)
    return root


def test_refusal_of_differing_benchmarks_and_cached_bytecode(tmp_path):
    parent = _checkout(tmp_path / "parent", "print(1)\n")
    change = _checkout(tmp_path / "change", "print(1)\n")
    assert pairs.refusal(parent, change) is None
    # bytecode caches inside perfbench/ do not count as a difference
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "spans.cpython-311.pyc").write_bytes(b"x")
    assert pairs.refusal(parent, change) is None
    (change / "perfbench" / "run.py").write_text("print(2)\n")
    assert "perfbench/ trees differ" in pairs.refusal(parent, change)
    (change / "perfbench" / "run.py").write_text("print(1)\n")
    (change / "perfbench" / "extra.py").write_text("")
    assert "extra.py" in pairs.refusal(parent, change)
    (change / "perfbench" / "extra.py").unlink()
    (parent / "src" / "rgglab" / "x.pyc").write_bytes(b"")
    assert "bytecode under src/" in pairs.refusal(parent, change)
    assert pairs.main([str(parent), str(change), "--workload", "motif-k3"]) == 2

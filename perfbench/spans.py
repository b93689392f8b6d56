"""In-memory span recording around rgglab's layer boundaries.

``install(tracer)`` replaces module attributes at the call sites each layer
uses (for example ``rgglab.harness.sample_poisson_cloud``, the name the
harness calls) with wrappers that record a span per call.  Nothing inside
``src/`` changes.  Spans stay in memory until the caller writes them out.

A span is ``(id, name, start, end, parent, thread, replication, info)``.
``parent`` is the enclosing span on the same thread or, for the first span
of a replication on a worker thread, the rung span that launched it.
``info`` is a deterministic count read off the call's arguments or result
(points sampled, edges built, candidates counted, oracle samples, bytes
written), or ``None``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.parent = None
            local.rep = None
        return local

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped so that each call records one span."""
        def traced(*args, **kwargs):
            local = self._state()
            sid = next(self._ids)
            parent = local.stack[-1] if local.stack else local.parent
            local.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
            value = info(args, kwargs, result) if info is not None else None
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), local.rep, value))
            return result
        return traced

    def wrap_replications(self, fn):
        """Wrap ``harness._run_replications(cfg, rung_idx, work)``.

        The rung becomes one ``harness.rung`` span and every ``work(rep, rng)``
        call a ``harness.replication`` span tagged with ``(rung_idx, rep)``,
        on whichever thread runs it.
        """
        def run_rung(cfg, rung_idx, work):
            rung_sid = self._state().stack[-1]
            replication = self.wrap("harness.replication", work)

            def traced_work(rep, rng):
                local = self._state()
                saved = local.parent, local.rep
                local.parent, local.rep = rung_sid, (rung_idx, rep)
                try:
                    return replication(rep, rng)
                finally:
                    local.parent, local.rep = saved
            return fn(cfg, rung_idx, traced_work)
        return self.wrap("harness.rung", run_rung)


def _n_samples(args, kwargs, result):
    return int(args[0].n_samples)


def _edges(args, kwargs, result):
    return int(len(result[1]) // 2)


def _candidates(args, kwargs, result):
    _, plus, _ = result
    return int(plus.counts[-1])


def _report_bytes(args, kwargs, result):
    return sum(path.stat().st_size for path in result.values())


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of the imported rgglab modules."""
    from rgglab import cli, counting, densities, harness, kernels, limits

    sites = [
        (cli, "parse_config", "config.parse_config", None),
        (cli, "run_clt_experiment", "harness.experiment", None),
        (cli, "run_core_experiment", "harness.experiment", None),
        (cli, "write_report", "harness.write_report", _report_bytes),
        (harness, "sample_poisson_cloud", "densities.sample_poisson_cloud",
         lambda a, k, r: len(r)),
        (harness, "count_decomposed", "counting.count_decomposed", _candidates),
        (harness, "mixture_covariance", "limits.mixture_covariance", None),
        (harness, "classify_regime", "regimes.classify_regime", None),
        (harness, "check_growth_condition", "regimes.check_growth_condition", None),
        (kernels, "build_adjacency", "kernels.build_adjacency", _edges),
        (kernels, "accumulate_curves", "kernels.accumulate_curves", None),
        (kernels, "occupied_cells", "kernels.occupied_cells", None),
        (counting, "build_atlas", "atlas.build_atlas", None),
        (limits, "covariance_L", "limits.covariance_block", _n_samples),
        (limits, "covariance_M", "limits.covariance_block", _n_samples),
        (densities.RadialDensity, "log_tail_prob", "densities.log_tail_prob", None),
        (densities.RadialDensity, "sample", "densities.sample", None),
        (densities.RadialDensity, "sample_exterior", "densities.sample_exterior", None),
    ]
    for owner, attr, name, info in sites:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), info))
    harness._run_replications = tracer.wrap_replications(harness._run_replications)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Seconds of each span not covered by its children on the same thread.

    Spans on one thread nest (each wrapper pushes and pops a stack), so the
    children of a span never overlap and their durations can be summed.
    """
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[3] - s[2] for s in spans}
    for sid, _, start, end, parent, thread, _, _ in spans:
        if parent is not None and parent in by_id and by_id[parent][5] == thread:
            own[parent] -= end - start
    return own


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment run (times in ms)."""
    durations = defaultdict(list)
    infos = defaultdict(int)
    for _, name, start, end, _, _, _, info in spans:
        durations[name].append((end - start) * 1e3)
        if info is not None:
            infos[name] += info
    own = self_times(spans)
    self_ms = defaultdict(float)
    for s in spans:
        self_ms[s[1]] += own[s[0]] * 1e3

    def total(name):
        return sum(durations[name])

    def calls(name):
        return len(durations[name])

    rung_capacity = total("harness.rung") * max(workers, 1)
    count_s = total("counting.count_decomposed") / 1e3
    mixture_s = total("limits.mixture_covariance") / 1e3
    return {
        "densities.sample_poisson_cloud.calls": calls("densities.sample_poisson_cloud"),
        "densities.sample_poisson_cloud.ms_p50":
            _quantile(durations["densities.sample_poisson_cloud"], 0.5),
        "densities.sample_poisson_cloud.ms_p99":
            _quantile(durations["densities.sample_poisson_cloud"], 0.99),
        "densities.points": infos["densities.sample_poisson_cloud"],
        "densities.log_tail_prob.calls": calls("densities.log_tail_prob"),
        "densities.log_tail_prob.ms": total("densities.log_tail_prob"),
        "densities.sample.ms": total("densities.sample"),
        "densities.sample_exterior.ms": total("densities.sample_exterior"),
        "kernels.build_adjacency.calls": calls("kernels.build_adjacency"),
        "kernels.build_adjacency.ms_p50": _quantile(durations["kernels.build_adjacency"], 0.5),
        "kernels.build_adjacency.ms_p99": _quantile(durations["kernels.build_adjacency"], 0.99),
        "kernels.build_adjacency.ms_total": total("kernels.build_adjacency"),
        "kernels.edges": infos["kernels.build_adjacency"],
        "kernels.accumulate_curves.calls": calls("kernels.accumulate_curves"),
        "kernels.accumulate_curves.ms_total": total("kernels.accumulate_curves"),
        "kernels.occupied_cells.ms_total": total("kernels.occupied_cells"),
        "counting.count_decomposed.ms_total": total("counting.count_decomposed"),
        "counting.count_decomposed.self_ms": self_ms["counting.count_decomposed"],
        "counting.candidates": infos["counting.count_decomposed"],
        "counting.candidates_per_s":
            infos["counting.count_decomposed"] / count_s if count_s else 0.0,
        "atlas.build_atlas.calls": calls("atlas.build_atlas"),
        "atlas.build_atlas.ms_total": total("atlas.build_atlas"),
        "regimes.classify_regime.ms": total("regimes.classify_regime"),
        "regimes.check_growth_condition.ms": total("regimes.check_growth_condition"),
        "limits.mixture_covariance.ms": total("limits.mixture_covariance"),
        "limits.blocks": calls("limits.covariance_block"),
        "limits.samples": infos["limits.covariance_block"],
        "limits.samples_per_s":
            infos["limits.covariance_block"] / mixture_s if mixture_s else 0.0,
        "harness.replication.ms_p50": _quantile(durations["harness.replication"], 0.5),
        "harness.replication.ms_p99": _quantile(durations["harness.replication"], 0.99),
        "harness.busy_frac":
            total("harness.replication") / rung_capacity if rung_capacity else 0.0,
        "harness.self_ms": self_ms["harness.experiment"],
        "harness.write_report.ms": total("harness.write_report"),
        "harness.report_bytes": infos["harness.write_report"],
        "config.parse_config.ms": total("config.parse_config"),
    }


# counts that must repeat exactly for one seed; later changes may cite only these
EXACT_COUNTS = (
    "densities.points", "densities.log_tail_prob.calls", "kernels.edges",
    "counting.candidates", "atlas.build_atlas.calls", "limits.blocks",
    "limits.samples", "harness.report_bytes",
)


def main_thread_balance(spans, main_thread: int, wall_s: float) -> float:
    """Traced wall time minus (main-thread self times + untraced remainder).

    The remainder is the part of ``wall_s`` that no top-level main-thread
    span covers; the result is zero up to rounding when the spans are
    consistent.
    """
    own = self_times(spans)
    main = [s for s in spans if s[5] == main_thread]
    ids = {s[0] for s in main}
    top = [s for s in main if s[4] not in ids]
    covered = sum(s[3] - s[2] for s in top)
    self_sum = sum(own[s[0]] for s in main)
    remainder = wall_s - covered
    return wall_s - (self_sum + remainder)

"""Output checks, run after the timed region.

* The output gate compares the ``sha256`` values that ``write_report``
  records in ``manifest.json`` across repetitions of one seed, and with the
  stored reference at the reference seed; the exact counts of traced
  repetitions are compared the same way.
* The exhaustive-oracle check regenerates a sample of the experiment's
  clouds from their replication seeds, recounts them with the counting
  engine (which must reproduce the ``raw_curves.csv`` row) and with
  ``count_subgraphs_exhaustive`` (on the whole cloud, or on its innermost
  points when the cloud is too large for the all-subsets oracle).
* The core workload never counts; its sampled clouds' cube occupancy is
  recomputed point by point instead.

Each function returns a list of ``(check name, passed, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SAMPLED_REPS = (0, 1)


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    return {name: art["sha256"] for name, art in sorted(manifest["artifacts"].items())}


def manifest_flags(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "manifest.json").read_text())["flags"]


def agree(kind: str, values: list[dict], reference: dict | None) -> list[tuple]:
    """Every repetition's values equal the first repetition's and the reference."""
    results = [_compare(f"{kind}.repetition{i}", v, values[0])
               for i, v in enumerate(values[1:], start=1)]
    if reference is not None:
        results += [_compare(f"{kind}.reference.repetition{i}", v, reference)
                    for i, v in enumerate(values)]
    return results


def _compare(name: str, got: dict, want: dict) -> tuple:
    diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return name, not diff, f"differs in {diff}" if diff else ""


def invariant_flags(kind: str, flags: dict) -> list[tuple]:
    """Flags that state exact invariants, not statistical outcomes."""
    names = {"clt": ("decomposition_exact_all", "monotone_curves_all"),
             "core": ("radius_monotone_all",)}[kind]
    return [(f"flag.{name}", bool(flags.get(name)), "") for name in names]


def _raw_rows(out_dir: Path) -> dict:
    rows: dict = {}
    with open(Path(out_dir) / "raw_curves.csv") as fh:
        for rec in csv.DictReader(fh):
            key = (float(rec["n"]), int(rec["seed"]))
            rows.setdefault(key, []).append(
                (int(rec["count_h"]), int(rec["count_plus"]), int(rec["count_minus"])))
    return rows


def _cloud(cfg, rung_idx: int, rep: int, exterior: bool):
    import numpy as np
    from rgglab.densities import sample_poisson_cloud
    from rgglab.harness import replication_seed

    n = cfg.n_ladder[rung_idx]
    rng = np.random.default_rng(replication_seed(cfg.master_seed, rung_idx, rep))
    R = cfg.schedule.radius(cfg.density, n) if exterior else None
    return sample_poisson_cloud(n, cfg.density, rng, exterior_radius=R, seed=rep), R


def oracle_checks(config_text: str, out_dir: Path, exhaustive_limit: int) -> list[tuple]:
    from rgglab.config import parse_config

    parsed = parse_config(text=config_text)
    if parsed.kind == "core":
        return _occupancy_checks(parsed.experiment)
    return _count_checks(parsed.experiment, out_dir, exhaustive_limit)


def _count_checks(cfg, out_dir: Path, limit: int) -> list[tuple]:
    import numpy as np
    from rgglab.counting import (MODE_H, MODE_MINUS, CountRequest, PointCloud,
                                 count_decomposed, count_subgraphs_exhaustive)

    rows = _raw_rows(out_dir)
    results = []
    for rung_idx, n in enumerate(cfg.n_ladder):
        for rep in SAMPLED_REPS:
            cloud, R = _cloud(cfg, rung_idx, rep, exterior=True)
            req = CountRequest(shape=cfg.shape, t_grid=cfg.t_grid, R=R)
            h, plus, minus = count_decomposed(cloud, req)
            engine = [tuple(int(c) for c in v)
                      for v in zip(h.counts, plus.counts, minus.counts)]
            name = f"recount.n{n:g}.rep{rep}"
            results.append((f"{name}.artifact", engine == rows.get((n, rep)),
                            f"engine {engine} vs raw_curves.csv {rows.get((n, rep))}"))
            sub = cloud
            if len(cloud) > limit:
                inner = np.sort(np.argsort(cloud.norms, kind="stable")[:limit])
                sub = PointCloud(points=cloud.points[inner], norms=cloud.norms[inner],
                                 n=cloud.n, seed=rep, restricted_to=cloud.restricted_to)
            h, _, minus = count_decomposed(sub, req)
            ex_h = count_subgraphs_exhaustive(sub, CountRequest(
                shape=cfg.shape, t_grid=cfg.t_grid, R=R, mode=MODE_H)).counts
            ex_minus = count_subgraphs_exhaustive(sub, CountRequest(
                shape=cfg.shape, t_grid=cfg.t_grid, R=R, mode=MODE_MINUS)).counts
            ok = np.array_equal(h.counts, ex_h) and np.array_equal(minus.counts, ex_minus)
            results.append((f"{name}.exhaustive{len(sub)}", ok,
                            f"engine h={h.counts.tolist()} minus={minus.counts.tolist()} "
                            f"vs oracle h={ex_h.tolist()} minus={ex_minus.tolist()}"))
    return results


def _occupancy_checks(cfg) -> list[tuple]:
    import numpy as np
    from rgglab import kernels
    from rgglab.harness import cubes_inside_ball

    d = cfg.density.d
    g = 1.0 / (2.0 * math.sqrt(d))
    results = []
    for rung_idx, n in enumerate(cfg.n_ladder[:2]):
        R_big = 1.5 * cfg.schedule.radius(cfg.density, n)
        cubes = cubes_inside_ball(R_big, g, d)
        base = cubes.min(axis=0) - 1
        dims = cubes.max(axis=0) - base + 2
        for rep in SAMPLED_REPS:
            cloud, _ = _cloud(cfg, rung_idx, rep, exterior=False)
            occ = kernels.occupied_cells(cloud.points, g, base, dims)
            expect = np.zeros(occ.shape, dtype=bool)
            for point in cloud.points.tolist():
                flat = 0
                for axis, x in enumerate(point):
                    c = math.floor(x / g) - int(base[axis])
                    if not 0 <= c < int(dims[axis]):
                        break
                    flat = flat * int(dims[axis]) + c
                else:
                    expect[flat] = True
            results.append((f"occupancy.n{n:g}.rep{rep}", np.array_equal(occ, expect),
                            f"{int(occ.sum())} occupied cells vs {int(expect.sum())}"))
    return results

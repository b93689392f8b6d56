"""The three benchmark workloads, as strict-INI experiment configurations.

Each workload is shaped like one acceptance criterion and stresses a
different layer; ``README.md`` beside this file records which per-layer
metric each is expected to move.  ``master_seed`` comes from the
benchmark's ``--seed`` argument; everything else is fixed here so that two
runs with one seed do identical work.
"""

from __future__ import annotations

from dataclasses import dataclass

_POWER_D2_A4 = """\
[density]
family = power
d = 2
alpha = 4.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str          # INI text with {replications} and {seed} fields
    replications: int
    exhaustive_limit: int  # largest cloud the all-subsets oracle recounts whole

    def config_text(self, seed: int, replications: int | None = None) -> str:
        reps = self.replications if replications is None else replications
        return self.template.format(replications=reps, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="critical-k2",
        why="adjacency-bound K2 counts on weak-core clouds of 444-4476 points, "
            "the only run with two thread workers",
        template=_POWER_D2_A4 + """
[schedule]
kind = weak_core

[shape]
k = 2
name = complete

[experiment]
kind = clt
t_grid = 0.5, 0.75, 1.0, 1.25, 1.5
n_ladder = 1e5, 1e6, 1e7
replications = {replications}
master_seed = {seed}
workers = 2
oracle_samples = 400000
band = 0.75, 1.25
""",
        replications=6,
        exhaustive_limit=500,
    ),
    Workload(
        name="motif-k3",
        why="enumeration and oracle bound: connected triples for the 3-path "
            "and a 3-block critical mixture oracle",
        template=_POWER_D2_A4 + """
[schedule]
kind = weak_core

[shape]
k = 3
name = path

[experiment]
kind = clt
t_grid = 0.5, 1.0, 1.5, 2.0, 2.5
n_ladder = 1e5, 1e6
replications = {replications}
master_seed = {seed}
workers = 1
oracle_samples = 400000
""",
        replications=8,
        exhaustive_limit=100,
    ),
    Workload(
        name="core-1e6",
        why="full-cloud sampling and cube occupancy up to 1e6 points; "
            "never counts, so counting changes must not move it",
        template=_POWER_D2_A4 + """
[schedule]
kind = core
delta1 = 0.125
delta2 = 0.5

[shape]
k = 2
name = complete

[experiment]
kind = core
t_grid = 1.0
n_ladder = 1e4, 1e5, 1e6
replications = {replications}
master_seed = {seed}
workers = 1
""",
        replications=8,
        exhaustive_limit=0,
    ),
)}

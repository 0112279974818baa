"""The benchmark's four scenarios, generated from the workload seed.

Each workload is one ``spinbath`` subcommand on one scenario file; spinbath
sees only the file.  Seed 0 gives the nominal scenario.  Other seeds draw the
free parameters (damping correlations and lambda) from narrow ranges while
keeping every damping diagonal, and so its trace, fixed, which keeps the work
per run comparable across seeds.  Why each workload is in the set is recorded
in BENCHMARK.json.

This module imports only the standard library: run.py spawns the measured
processes before anything loads numpy, because Linux counts the parent's
peak memory into a spawned child's ``ru_maxrss``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: Callable[[int], dict]


def _correlated_gamma(rng: random.Random | None, diag, fixed=None, spread=0.2) -> dict:
    """Damping entries sqrt(d_a d_b) r_ab with the diagonal held at ``diag``.

    ``fixed`` maps an axis pair to (nominal r, low, high); other pairs draw r
    from [-spread, spread].  Row sums of |r| stay below 1, so the matrix is
    positive definite.  ``rng=None`` gives the nominal values.
    """
    fixed = fixed or {}
    out = {a + a: d for a, d in zip("xyz", diag)}
    for a, b in ("xy", "xz", "yz"):
        nominal, low, high = fixed.get(a + b, (0.0, -spread, spread))
        r = nominal if rng is None else rng.uniform(low, high)
        if r != 0.0:
            out[a + b] = r * math.sqrt(diag["xyz".index(a)] * diag["xyz".index(b)])
    return out


def _common_model(seed: int) -> dict:
    rng = None if seed == 0 else random.Random(seed)
    return {
        "kind": "common",
        "axes": ["x", "y", "z"],
        "gamma": _correlated_gamma(rng, (1.0, 0.5, 0.25)),
        "lambda": 1.4 if rng is None else rng.uniform(1.3, 1.5),
    }


def sweep_scenario(seed: int) -> dict:
    return {
        "model": _common_model(seed),
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
        "sweep": {"parameter": "Ntilde", "values": list(range(1, 17))},
        "output": {"format": "csv"},
    }


def adaptive_scenario(seed: int) -> dict:
    return {
        "model": _common_model(seed),
        "ensembles": {"j1": 5, "j2": 5},
        "state": {"kind": "uniform"},
        "evolution": {"t_final": 2.0, "tol": 1e-10, "stride": 20},
        "output": {"format": "csv"},
    }


def fixed_scenario(seed: int) -> dict:
    rng = None if seed == 0 else random.Random(seed)
    return {
        "model": {
            "kind": "independent",
            "axes": ["x", "y", "z"],
            "gamma1": _correlated_gamma(rng, (1.0, 0.5, 0.25), fixed={"xz": (0.6, 0.3, 0.6)}),
            "gamma2": _correlated_gamma(rng, (0.5, 0.75, 0.5)),
        },
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
        "evolution": {"t_final": 20.0, "step": 1e-3, "stride": 200},
        "output": {"format": "csv"},
    }


def dfs_scenario(seed: int) -> dict:
    # lambda = 1 is what makes the m1 + m2 rule exact and the z-only damping
    # is pinned by trace normalization, so no parameter is left to draw
    return {
        "model": {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": 1.0},
        "ensembles": {"j1": 4, "j2": 4},
        "dfs": {"candidates": "fock_basis", "subspace": True},
        "output": {"format": "csv"},
    }


WORKLOADS = {
    "sweep_ntilde": Workload("sweep", sweep_scenario),
    "simulate_adaptive_j5": Workload("simulate", adaptive_scenario),
    "simulate_fixed_small": Workload("simulate", fixed_scenario),
    "dfs_fock_subspace": Workload("dfs", dfs_scenario),
}

"""Checks of spinbath's output tables against ``reference``.

Nothing here goes through spinbath's code.  The tolerances were fixed from
error estimates before the first run:

* rates: 1e-9 relative.  Both sides are exact formulas in double precision.
* trajectories: 1e-6 absolute on s_lin, min_eig and fidelity, and exactly
  one row per stride-th accepted step plus the rows at 0 and t_final.  Adaptive
  RK4 at tol 1e-10 over about 180 steps has a global error near 2e-8.
  Fixed-step RK4 at h = 1e-3 with |h L| ~ 1e-2 over 20,000 steps has a
  global error below 1e-7.
* dfs: the certified flag exactly; residuals and the candidates' purity
  rates to 1e-9 relative.

A value outside its tolerance fails the whole operation.  Each check returns
the largest error it saw, relative to max(1, |reference|).
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

import reference

RATE_TOL = 1e-9
TRAJECTORY_TOL = 1e-6
RESIDUAL_TOL = 1e-9


class CheckError(ValueError):
    """Output disagrees with the reference."""


def read_table(path) -> tuple[dict, list[dict]]:
    """Header entries (``# key: value`` lines) and rows of a spinbath CSV table."""
    header, lines = {}, []
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            else:
                lines.append(line)
    return header, list(csv.DictReader(lines))


def _err(value: str, ref: float, tol: float, what: str) -> float:
    err = abs(float(value) - ref) / max(1.0, abs(ref))
    if not err <= tol:
        raise CheckError(f"{what}: got {value}, reference {ref!r} (error {err:.3e} > {tol:g})")
    return err


def check_sweep(scenario: dict, header: dict, rows: list[dict]) -> float:
    values = scenario["sweep"]["values"]
    if [float(r["Ntilde"]) for r in rows] != [float(v) for v in values]:
        raise CheckError("sweep rows do not match the Ntilde grid")
    worst = 0.0
    for row, nt in zip(rows, values):
        if row["error"]:
            raise CheckError(f"Ntilde={nt}: {row['error']}")
        ref, contrib = reference.covariance_rate(
            scenario["model"], nt, nt, reference.uniform_pair_state(nt)
        )
        for col in ("rate_numeric", "rate_analytic"):
            worst = max(worst, _err(row[col], ref, RATE_TOL, f"Ntilde={nt} {col}"))
        for pair in ("xx", "xy", "xz", "yy", "yz", "zz"):
            want = contrib.get(pair, 0.0)
            worst = max(worst, _err(row["contrib_" + pair], want, RATE_TOL * max(1.0, abs(ref)),
                                    f"Ntilde={nt} contrib_{pair}"))
    return worst


class TrajectoryCheck:
    """Compares simulate tables with exp(tL) rho0 at the table's own times.

    The reference is computed on first use and reused while the times repeat,
    which they do for every run of one scenario.
    """

    def __init__(self):
        self._times = None
        self._ref = None

    def __call__(self, scenario: dict, header: dict, rows: list[dict]) -> float:
        ev = scenario["evolution"]
        times = [float(r["t"]) for r in rows]
        if not rows or times[0] != 0.0 or times[-1] != ev["t_final"]:
            raise CheckError("trajectory does not run from 0 to t_final")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise CheckError("trajectory times do not increase")
        steps = int(header["accepted_steps"])
        if "step" in ev:  # fixed step: the scenario dictates the step count
            want = math.ceil(ev["t_final"] / ev["step"] - 1e-12)
            if steps != want:
                raise CheckError(f"{steps} accepted steps, fixed step needs {want}")
        # every stride-th accepted step before t_final, plus t = 0 and t_final
        want_rows = (steps - 1) // ev["stride"] + 2
        if len(rows) != want_rows:
            raise CheckError(f"{len(rows)} rows, {steps} steps at stride {ev['stride']} give {want_rows}")
        if times != self._times:
            j1, j2 = scenario["ensembles"]["j1"], scenario["ensembles"]["j2"]
            psi = reference.uniform_pair_state(j1)
            lv = reference.liouvillian(scenario["model"], j1, j2)
            states = reference.evolve_exact(lv, np.outer(psi, psi.conj()), times)
            self._ref = [reference.simulate_rows(rho, psi) for rho in states]
            self._times = times
        worst = 0.0
        for row, ref in zip(rows, self._ref):
            for col, want in ref.items():
                worst = max(worst, _err(row[col], want, TRAJECTORY_TOL, f"t={row['t']} {col}"))
        return worst


_FOCK = re.compile(r"fock\(m1=(-?[\d.]+);m2=(-?[\d.]+)\)")


def check_dfs(scenario: dict, header: dict, rows: list[dict]) -> float:
    j1 = scenario["ensembles"]["j1"]
    ms = [(j1 - i, j1 - k) for i in range(2 * j1 + 1) for k in range(2 * j1 + 1)]
    want = [(m, m) for m in ms] + [
        (ms[i], ms[k]) for i in range(len(ms)) for k in range(i + 1, len(ms))
    ]
    got = [tuple((float(a), float(b)) for a, b in _FOCK.findall(r["candidate"])) for r in rows]
    got = [g if len(g) == 2 else g * 2 for g in got]
    if got != want:
        raise CheckError("dfs candidates differ from the Fock basis and its pairs")
    worst = 0.0
    for row, (a, b) in zip(rows, got):
        certified = reference.fock_pair_certified(a, b)
        if (row["certified"] == "true") != certified:
            raise CheckError(f"{row['candidate']}: certified={row['certified']}, rule says {certified}")
        ref = reference.fock_residual(scenario["model"], a, b)
        worst = max(worst, _err(row["residual"], ref, RESIDUAL_TOL, row["candidate"]))
        if a == b:  # a candidate state, whose purity loss rate is reported too
            worst = max(worst, _err(row["purity_rate"], 0.0, RESIDUAL_TOL, row["candidate"]))
    return worst


CHECKS = {
    "sweep_ntilde": check_sweep,
    "simulate_adaptive_j5": TrajectoryCheck(),
    "simulate_fixed_small": TrajectoryCheck(),
    "dfs_fock_subspace": check_dfs,
}

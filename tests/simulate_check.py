"""Run a benchmark simulate scenario through the CLI and check its table.

    PYTHONPATH=src python3 tests/simulate_check.py DIR NAME SCENARIO SEED [OVERRIDES]

SCENARIO is ``adaptive`` or ``fixed``: perfbench's ``adaptive_scenario`` or
``fixed_scenario`` at SEED.  OVERRIDES is a JSON object; an object value
updates that block of the scenario, any other value replaces it.  The
scenario goes to DIR/NAME.json and the ``simulate`` table to DIR/NAME.csv,
which the benchmark's own ``TrajectoryCheck`` checks against its reference.
Prints the row, step and refused counts, the right-hand sides (calls of
``_kernels.lindblad_rhs``, counted in process), the seconds ``simulate``
(in process) and the check took, and the largest error; exits non-zero
when the run or the check fails.  Not a test module: pytest does
not collect it.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import TrajectoryCheck, read_table  # noqa: E402
from workloads import adaptive_scenario, fixed_scenario  # noqa: E402

from spinbath import _kernels  # noqa: E402
from spinbath.cli import main  # noqa: E402

SCENARIOS = {"adaptive": adaptive_scenario, "fixed": fixed_scenario}


def run(directory: str, name: str, kind: str, seed: str, overrides: str = "{}") -> None:
    scenario = SCENARIOS[kind](int(seed))
    for key, value in json.loads(overrides).items():
        if isinstance(value, dict):
            scenario[key].update(value)
        else:
            scenario[key] = value
    config, table = Path(directory, name + ".json"), Path(directory, name + ".csv")
    config.write_text(json.dumps(scenario), encoding="utf-8")
    calls = []
    rhs = _kernels.lindblad_rhs
    _kernels.lindblad_rhs = lambda *args, **kwargs: calls.append(1) or rhs(*args, **kwargs)
    start = time.perf_counter()
    try:
        code = main(["simulate", "--config", str(config), "--out", str(table)])
    finally:
        _kernels.lindblad_rhs = rhs
    took = time.perf_counter() - start
    if code != 0:
        sys.exit(f"simulate exited {code}")
    header, rows = read_table(table)
    start = time.perf_counter()
    worst = TrajectoryCheck()(scenario, header, rows)
    checked = time.perf_counter() - start
    print(f"{len(rows)} rows, {header['accepted_steps']} steps, "
          f"{header['rejected_steps']} refused, {len(calls)} right-hand sides, "
          f"simulate {took:.1f} s, check {checked:.1f} s, largest error {worst:.2e}")


if __name__ == "__main__":
    run(*sys.argv[1:])

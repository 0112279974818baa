"""Run a benchmark simulate scenario through the CLI and check its table.

    PYTHONPATH=src python3 tests/simulate_check.py DIR NAME SCENARIO SEED [OVERRIDES]

SCENARIO is ``adaptive`` or ``fixed``: perfbench's ``adaptive_scenario`` or
``fixed_scenario`` at SEED.  OVERRIDES is a JSON object; an object value
updates that block of the scenario, any other value replaces it.  The
scenario goes to DIR/NAME.json and the ``simulate`` table to DIR/NAME.csv,
which the benchmark's own ``TrajectoryCheck`` checks against its reference.
Prints the row, step and refused counts and the largest error; exits
non-zero when the run or the check fails.  Not a test module: pytest does
not collect it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import TrajectoryCheck, read_table  # noqa: E402
from workloads import adaptive_scenario, fixed_scenario  # noqa: E402

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
    code = main(["simulate", "--config", str(config), "--out", str(table)])
    if code != 0:
        sys.exit(f"simulate exited {code}")
    header, rows = read_table(table)
    worst = TrajectoryCheck()(scenario, header, rows)
    print(f"{len(rows)} rows, {header['accepted_steps']} steps, "
          f"{header['rejected_steps']} refused, largest error {worst:.2e}")


if __name__ == "__main__":
    run(*sys.argv[1:])

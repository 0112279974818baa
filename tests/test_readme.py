"""README.md's "Quick start (library)" block, run as written.

The block is the library's first example for a reader, so it must keep
working as the API changes: this extracts it and executes it.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under Quick start (library)"
    return match.group(1)


def test_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert namespace["report"].mismatch <= 1e-12
    traj = namespace["traj"]
    assert traj.times[-1] == 2.0
    assert 0.0 < traj.s_lin[-1] < 1.0
    assert printed[-1] == "(5, 5)"
    assert namespace["rho"].shape == (25, 25)
    assert namespace["rho"].dtype.name == "complex128"


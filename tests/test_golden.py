"""Shipped configs against their recorded outputs.

``tests/golden/<config>.<command>.<ext>`` holds the output of
``spinbath <command> --config configs/<config>.json``.  Headers, strings and
flags must match exactly; numbers to 1e-12 * max(1, |recorded|), so the check
survives BLAS builds that reorder the last bits of a sum.  To re-record after
an intended change, rerun the commands above and explain every changed cell.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from spinbath.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("dfs_fock", "dfs"),
    ("dfs_subspace", "dfs"),
    ("rate_uniform", "rate"),
    ("rate_uniform", "state"),
    ("sweep_lambda", "rate"),
    ("sweep_lambda", "state"),
    ("sweep_lambda", "sweep"),
    ("sweep_levels", "rate"),
    ("sweep_levels", "state"),
    ("sweep_levels", "sweep"),
    ("simulate_dephasing", "rate"),
    ("simulate_dephasing", "simulate"),
    ("simulate_dephasing", "state"),
    ("state_singlet", "rate"),
    ("state_singlet", "dfs"),
    ("state_singlet", "state"),
    ("common_adaptive", "rate"),
    ("common_adaptive", "simulate"),
    ("common_adaptive", "state"),
]

REL = 1e-12


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(1.0, abs(want))


def _as_number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _compare_csv(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    # provenance comments come first, then the column header
    header_at = sum(1 for w in want_lines if w.startswith("#"))
    for n, (g, w) in enumerate(zip(got_lines, want_lines)):
        if n <= header_at:
            assert g == w, f"line {n}"
            continue
        g_cells, w_cells = next(csv.reader([g])), next(csv.reader([w]))
        assert len(g_cells) == len(w_cells), f"line {n}"
        for gc, wc in zip(g_cells, w_cells):
            want_num, got_num = _as_number(wc), _as_number(gc)
            if want_num is None or got_num is None:
                assert gc == wc, f"line {n}: {gc!r} != {wc!r}"
            else:
                assert _close(got_num, want_num), f"line {n}: {gc} != {wc}"


def _compare_json(got, want, where="$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert _close(float(got), float(want)), f"{where}: {got} != {want}"
    else:
        assert got == want and type(got) is type(want), where


@pytest.mark.parametrize("config,command", CASES, ids=[f"{c}-{m}" for c, m in CASES])
def test_shipped_config_output(tmp_path, config, command):
    [recorded] = GOLDEN.glob(f"{config}.{command}.*")
    out = tmp_path / recorded.name
    code = main([command, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", str(out)])
    assert code == 0
    got, want = out.read_text(encoding="utf-8"), recorded.read_text(encoding="utf-8")
    if recorded.suffix == ".json":
        _compare_json(json.loads(got), json.loads(want))
    else:
        _compare_csv(got, want)

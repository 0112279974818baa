"""perfbench's tracer against the live modules.

``perfbench/tracing.py`` wraps spinbath functions by name and reads their
arguments (``Generator._jumps.shape[0]``, the kernels' ``args[1].shape`` and
``args[5]``), so a renamed or re-signed hook breaks ``--trace 1``.  This
runs its ``install`` on a small run of every subcommand and fails here
first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from spinbath import _kernels, cli, diagnostics, generator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

COMMON = {"kind": "common", "axes": ["x", "y", "z"],
          "gamma": {"xx": 1.0, "yy": 0.5, "zz": 0.25, "xz": 0.3}, "lambda": 1.4}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(tmp_path, command, doc):
    """Run ``command`` on ``doc`` under the tracer; return (exit code, tracer).

    Also checks that ``restore`` puts every wrapped attribute back.
    """
    tracing = _tracing()
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    tracer = tracing.Tracer()
    tracing.install(tracer, (cli, generator, diagnostics, _kernels))
    patched = list(tracer._patches)
    assert patched
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                         "--threads", "1"])
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    return code, tracer, tracing


def test_tracer_hooks_run_a_simulation(tmp_path):
    doc = {
        "model": COMMON,
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
        "evolution": {"t_final": 0.5, "tol": 1e-10},
    }
    code, tracer, tracing = _traced_run(tmp_path, "simulate", doc)
    assert code == 0
    rhs = [s for s in tracer.spans if s.name == "kernels.rhs"]
    assert rhs
    assert rhs[0].info == {"n": 9, "k": 3, "ham": False, "steps": 1}
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["kernels.rhs_calls"] == len(rhs)
    assert (metrics["generator.dim"], metrics["generator.jumps"]) == (9, 3)
    assert metrics["states.build_calls"] >= 3  # profile, pair state, density matrix


# each case reaches a different wrapped state builder: coherent_x, the
# coefficient profile and pair state per sweep point, fock_state twice per
# Fock candidate, and coupled_basis_state (counted as a spin_algebra op)
SUBCOMMANDS = {
    "rate": ({"state": {"kind": "plus_x"}},
             {"diagnostics.rate": 1, "states.build": 2}),
    "sweep": ({"state": {"kind": "uniform"}, "sweep": {"parameter": "Ntilde", "values": [1, 2]}},
              {"diagnostics.rate": 2, "states.build": 4}),
    "dfs": ({"dfs": {"candidates": "fock_basis", "subspace": True}},
            {"diagnostics.certify": 1, "states.build": 18}),
    "state": ({"state": {"kind": "coupled", "L": 1, "M": 0}},
              {"spin_algebra.ops": 1, "states.build": 0}),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_tracer_hooks_run_every_subcommand(tmp_path, command):
    blocks, counts = SUBCOMMANDS[command]
    doc = {"model": COMMON, "ensembles": {"j1": 1, "j2": 1}, **blocks}
    code, tracer, tracing = _traced_run(tmp_path, command, doc)
    assert code == 0
    names = [s.name for s in tracer.spans]
    assert names.count("cli.main") == 1
    assert {name: names.count(name) for name in counts} == counts
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.rows"] >= 1
    assert metrics["diagnostics.rate_calls"] == counts.get("diagnostics.rate", 0)

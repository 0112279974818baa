"""perfbench's tracer against the live modules.

``perfbench/tracing.py`` wraps spinbath functions by name and reads their
arguments (``Generator._jumps.shape[0]``, the kernels' ``args[1].shape`` and
``args[5]``), so a renamed or re-signed hook breaks ``--trace 1``.  This
runs its ``install`` on a small ``simulate`` and fails here first.
"""

import importlib.util
import json
from pathlib import Path

from spinbath import _kernels, cli, diagnostics, generator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_run_a_simulation(tmp_path):
    tracing = _tracing()
    doc = {
        "model": {"kind": "common", "axes": ["x", "y", "z"],
                  "gamma": {"xx": 1.0, "yy": 0.5, "zz": 0.25, "xz": 0.3}, "lambda": 1.4},
        "ensembles": {"j1": 1, "j2": 1},
        "state": {"kind": "uniform"},
        "evolution": {"t_final": 0.5, "tol": 1e-10},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    original = _kernels.lindblad_rhs
    tracer = tracing.Tracer()
    tracing.install(tracer, (cli, generator, diagnostics, _kernels))
    try:
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                         "--threads", "1"])
    finally:
        tracer.restore()
    assert code == 0
    assert _kernels.lindblad_rhs is original
    rhs = [s for s in tracer.spans if s.name == "kernels.rhs"]
    assert rhs
    assert rhs[0].info == {"n": 9, "k": 3, "ham": False, "steps": 1}
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["kernels.rhs_calls"] == len(rhs)
    assert (metrics["generator.dim"], metrics["generator.jumps"]) == (9, 3)

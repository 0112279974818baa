"""Traced in-process run of the spinbath CLI, one child process per run.

Usage (run.py starts it with src/ on PYTHONPATH and BLAS threads pinned):

    python3 perfbench/tracing.py --config CFG --command sweep --out-dir DIR \
        --seconds 20 --result RESULT.json

The script times ``import spinbath.cli`` first, before anything else loads
numpy.  It then calls ``spinbath.cli.main`` in pairs: once untraced and once
with every layer's public functions wrapped, alternating which goes first,
until ``--seconds`` have passed.  The wrappers replace the names the callers
resolve (``spinbath.cli.build_generator``, ``spinbath._kernels.rk4_chunk``,
``Generator.__post_init__``, ...) and are removed again after each traced
call, so the untraced call runs the program unmodified.  Spans nest; a span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import argparse
import functools
import json
import threading
import time
from pathlib import Path

J_BUCKETS = (4, 8, 12, 16)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def inside(self, name: str) -> bool:
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Wraps attributes of modules and classes; ``restore`` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches = []

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        stacks = self._local
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stacks.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
                spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _kernel_info(args, _result):
    k, n, _ = args[1].shape
    steps = args[7] if len(args) > 7 else 1
    return {"n": n, "k": k, "ham": bool(args[5]), "steps": steps}


def install(tracer: Tracer, modules) -> None:
    cli, generator, diagnostics, kernels = modules
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(cli, "write_table", "cli.write", lambda a, r: {"rows": len(a[6])})
    for owner, names in (
        (generator, ("angular_momentum_ops", "composite_coupling_ops", "embed")),
        (cli, ("angular_momentum_ops", "coupled_basis_state", "embed")),
    ):
        for attr in names:
            tracer.wrap(owner, attr, "spin_algebra.ops")
    for attr in ("coefficient_profile", "entangled_state", "fock_state", "coherent_x", "density_from_pure"):
        tracer.wrap(cli, attr, "states.build")
    tracer.wrap(cli, "build_generator", "generator.build",
                lambda a, r: {"dim": r.dim, "jumps": r._jumps.shape[0]})
    tracer.wrap(generator.Generator, "__post_init__", "generator.build",
                lambda a, r: {"dim": a[0].dim, "jumps": a[0]._jumps.shape[0]})
    tracer.wrap(diagnostics, "apply_generator", "generator.apply", lambda a, r: {"dim": a[0].dim})
    tracer.wrap(cli, "evolve", "generator.evolve",
                lambda a, r: {"accepted": r.accepted, "rejected": r.rejected})
    tracer.wrap(kernels, "rk4_chunk", "kernels.rk4", _kernel_info)
    tracer.wrap(kernels, "lindblad_rhs", "kernels.rhs", _kernel_info)
    tracer.wrap(cli, "entropy_rate_analytic", "diagnostics.rate",
                lambda a, r: {"dim": len(a[0])})
    tracer.wrap(cli, "certify_stationary", "diagnostics.certify")


def _matmuls(info) -> int:
    # complex n x n products per right-hand side: {K, rho}, A rho A^dag per
    # jump, [H, rho] when there is a Hamiltonian
    return 2 + 2 * info["k"] + (2 if info["ham"] else 0)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals; a span nested in one of its own name is not recounted."""
    top: dict[str, list[Span]] = {}
    for s in spans:
        if not s.inside(s.name):
            top.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in top.get(name, ()))

    def calls(name):
        return len(top.get(name, ()))

    def per_call_at(name, nt):
        dim = (2 * nt + 1) ** 2
        hit = [s.duration for s in top.get(name, ()) if s.info.get("dim") == dim]
        return sum(hit) / len(hit) if hit else 0.0

    main = top["cli.main"][0]
    builds = top.get("generator.build", [])
    largest = max(builds, key=lambda s: s.info["dim"]) if builds else None
    evolves = top.get("generator.evolve", [])
    accepted = sum(s.info["accepted"] for s in evolves)
    rejected = sum(s.info["rejected"] for s in evolves)
    rk4 = top.get("kernels.rk4", [])
    rhs = top.get("kernels.rhs", [])
    rk4_steps = sum(s.info["steps"] for s in rk4)
    flops = bytes_ = 0
    for s in rk4 + rhs:
        rhs_evals = 4 * s.info["steps"] if s.name == "kernels.rk4" else 1
        products = rhs_evals * _matmuls(s.info)
        flops += products * 8 * s.info["n"] ** 3
        bytes_ += products * 3 * 16 * s.info["n"] ** 2
    kernel_s = total("kernels.rk4") + total("kernels.rhs")

    m = {
        "config.load_s": total("config.load"),
        "cli.self_s": main.duration - main.child,
        "cli.write_s": total("cli.write"),
        "cli.rows": sum(s.info["rows"] for s in top.get("cli.write", ())),
        "spin_algebra.ops_s": total("spin_algebra.ops"),
        "spin_algebra.ops_calls": calls("spin_algebra.ops"),
        "states.build_s": total("states.build"),
        "states.build_calls": calls("states.build"),
        "generator.build_s": total("generator.build"),
        "generator.build_calls": calls("generator.build"),
        "generator.dim": largest.info["dim"] if largest else 0,
        "generator.jumps": largest.info["jumps"] if largest else 0,
        "generator.apply_s": total("generator.apply"),
        "generator.apply_calls": calls("generator.apply"),
        "generator.evolve_s": sum(s.duration - s.child for s in evolves),
        "generator.accepted_steps": accepted,
        "generator.rejected_steps": rejected,
        "generator.accept_ratio": accepted / (accepted + rejected) if evolves else 0.0,
        "kernels.rk4_s": total("kernels.rk4"),
        "kernels.rk4_calls": calls("kernels.rk4"),
        "kernels.rk4_steps": rk4_steps,
        "kernels.rk4_step_s": total("kernels.rk4") / rk4_steps if rk4_steps else 0.0,
        "kernels.rhs_s": total("kernels.rhs"),
        "kernels.rhs_calls": calls("kernels.rhs"),
        "kernels.flops_computed": flops,
        "kernels.bytes_computed": bytes_,
        "kernels.gflops": flops / kernel_s / 1e9 if kernel_s else 0.0,
        "diagnostics.rate_s": total("diagnostics.rate"),
        "diagnostics.rate_calls": calls("diagnostics.rate"),
        "diagnostics.certify_s": total("diagnostics.certify"),
        "diagnostics.certify_ops": sum(
            1 for s in top.get("generator.apply", ()) if s.inside("diagnostics.certify")
        ),
    }
    for nt in J_BUCKETS:
        m[f"generator.build_s.j{nt}"] = per_call_at("generator.build", nt)
        m[f"generator.apply_s.j{nt}"] = per_call_at("generator.apply", nt)
        m[f"diagnostics.rate_s.j{nt}"] = per_call_at("diagnostics.rate", nt)
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import spinbath.cli as cli

    import_s = time.perf_counter() - t0
    import spinbath._kernels as kernels
    import spinbath.diagnostics as diagnostics
    import spinbath.generator as generator

    modules = (cli, generator, diagnostics, kernels)
    out_dir = Path(args.out_dir)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        i = len(runs)
        run = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = out_dir / f"{'traced' if traced else 'plain'}-{i}.csv"
            argv = [args.command, "--config", args.config, "--out", str(out),
                    "--threads", "1"]
            tracer = Tracer()
            if traced:
                install(tracer, modules)
            t = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                wall = time.perf_counter() - t
                tracer.restore()
            key = "traced" if traced else "plain"
            run[key] = {"wall_s": wall, "code": code, "out": str(out)}
            if traced and code == 0:
                run["metrics"] = layer_metrics(tracer.spans)
        runs.append(run)
    Path(args.result).write_text(json.dumps({"import_s": import_s, "runs": runs}))


if __name__ == "__main__":
    main()

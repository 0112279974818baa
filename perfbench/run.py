#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spinbath command line.

    python3 perfbench/run.py --workload sweep_ntilde --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each operation is one ``python3 -m spinbath``
process on a scenario file written from ``--seed``, with BLAS threads pinned
to 1 and ``--threads 1``; operations run back to back (a closed loop with
one client) until ``--seconds`` of them have been measured.  Every output is
checked by ``checks.py`` against the independent references in ``reference.py``.

``--trace 0`` reports, as medians over the operations:

* ``wall_s``: process start to exit, output written;
* ``setup_s``: a process that only imports ``spinbath.cli`` and loads the
  scenario, median of 25 spread over the run;
* ``cpu_s``: user plus system CPU of the process;
* ``peak_rss_mb``: its maximum resident set size.

``--trace 1`` runs ``tracing.py`` instead and reports per-layer spans and
counters.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the share of failed operations and the
machine.  A record of the run goes to ``perfbench/.work/<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 25
THREADS = 1  # BLAS threads and spinbath --threads of every measured process

sys.path.insert(0, str(HERE))


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Run one process to completion; wall time, CPU and peak RSS of it alone."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def machine() -> dict:
    import numpy as np
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": THREADS,
        "cli_threads": THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def check_outputs(name: str, scenario: dict, ops: list[dict]) -> None:
    """Sets ok, err and why on every operation.

    Runs after all measuring: it loads numpy and scipy, and Linux counts the
    parent's peak memory into the ``ru_maxrss`` of every child it spawns later.
    """
    from checks import CHECKS, read_table

    for op in ops:
        op["ok"], op["err"], op["why"] = False, 0.0, f"exit code {op['code']}"
        if op["code"] != 0:
            continue
        try:
            op["err"] = CHECKS[name](scenario, *read_table(op["out"]))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            op["why"] = f"{type(exc).__name__}: {exc}"
        else:
            op["ok"], op["why"] = True, ""


def measure_end_to_end(workload, cfg: Path, work: Path, seconds: float, env) -> tuple[dict, list]:
    python = sys.executable
    probe = [python, "-c", "import sys; from spinbath.cli import load_config; load_config(sys.argv[1])",
             str(cfg)]
    run_child(probe, env, work / "probe.log")  # writes bytecode caches; untimed

    def setup_sample() -> float:
        return run_child(probe, env, work / "probe.log")["wall_s"]

    # host speed drifts on a scale of seconds, so set-up is sampled in step
    # with the operations across the whole run rather than in one block
    setups = [setup_sample()]
    ops = []
    measured = 0.0
    while not ops or measured < seconds:
        out = work / f"out-{len(ops)}.csv"
        argv = [python, "-m", "spinbath", workload.command, "--config", str(cfg), "--out", str(out),
                "--threads", str(THREADS)]
        op = run_child(argv, env, work / f"op-{len(ops)}.log")
        op["out"] = str(out)
        measured += op["wall_s"]
        ops.append(op)
        while len(setups) < min(SETUP_SAMPLES, SETUP_SAMPLES * measured / seconds):
            setups.append(setup_sample())
    metrics = {
        "wall_s": statistics.median(o["wall_s"] for o in ops),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(o["cpu_s"] for o in ops),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in ops),
    }
    return metrics, ops


def measure_traced(workload, cfg: Path, work: Path, seconds: float, env) -> tuple[dict, list]:
    result = work / "trace.json"
    argv = [sys.executable, str(HERE / "tracing.py"), "--config", str(cfg), "--command", workload.command,
            "--out-dir", str(work), "--seconds", str(seconds), "--result", str(result)]
    child = run_child(argv, env, work / "trace.log")
    if child["code"] != 0:
        raise SystemExit(f"traced run failed: {(work / 'trace.log').read_text()[-2000:]}")
    doc = json.loads(result.read_text())
    ops = [run[side] for run in doc["runs"] for side in ("plain", "traced")]
    layer_runs = [run["metrics"] for run in doc["runs"] if "metrics" in run]
    metrics = {}
    if layer_runs:
        metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    metrics["cli.import_s"] = doc["import_s"]
    metrics["trace.overhead_s"] = (
        statistics.median(r["traced"]["wall_s"] for r in doc["runs"])
        - statistics.median(r["plain"]["wall_s"] for r in doc["runs"])
    )
    return metrics, ops


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "spinbath" / "cli.py").is_file():
        print(f"perfbench: no spinbath sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scenario = workload.scenario(args.seed)
    units = metric_units()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        cfg = work / "scenario.json"
        cfg.write_text(json.dumps(scenario, indent=2))
        measure = measure_traced if args.trace else measure_end_to_end
        metrics, ops = measure(workload, cfg, work, args.seconds, env)
        check_outputs(args.workload, scenario, ops)
        if args.trace:
            metrics["check.max_err"] = max(o["err"] for o in ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)
    info = machine()
    result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "scenario": scenario, "ops": ops,
        "metrics": result,
    }
    (WORK / f"{args.workload}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed")
    for o in ops:
        if not o["ok"]:
            print(f"  failed: {o['why']}")
    for name, m in result.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':28s} {failed / len(ops):.6g} share")
    print("machine " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Configuration-driven command line for rate evaluation, time evolution,
parameter sweeps, stationarity certification, and state inspection.

Every subcommand reads one JSON scenario (--config), writes one table
(--out, default stdout) as CSV or JSON, and exits 0 on success, 2 on a
configuration defect, an allocation numpy refuses or an unwritable output,
3 when the numeric/analytic rate self-check trips, 4 when the integrator
aborts, 5 when every sweep point fails.  Output is deterministic: fixed row
order, 17-significant-digit floats, provenance comments (tool version,
config digest, seed) and no timestamps, so equal configs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import (
    GAMMA_KEYS,
    PROFILE_STATE_KINDS,
    ConfigError,
    ScenarioConfig,
    StateConfig,
    config_digest,
    damping_entry,
    load_config,
)
from .diagnostics import (
    _schmidt_values,
    certify_stationary,
    coupled_state_rate,
    entanglement_entropy,
    entropy_rate_analytic,
    entropy_rate_estimate,
    pairing_residual,
    pure_fidelity,
    schmidt_number,
    variance_exact,
    variance_x_approx,
)
from .generator import (
    AXIS_INDEX,
    CommonBath,
    FactoredOperator,
    IntegrationAbortError,
    _memory_limit,
    build_generator,
    evolve,
)
from .spin_algebra import SpinQuantum, _twice, angular_momentum_ops, coupled_basis_state

# not called here: kept because perfbench/tracing.py wraps cli.embed
from .spin_algebra import embed
from .states import (
    EntangledStateSpec,
    coefficient_profile,
    coherent_x,
    density_from_pure,
    entangled_state,
    fock_state,
)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_ABORT = 4
EXIT_SWEEP_FAILED = 5

RATE_MISMATCH_TOL = 1e-6

RATE_COLUMNS = (
    "state",
    "normalization",
    "rate_numeric",
    "rate_analytic",
    "rate_estimate",
    "rate_closed_form",
) + tuple("contrib_" + pair for pair in GAMMA_KEYS)


class RateMismatchError(RuntimeError):
    """Numeric and covariance-form rates disagreed beyond the tripwire."""


def _fock(s1: SpinQuantum, s2: SpinQuantum | None, m1, m2):
    """Fock vector |m1>|m2> (|m1> without a second ensemble) and its label."""
    if s2 is None:
        return fock_state(s1, m1), "fock(m=%g)" % m1
    return np.kron(fock_state(s1, m1), fock_state(s2, m2)), "fock(m1=%g;m2=%g)" % (m1, m2)


def _spins(cfg: ScenarioConfig):
    """The ensembles' spins (the second None on one ensemble) and dims; MemoryError,
    naming the size and the limit, when a state vector (16 n bytes) is more than
    the memory a process may hold (``_memory_limit``)."""
    s1 = SpinQuantum.of(cfg.j1)
    s2 = SpinQuantum.of(cfg.j2) if cfg.j2 is not None else None
    dims = (s1.dim,) if s2 is None else (s1.dim, s2.dim)
    n, (memory, what) = math.prod(dims), _memory_limit()
    if 16 * n > memory:
        raise MemoryError(f"a state of {_sci(n)} amplitudes needs {_sci(16 * n)} bytes, "
                          f"more than the {memory:.3g} bytes of {what}")
    return s1, s2, dims


def _sci(count: int) -> str:
    # three digits of an exact int, also past the float range (16 n passes it from j ~ 1e153)
    exp = len(str(count)) - 1
    return f"{count / 10**exp:.2f}e+{exp:02d}"


def build_state(cfg: ScenarioConfig):
    """Construct the configured initial state.

    Returns (vector, dims, label, spec) where spec is the coefficient
    profile for entangled-pair states and None otherwise.
    """
    st = cfg.state
    if st is None:
        raise ConfigError("this command needs a state block")
    s1, s2, dims = _spins(cfg)
    try:
        if st.kind in PROFILE_STATE_KINDS:
            nt = min(s1, s2)
            coeffs = coefficient_profile(
                st.kind, nt, width=st.width, coeffs=st.coeffs, auto_normalize=st.auto_normalize
            )
            spec = EntangledStateSpec(s1, s2, coeffs)
            if st.kind == "gaussian":
                label = "gaussian(width=%g;Ntilde=%g)" % (st.width, nt.j)
            elif st.kind == "singlet":
                label = "singlet(j=%g)" % s1.j
            else:
                label = "%s(Ntilde=%g)" % (st.kind, nt.j)
            return entangled_state(spec), dims, label, spec
        if st.kind == "fock":
            vec, label = _fock(s1, s2, st.m1, st.m2)
            return vec, dims, label, None
        if st.kind == "coupled":
            vec = coupled_basis_state(s1, s2, st.L, st.M)
            return vec, dims, "coupled(L=%g;M=%g)" % (st.L, st.M), None
        if st.kind == "plus_x":
            vec = coherent_x(s1) if s2 is None else np.kron(coherent_x(s1), coherent_x(s2))
            return vec, dims, "plus_x", None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc
    raise ConfigError(f"state: unhandled kind {st.kind!r}")


def _rate_row(cfg: ScenarioConfig) -> dict:
    psi, dims, label, spec = build_state(cfg)
    # coupled |L, M> levels are certified against the bare total-spin closed
    # forms; everything else reports the physical composite-operator rate
    coupled = cfg.state.kind == "coupled"
    normalization = "total_spin" if coupled else "composite"
    # a rate past the float range is reported by the tripwire below (exit
    # 3, or the sweep point's error), not by numpy's RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = entropy_rate_analytic(psi, cfg.model, cfg.j1, cfg.j2, normalization=normalization)
        estimate = None
        if spec is not None and spec.n_tilde.two_j >= 2:
            estimate = entropy_rate_estimate(spec.n_tilde.j, cfg.model)
        closed = None
        if coupled and isinstance(cfg.model, CommonBath) and cfg.model.lam == 1.0 and cfg.state.M == 0.0:
            closed = coupled_state_rate(cfg.state.L, cfg.model.gamma, cfg.model.axes)
    if not report.mismatch <= RATE_MISMATCH_TOL:  # NaN trips too
        raise RateMismatchError(
            "numeric rate %.17g and analytic rate %.17g disagree (relative %.3e)"
            % (report.numeric_rate, report.analytic_rate, report.mismatch)
        )
    row = {
        "state": label,
        "normalization": normalization,
        "rate_numeric": report.numeric_rate,
        "rate_analytic": report.analytic_rate,
        "rate_estimate": estimate,
        "rate_closed_form": closed,
    }
    for pair in GAMMA_KEYS:
        row["contrib_" + pair] = report.per_axis_contributions.get(pair, 0.0)
    return row


def cmd_rate(cfg: ScenarioConfig):
    return list(RATE_COLUMNS), [_rate_row(cfg)], [], None, EXIT_OK


def _remodel(model, **changes):
    """The bath rebuilt with some of its fields changed, so its validation reruns."""
    return type(model)(**{**vars(model), **changes})


def apply_sweep(cfg: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Scenario with one grid value substituted; validation reruns."""
    if parameter == "lambda":
        return cfg._replace(model=_remodel(cfg.model, lam=value))
    if parameter in ("Ntilde", "L"):
        # the library's spin rule, one message for both spins
        try:
            spin = _twice(value, parameter) / 2.0
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
        if parameter == "L":
            return cfg._replace(state=cfg.state._replace(L=spin))
        return cfg._replace(j1=spin, j2=spin)
    target, pair = damping_entry(parameter)
    i, jdx = AXIS_INDEX[pair[0]], AXIS_INDEX[pair[1]]
    gamma = getattr(cfg.model, target).copy()
    gamma[i, jdx] = gamma[jdx, i] = value
    return cfg._replace(model=_remodel(cfg.model, **{target: gamma}))


def cmd_sweep(cfg: ScenarioConfig, threads: int):
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a sweep block")
    parameter = cfg.sweep.parameter
    values = cfg.sweep.values

    def point(value: float):
        try:
            return _rate_row(apply_sweep(cfg, parameter, value)), None
        except (ValueError, RuntimeError, MemoryError) as exc:
            # numpy's refused allocation is a private subclass of MemoryError
            kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            return None, f"{kind}: {exc}"

    if threads == 1:
        results = [point(v) for v in values]
    else:
        # imported here: concurrent.futures costs every other run ~10 ms of start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(point, values))

    # a failed point leaves its rate columns empty
    rows = [{parameter: value, **(row or {}), "error": err}
            for value, (row, err) in zip(values, results)]
    failures = sum(row is None for row, _ in results)
    columns = [parameter, *RATE_COLUMNS, "error"]
    code = EXIT_SWEEP_FAILED if failures == len(values) else EXIT_OK
    return columns, rows, [], None, code


def cmd_simulate(cfg: ScenarioConfig, fmt: str):
    if cfg.evolution is None:
        raise ConfigError("simulate command needs an evolution block")
    ev = cfg.evolution
    if ev.snapshots and fmt != "json":
        raise ConfigError("evolution.snapshots requires JSON output (set output.format or --format)")
    psi, _dims, label, _spec = build_state(cfg)
    rows = []
    snapshots = [] if ev.snapshots else None
    caller_errstate = np.geterr()

    def tabulate(t, mat, s):
        # each row's cells as it arrives; no state is kept past its row
        # unless snapshots asks for it.  The rows run inside evolve, so
        # they restore the caller's numpy error handling
        with np.errstate(**caller_errstate):
            rows.append(
                {
                    "t": t,
                    "s_lin": s,
                    "trace_dev": abs(float(np.real(np.trace(mat))) - 1.0),
                    "min_eig": float(np.linalg.eigvalsh(mat).min()),
                    "fidelity": pure_fidelity(psi, mat),
                }
            )
        if snapshots is not None:
            # arrays, not lists: the writer converts each when it reaches it
            snapshots.append({"t": t, "re": mat.real, "im": mat.imag})

    # an overflowing model is reported by the integrator's checks (exit 4),
    # not by numpy's RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gen = build_generator(cfg.model, cfg.j1, cfg.j2)
        traj = evolve(gen, density_from_pure(psi), ev.t_final, step=ev.step, tol=ev.tol,
                      stride=ev.stride, consumer=tabulate)
    extras = [
        ("state", label),
        ("accepted_steps", traj.accepted),
        ("rejected_steps", traj.rejected),
    ]
    return ["t", "s_lin", "trace_dev", "min_eig", "fidelity"], rows, extras, snapshots, EXIT_OK


def _dfs_candidates(cfg: ScenarioConfig):
    kind = cfg.dfs.candidates
    s1, s2, _dims = _spins(cfg)
    if kind == "fock_basis":
        m2_values = [None] if s2 is None else s2.m_values()
        vecs, labels = zip(*(_fock(s1, s2, m1, m2) for m1 in s1.m_values() for m2 in m2_values))
        return vecs, labels
    if kind == "singlet":
        if s2 is None or s1 != s2:
            raise ConfigError("singlet candidate needs two equal ensembles")
        cfg = cfg._replace(state=StateConfig("singlet"))
    psi, _dims, label, _spec = build_state(cfg)
    return [psi], [label]


class _Rows(list):
    """A table's ``count`` rows, each made by ``make()``'s iterator only when
    the writer reaches it: sized, and never held together.  A list, so that
    ``json.dump`` encodes it as an array; that relies on ``indent``: the C
    encoder, used only without one, reads a list's own (empty) storage."""

    def __init__(self, count: int, make) -> None:
        super().__init__()
        self._count, self._make = count, make

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return self._make()


def cmd_dfs(cfg: ScenarioConfig):
    if cfg.dfs is None:
        raise ConfigError("dfs command needs a dfs block")
    vecs, labels = _dfs_candidates(cfg)
    # an overflowing model shows as inf and nan residuals, not as numpy's
    # RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = certify_stationary(vecs, cfg.model, cfg.j1, cfg.j2, subspace=cfg.dfs.subspace)
    del vecs  # the table needs the labels and the report alone

    def rows():
        for label, res, rate, ok in zip(labels, report.residuals, report.purity_rates, report.state_ok):
            yield {"candidate": label, "residual": res, "purity_rate": rate, "certified": ok}
        for (i, jdx), res, ok in report.iter_pairs():
            yield {"candidate": f"pair({labels[i]}|{labels[jdx]})", "residual": res,
                   "purity_rate": None, "certified": ok}

    extras = [("certified", report.certified)]
    table = _Rows(len(labels) + len(report.pairs), rows)
    return ["candidate", "residual", "purity_rate", "certified"], table, extras, None, EXIT_OK


def cmd_state(cfg: ScenarioConfig):
    psi, dims, label, spec = build_state(cfg)
    extras = [("state", label)]
    if len(dims) == 2:
        extras.append(("schmidt_number", schmidt_number(psi, dims)))
        extras.append(("entanglement_entropy", entanglement_entropy(psi, dims)))
    if spec is not None:
        extras.append(("pairing_residual", pairing_residual(spec.coeffs)))
        if spec.j1 == spec.j2:
            extras.append(("variance_x_approx", variance_x_approx(spec)))
            jx = angular_momentum_ops(spec.j1).x
            total_jx = FactoredOperator(jx, jx, dims)
            extras.append(("variance_x_exact", variance_exact(total_jx, psi)))
        m_values, amplitudes = spec.m_values(), spec.coeffs
    elif len(dims) == 2:
        rows = [{"k": k, "schmidt_value": float(s)} for k, s in enumerate(_schmidt_values(psi, dims))]
        return ["k", "schmidt_value"], rows, extras, None, EXIT_OK
    else:
        m_values, amplitudes = SpinQuantum.of(cfg.j1).m_values(), psi
    rows = [
        {"m": float(m), "re": float(c.real), "im": float(c.imag), "weight": float(abs(c) ** 2)}
        for m, c in zip(m_values, amplitudes)
    ]
    return ["m", "re", "im", "weight"], rows, extras, None, EXIT_OK


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if value == 0.0:
        value = 0.0  # never print IEEE negative zero
    return "%.17g" % value


def _jsonable(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    # JSON has no inf or nan: a non-finite number is its CSV cell's text
    return float(value) if math.isfinite(value) else _format_cell(value)


def write_table(handle, fmt, command, cfg, seed, columns, rows, extras, snapshots) -> None:
    digest = config_digest(cfg)
    if fmt == "csv":
        handle.write("# tool: spinbath %s\n" % __version__)
        handle.write("# command: %s\n" % command)
        handle.write("# config_sha256: %s\n" % digest)
        handle.write("# seed: %s\n" % ("none" if seed is None else seed))
        for key, value in extras:
            handle.write("# %s: %s\n" % (key, _format_cell(value)))
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
        return
    doc = {
        "tool": "spinbath %s" % __version__,
        "command": command,
        "config_sha256": digest,
        "seed": seed,
        "meta": {key: _jsonable(value) for key, value in extras},
        "columns": list(columns),
        "rows": _Rows(len(rows), lambda: ([_jsonable(row.get(col)) for col in columns] for row in rows)),
    }
    if snapshots is not None:
        doc["snapshots"] = snapshots
    json.dump(doc, handle, indent=2, default=np.ndarray.tolist, allow_nan=False)
    handle.write("\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Collective-spin Lindblad dynamics: rates, evolution, sweeps, stationarity.",
    )
    parser.add_argument("--version", action="version", version="spinbath %s" % __version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON scenario file")
    common.add_argument("--out", default=None, help="output file (default: config output.path or stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None, help="override output.format")
    common.add_argument("--threads", type=int, default=1, help="worker threads for sweep grids (>= 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="recorded in the output header; reserved for stochastic features")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rate", parents=[common], help="initial purity-loss rate of the configured state")
    sub.add_parser("simulate", parents=[common], help="integrate the master equation and tabulate diagnostics")
    sub.add_parser("sweep", parents=[common], help="rate table over a parameter grid")
    sub.add_parser("dfs", parents=[common], help="certify candidate states as stationary")
    sub.add_parser("state", parents=[common], help="print state coefficients and entanglement data")
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    try:
        cfg = load_config(args.config)
        fmt = args.format or cfg.output.format
        if args.command == "rate":
            result = cmd_rate(cfg)
        elif args.command == "simulate":
            result = cmd_simulate(cfg, fmt)
        elif args.command == "sweep":
            result = cmd_sweep(cfg, args.threads)
        elif args.command == "dfs":
            result = cmd_dfs(cfg)
        else:
            result = cmd_state(cfg)
    except ConfigError as exc:
        print("spinbath: config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except RateMismatchError as exc:
        print("spinbath: self-check failed: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except IntegrationAbortError as exc:
        print("spinbath: integration aborted: %s" % exc, file=sys.stderr)
        return EXIT_ABORT
    except MemoryError as exc:
        # an allocation numpy refuses (a state past the address space) is
        # the scenario's size at fault, as a config error is
        print("spinbath: cannot allocate: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG

    columns, rows, extras, snapshots, code = result
    out_path = args.out if args.out is not None else cfg.output.path
    table = (fmt, args.command, cfg, args.seed, columns, rows, extras, snapshots)
    try:
        if out_path is None:
            write_table(sys.stdout, *table)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                write_table(handle, *table)
    except OSError as exc:
        print("spinbath: cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    return code


def main_entry() -> None:
    """The process entry point: ``main``, then exit with its code."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; what stdout still holds goes
        # to the null device, or the flush at exit would report it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # the heap is the OS's to reclaim: frozen, the collections at exit
    # neither walk nor free it, and exit still runs atexit handlers and
    # flushes the std streams.  main never freezes: programs call it in process
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()

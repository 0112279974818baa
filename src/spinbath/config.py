"""JSON scenario configuration: parsing, validation, canonical serialization.

One scenario per document.  Parsing is strict: unknown keys, unknown kinds,
or out-of-range values raise ConfigError rather than being ignored, so a
typo cannot silently change what a run computes.  ``config_to_dict`` emits
a canonical form (all damping entries spelled out, coefficients as [re, im]
pairs) whose JSON dump backs the reproducibility digest in output headers.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

# CPython's built-in sha256, as random.py takes its sha512: the standard
# digest module loads OpenSSL, about 3.6 MB resident and 4 ms of import, for
# one digest a run.  It is the fallback where the built-in module is missing
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .generator import AXIS_INDEX, CommonBath, IndependentBath, _check_axes, _check_evolution
from .spin_algebra import _twice
from .states import PROFILE_KINDS as PROFILE_STATE_KINDS

__all__ = [
    "ConfigError",
    "StateConfig",
    "EvolutionConfig",
    "SweepConfig",
    "DfsConfig",
    "OutputConfig",
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "config_digest",
]

GAMMA_KEYS = ("xx", "xy", "xz", "yy", "yz", "zz")
GAMMA_ALIASES = {"yx": "xy", "zx": "xz", "zy": "yz"}

STATE_KINDS = PROFILE_STATE_KINDS + ("fock", "coupled", "plus_x")
SWEEP_PARAMETERS = ("lambda", "Ntilde", "L")
DFS_CANDIDATES = ("fock_basis", "singlet", "state")
OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Scenario document failed validation."""


def _fail(where: str, message: str) -> None:
    raise ConfigError(f"{where}: {message}")


def _check_keys(doc: dict, where: str, required=(), optional=()) -> None:
    if not isinstance(doc, dict):
        _fail(where, f"expected an object, got {type(doc).__name__}")
    allowed = set(required) | set(optional)
    for key in doc:
        if key not in allowed:
            _fail(where, f"unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in required:
        if key not in doc:
            _fail(where, f"missing required key {key!r}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        _fail(where, "integer too large for a float")
    if not math.isfinite(value):
        _fail(where, f"value must be finite, got {value!r}")
    return value


def _half_integer(value, where: str, allow_negative: bool = True) -> float:
    value = _number(value, where)
    try:
        _twice(value, where.rpartition(".")[2], allow_negative)
    except ValueError as exc:
        _fail(where, str(exc))
    return value


def _axes(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(where, "axes must be a non-empty list")
    try:
        return _check_axes(value)
    except ValueError as exc:
        _fail(where, str(exc))


def _gamma_matrix(doc, where: str):
    if not isinstance(doc, dict) or not doc:
        _fail(where, "damping block must be a non-empty object of axis-pair entries")
    mat = np.zeros((3, 3))
    seen = set()
    for key, raw in doc.items():
        canon = GAMMA_ALIASES.get(key, key)
        if canon not in GAMMA_KEYS:
            _fail(where, f"unknown damping entry {key!r}")
        if canon in seen:
            _fail(where, f"damping entry {canon!r} given twice (aliases collide)")
        seen.add(canon)
        val = _number(raw, f"{where}.{key}")
        i, jdx = AXIS_INDEX[canon[0]], AXIS_INDEX[canon[1]]
        mat[i, jdx] = val
        mat[jdx, i] = val
    return mat


def _parse_model(doc, where: str):
    _check_keys(doc, where, required=("kind", "axes"), optional=("gamma", "gamma1", "gamma2", "lambda"))
    axes = _axes(doc["axes"], f"{where}.axes")
    kind = doc["kind"]
    try:
        if kind == "independent":
            _check_keys(doc, where, required=("kind", "axes", "gamma1"), optional=("gamma2",))
            gamma1 = _gamma_matrix(doc["gamma1"], f"{where}.gamma1")
            gamma2 = None
            if doc.get("gamma2") is not None:
                gamma2 = _gamma_matrix(doc["gamma2"], f"{where}.gamma2")
            return IndependentBath(gamma1, gamma2, axes)
        if kind == "common":
            _check_keys(doc, where, required=("kind", "axes", "gamma", "lambda"))
            gamma = _gamma_matrix(doc["gamma"], f"{where}.gamma")
            lam = _number(doc["lambda"], f"{where}.lambda")
            return CommonBath(gamma, lam, axes)
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(where, str(exc))
    _fail(where, f"unknown model kind {kind!r} (expected 'independent' or 'common')")


class StateConfig(NamedTuple):
    kind: str
    width: float | None = None
    coeffs: tuple | None = None
    auto_normalize: bool = False
    m1: float | None = None
    m2: float | None = None
    L: float | None = None
    M: float = 0.0


def _parse_coeff(raw, where: str) -> complex:
    if isinstance(raw, (list, tuple)):
        if len(raw) != 2:
            _fail(where, f"coefficient must be a number or [re, im] pair, got {raw!r}")
        return complex(_number(raw[0], where), _number(raw[1], where))
    return complex(_number(raw, where), 0.0)


def _parse_state(doc, where: str) -> StateConfig:
    _check_keys(
        doc,
        where,
        required=("kind",),
        optional=("width", "coeffs", "auto_normalize", "m1", "m2", "L", "M"),
    )
    kind = doc["kind"]
    if kind not in STATE_KINDS:
        _fail(where, f"unknown state kind {kind!r} (expected one of {STATE_KINDS})")
    if kind == "gaussian":
        _check_keys(doc, where, required=("kind", "width"))
        return StateConfig(kind, width=_number(doc["width"], f"{where}.width"))
    if kind == "custom":
        _check_keys(doc, where, required=("kind", "coeffs"), optional=("auto_normalize",))
        raw = doc["coeffs"]
        if not isinstance(raw, (list, tuple)) or not raw:
            _fail(where, "coeffs must be a non-empty list")
        coeffs = tuple(_parse_coeff(c, f"{where}.coeffs[{i}]") for i, c in enumerate(raw))
        auto = doc.get("auto_normalize", False)
        if not isinstance(auto, bool):
            _fail(where, "auto_normalize must be a boolean")
        return StateConfig(kind, coeffs=coeffs, auto_normalize=auto)
    if kind == "fock":
        _check_keys(doc, where, required=("kind", "m1"), optional=("m2",))
        m2 = doc.get("m2")
        return StateConfig(
            kind,
            m1=_half_integer(doc["m1"], f"{where}.m1"),
            m2=_half_integer(m2, f"{where}.m2") if m2 is not None else None,
        )
    if kind == "coupled":
        _check_keys(doc, where, required=("kind", "L"), optional=("M",))
        return StateConfig(
            kind,
            L=_half_integer(doc["L"], f"{where}.L", allow_negative=False),
            M=_half_integer(doc.get("M", 0.0), f"{where}.M"),
        )
    _check_keys(doc, where, required=("kind",))
    return StateConfig(kind)


class EvolutionConfig(NamedTuple):
    t_final: float
    step: float | None = None
    tol: float | None = None
    stride: int = 1
    snapshots: bool = False


def _parse_evolution(doc, where: str) -> EvolutionConfig:
    _check_keys(doc, where, required=("t_final",), optional=("step", "tol", "stride", "snapshots"))
    t_final = _number(doc["t_final"], f"{where}.t_final")
    step = _number(doc["step"], f"{where}.step") if doc.get("step") is not None else None
    tol = _number(doc["tol"], f"{where}.tol") if doc.get("tol") is not None else None
    stride = doc.get("stride", 1)
    if isinstance(stride, bool) or not isinstance(stride, int):
        _fail(where, f"stride must be an integer, got {stride!r}")
    snapshots = doc.get("snapshots", False)
    if not isinstance(snapshots, bool):
        _fail(where, "snapshots must be a boolean")
    try:
        _check_evolution(t_final, step, tol, stride)
    except ValueError as exc:
        _fail(where, str(exc))
    return EvolutionConfig(t_final, step, tol, stride, snapshots)


class SweepConfig(NamedTuple):
    parameter: str
    values: tuple[float, ...]


def damping_entry(parameter) -> tuple[str, str] | None:
    """(model field, canonical axis pair) a ``gamma<k>.<ab>`` sweep parameter
    addresses, aliases such as "zx" resolved; None for any other parameter."""
    if not isinstance(parameter, str):
        return None
    target, dot, key = parameter.partition(".")
    pair = GAMMA_ALIASES.get(key, key)
    if not dot or target not in ("gamma", "gamma1", "gamma2") or pair not in GAMMA_KEYS:
        return None
    return target, pair


def _parse_sweep(doc, where: str, model, state: StateConfig | None) -> SweepConfig:
    _check_keys(doc, where, required=("parameter", "values"))
    param = doc["parameter"]
    raw = doc["values"]
    if not isinstance(raw, (list, tuple)) or not raw:
        _fail(where, "values must be a non-empty list")
    values = tuple(_number(v, f"{where}.values[{i}]") for i, v in enumerate(raw))
    entry = damping_entry(param)
    if entry is None and param not in SWEEP_PARAMETERS:
        _fail(where, f"unknown sweep parameter {param!r}")
    if param == "lambda":
        if not isinstance(model, CommonBath):
            _fail(where, "lambda sweep needs a common-bath model")
        for i, v in enumerate(values):
            try:
                CommonBath(model.gamma, v, model.axes)
            except ValueError as exc:
                _fail(f"{where}.values[{i}]", str(exc))
    if param == "Ntilde":
        if state is None or state.kind not in PROFILE_STATE_KINDS:
            _fail(where, "Ntilde sweep needs a coefficient-profile state block")
    if param == "L" and (state is None or state.kind != "coupled"):
        _fail(where, "L sweep needs a coupled state block")
    if entry is not None:
        target, pair = entry
        if target == "gamma" and not isinstance(model, CommonBath):
            _fail(where, "gamma.<ab> sweeps address a common-bath model; use gamma1/gamma2")
        if target != "gamma" and not isinstance(model, IndependentBath):
            _fail(where, "gamma1/gamma2 sweeps address an independent-bath model")
        if target == "gamma2" and model.gamma2 is None:
            _fail(where, "gamma2 sweep needs a second damping block in the model")
        for axis in pair:
            if axis not in model.axes:
                _fail(where, f"swept entry {pair!r} touches axis {axis!r} outside the model axes {model.axes}")
    return SweepConfig(param, values)


class DfsConfig(NamedTuple):
    candidates: str
    subspace: bool = False


def _parse_dfs(doc, where: str) -> DfsConfig:
    _check_keys(doc, where, required=("candidates",), optional=("subspace",))
    cand = doc["candidates"]
    if cand not in DFS_CANDIDATES:
        _fail(where, f"unknown candidate kind {cand!r} (expected one of {DFS_CANDIDATES})")
    subspace = doc.get("subspace", False)
    if not isinstance(subspace, bool):
        _fail(where, "subspace must be a boolean")
    return DfsConfig(cand, subspace)


class OutputConfig(NamedTuple):
    path: str | None = None
    format: str = "csv"


def _parse_output(doc, where: str) -> OutputConfig:
    _check_keys(doc, where, optional=("path", "format"))
    path = doc.get("path")
    if path is not None and not isinstance(path, str):
        _fail(where, "path must be a string")
    fmt = doc.get("format", "csv")
    if fmt not in OUTPUT_FORMATS:
        _fail(where, f"unknown format {fmt!r} (expected one of {OUTPUT_FORMATS})")
    return OutputConfig(path, fmt)


class ScenarioConfig(NamedTuple):
    model: IndependentBath | CommonBath
    j1: float
    j2: float | None
    state: StateConfig | None
    evolution: EvolutionConfig | None
    sweep: SweepConfig | None
    dfs: DfsConfig | None
    output: OutputConfig


def parse_config(doc) -> ScenarioConfig:
    """Validate a scenario document; raises ConfigError on any defect."""
    _check_keys(
        doc,
        "scenario",
        required=("model", "ensembles"),
        optional=("state", "evolution", "sweep", "dfs", "output"),
    )
    model = _parse_model(doc["model"], "model")
    ens = doc["ensembles"]
    _check_keys(ens, "ensembles", required=("j1",), optional=("j2",))
    j1 = _half_integer(ens["j1"], "ensembles.j1", allow_negative=False)
    j2 = _half_integer(ens["j2"], "ensembles.j2", allow_negative=False) if ens.get("j2") is not None else None

    if isinstance(model, CommonBath) and j2 is None:
        _fail("ensembles", "a common-bath model needs j2")
    if isinstance(model, IndependentBath) and model.gamma2 is not None and j2 is None:
        _fail("ensembles", "model.gamma2 given but ensembles.j2 missing")

    state = _parse_state(doc["state"], "state") if doc.get("state") is not None else None
    if state is not None:
        if state.kind in PROFILE_STATE_KINDS or state.kind == "coupled":
            if j2 is None:
                _fail("state", f"state kind {state.kind!r} needs two ensembles (set ensembles.j2)")
        if state.kind == "singlet" and j1 != j2:
            _fail("state", "singlet state needs j1 == j2")
        if state.kind == "fock":
            if j2 is not None and state.m2 is None:
                _fail("state", "fock state with two ensembles needs m2")
            if j2 is None and state.m2 is not None:
                _fail("state", "m2 given but ensembles.j2 missing")

    evolution = _parse_evolution(doc["evolution"], "evolution") if doc.get("evolution") is not None else None
    sweep = _parse_sweep(doc["sweep"], "sweep", model, state) if doc.get("sweep") is not None else None
    dfs = _parse_dfs(doc["dfs"], "dfs") if doc.get("dfs") is not None else None
    output = _parse_output(doc.get("output") or {}, "output")
    return ScenarioConfig(model, j1, j2, state, evolution, sweep, dfs, output)


def _unique_keys(pairs) -> dict:
    # json keeps the last of repeated keys; a repeated key is a typo that
    # would silently replace the first value
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_config(path) -> ScenarioConfig:
    """Parse a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    except ValueError as exc:
        # bad JSON, text that is not UTF-8, or an integer literal past
        # Python's digit limit
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse") from None
    return parse_config(doc)


def _gamma_dict(mat) -> dict:
    out = {}
    for key in GAMMA_KEYS:
        i, jdx = AXIS_INDEX[key[0]], AXIS_INDEX[key[1]]
        out[key] = float(mat[i, jdx])
    return out


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical plain-dict form; parse_config(config_to_dict(c)) round-trips."""
    if isinstance(cfg.model, CommonBath):
        model = {
            "kind": "common",
            "axes": list(cfg.model.axes),
            "gamma": _gamma_dict(cfg.model.gamma),
            "lambda": cfg.model.lam,
        }
    else:
        model = {
            "kind": "independent",
            "axes": list(cfg.model.axes),
            "gamma1": _gamma_dict(cfg.model.gamma1),
        }
        if cfg.model.gamma2 is not None:
            model["gamma2"] = _gamma_dict(cfg.model.gamma2)
    doc = {"model": model, "ensembles": {"j1": cfg.j1}}
    if cfg.j2 is not None:
        doc["ensembles"]["j2"] = cfg.j2
    if cfg.state is not None:
        st: dict = {"kind": cfg.state.kind}
        if cfg.state.kind == "gaussian":
            st["width"] = cfg.state.width
        elif cfg.state.kind == "custom":
            st["coeffs"] = [[c.real, c.imag] for c in cfg.state.coeffs]
            st["auto_normalize"] = cfg.state.auto_normalize
        elif cfg.state.kind == "fock":
            st["m1"] = cfg.state.m1
            if cfg.state.m2 is not None:
                st["m2"] = cfg.state.m2
        elif cfg.state.kind == "coupled":
            st["L"] = cfg.state.L
            st["M"] = cfg.state.M
        doc["state"] = st
    if cfg.evolution is not None:
        ev: dict = {"t_final": cfg.evolution.t_final, "stride": cfg.evolution.stride,
                    "snapshots": cfg.evolution.snapshots}
        if cfg.evolution.step is not None:
            ev["step"] = cfg.evolution.step
        if cfg.evolution.tol is not None:
            ev["tol"] = cfg.evolution.tol
        doc["evolution"] = ev
    if cfg.sweep is not None:
        doc["sweep"] = {"parameter": cfg.sweep.parameter, "values": list(cfg.sweep.values)}
    if cfg.dfs is not None:
        doc["dfs"] = {"candidates": cfg.dfs.candidates, "subspace": cfg.dfs.subspace}
    doc["output"] = {"format": cfg.output.format}
    if cfg.output.path is not None:
        doc["output"]["path"] = cfg.output.path
    return doc


def config_digest(cfg: ScenarioConfig) -> str:
    """sha256 over the canonical JSON form, for output provenance headers."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()

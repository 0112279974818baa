"""Markovian generators for collective-spin decoherence and their integration.

A decoherence model is a damping matrix gamma (real symmetric positive
semidefinite, indexed by the coupling axes) together with the coupling
operators it contracts: the embedded single-ensemble spin operators for
independent baths, or the weighted composite operators when both ensembles
see one bath.  The double-sum dissipator

    sum_ab gamma_ab (C_b rho C_a - (1/2){C_a C_b, rho})

is always realized in canonical form: gamma = O D O^T, jump operators
A_k = sqrt(D_k) sum_a O_ak C_a with the rates absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .spin_algebra import SpinOperator, SpinQuantum, angular_momentum_ops, composite_coupling_ops, embed
from .states import DensityMatrix

__all__ = [
    "AXES",
    "AXIS_INDEX",
    "NonSymmetricError",
    "NotPositiveSemidefiniteError",
    "IntegrationAbortError",
    "IndependentBath",
    "CommonBath",
    "Generator",
    "Trajectory",
    "validate_damping",
    "canonical_jumps",
    "coupling_operators",
    "build_generator",
    "apply_generator",
    "rank_one_factors",
    "stationary_residual",
    "default_step",
    "evolve",
]

AXES = ("x", "y", "z")
AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


class NonSymmetricError(ValueError):
    """Damping matrix is not symmetric."""


class NotPositiveSemidefiniteError(ValueError):
    """Damping matrix has a negative eigenvalue."""


class IntegrationAbortError(RuntimeError):
    """Integration stopped before t_final; ``t_last`` is the last good time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


def _check_axes(axes) -> tuple[str, ...]:
    axes = tuple(axes)
    if not axes:
        raise ValueError("at least one coupling axis is required")
    seen = []
    for a in axes:
        if a not in AXES:
            raise ValueError(f"unknown axis {a!r}, expected one of {AXES}")
        if a in seen:
            raise ValueError(f"axis {a!r} listed twice")
        seen.append(a)
    # canonical x, y, z order regardless of how the user listed them
    return tuple(a for a in AXES if a in seen)


# relative bounds: the asymmetry and lowest eigenvalue validate_damping allows,
# and the eigen-rate at or below which canonical_jumps drops a jump
DAMPING_SYM_TOL = 1e-12
DAMPING_EIG_FLOOR = -1e-12
JUMP_RATE_TOL = 1e-15


def validate_damping(gamma, axes) -> np.ndarray:
    """Check a 3x3 damping matrix against its declared axes.

    Returns a defensive copy (float64, full 3x3, axis order x, y, z).
    Raises NonSymmetricError / NotPositiveSemidefiniteError, or ValueError
    when entries outside the declared axes are nonzero or the matrix is not
    real.
    """
    axes = _check_axes(axes)
    gamma = np.asarray(gamma)
    if gamma.shape != (3, 3):
        raise ValueError(f"damping matrix must be 3x3, got shape {gamma.shape}")
    if np.iscomplexobj(gamma):
        if np.max(np.abs(gamma.imag)) > 0.0:
            raise ValueError("damping matrix must be real")
        gamma = gamma.real
    gamma = np.ascontiguousarray(gamma, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(gamma))))
    if float(np.max(np.abs(gamma - gamma.T))) > DAMPING_SYM_TOL * scale:
        raise NonSymmetricError("damping matrix is not symmetric")
    for a in AXES:
        for b in AXES:
            if (a not in axes or b not in axes) and gamma[AXIS_INDEX[a], AXIS_INDEX[b]] != 0.0:
                raise ValueError(f"entry {a}{b} nonzero but outside declared axes {axes}")
    lo = float(np.linalg.eigvalsh(gamma).min())
    if lo < DAMPING_EIG_FLOOR * scale:
        raise NotPositiveSemidefiniteError(f"damping matrix has eigenvalue {lo:.3e}")
    return gamma.copy()


@dataclass(frozen=True, eq=False)
class IndependentBath:
    """Each ensemble couples to its own bath.

    ``gamma2=None`` with no second ensemble gives the single-ensemble model;
    with two ensembles it means the second one is undamped.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray | None
    axes: tuple[str, ...]

    def __post_init__(self) -> None:
        axes = _check_axes(self.axes)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "gamma1", validate_damping(self.gamma1, axes))
        if self.gamma2 is not None:
            object.__setattr__(self, "gamma2", validate_damping(self.gamma2, axes))


@dataclass(frozen=True, eq=False)
class CommonBath:
    """Both ensembles couple to one bath through the weighted composite ops."""

    gamma: np.ndarray
    lam: float
    axes: tuple[str, ...]

    def __post_init__(self) -> None:
        axes = _check_axes(self.axes)
        lam = float(self.lam)
        if not 0.0 <= lam <= 2.0:
            raise ValueError(f"lam={lam} outside [0, 2]")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", validate_damping(self.gamma, axes))


def coupling_operators(model, j1, j2=None) -> list[tuple[np.ndarray, dict[str, SpinOperator]]]:
    """Damping matrices paired with the coupling operators they contract.

    Returns a list of ``(gamma, {axis: SpinOperator})`` sets: two sets for an
    independent bath over two ensembles, one otherwise.  Operators are
    restricted to the model's declared axes.
    """
    s1 = SpinQuantum.of(j1)
    s2 = SpinQuantum.of(j2) if j2 is not None else None
    if isinstance(model, CommonBath):
        if s2 is None:
            raise ValueError("a common bath needs two ensembles")
        ops = composite_coupling_ops(s1, s2, model.lam)
        return [(model.gamma, {a: getattr(ops, a) for a in model.axes})]
    if isinstance(model, IndependentBath):
        ops1 = angular_momentum_ops(s1)
        if s2 is None:
            if model.gamma2 is not None:
                raise ValueError("gamma2 given but no second ensemble")
            return [(model.gamma1, {a: getattr(ops1, a) for a in model.axes})]
        dims = (s1.dim, s2.dim)
        ops2 = angular_momentum_ops(s2)
        sets = [
            (model.gamma1, {a: embed(getattr(ops1, a), 0, dims) for a in model.axes})
        ]
        if model.gamma2 is not None:
            sets.append(
                (model.gamma2, {a: embed(getattr(ops2, a), 1, dims) for a in model.axes})
            )
        return sets
    raise TypeError(f"unknown model type {type(model).__name__}")


def canonical_jumps(gamma, ops: dict[str, SpinOperator]) -> list[SpinOperator]:
    """Diagonalize gamma and absorb the rates into jump operators.

    Parameters
    ----------
    gamma : (3, 3) array
        Validated damping matrix (entries outside ``ops`` keys are zero).
    ops : dict axis -> SpinOperator
        Coupling operators for the axes gamma acts on.

    Returns
    -------
    list of SpinOperator
        Jump operators A_k = sqrt(d_k) sum_a O_ak C_a; the dissipator
        sum_k (A_k rho A_k^dag - (1/2){A_k^dag A_k, rho}) reproduces the
        double sum over gamma exactly.
    """
    axes = _check_axes(ops.keys())
    dims = ops[axes[0]].dims
    idx = [AXIS_INDEX[a] for a in axes]
    sub = np.asarray(gamma, dtype=np.float64)[np.ix_(idx, idx)]
    evals, evecs = np.linalg.eigh(sub)
    top = max(float(evals.max(initial=0.0)), 0.0)
    jumps = []
    for k in range(len(axes)):
        rate = float(evals[k])
        if rate <= JUMP_RATE_TOL * max(top, 1.0):
            if rate < -1e-10 * max(top, 1.0):
                raise NotPositiveSemidefiniteError(f"negative canonical rate {rate:.3e}")
            continue
        mat = np.zeros((ops[axes[0]].dim,) * 2, dtype=np.complex128)
        for a_i, a in enumerate(axes):
            mat += evecs[a_i, k] * ops[a].matrix
        jumps.append(SpinOperator(math.sqrt(rate) * mat, dims))
    return jumps


def _canonical_jump_set(sets) -> tuple[list[SpinOperator], tuple[int, ...]]:
    """Canonical jumps of every ``coupling_operators`` set, and their dims."""
    jumps = [op for gamma, ops in sets for op in canonical_jumps(gamma, ops)]
    return jumps, next(iter(sets[0][1].values())).dims


@dataclass(eq=False)
class Generator:
    """Lindblad generator in canonical form, ready for the kernels."""

    jump_ops: list[SpinOperator]
    hamiltonian: SpinOperator | None
    dims: tuple[int, ...]
    _jumps: np.ndarray = field(init=False, repr=False)
    _jdags: np.ndarray = field(init=False, repr=False)
    _ksum: np.ndarray = field(init=False, repr=False)
    _ham: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        n = math.prod(self.dims)
        for op in self.jump_ops:
            if op.dim != n:
                raise ValueError("jump operator dimension does not match dims")
        if self.hamiltonian is not None and self.hamiltonian.dim != n:
            raise ValueError("hamiltonian dimension does not match dims")
        if self.jump_ops:
            self._jumps = np.ascontiguousarray(
                np.stack([op.matrix for op in self.jump_ops])
            )
        else:
            self._jumps = np.zeros((0, n, n), dtype=np.complex128)
        self._jdags = np.ascontiguousarray(self._jumps.conj().transpose(0, 2, 1))
        ksum = np.zeros((n, n), dtype=np.complex128)
        for k in range(self._jumps.shape[0]):
            ksum += self._jdags[k] @ self._jumps[k]
        self._ksum = np.ascontiguousarray(ksum)
        self._ham = (
            np.ascontiguousarray(self.hamiltonian.matrix) if self.hamiltonian is not None else None
        )

    @property
    def dim(self) -> int:
        return self._ksum.shape[0]


def build_generator(model, j1, j2=None, hamiltonian: SpinOperator | None = None) -> Generator:
    """Canonical-form generator for a decoherence model on one or two ensembles."""
    jumps, dims = _canonical_jump_set(coupling_operators(model, j1, j2))
    return Generator(jumps, hamiltonian, dims)


def _as_matrix(rho, dim: int | None = None) -> np.ndarray:
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise ValueError(f"matrix shape {mat.shape} does not match generator dim {dim}")
    return np.ascontiguousarray(mat, dtype=np.complex128)


def apply_generator(gen: Generator, rho) -> np.ndarray:
    """Action of the generator on a matrix (Hermitian in -> Hermitian out)."""
    mat = _as_matrix(rho, gen.dim)
    return _kernels.lindblad_rhs(mat, gen._jumps, gen._jdags, gen._ksum, gen._ham, gen._ham is not None)


def rank_one_factors(jumps, ham, psi, phi) -> tuple[np.ndarray, np.ndarray]:
    """Factors U, V, each n x (k + 2), with L(psi phi^dag) = U V^dag.

    U = [A_1 psi, ..., A_k psi, -K psi / 2 - i H psi, psi] and
    V = [A_1 phi, ..., A_k phi, phi, -K phi / 2 - i H phi], for the jump
    matrices ``jumps`` (a sequence or a (k, n, n) stack) and the Hamiltonian
    matrix ``ham`` (None when absent).  U depends on psi only and V on phi
    only.  Uses matrix-vector products alone: K = sum_k A_k^dag A_k is
    applied as sum_k A_k^dag (A_k x) and never formed.
    """

    def columns(x):
        applied = [a @ x for a in jumps]
        drift = np.zeros(x.shape, dtype=np.complex128)
        for a, ax in zip(jumps, applied):
            # A^dag y = conj(y^dag A), without forming A^dag
            drift -= 0.5 * (ax.conj() @ a).conj()
        if ham is not None:
            drift -= 1j * (ham @ x)
        return applied, drift

    psi_cols, psi_drift = columns(psi)
    phi_cols, phi_drift = (psi_cols, psi_drift) if phi is psi else columns(phi)
    u = np.column_stack(psi_cols + [psi_drift, psi])
    v = np.column_stack(phi_cols + [phi, phi_drift])
    return u, v


def stationary_residual(gen: Generator, rho) -> float:
    """Frobenius norm of the generator applied to a state."""
    return float(np.linalg.norm(apply_generator(gen, rho)))


def default_step(gen: Generator) -> float | None:
    """Conservative fixed step 0.1 / (sum_k ||A_k||^2 + ||H||), None if free."""
    scale = 0.0
    for k in range(gen._jumps.shape[0]):
        scale += float(np.linalg.norm(gen._jumps[k], 2)) ** 2
    if gen._ham is not None:
        scale += float(np.linalg.norm(gen._ham, 2))
    if scale <= 0.0:
        return None
    return 0.1 / scale


@dataclass(eq=False)
class Trajectory:
    """Sampled density-matrix evolution.

    ``states[i]`` is the sample at ``times[i]``; ``s_lin`` the matching
    linear entropies 1 - tr(rho^2).  ``accepted``/``rejected`` count
    integrator steps (rejected is 0 in fixed-step mode).
    """

    times: np.ndarray
    states: list[np.ndarray]
    s_lin: np.ndarray
    dims: tuple[int, ...]
    accepted: int
    rejected: int


# Largest n^2 at which fixed-step evolve uses the RK4 step matrix.  The matrix
# holds n^4 entries and costs n^4 per step, against about 4 (2k + 2) n^3 for
# the kernel's stages; the step matrix is faster to n = 16 and slower from
# n = 36 on.
STEP_MATRIX_MAX_ROWS = 256


def _purity(mat: np.ndarray) -> float:
    # tr(rho^2) = ||rho||_F^2 for Hermitian rho
    return float(np.real(np.vdot(mat, mat)))


def evolve(
    gen: Generator,
    rho0,
    t_final: float,
    step: float | None = None,
    tol: float | None = None,
    stride: int = 1,
    max_steps: int = 10_000_000,
) -> Trajectory:
    """Integrate d rho/dt = L(rho): fixed-step RK4, or adaptive Krylov steps.

    Both modes are linear maps of rho0: nothing is Hermitized or
    renormalized, so trace and Hermiticity drift shows in the states.

    Fixed step: classic RK4, rho -> P(hL) rho.  With n^2 <=
    ``STEP_MATRIX_MAX_ROWS`` a step is one matrix-vector product with the
    precomputed increment P(hL) - I (a final partial step gets its own
    P(h_last L) - I); otherwise the dense kernel evaluates the four stages.

    Adaptive (``tol`` given): L does not depend on time, so each step is
    rho -> exp(h L) rho, projected onto the Krylov space of rho
    (``_kernels.krylov_propagator``, ``_kernels.KRYLOV_DIM`` right-hand
    sides per accepted step).  A step is accepted when the Krylov error
    estimate is at most tol * h * max(1, ||rho||_F); a rejected h shrinks
    and is retried on the same basis, at no right-hand-side cost.

    Parameters
    ----------
    gen : Generator
    rho0 : DensityMatrix or ndarray
        Initial state.
    t_final : float
        Integration horizon (>= 0).
    step : float, optional
        Fixed step size; defaults to ``default_step(gen)``.  In adaptive
        mode this is the initial step.
    tol : float, optional
        Local error per unit time; selects adaptive Krylov steps.
    stride : int
        Record every stride-th accepted step (t = 0 and t_final always).
    max_steps : int
        Abort guard on the total number of steps, accepted and rejected.

    Returns
    -------
    Trajectory

    Raises
    ------
    IntegrationAbortError
        When a fixed step needs more than ``max_steps`` steps (raised before
        any step, ``t_last`` = 0), the state norm blows up beyond 10x its
        initial value, or an adaptive run exceeds ``max_steps`` or its step
        underflows.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be non-negative")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if step is not None and step <= 0.0:
        raise ValueError("step must be positive")
    if tol is not None and tol <= 0.0:
        raise ValueError("tol must be positive")
    rho = _as_matrix(rho0, gen.dim).copy()
    norm0 = float(np.linalg.norm(rho))
    norm_cap = 10.0 * max(norm0, 1e-300)

    times = [0.0]
    states = [rho.copy()]
    s_lin = [1.0 - _purity(rho)]
    args = (gen._jumps, gen._jdags, gen._ksum, gen._ham, gen._ham is not None)

    def record(t: float, mat: np.ndarray) -> None:
        times.append(t)
        states.append(mat.copy())
        s_lin.append(1.0 - _purity(mat))

    def check_blowup(t: float, mat: np.ndarray) -> None:
        nrm = float(np.linalg.norm(mat))
        if not math.isfinite(nrm) or nrm > norm_cap:
            raise IntegrationAbortError(
                f"state norm {nrm:.3e} exceeded 10x its initial value; "
                f"last good time t={t:.6g}",
                t_last=t,
            )

    if t_final == 0.0:
        return Trajectory(np.array(times), states, np.array(s_lin), gen.dims, 0, 0)

    # fixed step, or the initial step in adaptive mode
    h = step if step is not None else default_step(gen)
    if h is None or h > t_final:
        h = t_final
    if tol is None:
        nsteps = max(1, math.ceil(t_final / h - 1e-12))
        if nsteps > max_steps:
            raise IntegrationAbortError(
                f"fixed step {h} needs {nsteps} steps > max_steps={max_steps}", t_last=0.0
            )
        h_last = t_final - (nsteps - 1) * h
        if gen.dim**2 <= STEP_MATRIX_MAX_ROWS:
            lv = _kernels.liouvillian(*args)
            inc = _kernels.rk4_step_increment(lv, h)

            def chunk(mat, step, count):
                d = inc if step == h else _kernels.rk4_step_increment(lv, step)
                return _kernels.step_matrix_chunk(mat, d, count)

        else:

            def chunk(mat, step, count):
                return _kernels.rk4_chunk(mat, *args, step, count)

        done = 0
        accepted = 0
        while done < nsteps - 1:
            take = min(stride, nsteps - 1 - done)
            rho = chunk(rho, h, take)
            done += take
            accepted += take
            t_now = done * h
            if done % stride == 0:
                record(t_now, rho)
            check_blowup(t_now, rho)
        if h_last > 1e-15 * max(h, 1.0):
            rho = chunk(rho, h_last, 1)
            accepted += 1
        check_blowup(t_final, rho)
        if times[-1] < t_final:
            record(t_final, rho)
        return Trajectory(np.array(times), states, np.array(s_lin), gen.dims, accepted, 0)

    # adaptive Krylov steps of exp(h L): one basis per accepted step; a
    # rejected h shrinks and is retried on the same basis
    t = 0.0
    accepted = 0
    rejected = 0
    while t < t_final * (1.0 - 1e-14):
        propagate = _kernels.krylov_propagator(rho, *args)
        scale = tol * max(1.0, float(np.linalg.norm(rho)))
        while True:
            h = min(h, t_final - t)
            if h < 1e-15 * max(t_final, 1.0):
                raise IntegrationAbortError(f"step size underflow at t={t:.6g}", t_last=t)
            if accepted + rejected >= max_steps:
                raise IntegrationAbortError(f"exceeded max_steps={max_steps} at t={t:.6g}", t_last=t)
            new, err = propagate(h)
            # the estimate grows about as h^(m-1); 1/m damps the correction
            if err == 0.0:
                factor = 5.0
            else:
                factor = min(5.0, max(0.2, 0.9 * (scale * h / err) ** (1.0 / _kernels.KRYLOV_DIM)))
            if err <= scale * h:
                break
            rejected += 1
            h *= factor
        # the next basis is built without this one alive
        del propagate
        rho = new
        t += h
        accepted += 1
        check_blowup(t, rho)
        if accepted % stride == 0 and t < t_final * (1.0 - 1e-14):
            record(t, rho)
        h *= factor
    record(t_final, rho)
    return Trajectory(np.array(times), states, np.array(s_lin), gen.dims, accepted, rejected)

"""Markovian generators for collective-spin decoherence and their integration.

A decoherence model is a damping matrix gamma (real symmetric positive
semidefinite, indexed by the coupling axes) together with the coupling
operators it contracts: the single-ensemble spin operators for independent
baths, or the weighted composite operators when both ensembles see one
bath.  The double-sum dissipator

    sum_ab gamma_ab (C_b rho C_a - (1/2){C_a C_b, rho})

is always realized in canonical form: gamma = O D O^T, jump operators
A_k = sqrt(D_k) sum_a O_ak C_a with the rates absorbed.

Every such operator is X (x) I + I (x) Y with X and Y single-ensemble
matrices, and this module has no other operator form: jumps are built
factored (``FactoredOperator``, from ``coupling_factors``), the pure-state
paths apply them without building an n x n matrix, the ``Generator`` keeps
each jump, and -K/2, on its few nonzero diagonals for the banded kernel
(``_kernels.lindblad_rhs``).  The dissipator is the whole generator, and its
jumps are Hermitian, so every generator is self-adjoint and negative
semidefinite in the Hilbert-Schmidt inner product.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import NamedTuple

import numpy as np

from . import _kernels
from .spin_algebra import SpinQuantum, angular_momentum_ops
# not called here: kept because perfbench/tracing.py wraps generator.composite_coupling_ops
# and generator.embed
from .spin_algebra import composite_coupling_ops, embed

__all__ = [
    "AXES",
    "AXIS_INDEX",
    "NonSymmetricError",
    "NotPositiveSemidefiniteError",
    "IntegrationAbortError",
    "IndependentBath",
    "CommonBath",
    "FactoredOperator",
    "Generator",
    "Trajectory",
    "validate_damping",
    "canonical_jumps",
    "coupling_factors",
    "build_generator",
    "apply_generator",
    "rank_one_factors",
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
# the eigen-rate at or below which canonical_jumps drops a jump, and the
# largest |A - A^dag| entry, relative to the largest |A| entry, of a
# ``FactoredOperator`` factor
DAMPING_SYM_TOL = 1e-12
DAMPING_EIG_FLOOR = -1e-12
JUMP_RATE_TOL = 1e-15
HERMITIAN_TOL = 1e-12


def validate_damping(gamma, axes) -> np.ndarray:
    """Check a 3x3 damping matrix against its declared axes.

    Returns a defensive copy (float64, full 3x3, axis order x, y, z).
    Raises NonSymmetricError / NotPositiveSemidefiniteError, or ValueError
    when an entry is not finite, entries outside the declared axes are
    nonzero or the matrix is not real.
    """
    axes = _check_axes(axes)
    gamma = np.asarray(gamma)
    if gamma.shape != (3, 3):
        raise ValueError(f"damping matrix must be 3x3, got shape {gamma.shape}")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("damping matrix entries must be finite")
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


class IndependentBath:
    """Each ensemble couples to its own bath.

    ``gamma2=None`` with no second ensemble gives the single-ensemble model;
    with two ensembles it means the second one is undamped.
    """

    def __init__(self, gamma1: np.ndarray, gamma2: np.ndarray | None, axes: tuple[str, ...]) -> None:
        self.axes = _check_axes(axes)
        self.gamma1 = validate_damping(gamma1, self.axes)
        self.gamma2 = None if gamma2 is None else validate_damping(gamma2, self.axes)


class CommonBath:
    """Both ensembles couple to one bath through the weighted composite ops."""

    def __init__(self, gamma: np.ndarray, lam: float, axes: tuple[str, ...]) -> None:
        self.axes = _check_axes(axes)
        self.lam = float(lam)
        if not 0.0 <= self.lam <= 2.0:
            raise ValueError(f"lam={self.lam} outside [0, 2]")
        self.gamma = validate_damping(gamma, self.axes)


class FactoredOperator:
    """Hermitian operator X (x) I + I (x) Y on two ensembles, or X alone on one.

    ``x`` acts on the first ensemble and ``y`` on the second (None when
    ``dims`` has one factor).  On a vector psi reshaped to (d1, d2) the
    operator acts as X psi + psi Y^T: O(n d) work, and no n x n matrix.
    Every coupling and canonical jump operator of the models here has this
    form, and the library never builds its dense n x n view.  Each factor
    must be finite and Hermitian (to ``HERMITIAN_TOL``), or ValueError is
    raised, so the operator is its own adjoint.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray | None, dims: tuple[int, ...]) -> None:
        dims = tuple(int(d) for d in dims)
        parts = [np.ascontiguousarray(p, dtype=np.complex128) for p in (x, y) if p is not None]
        if [p.shape for p in parts] != [(d, d) for d in dims]:
            raise ValueError(f"factors of shapes {[p.shape for p in parts]} do not match dims {dims}")
        for p in parts:
            # a NaN fails every comparison, so the Hermiticity test alone would pass it
            if not np.all(np.isfinite(p)):
                raise ValueError("factor entries must be finite")
            if np.abs(p - p.conj().T).max() > HERMITIAN_TOL * np.abs(p).max():
                raise ValueError("factor is not Hermitian")
        self.x = parts[0]
        self.y = parts[1] if len(parts) == 2 else None
        self.dims = dims

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The operator applied to a length-n vector."""
        if self.y is None:
            return self.x @ vec
        psi = vec.reshape(self.dims)
        return (self.x @ psi + psi @ self.y.T).reshape(-1)


def coupling_factors(model, j1, j2=None) -> list[tuple[np.ndarray, dict[str, FactoredOperator]]]:
    """Damping matrices paired with the factored coupling operators they contract.

    Returns a list of ``(gamma, {axis: FactoredOperator})`` sets: two sets
    for an independent bath over two ensembles, one otherwise.  Operators
    are restricted to the model's declared axes.  A common bath couples
    X = lam J1a / 2 and Y = (2 - lam) J2a / 2; an independent bath weights
    its own ensemble by 1 and the other by 0.
    """
    s1 = SpinQuantum.of(j1)
    s2 = SpinQuantum.of(j2) if j2 is not None else None
    if isinstance(model, CommonBath):
        if s2 is None:
            raise ValueError("a common bath needs two ensembles")
        weighted = [(model.gamma, model.lam / 2.0, (2.0 - model.lam) / 2.0)]
    elif isinstance(model, IndependentBath):
        if s2 is None and model.gamma2 is not None:
            raise ValueError("gamma2 given but no second ensemble")
        weighted = [(model.gamma1, 1.0, 0.0)]
        if model.gamma2 is not None:
            weighted.append((model.gamma2, 0.0, 1.0))
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    ops1 = angular_momentum_ops(s1)
    ops2 = angular_momentum_ops(s2) if s2 is not None else None
    dims = (s1.dim,) if s2 is None else (s1.dim, s2.dim)

    def factored(axis, w1, w2):
        y = None if s2 is None else w2 * getattr(ops2, axis)
        return FactoredOperator(w1 * getattr(ops1, axis), y, dims)

    return [(gamma, {a: factored(a, w1, w2) for a in model.axes}) for gamma, w1, w2 in weighted]


def canonical_jumps(gamma, ops: dict) -> list:
    """Diagonalize gamma and absorb the rates into jump operators.

    Parameters
    ----------
    gamma : (3, 3) array
        Validated damping matrix (entries outside ``ops`` keys are zero).
    ops : dict axis -> FactoredOperator
        Factored coupling operators (``coupling_factors``) for the axes
        gamma acts on.

    Returns
    -------
    list of FactoredOperator
        Jump operators A_k = sqrt(d_k) sum_a O_ak C_a, the X and Y factors
        combined separately; the dissipator sum_k (A_k rho A_k^dag -
        (1/2){A_k^dag A_k, rho}) reproduces the double sum over gamma
        exactly.
    """
    axes = _check_axes(ops.keys())
    first = ops[axes[0]]
    idx = [AXIS_INDEX[a] for a in axes]
    sub = np.asarray(gamma, dtype=np.float64)[np.ix_(idx, idx)]
    evals, evecs = np.linalg.eigh(sub)
    top = max(float(evals.max(initial=0.0)), 0.0)
    jumps = []
    for k in range(len(axes)):
        rate = float(evals[k])
        if rate <= JUMP_RATE_TOL * max(top, 1.0):
            if rate < DAMPING_EIG_FLOOR * max(top, 1.0):
                raise NotPositiveSemidefiniteError(f"negative canonical rate {rate:.3e}")
            continue
        root = math.sqrt(rate)
        x = root * sum(w * ops[a].x for w, a in zip(evecs[:, k], axes))
        y = None if first.y is None else root * sum(w * ops[a].y for w, a in zip(evecs[:, k], axes))
        jumps.append(FactoredOperator(x, y, first.dims))
    return jumps


def _canonical_jump_set(sets) -> tuple[list, tuple[int, ...]]:
    """Canonical jumps of every factored coupling set, and their dims.

    The one jump assembly: ``build_generator``, the rate and the certificate
    paths all take their jumps from it.
    """
    jumps = [op for gamma, ops in sets for op in canonical_jumps(gamma, ops)]
    return jumps, next(iter(sets[0][1].values())).dims


class Generator:
    """Lindblad generator in canonical form, ready for the kernels.

    Each jump X (x) I + I (x) Y is kept on its nonzero diagonals (at most 5:
    0, +-1 and +-d2, or those of X alone on one ensemble), stacked (k, n, w),
    and -K/2 = -(1/2) sum_k A_k^2 on its own (at most 13), expanded from the
    Hermitian factors as X^2 (x) I + 2 X (x) Y + I (x) Y^2 per jump.  No
    n x n matrix is built for either.

    Every jump is Hermitian (``FactoredOperator``), so L = -(1/2) sum_k
    [A_k, [A_k, .]] is self-adjoint and negative semidefinite in the
    Hilbert-Schmidt inner product, <X, L X> = -(1/2) sum_k ||[A_k, X]||_F^2,
    which lets ``evolve`` continue a Krylov basis by the Lanczos recurrence.
    """

    def __init__(self, jump_ops: list[FactoredOperator], dims: tuple[int, ...]) -> None:
        self.jump_ops, self.dims = jump_ops, dims
        self.__post_init__()

    def __post_init__(self) -> None:
        # a method of its own: perfbench/tracing.py wraps it to time the build
        self.dims = tuple(int(d) for d in self.dims)
        n = math.prod(self.dims)
        for op in self.jump_ops:
            if op.dim != n:
                raise ValueError("jump operator dimension does not match dims")
        # a single ensemble is X (x) I_1
        eye1, eye2 = np.eye(self.dims[0]), np.eye(self.dims[1] if len(self.dims) == 2 else 1)
        bands, drift_terms = [], []
        for op in self.jump_ops:
            x, y = op.x, op.y
            if y is None:
                bands.append(_kernels.kron_banded([(x, eye2)], n))
                drift_terms.append((x @ x, eye2))
            else:
                bands.append(_kernels.kron_banded([(x, eye2), (eye1, y)], n))
                drift_terms += [(x @ x, eye2), (x, y), (x, y), (eye1, y @ y)]
        self._jumps, self._offsets = _kernels.stack_banded(bands, n)
        self._drift = _kernels.kron_banded(drift_terms, n, -0.5)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def kernel_args(self) -> tuple:
        """``(jumps, offsets, drift, None, False)``, the arguments every kernel
        takes after rho; the last two fill the kernels' placeholder slots."""
        return (self._jumps, self._offsets, self._drift, None, False)


def build_generator(model, j1, j2=None) -> Generator:
    """Canonical-form generator for a decoherence model on one or two ensembles."""
    jumps, dims = _canonical_jump_set(coupling_factors(model, j1, j2))
    return Generator(jumps, dims)


def _as_matrix(rho, dim: int | None = None) -> np.ndarray:
    mat = np.asarray(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if dim is not None and mat.shape[0] != dim:
        raise ValueError(f"matrix shape {mat.shape} does not match generator dim {dim}")
    return np.ascontiguousarray(mat, dtype=np.complex128)


def apply_generator(gen: Generator, rho) -> np.ndarray:
    """Action of the generator on a matrix (Hermitian in -> Hermitian out)."""
    mat = _as_matrix(rho, gen.dim)
    return _kernels.lindblad_rhs(mat, *gen.kernel_args)


def rank_one_factors(jumps, psi) -> tuple[np.ndarray, np.ndarray]:
    """Factors U, V, each n x (k + 2), with L(psi psi^dag) = U V^dag.

    U = [A_1 psi, ..., A_k psi, -K psi / 2, psi] and
    V = [A_1 psi, ..., A_k psi, psi, -K psi / 2] for the Hermitian
    ``FactoredOperator`` jumps A_k of a generator.  L is linear, so the
    cross image L(psi phi^dag) is U_psi V_phi^dag, U from psi's factors and
    V from phi's.  Uses operator-vector products alone:
    K = sum_k A_k^2 is applied as sum_k A_k (A_k psi) and never formed, and
    no n x n matrix is built.
    """
    applied = []
    drift = np.zeros(psi.shape, dtype=np.complex128)
    for a in jumps:
        ax = a.apply(psi)
        drift -= 0.5 * a.apply(ax)
        applied.append(ax)
    return np.column_stack(applied + [drift, psi]), np.column_stack(applied + [psi, drift])


class Trajectory(NamedTuple):
    """Sampled density-matrix evolution.

    ``states[i]`` is the sample at ``times[i]``, or ``states`` is empty
    when ``evolve`` handed the rows to a consumer; ``s_lin`` the matching
    linear entropies 1 - tr(rho^2).  ``accepted`` counts steps: in fixed
    mode the grid's steps h to t_final, h = ``step`` or, with ``step``
    unset, t_final / ``DEFAULT_ROWS``, and in adaptive mode the Krylov
    bases.  ``rejected`` counts the trial offsets the Krylov error test
    refused (see ``evolve``).
    """

    times: np.ndarray
    states: list[np.ndarray]
    s_lin: np.ndarray
    dims: tuple[int, ...]
    accepted: int
    rejected: int


# Local error per unit time of fixed-mode samples, relative to
# max(1, ||rho||_F): the acceptance test of ``tol`` in adaptive mode, set so
# that a fixed run's states carry a projection error of at most about
# 1e-12 t, and no step-size error
GRID_TOL = 1e-12


# bisections that end a sub-step search: its bracket starts a factor 2 wide,
# so the accepted h is within a factor 1 + 2^-STEP_BISECTIONS of a refused
# trial
STEP_BISECTIONS = 12

# fixed mode's grid when ``step`` is unset: t_final / DEFAULT_ROWS, whatever the generator
DEFAULT_ROWS = 100

# the abort guard: fixed steps, or Krylov bases plus refused trials, never exceed it
MAX_STEPS = 10_000_000


# the cgroup memory limit files, v2 then v1: "max" or a byte count
CGROUP_MEMORY = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _memory_limit() -> tuple[float, str]:
    """``(bytes, what)``: the least of the machine's physical memory, what the
    soft address-space limit leaves when finite and the cgroup's memory limit
    when its file can be read, and what sets it; inf where none says."""
    limits = [(math.inf, "no limit")]
    with contextlib.suppress(AttributeError, ValueError, OSError):
        limits.append((os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), "the machine's physical memory"))
    with contextlib.suppress(ImportError):
        import resource  # POSIX only

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            # less the address space already mapped (statm's first field, in
            # pages); the whole limit where that cannot be read
            with contextlib.suppress(OSError, ValueError), open("/proc/self/statm", encoding="ascii") as f:
                soft -= int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            limits.append((soft, "what is left of the address-space limit (RLIMIT_AS)"))
    for path in CGROUP_MEMORY:
        with contextlib.suppress(OSError, ValueError), open(path, encoding="ascii") as f:
            text = f.read().strip()
            limits.append((math.inf if text == "max" else int(text), f"the cgroup memory limit ({path})"))
            break
    return min(limits)


def _largest_step(passes, offset, tiny):
    """Largest trial h < ``offset`` with passes(h), for an ``offset`` that failed.

    Trials halve from offset / 2 until one passes; ``STEP_BISECTIONS``
    bisections of the bracket between it and the last failure (at first the
    offset) follow, at most 1 + log2(offset / tiny) + ``STEP_BISECTIONS``
    trials.  Returns (h, refused): the accepted trial, None when every
    trial down to ``tiny`` fails, and the number of failed trials.
    """
    refused = 0
    hi = offset
    while True:
        lo = 0.5 * hi
        if lo < tiny:
            return None, refused
        if passes(lo):
            break
        refused += 1
        hi = lo
    for _ in range(STEP_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            refused += 1
            hi = mid
    return lo, refused


def _purity(mat: np.ndarray) -> float:
    # tr(rho^2) = ||rho||_F^2 for Hermitian rho
    return float(np.real(np.vdot(mat, mat)))


def _check_evolution(t_final, step, tol, stride) -> None:
    """Raise ValueError unless ``evolve``'s t_final, step, tol and stride are valid."""
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError("t_final must be finite and non-negative")
    # an integer, so every row lies on the step grid; bool is not a count
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    if step is not None and tol is not None:
        raise ValueError("step and tol are exclusive")
    if step is not None and not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")


def evolve(
    gen: Generator,
    rho0,
    t_final: float,
    step: float | None = None,
    tol: float | None = None,
    stride: int = 1,
    consumer=None,
) -> Trajectory:
    """Integrate d rho/dt = L(rho): exp(t L) rho0 on a time grid, or adaptively.

    L does not depend on time, so every state is exp(t L) rho0, projected
    onto the Krylov space of the state at the start of a step
    (``_kernels.krylov_propagator``, which says how a basis grows and what
    it costs).  A state at offset tau from its basis is acceptable when the
    Krylov error estimate is at most tol * tau * max(1, ||rho||_F), rho the
    basis's start.  Nothing is Hermitized or renormalized, so trace and
    Hermiticity drift shows in the states.

    Both modes run one loop over bases on a grid of rows.  Each basis needs
    the next ``KRYLOV_DIM`` rows, or every row left if fewer.  It gives the
    next rows at O(m) arithmetic each, from one ``states`` call, and ends at
    the last row that passes, the first that fails counting in
    ``Trajectory.rejected``.
    When even the next row fails at ``LANCZOS_MAX`` vectors, a sub-step
    search (``_largest_step``, at no right-hand-side cost) takes the largest
    acceptable sub-step short of it, to a relative precision of
    2^-``STEP_BISECTIONS``, and the next basis starts there.  The search
    starts below that row, which is not tried again; each trial it refuses
    counts in ``Trajectory.rejected``.

    Fixed step (``tol`` None): the grid of ``nsteps`` = ceil(t_final / h)
    steps of h = ``step``, or of h = t_final / ``DEFAULT_ROWS`` when
    ``step`` is None, sampled every stride-th step, at done * h for done =
    stride, 2 stride, ... < nsteps, and at t_final.  The test runs at
    tol = ``GRID_TOL``.  ``Trajectory.accepted`` is ``nsteps``.

    Adaptive (``tol`` given): the grid is t_final alone, so a basis that
    reaches it takes all of t_final - t in one step.  ``Trajectory.accepted``
    counts the bases, and every stride-th sub-step is a row.

    Parameters
    ----------
    gen : Generator
    rho0 : ndarray
        Initial state, an n x n density matrix, copied; a temporary one is
        freed before the first basis.
    t_final : float
        Integration horizon (>= 0).
    step : float, optional
        Fixed step size; defaults to t_final / ``DEFAULT_ROWS`` (100 steps,
        101 rows at stride 1).  Fixed mode only: ``step`` together with
        ``tol`` raises ValueError.
    tol : float, optional
        Local error per unit time; selects adaptive Krylov steps.
    stride : int
        Record every stride-th step, or sub-step in adaptive mode (t = 0
        and t_final always); an integer >= 1.
    consumer : callable, optional
        Called as ``consumer(t, state, s_lin)`` once a row, in time order.
        A basis's rows are handed over only once the basis is freed, the
        t = 0 row with the first basis's, so the consumer never runs beside
        a basis's working set.  The states are then not kept: each is
        alive until its basis's rows have been handed over, and after that
        only if the consumer keeps it.  Without a consumer every state is
        collected into ``Trajectory.states``.

    Returns
    -------
    Trajectory
        With a ``consumer``, ``states`` is empty; the times, linear
        entropies and step counts are those of the collected run.

    Raises
    ------
    ValueError
        When ``t_final``, ``step`` or ``tol`` is not finite or out of range,
        both ``step`` and ``tol`` are given, ``stride`` is not an integer
        (a numpy integer is one, a bool is not) of at least 1, or ``rho0``
        is not a square matrix of the generator's size with finite entries.
    IntegrationAbortError
        Before any right-hand side (``t_last`` = 0) when a fixed grid needs
        more than ``MAX_STEPS`` steps, or would keep (no consumer) rows x
        n^2 x 16 bytes, more than the least of the physical memory, the
        address-space limit and the cgroup's limit (``_memory_limit``); or
        when the generator is too large for a Krylov basis
        (``_kernels.SCALE_MAX``), the state norm blows up beyond 10x its
        initial value, the bases plus refused trials exceed ``MAX_STEPS``,
        or no sub-step down to 1e-15 max(t_final, 1) is acceptable.
        ``t_last`` is the last time whose state passed every check.
    """
    _check_evolution(t_final, step, tol, stride)
    # the one copy, so no state aliases rho0 and a temporary rho0 is freed
    rho = _as_matrix(rho0, gen.dim).copy()
    del rho0
    if not np.isfinite(rho).all():
        raise ValueError("rho0 must be finite")
    norm0 = float(np.linalg.norm(rho))
    norm_cap = 10.0 * max(norm0, 1e-300)

    times = []
    kept = []
    s_lin = []
    pending = []  # the rows of the basis being built
    args = gen.kernel_args
    streamed = consumer is not None
    if not streamed:
        def consumer(t, mat, s):
            kept.append(mat)

    def record(t: float, mat: np.ndarray) -> None:
        times.append(t)
        s_lin.append(1.0 - _purity(mat))
        pending.append((t, mat, s_lin[-1]))

    def hand_over() -> None:
        for row in pending:
            consumer(*row)
        pending.clear()

    record(0.0, rho)

    def check_blowup(t_good: float, mat: np.ndarray) -> None:
        # t_good: the time of the last state that passed
        nrm = float(np.linalg.norm(mat))
        if not math.isfinite(nrm) or nrm > norm_cap:
            raise IntegrationAbortError(
                f"state norm {nrm:.3e} exceeded 10x its initial value; "
                f"last good time t={t_good:.6g}",
                t_last=t_good,
            )

    if t_final == 0.0:
        hand_over()
        return Trajectory(np.array(times), kept, np.array(s_lin), gen.dims, 0, 0)

    adaptive = tol is not None
    if not adaptive:
        h = min(step if step is not None else t_final / DEFAULT_ROWS, t_final)
        nsteps = max(1, math.ceil(t_final / h - 1e-12))
        if nsteps > MAX_STEPS:
            raise IntegrationAbortError(
                f"fixed step {h} needs {nsteps} steps > max_steps={MAX_STEPS}", t_last=0.0
            )
        grid = np.append(np.arange(stride, nsteps, stride) * h, t_final)
        size, (limit, what) = 16 * gen.dim**2 * (len(grid) + 1), _memory_limit()
        if not streamed and size > limit:
            raise IntegrationAbortError(f"{len(grid) + 1} kept rows of {gen.dim} x {gen.dim} states need "
                                        f"{size:.3g} bytes, more than the {limit:.3g} bytes of {what}; pass "
                                        "a consumer or a longer step", t_last=0.0)
        tol = GRID_TOL
    else:
        grid = np.array([t_final])
    t = 0.0
    rejected = 0
    tiny = 1e-15 * max(t_final, 1.0)

    def check_budget(bases: int) -> None:
        if bases + rejected > MAX_STEPS:
            raise IntegrationAbortError(f"exceeded max_steps={MAX_STEPS} at t={t:.6g}", t_last=t)

    bases = row = 0  # row: the next grid time to record
    while row < len(grid):
        taus = grid[row:] - t
        try:
            passing, states = _kernels.krylov_propagator(rho, *args, taus=taus, tol=tol)
        except OverflowError as exc:
            raise IntegrationAbortError(f"{exc}; last good time t={t:.6g}", t_last=t) from None
        bases += 1
        # the grid rows the basis gives, or else one sub-step: their offsets and times
        rows = passing(taus)
        if rows:
            rejected += row + rows < len(grid)  # the next row failed
            offsets, ends = taus[:rows], grid[row : row + rows].tolist()
            row += rows
        else:
            sub, refused = _largest_step(lambda h: passing(np.array([h])) == 1, float(grid[row]) - t, tiny)
            rejected += refused
            if sub is None:
                raise IntegrationAbortError(f"step size underflow at t={t:.6g}", t_last=t)
            offsets, ends = np.array([sub]), [t + sub]
        check_budget(bases)
        del rho  # the states are formed without the basis's start alive
        sampled = states(offsets)
        for end, mat in zip(ends, sampled):
            check_blowup(t, mat)
            t = end
            if rows or adaptive and bases % stride == 0:
                record(t, mat)
        # the loop's last row is the next basis's start; the name ``mat``
        # would keep the block of rows alive through that basis.  The next
        # basis is built without this one alive, and its rows (the first
        # basis's with the t = 0 row) are handed over only now
        rho = sampled[-1]
        del mat, passing, states, sampled
        hand_over()
        if streamed:
            # a row of the block just handed over: a copy of its own lets
            # the block go before the next basis is built
            rho = rho.copy()
    accepted = bases if adaptive else nsteps
    return Trajectory(np.array(times), kept, np.array(s_lin), gen.dims, accepted, rejected)

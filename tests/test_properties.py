"""Physical invariants of the generator, its kernels and the purity-loss rate.

Drawn: a random PSD damping matrix gamma = B B^T (rank 1 to 3), lambda in
[0, 2], j1, j2 <= 2 (j1, j2 <= 1 for complete positivity, which evolves
every matrix unit), both bath kinds, with or without a random Hamiltonian.
Tolerances fixed before the first run; ``scale`` = 1 + ||ksum|| + ||H||
bounds the generator's norm, so roundoff grows with it.  The factored
operators (X (x) I + I (x) Y) are drawn at j1, j2 <= 3 for common,
independent and single-ensemble baths and checked against the dense builders.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import random_density, random_hermitian
from spinbath import _kernels
from spinbath.diagnostics import certify_stationary, entropy_rate_analytic
from spinbath.generator import (
    STEP_MATRIX_MAX_ROWS,
    CommonBath,
    IndependentBath,
    apply_generator,
    build_generator,
    canonical_jumps,
    coupling_factors,
    coupling_operators,
    evolve,
    rank_one_factors,
)
from spinbath.spin_algebra import SpinOperator, angular_momentum_ops, composite_coupling_ops, embed
from spinbath.states import EntangledStateSpec, coefficient_profile, entangled_state

AXES = ("x", "y", "z")
SPINS = st.sampled_from([0.5, 1, 1.5, 2])
SEEDS = st.integers(0, 2**32 - 1)

# the same examples on every run, no example database, no per-example
# deadline (timings on a shared host are noisy)
DETERMINISTIC = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def dampings(draw):
    rank = draw(st.integers(1, 3))
    b = draw(arrays(np.float64, (3, rank), elements=st.floats(-1.0, 1.0)))
    return b @ b.T


@st.composite
def models(draw, spins=SPINS):
    """(model, j1, j2, sum of the damping traces)."""
    j1, j2 = draw(spins), draw(spins)
    if draw(st.booleans()):
        gamma = draw(dampings())
        model = CommonBath(gamma=gamma, lam=draw(st.floats(0.0, 2.0)), axes=AXES)
        return model, j1, j2, float(np.trace(gamma))
    gamma1, gamma2 = draw(dampings()), draw(dampings())
    model = IndependentBath(gamma1=gamma1, gamma2=gamma2, axes=AXES)
    return model, j1, j2, float(np.trace(gamma1) + np.trace(gamma2))


def _generator(drawn, seed, with_ham):
    model, j1, j2, _ = drawn
    gen = build_generator(model, j1, j2)
    if with_ham:
        rng = np.random.default_rng(seed)
        gen = build_generator(model, j1, j2, hamiltonian=SpinOperator(random_hermitian(rng, gen.dim), gen.dims))
    args = (gen._jumps, gen._jdags, gen._ksum, gen._ham, gen._ham is not None)
    scale = 1.0 + np.linalg.norm(gen._ksum, 2) + (np.linalg.norm(gen._ham, 2) if with_ham else 0.0)
    return gen, args, scale


@DETERMINISTIC
@given(models(), SEEDS, st.booleans())
def test_rhs_is_traceless_and_hermitian(drawn, seed, with_ham):
    gen, args, scale = _generator(drawn, seed, with_ham)
    x = random_hermitian(np.random.default_rng(seed + 1), gen.dim)
    out = _kernels.lindblad_rhs(x, *args)
    tol = 1e-12 * scale * np.linalg.norm(x)
    assert abs(np.trace(out)) <= tol
    assert np.abs(out - out.conj().T).max() <= tol


@pytest.mark.parametrize("kind", ["krylov", "stage", "step_matrix"])
@DETERMINISTIC
@given(models(), SEEDS, st.booleans(), st.floats(0.01, 1.0))
def test_step_keeps_hermitian_unit_trace(kind, drawn, seed, with_ham, step):
    # no renormalization on any step.  The jumps are Hermitian, so
    # ||L||_2 <= 2 scale and x = tau ||L|| <= 2 step.
    # Krylov: exp(tau L) keeps trace and Hermiticity, and the Krylov basis of
    # a Hermitian rho is Hermitian with a real Hessenberg matrix, so only the
    # projection error (trace) and roundoff remain; the projection error is
    # at most 2 x^m e^x / m! (Saad 1992, m = KRYLOV_DIM) in Frobenius norm, at
    # most sqrt(n) times that on the trace; roundoff gets 1e-12 per basis
    # vector.
    # RK4 (stage kernel, or the step matrix at n^2 <= STEP_MATRIX_MAX_ROWS):
    # P(tau L) keeps trace and Hermiticity exactly, as every power of L
    # annihilates the trace and maps Hermitian to Hermitian, so only roundoff
    # remains.  Each of the four stages applies L to a matrix of Frobenius
    # norm at most e^x, with the right-hand side's roundoff 1e-12 scale ||X||
    # (test_rhs_is_traceless_and_hermitian) weighted by at most tau <=
    # step / scale <= 1 / scale: 4e-12 e^x in all; the step matrix's own
    # rounding, about n^2 eps e^x, is far below that at n^2 <= 256
    gen, args, scale = _generator(drawn, seed, with_ham)
    assume(kind != "step_matrix" or gen.dim**2 <= STEP_MATRIX_MAX_ROWS)
    rho = random_density(np.random.default_rng(seed + 1), gen.dim)
    tau = step / scale
    x = 2.0 * step
    if kind == "krylov":
        _, state = _kernels.krylov_propagator(rho, *args)
        out = state(tau)
        m = _kernels.KRYLOV_DIM
        hermitian_tol = 1e-12 * m
        trace_tol = 1e-12 * m + math.sqrt(gen.dim) * 2.0 * x**m * math.exp(x) / math.factorial(m)
    else:
        if kind == "stage":
            out = _kernels.rk4_chunk(rho, *args, tau, 1)
        else:
            inc = _kernels.rk4_step_increment(_kernels.liouvillian(*args), tau)
            out = _kernels.step_matrix_chunk(rho, inc, 1)
        hermitian_tol = trace_tol = 4e-12 * math.exp(x)
    assert np.abs(out - out.conj().T).max() <= hermitian_tol
    assert abs(np.trace(out) - 1.0) <= trace_tol


# the constant c of the Choi eigenvalue bound below, fixed before its first run
CHOI_SLACK = 10.0


@DETERMINISTIC
@given(models(st.sampled_from([0.5, 1])), SEEDS, st.booleans(), st.floats(0.01, 1.0))
def test_adaptive_evolve_is_completely_positive(drawn, seed, with_ham, tau):
    # exp(tau L) is completely positive, so its Choi matrix
    # C = sum_ab E_ab (x) Phi(E_ab) is positive semidefinite (Choi, Linear
    # Algebra Appl. 10 (1975) 285); Phi is the adaptive evolve to tau.
    # Each Phi(E_ab) commits an estimated error of at most tol tau
    # max(1, ||rho||_F) <= 2 tol tau (a trace-preserving CP map keeps the
    # trace norm of E_ab's Hermitian and anti-Hermitian parts at most 1), so
    # the error of C is at most n 2 tol tau in Frobenius norm, and by Weyl
    # no eigenvalue moves further.  c = CHOI_SLACK = 10 leaves a factor 5
    # for the error estimate falling short of the true error
    gen, _, _ = _generator(drawn, seed, with_ham)
    n, tol = gen.dim, 1e-10
    choi = np.zeros((n, n, n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=np.complex128)
            unit[a, b] = 1.0
            choi[a, :, b, :] = evolve(gen, unit, tau, tol=tol).states[-1]
    choi = choi.reshape(n * n, n * n)
    lowest = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min()
    assert lowest >= -CHOI_SLACK * tol * tau * n


@DETERMINISTIC
@given(models(), SEEDS)
def test_pure_state_purity_loss_is_non_negative(drawn, seed):
    # the rate is 2 sum_ab gamma_ab Cov(C_a, C_b) >= 0; both ways of taking it
    # lose at most roundoff of sum_a gamma_aa ||C_a||^2, ||C_a|| <= j1 + j2
    model, j1, j2, gamma_trace = drawn
    dim = int(round((2 * j1 + 1) * (2 * j2 + 1)))
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    report = entropy_rate_analytic(psi / np.linalg.norm(psi), model, j1, j2)
    tol = 1e-12 * (1.0 + gamma_trace) * (1.0 + j1 + j2) ** 2
    assert report.numeric_rate >= -tol
    assert report.analytic_rate >= -tol


@DETERMINISTIC
@given(dampings(), SPINS)
def test_singlet_is_certified_stationary_at_balanced_common_bath(gamma, j):
    # the paper's headline: at lambda = 1 every common-bath coupling is a
    # component of the total spin, which annihilates the singlet, so any
    # correlated gamma leaves it stationary (certificate bound 1e-12)
    gen = build_generator(CommonBath(gamma=gamma, lam=1.0, axes=AXES), j, j)
    psi = entangled_state(EntangledStateSpec.make(j, j, coefficient_profile("singlet", j)))
    assert certify_stationary(gen, [psi]).certified


@st.composite
def factor_models(draw):
    """(model, j1, j2) for a common, independent or single-ensemble bath, j <= 3."""
    spins = st.sampled_from([0.5, 1, 1.5, 2, 2.5, 3])
    j1 = draw(spins)
    kind = draw(st.sampled_from(["common", "independent", "single"]))
    if kind == "single":
        return IndependentBath(gamma1=draw(dampings()), gamma2=None, axes=AXES), j1, None
    j2 = draw(spins)
    if kind == "common":
        return CommonBath(gamma=draw(dampings()), lam=draw(st.floats(0.0, 2.0)), axes=AXES), j1, j2
    gamma2 = draw(st.one_of(st.none(), dampings()))
    return IndependentBath(gamma1=draw(dampings()), gamma2=gamma2, axes=AXES), j1, j2


def _dense_builders(model, j1, j2):
    # the coupling matrices straight from the spin_algebra builders
    ops1 = angular_momentum_ops(j1)
    if j2 is None:
        return [{a: getattr(ops1, a).matrix for a in AXES}]
    if isinstance(model, CommonBath):
        ops = composite_coupling_ops(j1, j2, model.lam)
        return [{a: getattr(ops, a).matrix for a in AXES}]
    ops2 = angular_momentum_ops(j2)
    dims = (ops1.z.dim, ops2.z.dim)
    sets = [{a: embed(getattr(ops1, a), 0, dims).matrix for a in AXES}]
    if model.gamma2 is not None:
        sets.append({a: embed(getattr(ops2, a), 1, dims).matrix for a in AXES})
    return sets


@DETERMINISTIC
@given(factor_models())
def test_factor_matrix_equals_dense_builders(drawn):
    # exact: the dense view is the sum of embedded factors, and halving is exact
    model, j1, j2 = drawn
    factored = coupling_factors(model, j1, j2)
    dense = _dense_builders(model, j1, j2)
    assert len(factored) == len(dense) == len(coupling_operators(model, j1, j2))
    for (_, ops), mats in zip(factored, dense):
        for a in AXES:
            assert np.array_equal(ops[a].matrix, mats[a])


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_factored_jumps_match_dense_jumps(drawn, seed):
    # || A_f v - A v || <= 1e-13 ||A||_F ||v||, and the same for the adjoint
    model, j1, j2 = drawn
    rng = np.random.default_rng(seed)
    for (gamma, f_ops), (_, d_ops) in zip(coupling_factors(model, j1, j2), coupling_operators(model, j1, j2)):
        f_jumps, d_jumps = canonical_jumps(gamma, f_ops), canonical_jumps(gamma, d_ops)
        assert len(f_jumps) == len(d_jumps)
        for f, d in zip(f_jumps, d_jumps):
            v = rng.normal(size=d.dim) + 1j * rng.normal(size=d.dim)
            tol = 1e-13 * np.linalg.norm(d.matrix) * np.linalg.norm(v)
            assert np.linalg.norm(f.apply(v) - d.matrix @ v) <= tol
            assert np.linalg.norm(f.apply_adjoint(v) - d.matrix.conj().T @ v) <= tol


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_factored_rank_one_matches_dense_generator(drawn, seed):
    # max |U V^dag - L(psi phi^dag)| <= 1e-12 max(1, ||L(psi phi^dag)||_F), psi != phi
    model, j1, j2 = drawn
    jumps = [op for gamma, ops in coupling_factors(model, j1, j2) for op in canonical_jumps(gamma, ops)]
    gen = build_generator(model, j1, j2)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
    phi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
    u, v = rank_one_factors(jumps, None, psi, phi)
    dense = apply_generator(gen, np.outer(psi, phi.conj()))
    assert np.abs(u @ v.conj().T - dense).max() <= 1e-12 * max(1.0, float(np.linalg.norm(dense)))

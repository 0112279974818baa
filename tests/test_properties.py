"""Physical invariants of the generator, its kernels and the purity-loss rate.

Drawn: a random PSD damping matrix gamma = B B^T (rank 1 to 3), lambda in
[0, 2], j1, j2 <= 2 (j1, j2 <= 1 for complete positivity, which evolves
every matrix unit), both bath kinds.  Tolerances fixed before the first
run; ``scale`` = 1 + ||ksum|| bounds the generator's norm, so roundoff
grows with it.  The factored operators (X (x) I + I (x) Y) are drawn at
j1, j2 <= 3 for common, independent and single-ensemble baths and checked
against the dense builders, and the generator built from their jumps
against the literal double sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dense_views import dense, dense_generator, dense_rhs
from oracles import coupling_sets, dissipator_double_sum, random_density, random_hermitian
from spinbath import _kernels
from spinbath.diagnostics import certify_stationary, entropy_rate_analytic
from spinbath.generator import (
    JUMP_RATE_TOL,
    CommonBath,
    IndependentBath,
    apply_generator,
    build_generator,
    canonical_jumps,
    coupling_factors,
    evolve,
    rank_one_factors,
)
from spinbath.spin_algebra import angular_momentum_ops, composite_coupling_ops, embed
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


def _generator(drawn):
    model, j1, j2, _ = drawn
    gen = build_generator(model, j1, j2)
    scale = 1.0 + np.linalg.norm(dense_generator(gen).ksum, 2)
    return gen, gen.kernel_args, scale


@DETERMINISTIC
@given(models(), SEEDS)
def test_rhs_is_traceless_and_hermitian(drawn, seed):
    gen, args, scale = _generator(drawn)
    x = random_hermitian(np.random.default_rng(seed + 1), gen.dim)
    out = _kernels.lindblad_rhs(x, *args)
    tol = 1e-12 * scale * np.linalg.norm(x)
    assert abs(np.trace(out)) <= tol
    assert np.abs(out - out.conj().T).max() <= tol


@pytest.mark.parametrize("kind", ["krylov", "samples", "stage"])
@DETERMINISTIC
@given(models(), SEEDS, st.floats(0.01, 1.0))
def test_step_keeps_hermitian_unit_trace(kind, drawn, seed, step):
    # no renormalization on any step.  The jumps are Hermitian, so
    # ||L||_2 <= 2 scale and x = tau ||L|| <= 2 step.
    # Krylov: exp(tau L) keeps trace and Hermiticity, and the Krylov basis of
    # a Hermitian rho is Hermitian with a real Hessenberg matrix, so only the
    # projection error (trace) and roundoff remain; the projection error is
    # at most 2 x^m e^x / m! (Saad 1992, m = KRYLOV_DIM) in Frobenius norm, at
    # most sqrt(n) times that on the trace; roundoff gets 1e-12 per basis
    # vector.  The ``samples`` case takes the rows at tau / 3, 2 tau / 3
    # and tau from one basis (no budget refuses any), with the same bounds.
    # RK4 (the stage kernel): P(tau L) keeps trace and Hermiticity exactly,
    # as every power of L annihilates the trace and maps Hermitian to
    # Hermitian, so only roundoff remains.  Each of the four stages applies L to a matrix of Frobenius
    # norm at most e^x, with the right-hand side's roundoff 1e-12 scale ||X||
    # (test_rhs_is_traceless_and_hermitian) weighted by at most tau <=
    # step / scale <= 1 / scale: 4e-12 e^x in all
    gen, args, scale = _generator(drawn)
    rho = random_density(np.random.default_rng(seed + 1), gen.dim)
    tau = step / scale
    x = 2.0 * step
    if kind == "stage":
        outs = [_kernels.rk4_chunk(rho, *args, tau, 1)]
        hermitian_tol = trace_tol = 4e-12 * math.exp(x)
    else:
        taus = np.array([tau / 3.0, 2.0 * tau / 3.0, tau])
        passing, states = _kernels.krylov_propagator(rho, *args, taus=taus, tol=math.inf)
        if kind == "krylov":
            outs = states(np.array([tau]))
        else:
            outs = states(taus[: passing(taus)])
            assert len(outs) == 3
        m = _kernels.KRYLOV_DIM
        hermitian_tol = 1e-12 * m
        trace_tol = 1e-12 * m + math.sqrt(gen.dim) * 2.0 * x**m * math.exp(x) / math.factorial(m)
    for out in outs:
        assert np.abs(out - out.conj().T).max() <= hermitian_tol
        assert abs(np.trace(out) - 1.0) <= trace_tol


# the constant c of the Choi eigenvalue bound below, fixed before its first run
CHOI_SLACK = 10.0


@DETERMINISTIC
@given(models(st.sampled_from([0.5, 1])), st.floats(0.01, 1.0))
def test_adaptive_evolve_is_completely_positive(drawn, tau):
    # exp(tau L) is completely positive, so its Choi matrix
    # C = sum_ab E_ab (x) Phi(E_ab) is positive semidefinite (Choi, Linear
    # Algebra Appl. 10 (1975) 285); Phi is the adaptive evolve to tau.
    # Each Phi(E_ab) commits an estimated error of at most tol tau
    # max(1, ||rho||_F) <= 2 tol tau (a trace-preserving CP map keeps the
    # trace norm of E_ab's Hermitian and anti-Hermitian parts at most 1), so
    # the error of C is at most n 2 tol tau in Frobenius norm, and by Weyl
    # no eigenvalue moves further.  c = CHOI_SLACK = 10 leaves a factor 5
    # for the error estimate falling short of the true error
    gen, _, _ = _generator(drawn)
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


# the slope property's tau ell and evolve tolerance, fixed before its first run
SLOPE_STEP = 1e-4
SLOPE_TOL = 1e-12


@DETERMINISTIC
@given(models(), SEEDS)
def test_simulated_initial_slope_is_the_analytic_rate(drawn, seed):
    # rate <-> simulate: S_lin(t) of adaptive evolve from a pure state leaves
    # t = 0 with the slope entropy_rate_analytic gives.  The jumps are
    # Hermitian, so ell = 2 sum_k ||A_k||_2^2 bounds ||L|| on the Frobenius
    # norm; with tr rho(t)^2 <= 1 every derivative obeys |S^(k)| <= (2 ell)^k.
    # So D(tau) = (S(tau) - S(0)) / tau = r + a tau + R with |R| <= (2 ell)^3
    # tau^2 / 6, and the Richardson value 2 D(tau / 2) - D(tau) is within
    # 2 ell^3 tau^2 of r.  Each evolve commits at most tol tau in Frobenius
    # norm, so each purity at most 2 tol tau and the Richardson value 6 tol.
    # A purity near 1 rounds by a few eps (delta < 1e-14), which enters the
    # Richardson value as at most 10 delta / tau: 1e-13 / tau.
    # tau = SLOPE_STEP / max(ell, 1)
    model, j1, j2, _ = drawn
    gen = build_generator(model, j1, j2)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    ell = 2.0 * sum(np.linalg.norm(a, 2) ** 2 for a in dense_generator(gen).jumps)
    tau = SLOPE_STEP / max(ell, 1.0)

    def slope(t):
        s_lin = evolve(gen, rho0, t, tol=SLOPE_TOL).s_lin
        return (s_lin[-1] - s_lin[0]) / t

    estimate = 2.0 * slope(tau / 2.0) - slope(tau)
    rate = entropy_rate_analytic(psi, model, j1, j2).analytic_rate
    assert abs(estimate - rate) <= 2.0 * ell**3 * tau**2 + 6.0 * SLOPE_TOL + 1e-13 / tau


@DETERMINISTIC
@given(dampings(), SPINS)
def test_singlet_is_certified_stationary_at_balanced_common_bath(gamma, j):
    # the paper's headline: at lambda = 1 every common-bath coupling is a
    # component of the total spin, which annihilates the singlet, so any
    # correlated gamma leaves it stationary (certificate bound 1e-12)
    psi = entangled_state(EntangledStateSpec(j, j, coefficient_profile("singlet", j)))
    assert certify_stationary([psi], CommonBath(gamma=gamma, lam=1.0, axes=AXES), j, j).certified


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
        return [{a: getattr(ops1, a) for a in AXES}]
    if isinstance(model, CommonBath):
        ops = composite_coupling_ops(j1, j2, model.lam)
        return [{a: getattr(ops, a) for a in AXES}]
    ops2 = angular_momentum_ops(j2)
    dims = (ops1.z.shape[0], ops2.z.shape[0])
    sets = [{a: embed(getattr(ops1, a), 0, dims) for a in AXES}]
    if model.gamma2 is not None:
        sets.append({a: embed(getattr(ops2, a), 1, dims) for a in AXES})
    return sets


@DETERMINISTIC
@given(factor_models())
def test_factor_matrix_equals_dense_builders(drawn):
    # exact: kron(X, I) + kron(I, Y) adds each entry to zero or to a diagonal
    # entry as the builders do, and halving is exact
    model, j1, j2 = drawn
    factored = coupling_factors(model, j1, j2)
    builders = _dense_builders(model, j1, j2)
    assert len(factored) == len(builders)
    for (_, ops), mats in zip(factored, builders):
        for a in AXES:
            assert np.array_equal(dense(ops[a]), mats[a])


def _dense_jumps(gamma, mats):
    # canonical jumps from the dense builders' matrices: the same eigh of
    # gamma and the same rate floor as canonical_jumps, weights applied to
    # the n x n matrices
    evals, evecs = np.linalg.eigh(gamma)
    floor = JUMP_RATE_TOL * max(float(evals.max(initial=0.0)), 1.0)
    return [
        math.sqrt(rate) * sum(evecs[i, k] * mats[a] for i, a in enumerate(AXES))
        for k, rate in enumerate(evals)
        if rate > floor
    ]


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_factored_jumps_match_dense_jumps(drawn, seed):
    # || A_f v - A v || <= 1e-13 ||A||_F ||v||
    model, j1, j2 = drawn
    rng = np.random.default_rng(seed)
    for (gamma, f_ops), mats in zip(coupling_factors(model, j1, j2), _dense_builders(model, j1, j2)):
        f_jumps, d_jumps = canonical_jumps(gamma, f_ops), _dense_jumps(gamma, mats)
        assert len(f_jumps) == len(d_jumps)
        for f, d in zip(f_jumps, d_jumps):
            v = rng.normal(size=d.shape[0]) + 1j * rng.normal(size=d.shape[0])
            tol = 1e-13 * np.linalg.norm(d) * np.linalg.norm(v)
            assert np.linalg.norm(f.apply(v) - d @ v) <= tol


def _oracle_sets(model, j1, j2):
    # the model's coupling sets from the oracle's own spin matrices; an
    # undamped second ensemble contributes a zero damping matrix
    if isinstance(model, CommonBath):
        return coupling_sets("common", j1, j2, model.gamma, None, model.lam)
    gamma2 = np.zeros((3, 3)) if model.gamma2 is None else model.gamma2
    return coupling_sets("independent", j1, j2, model.gamma1, gamma2, 0.0)


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_generator_matches_double_sum_oracle(drawn, seed):
    # the jump assembly against the literal double sum over the oracle's
    # coupling operators, on a random Hermitian X: max |L(X) - expect| <=
    # 1e-12 max(1, max |expect|)
    model, j1, j2 = drawn
    gen = build_generator(model, j1, j2)
    x = random_hermitian(np.random.default_rng(seed), gen.dim)
    expect = sum(dissipator_double_sum(gamma, ops, x) for gamma, ops in _oracle_sets(model, j1, j2))
    got = apply_generator(gen, x)
    assert np.abs(got - expect).max() <= 1e-12 * max(1.0, float(np.abs(expect).max()))


# the banded kernel's bound against the dense assembly, fixed before its
# first run: ||got - want||_F <= BANDED_RHS_TOL (1 + ||K||_F) ||X||_F
BANDED_RHS_TOL = 1e-13


def _check_banded_rhs(gen, x):
    # lindblad_rhs on the generator's nonzero diagonals against
    # sum_k A_k X A_k^dag - (1/2){K, X} assembled from dense_views.dense
    bound = BANDED_RHS_TOL * (1.0 + np.linalg.norm(dense_generator(gen).ksum)) * np.linalg.norm(x)
    got = _kernels.lindblad_rhs(x, *gen.kernel_args)
    assert np.linalg.norm(got - dense_rhs(gen, x)) <= bound


def _non_hermitian(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_banded_rhs_matches_dense_assembly(drawn, seed):
    # correlated damping of rank 1-3, lambda in [0, 2], common, independent
    # and single-ensemble baths at j <= 3, on a non-Hermitian X (no right
    # product may assume X = X^dag)
    model, j1, j2 = drawn
    gen = build_generator(model, j1, j2)
    _check_banded_rhs(gen, _non_hermitian(np.random.default_rng(seed), gen.dim))


# x, y, z damping with an xz cross term: a common bath's x-z jumps lie on 5
# diagonals, and K on 13
GAMMA_XZ = np.array([[1.0, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.25]])


@pytest.mark.parametrize(
    "bath,j",
    [("common", 5), ("independent", 5), ("common", 8), ("independent", 8)],
    ids=["common-n121", "independent-n121", "common-n289", "independent-n289"],
)
def test_banded_rhs_matches_dense_assembly_at_size(bath, j):
    # the property's bound at the sizes simulate runs
    if bath == "common":
        model = CommonBath(gamma=GAMMA_XZ, lam=1.4, axes=AXES)
    else:
        model = IndependentBath(gamma1=GAMMA_XZ, gamma2=np.diag([0.5, 0.75, 0.5]), axes=AXES)
    gen = build_generator(model, j, j)
    rng = np.random.default_rng(j)
    assert max(len(offs) for offs in gen.kernel_args[1]) <= 5
    assert len(gen.kernel_args[2].offsets) <= 13
    _check_banded_rhs(gen, _non_hermitian(rng, gen.dim))


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
    # L(psi phi^dag) = U_psi V_phi^dag: U from psi's factors, V from phi's
    u, v = rank_one_factors(jumps, psi)[0], rank_one_factors(jumps, phi)[1]
    want = apply_generator(gen, np.outer(psi, phi.conj()))
    assert np.abs(u @ v.conj().T - want).max() <= 1e-12 * max(1.0, float(np.linalg.norm(want)))


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_certificate_residuals_match_assembled_norms(drawn, seed):
    # ||R_Ui R_Vj^dag||_F against ||U_i V_j^dag||_F assembled from the
    # factored jumps: within 1e-13 max(1, ||U_i||_F ||V_j||_F), states and
    # pairs; U_i V_j^dag against the dense generator as in
    # test_factored_rank_one_matches_dense_generator
    model, j1, j2 = drawn
    jumps = [op for gamma, ops in coupling_factors(model, j1, j2) for op in canonical_jumps(gamma, ops)]
    gen = build_generator(model, j1, j2)
    rng = np.random.default_rng(seed)
    states = [rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim) for _ in range(3)]
    states = [psi / np.linalg.norm(psi) for psi in states]
    report = certify_stationary(states, model, j1, j2, subspace=True)
    got = {(i, i): res for i, res in enumerate(report.residuals)} | report.pair_residuals
    assert sorted(got) == [(i, j) for i in range(3) for j in range(i, 3)]
    for (i, j), res in got.items():
        u, v = rank_one_factors(jumps, states[i])[0], rank_one_factors(jumps, states[j])[1]
        assembled = u @ v.conj().T
        want = apply_generator(gen, np.outer(states[i], states[j].conj()))
        assert np.abs(assembled - want).max() <= 1e-12 * max(1.0, float(np.linalg.norm(want)))
        want = np.linalg.norm(assembled)
        assert abs(res - want) <= 1e-13 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))


@DETERMINISTIC
@given(factor_models(), SEEDS)
def test_generator_is_self_adjoint(drawn, seed):
    # every jump is Hermitian, so L = -(1/2) sum_k [A_k, [A_k, .]] is
    # self-adjoint in <X, Y> = tr(X^dag Y), which lets evolve continue a
    # basis by Lanczos, and negative semidefinite: <X, L X> = -(1/2) sum_k
    # ||[A_k, X]||_F^2 <= 0, so tr rho^2 never grows and S_lin(t) never
    # falls.  Bound fixed before the first run: each side rounds by at most
    # 1e-12 (1 + ||K||_F) ||X||_F ||Y||_F for random complex X and Y
    model, j1, j2 = drawn
    gen = build_generator(model, j1, j2)
    rng = np.random.default_rng(seed)
    x, y = (rng.normal(size=(gen.dim, gen.dim)) + 1j * rng.normal(size=(gen.dim, gen.dim)) for _ in range(2))
    gap = abs(np.vdot(x, apply_generator(gen, y)) - np.vdot(apply_generator(gen, x), y))
    scale = 1.0 + np.linalg.norm(dense_generator(gen).ksum)
    assert gap <= 1e-12 * scale * np.linalg.norm(x) * np.linalg.norm(y)
    assert np.vdot(x, apply_generator(gen, x)).real <= 1e-12 * scale * np.linalg.norm(x) ** 2

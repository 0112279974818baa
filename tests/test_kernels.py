"""Invariants of the dense Lindblad kernels."""

import numpy as np
import pytest
import scipy.linalg

from oracles import coupling_sets, dense_liouvillian, random_density, random_hermitian
from spinbath import _kernels
from spinbath.generator import (
    STEP_MATRIX_MAX_ROWS,
    CommonBath,
    IndependentBath,
    build_generator,
    default_step,
    evolve,
)
from spinbath.spin_algebra import SpinOperator
from spinbath.states import coefficient_profile, density_from_pure, entangled_state
from spinbath.states import EntangledStateSpec


def _stacked_inputs(seed=3):
    rng = np.random.default_rng(seed)
    model = CommonBath(
        gamma=np.diag([1.0, 0.4, 0.7]), lam=1.3, axes=("x", "y", "z")
    )
    gen = build_generator(model, 1, 1)
    rho = random_density(rng, gen.dim)
    return gen, rho


class TestKernelAgreement:
    def test_rhs_annihilates_trace(self):
        gen, rho = _stacked_inputs(seed=17)
        out = _kernels.lindblad_rhs(rho, gen._jumps, gen._jdags, gen._ksum, None, False)
        assert abs(np.trace(out)) <= 1e-12 * gen.dim

    def test_chunk_keeps_density_properties(self):
        spec = EntangledStateSpec.make(1, 1, coefficient_profile("uniform", 1))
        rho0 = density_from_pure(entangled_state(spec), (3, 3)).matrix
        gen, _ = _stacked_inputs()
        out = _kernels.rk4_chunk(rho0, gen._jumps, gen._jdags, gen._ksum, None, False, 0.01, 200)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10


# damping matrices with an xz cross term
GAMMA_A = np.array([[1.0, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.25]])
GAMMA_B = np.array([[0.5, 0.0, -0.15], [0.0, 0.75, 0.0], [-0.15, 0.0, 0.5]])

# (bath, j, Hamiltonian): n = 2, 9 and 16 and both bath kinds
STEP_MATRIX_CASES = [
    ("independent", 0.5, True),
    ("independent", 1, False),
    ("common", 1, True),
    ("independent", 1.5, True),
    ("common", 1.5, False),
]


def _case(bath, j, with_ham, seed=11):
    rng = np.random.default_rng(seed)
    axes = ("x", "y", "z")
    if bath == "common":
        model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=axes)
    else:
        model = IndependentBath(gamma1=GAMMA_A, gamma2=None if j == 0.5 else GAMMA_B, axes=axes)
    j2 = None if j == 0.5 else j
    gen = build_generator(model, j, j2)
    if with_ham:
        ham = SpinOperator(0.7 * random_hermitian(rng, gen.dim), gen.dims)
        gen = build_generator(model, j, j2, hamiltonian=ham)
    return gen, random_density(rng, gen.dim)


def _args(gen):
    return (gen._jumps, gen._jdags, gen._ksum, gen._ham, gen._ham is not None)


@pytest.mark.parametrize("bath,j,with_ham", STEP_MATRIX_CASES)
class TestStepMatrix:
    """The precomputed RK4 step matrix against the stage-by-stage kernel.

    Bound fixed before running: entries agree to 1e-12 after 1,000 default
    steps.  Both paths evaluate the same polynomial in hL, so they differ
    by roundoff alone.
    """

    def test_liouvillian_matches_rhs(self, bath, j, with_ham):
        gen, rho = _case(bath, j, with_ham)
        n = gen.dim
        want = _kernels.lindblad_rhs(rho, *_args(gen))
        got = (_kernels.liouvillian(*_args(gen)) @ rho.reshape(n * n)).reshape(n, n)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_chunk_agrees_with_rk4_chunk(self, bath, j, with_ham):
        gen, rho0 = _case(bath, j, with_ham)
        h = default_step(gen)
        inc = _kernels.rk4_step_increment(_kernels.liouvillian(*_args(gen)), h)
        got = _kernels.step_matrix_chunk(rho0, inc, 1000)
        want = _kernels.rk4_chunk(rho0, *_args(gen), h, 1000)
        assert np.abs(got - want).max() <= 1e-12

    def test_evolve_partial_last_step(self, bath, j, with_ham):
        # 37 full steps in chunks of stride 5, then h_last = 0.4 h
        gen, rho0 = _case(bath, j, with_ham)
        h = default_step(gen)
        traj = evolve(gen, rho0, 37.4 * h, step=h, stride=5)
        assert traj.accepted == 38
        want = _kernels.rk4_chunk(rho0, *_args(gen), h, 37)
        want = _kernels.rk4_chunk(want, *_args(gen), 37.4 * h - 37 * h, 1)
        assert np.abs(traj.states[-1] - want).max() <= 1e-12


@pytest.mark.parametrize("j,with_ham,step_matrix", [(1, True, True), (2, False, False)])
def test_fixed_step_evolve_is_linear(j, with_ham, step_matrix):
    # n = 9 takes the step matrix and n = 25 the stage kernel; 37 full steps
    # in chunks of stride 5, then h_last = 0.4 h.  Scaling by 2 is exact in
    # floating point, so a linear map of rho0 gives 2x the states bit for bit
    gen, rho0 = _case("common", j, with_ham)
    assert (gen.dim**2 <= STEP_MATRIX_MAX_ROWS) == step_matrix
    h = default_step(gen)
    one = evolve(gen, rho0, 37.4 * h, step=h, stride=5)
    two = evolve(gen, 2.0 * rho0, 37.4 * h, step=h, stride=5)
    assert one.accepted == two.accepted == 38
    assert len(one.states) == len(two.states) == 9
    for a, b in zip(one.states, two.states):
        assert np.array_equal(b, 2.0 * a)


def test_adaptive_rhs_cost_is_krylov_dim_per_accepted_step(monkeypatch):
    # the public name and rk4_chunk's alias are both counted; a basis costs
    # at most KRYLOV_DIM right-hand sides (fewer when it closes early) and a
    # rejected step reuses it
    calls = []
    rhs = _kernels.lindblad_rhs

    def counted(*a):
        calls.append(1)
        return rhs(*a)

    monkeypatch.setattr(_kernels, "lindblad_rhs", counted)
    monkeypatch.setattr(_kernels, "_rhs", counted)
    gen, rho0 = _case("common", 1, True)
    # an initial step of t_final is rejected at least once
    traj = evolve(gen, rho0, 0.5, step=0.5, tol=1e-10)
    assert traj.rejected >= 1
    assert len(calls) <= _kernels.KRYLOV_DIM * traj.accepted


def _norm1(a):
    return np.abs(a).sum(axis=0).max()


def _abscissa(a):
    # largest eigenvalue of the Hermitian part
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T)).max()


class TestPadeExpm:
    """The (6, 6) Pade exponential against ``scipy.linalg.expm``.

    Random complex upper-Hessenberg matrices of every size a Krylov step
    uses, shifted by their numerical abscissa so that their Hermitian part
    is negative semidefinite, as for a dissipative generator: then
    ||exp(tA)||_2 <= 1 for t >= 0, squaring cannot amplify a rounding error
    by more than 2 per step, and exp has absolute condition number at most
    1.  "decaying" matrices are fully random, so exp(A) is small at large
    norms; "oscillating" ones are i times a real symmetric tridiagonal
    matrix of the given norm plus a random one of norm at most 0.1, so
    exp(A) stays near unitary and every squaring counts.  Bound fixed
    before running: ||P - S||_1 <= 1e-13 max(1, ||A||_1) max(1, ||S||_1),
    the max(1, ||A||_1) covering the 2^s ~ 4 ||A|| growth of rounding
    errors over s squarings.
    """

    @pytest.mark.parametrize("kind", ["decaying", "oscillating"])
    @pytest.mark.parametrize("size", range(1, _kernels.KRYLOV_DIM + 2))
    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_matches_scipy(self, kind, size, norm):
        rng = np.random.default_rng(size * 1000 + int(np.log10(norm)) + 3)
        a = np.triu(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)), -1)
        a /= _norm1(a)
        if kind == "decaying":
            a -= _abscissa(a) * np.eye(size)
            a *= norm / _norm1(a)
        else:
            diag, off = rng.normal(size=size), rng.normal(size=size - 1)
            sym = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            a = 1j * norm * sym / _norm1(sym) + 0.1 * min(1.0, norm) * a
            a -= _abscissa(a) * np.eye(size)
        want = scipy.linalg.expm(a)
        err = _norm1(_kernels.pade_expm(a) - want)
        assert err <= 1e-13 * max(1.0, _norm1(a)) * max(1.0, _norm1(want))

    @pytest.mark.parametrize("size", [1, 5, _kernels.KRYLOV_DIM + 1])
    def test_zero_matrix_is_identity(self, size):
        zero = np.zeros((size, size), dtype=np.complex128)
        assert np.array_equal(_kernels.pade_expm(zero), np.eye(size))


# (bath, j1, j2, Hamiltonian) at n <= 25: x, y and z couplings with an xz
# cross term in every damping matrix
ORACLE_CASES = [
    ("independent", 0.5, None, True),
    ("common", 1, 1, True),
    ("independent", 1, 1.5, False),
    ("common", 1.5, 1, False),
    ("common", 2, 2, True),
]


def _oracle_case(bath, j1, j2, with_ham, seed=23):
    """A generator from the package, the same model's dense Liouvillian from
    the independent double-sum construction, and a random state."""
    rng = np.random.default_rng(seed)
    axes = ("x", "y", "z")
    if bath == "common":
        model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=axes)
    else:
        model = IndependentBath(gamma1=GAMMA_A, gamma2=None if j2 is None else GAMMA_B, axes=axes)
    dims = tuple(int(2 * j + 1) for j in (j1, j2) if j is not None)
    n = int(np.prod(dims))
    ham = 0.7 * random_hermitian(rng, n) if with_ham else None
    gen = build_generator(model, j1, j2, hamiltonian=None if ham is None else SpinOperator(ham, dims))
    lv = dense_liouvillian(coupling_sets(bath, j1, j2, GAMMA_A, GAMMA_B, 1.4), ham)
    return gen, lv, random_density(rng, n)


def _exact(lv, rho0, t):
    n = rho0.shape[0]
    return (scipy.linalg.expm(t * lv) @ rho0.reshape(n * n)).reshape(n, n)


@pytest.mark.parametrize("bath,j1,j2,with_ham", ORACLE_CASES)
class TestDenseLiouvillianOracle:
    """Every propagator against scipy's expm of the dense Liouvillian.

    Bounds fixed before running.  RK4: one step of a linear equation is
    P(hL) rho with P the degree-4 Taylor polynomial, so one step from rho
    differs from exp(hL) rho by at most (h||L||_2)^5 / 120 e^(h||L||_2)
    ||rho||_F (the Taylor remainder), plus 1e-13 for rounding.  Krylov: ``evolve`` commits an estimated error of at most
    tol per unit time, so every sample is within tol * t_final (Frobenius).
    """

    @pytest.mark.parametrize("kind", ["stage", "step_matrix"])
    def test_rk4_step(self, bath, j1, j2, with_ham, kind):
        gen, lv, rho = _oracle_case(bath, j1, j2, with_ham)
        n = gen.dim
        h = default_step(gen)
        if kind == "stage":
            advance = lambda mat: _kernels.rk4_chunk(mat, *_args(gen), h, 1)  # noqa: E731
        else:
            inc = _kernels.rk4_step_increment(_kernels.liouvillian(*_args(gen)), h)
            advance = lambda mat: _kernels.step_matrix_chunk(mat, inc, 1)  # noqa: E731
        exact_step = scipy.linalg.expm(h * lv)
        x = h * np.linalg.norm(lv, 2)
        remainder = x**5 / 120.0 * np.exp(x)
        for _ in range(20):
            got = advance(rho)
            want = (exact_step @ rho.reshape(n * n)).reshape(n, n)
            assert np.linalg.norm(got - want) <= remainder * np.linalg.norm(rho) + 1e-13
            rho = got

    def test_krylov_evolve(self, bath, j1, j2, with_ham):
        gen, lv, rho0 = _oracle_case(bath, j1, j2, with_ham)
        tol, t_final = 1e-10, 2.0
        traj = evolve(gen, rho0, t_final, tol=tol, stride=4)
        assert traj.times[-1] == t_final
        for t, state in zip(traj.times, traj.states):
            assert np.linalg.norm(state - _exact(lv, rho0, t)) <= tol * t_final

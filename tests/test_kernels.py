"""Invariants of the dense Lindblad kernels."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from oracles import coupling_sets, dense_liouvillian, random_density, random_hermitian
from spinbath import _kernels
from spinbath.generator import (
    STEP_BISECTIONS,
    STEP_MATRIX_MAX_ROWS,
    CommonBath,
    IndependentBath,
    IntegrationAbortError,
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


def _spied_powers(monkeypatch):
    """Records each ``increment_power`` result and every ``step_matrix_chunk``
    call as (matrix, nsteps)."""
    powers, calls = [], []
    power, chunk = _kernels.increment_power, _kernels.step_matrix_chunk

    def spied_power(inc, s):
        powers.append(power(inc, s))
        return powers[-1]

    def spied_chunk(rho, inc, nsteps):
        calls.append((inc, nsteps))
        return chunk(rho, inc, nsteps)

    monkeypatch.setattr(_kernels, "increment_power", spied_power)
    monkeypatch.setattr(_kernels, "step_matrix_chunk", spied_chunk)
    return powers, calls


@pytest.mark.parametrize(
    "j,with_ham,path,steps,stride",
    [(1, True, "step_matrix", 37, 5), (1, True, "power", 1451, 8), (2, False, "stage", 37, 5)],
)
def test_fixed_step_evolve_is_linear(monkeypatch, j, with_ham, path, steps, stride):
    # n = 9 takes the step matrix, one product per stride of 8 once the run
    # is long enough, and n = 25 the stage kernel; ``steps`` full steps in
    # chunks of ``stride``, then h_last = 0.4 h.  Scaling by 2 is exact in
    # floating point, so a linear map of rho0 gives 2x the states bit for bit
    powers, _ = _spied_powers(monkeypatch)
    gen, rho0 = _case("common", j, with_ham)
    assert (gen.dim**2 <= STEP_MATRIX_MAX_ROWS) == (path != "stage")
    h = default_step(gen)
    one = evolve(gen, rho0, (steps + 0.4) * h, step=h, stride=stride)
    two = evolve(gen, 2.0 * rho0, (steps + 0.4) * h, step=h, stride=stride)
    assert len(powers) == (2 if path == "power" else 0)
    assert one.accepted == two.accepted == steps + 1
    assert len(one.states) == len(two.states) == steps // stride + 2
    for a, b in zip(one.states, two.states):
        assert np.array_equal(b, 2.0 * a)


# strided evolve at n = 9 against single rk4_chunk steps: 1,451 full steps
# and a partial one of 0.4 h.  That is past the power rule at strides 3, 8
# and 200 and leaves a remainder chunk at each; stride 1 never powers, and
# stride 2,000 has no full chunk
POWER_STEPS = 1451


@pytest.fixture(scope="module")
def stepped():
    """The n = 9 case, its step h, rk4_chunk's state after every full step,
    and after the partial one."""
    gen, rho0 = _case("common", 1, True)
    h = default_step(gen)
    states = [rho0]
    for _ in range(POWER_STEPS):
        states.append(_kernels.rk4_chunk(states[-1], *_args(gen), h, 1))
    last = _kernels.rk4_chunk(states[-1], *_args(gen), (POWER_STEPS + 0.4) * h - POWER_STEPS * h, 1)
    return gen, h, states, last


@pytest.mark.parametrize("stride", [1, 3, 8, 200, 2000])
def test_strided_evolve_agrees_with_rk4_chunk(monkeypatch, stepped, stride):
    # bound fixed before running, as in TestStepMatrix: every sample within
    # 1e-12 of the single-step states, entry by entry.  A full chunk is one
    # product with the stride's power, the remainder chunk and the partial
    # step go one step per product
    gen, h, states, last = stepped
    powers, calls = _spied_powers(monkeypatch)
    traj = evolve(gen, states[0], (POWER_STEPS + 0.4) * h, step=h, stride=stride)
    full, rest = divmod(POWER_STEPS, stride)
    assert traj.accepted == POWER_STEPS + 1
    if 1 < stride <= POWER_STEPS:
        assert len(powers) == 1
        assert [n for _, n in calls] == [1] * full + [rest, 1]
        assert sum(d is powers[0] for d, _ in calls) == full
    else:
        assert powers == []
        assert [n for _, n in calls] == [1] * full + ([rest] if rest else []) + [1]
    want = states[::stride] + [last]
    assert len(traj.states) == len(want)
    for got, ref in zip(traj.states, want):
        assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("full,built", [(3, False), (4, True)])
def test_stride_power_built_only_when_it_saves_work(monkeypatch, full, built):
    # n = 2, stride 8, 8 full + 5 steps: full chunks, a remainder of 4 and
    # the last step.  Powering costs about 2 log2(8) n^2 = 24 matrix-vector
    # products and each full chunk saves 7, so three full chunks (21) build
    # nothing and four (28) build the power
    powers, calls = _spied_powers(monkeypatch)
    gen, rho0 = _case("independent", 0.5, True)
    h = default_step(gen)
    evolve(gen, rho0, (8 * full + 5) * h, step=h, stride=8)
    assert len(powers) == built
    assert [n for _, n in calls] == [1 if built else 8] * full + [4, 1]


def _counted_rhs(monkeypatch):
    # the public name and rk4_chunk's alias are both counted
    calls = []
    rhs = _kernels.lindblad_rhs

    def counted(*a):
        calls.append(1)
        return rhs(*a)

    monkeypatch.setattr(_kernels, "lindblad_rhs", counted)
    monkeypatch.setattr(_kernels, "_rhs", counted)
    return calls


def _recorded_bases(monkeypatch):
    """One record per Krylov basis evolve builds: the norm of the state it
    spans, its own error function, every trial (tau, error) of the search,
    and the tau its state was formed at."""
    bases = []
    build = _kernels.krylov_propagator

    def recorded(rho, *args):
        error, state = build(rho, *args)
        rec = {"norm": float(np.linalg.norm(rho)), "error": error, "trials": [], "taken": []}
        bases.append(rec)

        def traced_error(tau):
            rec["trials"].append((tau, error(tau)))
            return rec["trials"][-1][1]

        def traced_state(tau):
            rec["taken"].append(tau)
            return state(tau)

        return traced_error, traced_state

    monkeypatch.setattr(_kernels, "krylov_propagator", recorded)
    return bases


# common bath with a Hamiltonian at n = 9: five steps, none of whose bases
# closes, and the first trial (step = t_final) is too long for the tolerance
SEARCH_CASE = dict(t_final=2.0, step=2.0, tol=1e-10)


def test_adaptive_rhs_cost_is_krylov_dim_per_accepted_step(monkeypatch):
    # a basis costs KRYLOV_DIM right-hand sides and its trial steps none
    calls = _counted_rhs(monkeypatch)
    gen, rho0 = _case("common", 1, True)
    traj = evolve(gen, rho0, SEARCH_CASE["t_final"], step=SEARCH_CASE["step"], tol=SEARCH_CASE["tol"])
    assert traj.accepted >= 2
    assert len(calls) == _kernels.KRYLOV_DIM * traj.accepted


def test_adaptive_steps_are_the_largest_each_basis_supports(monkeypatch):
    # every step below t_final - t meets the tolerance, and on its basis the
    # next larger trial, within the search's precision 2^-STEP_BISECTIONS,
    # fails it, as does tau (1 + 2^-STEP_BISECTIONS) itself.  rejected
    # counts the failed trials
    bases = _recorded_bases(monkeypatch)
    gen, rho0 = _case("common", 1, True)
    t_final, tol = SEARCH_CASE["t_final"], SEARCH_CASE["tol"]
    traj = evolve(gen, rho0, t_final, step=SEARCH_CASE["step"], tol=tol)
    assert len(bases) == traj.accepted
    t, refused, short = 0.0, 0, 0
    for rec in bases:
        (tau,) = rec["taken"]
        budget = tol * max(1.0, rec["norm"])
        refused += sum(err > budget * x for x, err in rec["trials"])
        assert rec["error"](tau) <= budget * tau
        if tau < t_final - t:
            short += 1
            wider = tau * (1.0 + 2.0**-STEP_BISECTIONS)
            nxt, err = min((x, e) for x, e in rec["trials"] if x > tau)
            assert nxt <= wider and err > budget * nxt
            assert rec["error"](wider) > budget * wider
        t += tau
    assert short == traj.accepted - 1
    assert refused == traj.rejected >= 1


def test_adaptive_max_steps_bounds_steps_and_refused_trials():
    gen, rho0 = _case("common", 1, True)
    run = lambda cap: evolve(gen, rho0, SEARCH_CASE["t_final"], step=SEARCH_CASE["step"],  # noqa: E731
                             tol=SEARCH_CASE["tol"], max_steps=cap)
    traj = run(10_000)
    used = traj.accepted + traj.rejected
    assert run(used).accepted == traj.accepted
    with pytest.raises(IntegrationAbortError, match="max_steps"):
        run(used - 1)


@pytest.mark.parametrize("tol", [None, 1e-10])
def test_evolve_of_zero_is_zero(monkeypatch, tol):
    # exp(tL) 0 = 0: the adaptive path takes t_final in one step on a basis
    # that spans nothing and costs no right-hand side
    calls = _counted_rhs(monkeypatch)
    gen, _ = _case("common", 1, True)
    zero = np.zeros((gen.dim, gen.dim), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(gen, zero, 1.0, tol=tol)
    assert traj.times[-1] == 1.0
    assert all(not state.any() for state in traj.states)
    if tol is not None:
        assert (traj.accepted, traj.rejected, len(calls)) == (1, 0, 0)


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

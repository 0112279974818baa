"""Invariants of the Lindblad kernels."""

import importlib.util
import math
import re
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from dense_views import rk4_step
from oracles import common_exact, coupling_sets, dense_liouvillian, independent_exact, random_density
from spinbath import _kernels, cli, generator
from spinbath.config import parse_config
from spinbath.generator import (
    GRID_TOL,
    STEP_BISECTIONS,
    CommonBath,
    FactoredOperator,
    Generator,
    IndependentBath,
    IntegrationAbortError,
    build_generator,
    evolve,
)
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
        out = _kernels.lindblad_rhs(rho, *_args(gen))
        assert abs(np.trace(out)) <= 1e-12 * gen.dim

    def test_chunk_keeps_density_properties(self):
        spec = EntangledStateSpec(1, 1, coefficient_profile("uniform", 1))
        rho0 = density_from_pure(entangled_state(spec))
        gen, _ = _stacked_inputs()
        out = _kernels.rk4_chunk(rho0, *_args(gen), 0.01, 200)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10


# damping matrices with an xz cross term
GAMMA_A = np.array([[1.0, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.25]])
GAMMA_B = np.array([[0.5, 0.0, -0.15], [0.0, 0.75, 0.0], [-0.15, 0.0, 0.5]])


def _case(bath, j, seed=11):
    axes = ("x", "y", "z")
    if bath == "common":
        model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=axes)
    else:
        model = IndependentBath(gamma1=GAMMA_A, gamma2=None if j == 0.5 else GAMMA_B, axes=axes)
    gen = build_generator(model, j, None if j == 0.5 else j)
    return gen, random_density(np.random.default_rng(seed), gen.dim)


def _args(gen):
    return gen.kernel_args


@pytest.mark.parametrize(
    "j,steps,stride,restarted",
    [(1, 37, 5, False), (2, 37, 5, False), (1, 1451, 8, False), (1, 1451, 200, False),
     (1, 1451, 200, True)],
    ids=["n9-37steps-stride5", "n25-37steps-stride5", "n9-1451steps-stride8", "n9-1451steps-stride200",
         "n9-1451steps-stride200-restarted"],
)
def test_fixed_step_evolve_is_linear(monkeypatch, j, steps, stride, restarted):
    # ``steps`` steps of the RK4 scale (``rk4_step``) in rows of ``stride``,
    # then h_last = 0.4 h; at stride 200 one basis continues past KRYLOV_DIM
    # vectors to give every row, and on bases capped at KRYLOV_DIM
    # (``restarted``) the first bases reach no row, so the first rows follow
    # sub-steps.  The error estimate
    # is linear in rho0 and the budget is proportional to
    # max(1, ||rho||_F), so on states of Frobenius norm 4 and 2 every test
    # and every sub-step is the same.  Halving is exact in floating point,
    # so half of rho0 gives half the states bit for bit
    if restarted:
        _krylov_dim_bases(monkeypatch)
    gen, rho = _case("common", j)
    rho0 = (4.0 / np.linalg.norm(rho)) * rho
    h = rk4_step(gen)
    one = evolve(gen, rho0, (steps + 0.4) * h, step=h, stride=stride)
    half = evolve(gen, 0.5 * rho0, (steps + 0.4) * h, step=h, stride=stride)
    assert one.accepted == half.accepted == steps + 1
    assert one.rejected == half.rejected
    assert len(one.states) == len(half.states) == steps // stride + 2
    for a, b in zip(one.states, half.states):
        assert np.array_equal(b, 0.5 * a)


def _counted_rhs(monkeypatch):
    calls = []
    rhs = _kernels.lindblad_rhs

    def counted(*a, **kw):
        calls.append(1)
        return rhs(*a, **kw)

    monkeypatch.setattr(_kernels, "lindblad_rhs", counted)
    return calls


def _passes(passing, tau):
    # a basis's acceptance test of the one offset tau
    return passing(np.array([tau])) == 1


def _state(states, tau):
    # a basis's state at the one offset tau
    return states(np.array([tau]))[0]


def _recorded_bases(monkeypatch, calls=None):
    """One record per Krylov basis evolve builds: the norm of the state it
    spans, the offsets it was given, the right-hand sides its build took
    (one per basis vector, counted in ``calls`` from ``_counted_rhs``), its
    own acceptance test of one offset ``passes``, every trial (tau, passed)
    of the search (``passing`` of one offset), the offsets taken (those
    ``states`` formed), and per ``passing`` call on the offsets the basis
    was given the number of offsets and of those that pass."""
    bases = []
    build = _kernels.krylov_propagator
    calls = [] if calls is None else calls

    def recorded(rho, *args, taus, tol):
        before = len(calls)
        passing, states = build(rho, *args, taus=taus, tol=tol)
        rec = {"norm": float(np.linalg.norm(rho)), "taus": np.asarray(taus),
               "vectors": len(calls) - before, "passes": lambda tau: _passes(passing, tau),
               "trials": [], "taken": [], "sampled": []}
        bases.append(rec)

        def traced_passing(offsets):
            count = passing(offsets)
            if offsets is taus:
                rec["sampled"].append((len(offsets), count))
            else:
                (tau,) = offsets
                rec["trials"].append((float(tau), count == 1))
            return count

        def traced_states(offsets):
            rec["taken"] += np.asarray(offsets).tolist()
            return states(offsets)

        return traced_passing, traced_states

    monkeypatch.setattr(_kernels, "krylov_propagator", recorded)
    return bases


def _recorded_small_problems(monkeypatch):
    """The inputs (alpha, sub, beta, resid) of every small problem a Krylov
    basis factors, copied, in order."""
    inputs = []
    small_problem = _kernels.small_problem

    def recorded(*args):
        inputs.append(tuple(np.copy(a) for a in args))
        return small_problem(*args)

    monkeypatch.setattr(_kernels, "small_problem", recorded)
    return inputs


# common bath at n = 9 with bases capped at KRYLOV_DIM vectors
# (``_krylov_dim_bases``): three steps, none of whose bases closes, and the
# first trial (t_final) is too long for the tolerance
SEARCH_CASE = dict(t_final=16.0, tol=1e-10)


def _krylov_dim_bases(monkeypatch):
    # no Lanczos continuation: every basis stops at KRYLOV_DIM vectors, so
    # a long run takes several
    monkeypatch.setattr(_kernels, "LANCZOS_MAX", _kernels.KRYLOV_DIM)


def _stored(n):
    # the vectors a basis of n x n states keeps under BASIS_BYTES
    return min(_kernels.KRYLOV_DIM, max(1, _kernels.BASIS_BYTES // (16 * n * n)))


def _store(monkeypatch, n, count):
    # a byte budget that stores ``count`` vectors of n x n states
    monkeypatch.setattr(_kernels, "BASIS_BYTES", count * 16 * n * n)
    assert _stored(n) == count


@pytest.mark.parametrize("stored", [16, 4, 1])
def test_adaptive_rhs_cost_is_krylov_dim_per_accepted_step(monkeypatch, stored):
    # a basis costs KRYLOV_DIM right-hand sides, its state one more per
    # vector past the ``stored`` ones, and its trial steps none
    _krylov_dim_bases(monkeypatch)
    calls = _counted_rhs(monkeypatch)
    gen, rho0 = _case("common", 1)
    _store(monkeypatch, gen.dim, stored)
    traj = evolve(gen, rho0, SEARCH_CASE["t_final"], tol=SEARCH_CASE["tol"])
    assert traj.accepted >= 2
    dim = _kernels.KRYLOV_DIM
    assert len(calls) == (dim + dim - stored) * traj.accepted


def test_adaptive_steps_are_the_largest_each_basis_supports(monkeypatch):
    # every step below t_final - t meets the tolerance, and on its basis the
    # next larger refused trial, or the refused offset t_final - t the
    # search starts below, lies within the search's precision
    # 2^-STEP_BISECTIONS, and tau (1 + 2^-STEP_BISECTIONS) fails too.
    # rejected counts the failed trials
    _krylov_dim_bases(monkeypatch)
    bases = _recorded_bases(monkeypatch)
    gen, rho0 = _case("common", 1)
    t_final, tol = SEARCH_CASE["t_final"], SEARCH_CASE["tol"]
    traj = evolve(gen, rho0, t_final, tol=tol)
    assert len(bases) == traj.accepted
    t, refused, short = 0.0, 0, 0
    for rec in bases:
        (tau,) = rec["taken"]
        ((offset,),) = [rec["taus"]]
        refused += sum(not passed for _, passed in rec["trials"])
        assert rec["passes"](tau)
        if tau < t_final - t:
            short += 1
            assert offset not in [x for x, _ in rec["trials"]]
            wider = tau * (1.0 + 2.0**-STEP_BISECTIONS)
            nxt = min([x for x, _ in rec["trials"] if x > tau] + [offset])
            assert nxt <= wider and not rec["passes"](nxt)
            assert not rec["passes"](wider)
        t += tau
    assert short == traj.accepted - 1
    assert refused == traj.rejected >= 1


@pytest.mark.parametrize("offset", [0.75, 1.0, 3.0, math.inf])
def test_sub_step_search_halves_below_the_offset_then_bisects(offset):
    # passes(h) is h <= 1 (an error h^2 against budget h), and never for
    # the infinite case.  The offset is one its caller refused, so the
    # search never tries it: it halves from offset / 2 until a trial
    # passes, and STEP_BISECTIONS bisections leave the step below the
    # offset and within a factor 1 + 2^-STEP_BISECTIONS of a refused trial
    # or of the offset.  Every failed trial counts once; with every trial
    # failing down to tiny there is no step
    trials = []

    def passes(h):
        trials.append(h)
        return math.isfinite(offset) and h <= 1.0

    start = 3.0 if math.isinf(offset) else offset
    h, refused = generator._largest_step(passes, start, 1e-15)
    assert start not in trials
    assert trials[0] == 0.5 * start
    if math.isinf(offset):
        assert h is None and refused == len(trials)
        assert 0.5 * trials[-1] < 1e-15 <= trials[-1]
    else:
        assert trials[:2] == ([1.5, 0.75] if start > 1.0 else [0.5 * start, 0.75 * start])
        assert len(trials) == (2 if start > 1.0 else 1) + STEP_BISECTIONS
        assert refused == sum(x > 1.0 for x in trials)
        assert h < start
        assert h <= min(start, 1.0) < h * (1.0 + 2.0**-STEP_BISECTIONS)


@pytest.mark.parametrize("stride", [1, 2])
def test_adaptive_records_every_stride_th_sub_step(monkeypatch, stride):
    # on bases capped at KRYLOV_DIM vectors each basis is one accepted step:
    # every basis but the last takes one sub-step, the stride-th ones are
    # rows at the sum of the sub-steps so far, and the last basis gives the
    # row at t_final
    _krylov_dim_bases(monkeypatch)
    bases = _recorded_bases(monkeypatch)
    gen, rho0 = _case("common", 1)
    t_final = SEARCH_CASE["t_final"]
    traj = evolve(gen, rho0, t_final, tol=SEARCH_CASE["tol"], stride=stride)
    assert traj.accepted == len(bases) >= 3
    t, want = 0.0, [0.0]
    for k, rec in enumerate(bases[:-1], start=1):
        (sub,) = rec["taken"]
        t += sub
        if k % stride == 0:
            want.append(t)
    assert bases[-1]["taken"] == [t_final - t]
    assert traj.times.tolist() == want + [t_final]


def test_adaptive_max_steps_bounds_steps_and_refused_trials(monkeypatch):
    _krylov_dim_bases(monkeypatch)
    gen, rho0 = _case("common", 1)

    def run(cap):
        monkeypatch.setattr(generator, "MAX_STEPS", cap)
        return evolve(gen, rho0, SEARCH_CASE["t_final"], tol=SEARCH_CASE["tol"])

    traj = run(10_000)
    used = traj.accepted + traj.rejected
    assert run(used).accepted == traj.accepted
    with pytest.raises(IntegrationAbortError, match="max_steps"):
        run(used - 1)


def test_fixed_rejected_counts_every_refused_offset(monkeypatch):
    # rows 4 apart at n = 9 on bases capped at KRYLOV_DIM vectors (a
    # continued basis reaches every row): the first basis reaches no row and
    # takes one sub-step; its search starts below that row, which does not
    # count, and each trial it fails counts once.  The later bases, from states nearer the
    # stationary ones, each give rows up to the first they cannot give,
    # which counts once.  Every basis tests its rows once.  Bases plus refusals
    # fit MAX_STEPS exactly
    _krylov_dim_bases(monkeypatch)
    bases = _recorded_bases(monkeypatch)
    gen, rho0 = _case("common", 1)

    def run(cap):
        monkeypatch.setattr(generator, "MAX_STEPS", cap)
        return evolve(gen, rho0, 20.0, step=4.0)

    traj = run(10_000)
    refused = substeps = 0
    for rec in bases:
        ((asked, given),) = rec["sampled"]
        refused += 0 < given < asked
        refused += sum(not passed for _, passed in rec["trials"])
        # the rows given, or else one sub-step
        assert len(rec["taken"]) == max(given, 1)
        substeps += given == 0
    assert 0 < substeps < len(bases)
    assert refused == traj.rejected
    assert traj.times.tolist() == [4.0 * k for k in range(6)]
    used = len(bases) + traj.rejected
    assert run(used).rejected == traj.rejected
    with pytest.raises(IntegrationAbortError, match="exceeded max_steps"):
        run(used - 1)


def test_one_step_run_takes_one_basis(monkeypatch):
    # step >= t_final at n = 9: the grid is t_final alone, and one basis
    # gives it at its first offset, with no sub-step and no refusal
    bases = _recorded_bases(monkeypatch)
    gen, rho0 = _case("common", 1)
    t_final = 0.5 * rk4_step(gen)
    traj = evolve(gen, rho0, t_final, step=2.0 * t_final)
    assert (traj.accepted, traj.rejected) == (1, 0)
    assert traj.times.tolist() == [0.0, t_final]
    ((rec,),) = [bases]
    assert rec["sampled"] == [(1, 1)]
    assert rec["taken"] == [t_final]


@pytest.mark.parametrize("tol", [None, 1e-10])
def test_evolve_of_zero_is_zero(monkeypatch, tol):
    # exp(tL) 0 = 0: the adaptive path takes t_final in one step on a basis
    # that spans nothing and costs no right-hand side
    calls = _counted_rhs(monkeypatch)
    gen, _ = _case("common", 1)
    zero = np.zeros((gen.dim, gen.dim), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(gen, zero, 1.0, tol=tol)
    assert traj.times[-1] == 1.0
    assert all(not state.any() for state in traj.states)
    if tol is not None:
        assert (traj.accepted, traj.rejected, len(calls)) == (1, 0, 0)


def _tridiagonal(rng, size, norm, top):
    """A random real symmetric tridiagonal T as ``(alpha, sub)``, with a
    positive subdiagonal as a Krylov basis's, mapped affinely so that its
    eigenvalues span [-norm, top] (a single one is ``top``)."""
    alpha, sub = rng.normal(size=size), np.abs(rng.normal(size=size - 1))
    lam = np.linalg.eigvalsh(np.diag(alpha) + np.diag(sub, 1) + np.diag(sub, -1))
    spread = lam[-1] - lam[0]
    scale = (top + norm) / spread if spread else 0.0
    return scale * (alpha - lam[-1]) + top, scale * sub


def _error_reference(small, beta, h, tau):
    """beta h times the larger of |[exp(tau T)]_{m1}| and
    |[int_0^tau exp(s T) ds]_{m1}|, T = ``small``, both by scipy's expm:
    the integral's column int_0^tau exp(s T) e_1 ds is the last column of
    exp(tau [[T, e_1], [0, 0]]) (Van Loan, IEEE Trans. Autom. Control 23
    (1978) 395)."""
    m = len(small)
    augmented = np.zeros((m + 1, m + 1))
    augmented[:m, :m] = small
    augmented[0, m] = 1.0
    point = scipy.linalg.expm(tau * small)[m - 1, 0]
    integral = scipy.linalg.expm(tau * augmented)[m - 1, m]
    return beta * h * max(abs(point), abs(integral))


class TestSmallProblem:
    """``small_problem`` against ``scipy.linalg.expm`` of the same T.

    Random T of every basis length up to KRYLOV_DIM + 1 and of LANCZOS_MAX,
    negative semidefinite as the projection of a self-adjoint dissipator
    is, with ||T||_2 = norm: "stationary" ones have top eigenvalue 0 (the
    trace mode of a stationary state), so exp(tau T) keeps a mode of norm
    1; "decaying" ones have top eigenvalue -norm / 10.  At offsets tau = 1/4
    and 1, so tau ||T||_2 runs from 2.5e-4 to 1e3, every one trusted.
    Bounds fixed before running, as in test_small_problem_matches_expm:
    the coefficients within 1e-13 beta (1 + tau ||T||_2) of
    beta exp(tau T) e_1, and the error within h (1 + tau) times that of
    ``_error_reference``.
    """

    @pytest.mark.parametrize("kind", ["stationary", "decaying"])
    @pytest.mark.parametrize("size", [*range(1, _kernels.KRYLOV_DIM + 2), _kernels.LANCZOS_MAX])
    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_matches_scipy(self, kind, size, norm):
        rng = np.random.default_rng(size * 1000 + int(np.log10(norm)) + 3 + 100 * (kind == "decaying"))
        top = 0.0 if kind == "stationary" else -0.1 * norm
        alpha, sub = _tridiagonal(rng, size, norm, top)
        beta, resid = rng.uniform(0.5, 2.0), norm * rng.uniform(0.5, 1.5)
        errors, trusted, coefficients = _kernels.small_problem(alpha, sub, beta, resid)
        small = np.diag(alpha) + np.diag(sub, 1) + np.diag(sub, -1)
        taus = np.array([0.25, 1.0])
        assert trusted(taus) == len(taus)
        coeffs, ests = coefficients(taus), errors(taus)
        assert coeffs.shape == (len(taus), size)
        for tau, row, est in zip(taus, coeffs, ests):
            exact = scipy.linalg.expm(tau * small)
            bound = 1e-13 * beta * (1.0 + tau * norm)
            assert np.linalg.norm(row - beta * exact[:, 0]) <= bound
            assert abs(est - _error_reference(small, beta, resid, tau)) <= resid * bound * (1.0 + tau)

    @pytest.mark.parametrize("size", [1, 5, _kernels.KRYLOV_DIM + 1])
    def test_zero_matrix_is_identity(self, size):
        # T = 0 of a closed basis (h = 0): every state is exactly beta v_1
        # and every error 0
        zero = np.zeros(size)
        errors, trusted, coefficients = _kernels.small_problem(zero, zero[1:], 1.5, 0.0)
        taus = np.array([0.0, 1.0, 1e300])
        assert trusted(taus) == len(taus)
        assert np.array_equal(coefficients(taus), np.tile(1.5 * np.eye(size)[0], (len(taus), 1)))
        assert not errors(taus).any()


# (bath, j1, j2) at n <= 25: x, y and z couplings with an xz cross term in
# every damping matrix
ORACLE_CASES = [
    ("independent", 0.5, None),
    ("common", 1, 1),
    ("independent", 1, 1.5),
    ("common", 1.5, 1),
    ("common", 2, 2),
]


def _oracle_case(bath, j1, j2, seed=23):
    """A generator from the package, the same model's dense Liouvillian from
    the independent double-sum construction, and a random state."""
    rng = np.random.default_rng(seed)
    axes = ("x", "y", "z")
    if bath == "common":
        model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=axes)
    else:
        model = IndependentBath(gamma1=GAMMA_A, gamma2=None if j2 is None else GAMMA_B, axes=axes)
    gen = build_generator(model, j1, j2)
    lv = dense_liouvillian(coupling_sets(bath, j1, j2, GAMMA_A, GAMMA_B, 1.4))
    return gen, lv, random_density(rng, gen.dim)


def _exact(lv, rho0, t):
    n = rho0.shape[0]
    return (scipy.linalg.expm(t * lv) @ rho0.reshape(n * n)).reshape(n, n)


def _exact_rows(lv, rho0, times):
    """exp(t L) rho0 at the increasing ``times``, by scipy's expm_multiply
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011) 488) from each time
    to the next: matrix-vector products only, about 10x faster than expm
    of the dense Liouvillian at n = 25."""
    n = rho0.shape[0]
    vec, before, out = rho0.reshape(n * n), 0.0, []
    for t in times:
        vec = scipy.sparse.linalg.expm_multiply((t - before) * lv, vec)
        out.append(vec.reshape(n, n))
        before = t
    return out


def _grid_bound(tol, t, rho0):
    return tol * t * max(1.0, np.linalg.norm(rho0)) + 1e-13


@pytest.mark.parametrize("bath,j1,j2", ORACLE_CASES)
class TestDenseLiouvillianOracle:
    """Every propagator against scipy's expm (or expm_multiply) of the dense Liouvillian.

    Bounds fixed before running.  RK4: one step of a linear equation is
    P(hL) rho with P the degree-4 Taylor polynomial, so one step from rho
    differs from exp(hL) rho by at most (h||L||_2)^5 / 120 e^(h||L||_2)
    ||rho||_F (the Taylor remainder), plus 1e-13 for rounding.  Krylov: ``evolve`` commits an estimated error of at most
    tol per unit time, so every adaptive sample is within tol * t_final
    (Frobenius), and every fixed-grid sample at time t within
    GRID_TOL * t * max(1, ||rho0||_F) + 1e-13 (``_grid_bound``).
    """

    @pytest.mark.parametrize("kind", ["stage"])
    def test_rk4_step(self, bath, j1, j2, kind):
        gen, lv, rho = _oracle_case(bath, j1, j2)
        n = gen.dim
        h = rk4_step(gen)
        exact_step = scipy.linalg.expm(h * lv)
        x = h * np.linalg.norm(lv, 2)
        remainder = x**5 / 120.0 * np.exp(x)
        for _ in range(20):
            got = _kernels.rk4_chunk(rho, *_args(gen), h, 1)
            want = (exact_step @ rho.reshape(n * n)).reshape(n, n)
            assert np.linalg.norm(got - want) <= remainder * np.linalg.norm(rho) + 1e-13
            rho = got

    def test_dense_liouvillian_is_self_adjoint_and_dissipative(self, bath, j1, j2):
        # what the Lanczos continuation of every adaptive basis relies on,
        # checked over the whole spectrum of the independent double-sum
        # construction: with a real symmetric PSD gamma and Hermitian C_a,
        # L is Hermitian as an n^2 x n^2 matrix (self-adjoint in the
        # Hilbert-Schmidt inner product), its eigenvalues are <= 0, and
        # L(I) = 0 makes the largest exactly 0.  Bounds: entries agree to
        # 1e-13 of the largest, as in test_rhs_matches_dense_liouvillian,
        # and eigvalsh is backward stable, within 1e-12 ||L||_2
        _, lv, _ = _oracle_case(bath, j1, j2)
        assert np.abs(lv - lv.conj().T).max() <= 1e-13 * max(1.0, np.abs(lv).max())
        top = np.linalg.eigvalsh((lv + lv.conj().T) / 2).max()
        assert abs(top) <= 1e-12 * max(1.0, np.linalg.norm(lv, 2))

    def test_rhs_matches_dense_liouvillian(self, bath, j1, j2):
        gen, lv, rho = _oracle_case(bath, j1, j2)
        n = gen.dim
        got = _kernels.lindblad_rhs(rho, *_args(gen))
        want = (lv @ rho.reshape(n * n)).reshape(n, n)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_samples_stop_at_first_failing_time(self, bath, j1, j2):
        # one basis at rho0, started at t0 = 0.03 and sampled at 0.05, 0.10,
        # ..., 1.50 and 1.52, as ``evolve`` samples a grid.  The rows given
        # are the times before the first that fails the acceptance test
        # (error above GRID_TOL tau max(1, ||rho0||_F)); ``passing`` of the
        # grid and of one offset apply the one test, so the threshold is
        # exact.  Each row is the state at its offset alone up to rounding
        # (1e-12 ||rho0||_F) and within _grid_bound of exp(tau L) rho0
        gen, lv, rho0 = _oracle_case(bath, j1, j2)
        t0, times = 0.03, np.append(np.arange(1, 31) * 0.05, 1.52)
        taus = times - t0
        passing, states = _kernels.krylov_propagator(rho0, *_args(gen), taus=taus, tol=GRID_TOL)
        rows = states(taus[: passing(taus)])
        given = len(rows)
        assert given >= 1
        if gen.dim**2 <= _kernels.KRYLOV_DIM:
            assert given == len(times)
        assert all(_passes(passing, tau) for tau in taus[:given])
        if given < len(times):
            assert not _passes(passing, taus[given])
        for tau, row, want in zip(taus, rows, _exact_rows(lv, rho0, taus[:given])):
            assert np.linalg.norm(row - _state(states, tau)) <= 1e-12 * max(1.0, np.linalg.norm(rho0))
            assert np.linalg.norm(row - want) <= _grid_bound(GRID_TOL, tau, rho0)

    def test_krylov_evolve(self, bath, j1, j2):
        gen, lv, rho0 = _oracle_case(bath, j1, j2)
        tol, t_final = 1e-10, 2.0
        traj = evolve(gen, rho0, t_final, tol=tol, stride=4)
        assert traj.times[-1] == t_final
        for t, state in zip(traj.times, traj.states):
            assert np.linalg.norm(state - _exact(lv, rho0, t)) <= tol * t_final

    def test_fixed_grid_evolve(self, bath, j1, j2):
        # 29 steps of 0.07 to t = 2 (the last one 0.04), a row every third
        gen, lv, rho0 = _oracle_case(bath, j1, j2)
        traj = evolve(gen, rho0, 2.0, step=0.07, stride=3)
        assert traj.accepted == 29
        assert traj.times.tolist() == [0.0] + [k * 0.07 for k in range(3, 29, 3)] + [2.0]
        for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
            assert np.linalg.norm(state - want) <= _grid_bound(GRID_TOL, t, rho0)

    def test_evolve_partial_last_step(self, bath, j1, j2):
        # 37 steps of the RK4 scale in rows of stride 5, then h_last = 0.4 h
        gen, lv, rho0 = _oracle_case(bath, j1, j2)
        h = rk4_step(gen)
        traj = evolve(gen, rho0, 37.4 * h, step=h, stride=5)
        assert traj.accepted == 38
        assert traj.times.tolist() == [k * h for k in range(0, 37, 5)] + [37.4 * h]
        (want,) = _exact_rows(lv, rho0, [37.4 * h])
        assert np.linalg.norm(traj.states[-1] - want) <= _grid_bound(GRID_TOL, 37.4 * h, rho0)

    def test_fixed_grid_sub_steps(self, monkeypatch, bath, j1, j2):
        # a tighter GRID_TOL and a first row at 3: past the 0.48-2.3 a
        # basis of these cases reaches at 1e-13 with KRYLOV_DIM vectors
        # unless it closes (n^2 <= KRYLOV_DIM), so on bases capped there
        # rows follow sub-steps from _largest_step, whose refused trials
        # count as rejected
        _krylov_dim_bases(monkeypatch)
        searches = []
        search = generator._largest_step

        def counted(*a):
            searches.append(1)
            return search(*a)

        monkeypatch.setattr(generator, "GRID_TOL", 1e-13)
        monkeypatch.setattr(generator, "_largest_step", counted)
        gen, lv, rho0 = _oracle_case(bath, j1, j2)
        traj = evolve(gen, rho0, 4.0, step=1.0, stride=3)
        closes = gen.dim**2 <= _kernels.KRYLOV_DIM
        assert (len(searches) > 0, traj.rejected > 0) == (not closes, not closes)
        assert traj.accepted == 4
        assert traj.times.tolist() == [0.0, 3.0, 4.0]
        for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
            assert np.linalg.norm(state - want) <= _grid_bound(1e-13, t, rho0)


# 1,451 steps of the RK4 scale (``rk4_step``) and a partial one of 0.4 h at
# n = 9 (1,452 steps, rows at k stride h for k stride <= 1,451, then
# t_final): stride 1 records every step, 3 and 8 leave a short last row
# gap, 200 puts the rows past the reach of KRYLOV_DIM vectors (one
# continued basis gives them all), and 2,000 records t_final alone
POWER_STEPS = 1451


@pytest.mark.parametrize("stride", [1, 3, 8, 200, 2000])
def test_strided_evolve_agrees_with_exact_rows(stride):
    # bound fixed before running, as in test_fixed_grid_evolve: every row
    # within _grid_bound of exp(t L) rho0 at its grid time k stride h
    gen, lv, rho0 = _oracle_case("common", 1, 1)
    h = rk4_step(gen)
    t_final = (POWER_STEPS + 0.4) * h
    traj = evolve(gen, rho0, t_final, step=h, stride=stride)
    assert traj.accepted == POWER_STEPS + 1
    assert traj.times.tolist() == [k * h for k in range(0, POWER_STEPS + 1, stride)] + [t_final]
    for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
        assert np.linalg.norm(state - want) <= _grid_bound(GRID_TOL, t, rho0)


# generators at n = 12 to 25, whose bases do not close within KRYLOV_DIM
# vectors: x, y and z couplings with an xz cross term in every damping
# matrix
LANCZOS_CASES = [
    ("independent", 1, 1.5),
    ("common", 1.5, 1),
    ("common", 2, 2),
    ("independent", 2, 2),
]


@pytest.mark.parametrize("t_final", [3.0, 30.0, 83.0])
@pytest.mark.parametrize("bath,j1,j2", LANCZOS_CASES)
def test_lanczos_evolve_matches_dense_expm(monkeypatch, bath, j1, j2, t_final):
    # horizons the first KRYLOV_DIM vectors do not reach at tol 1e-10, so
    # some basis grows past them.  Its build takes one right-hand side per
    # vector and its state one per vector past the stored ones, which is every
    # right-hand side of the run.  At t = 83 one basis takes the whole
    # horizon, tau ||T||_2 of order 100, long after e_m^T exp(s T) e_1 has
    # peaked: accepted on Saad's point estimate alone, the common-bath
    # steps there ended 1.3-1.5 times past the bound below.  Bound fixed
    # before running: every row within tol t max(1, ||rho0||_F) + 1e-13 of
    # exp(t L) rho0 (Frobenius), as each step commits an estimated error of
    # at most tol per unit time
    calls = _counted_rhs(monkeypatch)
    bases = _recorded_bases(monkeypatch, calls)
    gen, lv, rho0 = _oracle_case(bath, j1, j2)
    tol = 1e-10
    traj = evolve(gen, rho0, t_final, tol=tol)
    vectors = [rec["vectors"] for rec in bases]
    assert all(len(rec["taus"]) == 1 for rec in bases)
    assert _kernels.KRYLOV_DIM < max(vectors) <= _kernels.LANCZOS_MAX
    assert len(calls) == sum(v + max(0, v - _stored(gen.dim)) for v in vectors)
    assert traj.times[-1] == t_final
    for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
        assert np.linalg.norm(state - want) <= _grid_bound(tol, t, rho0)


def test_lanczos_basis_stops_at_its_cap_and_restarts(monkeypatch):
    # n = 25 to t = 30 at tol 1e-12 needs 68 vectors, so with the cap at
    # 64 the first basis stops there, takes the largest step it supports,
    # and the next basis starts over from KRYLOV_DIM stored vectors.  Bound
    # as in test_lanczos_evolve_matches_dense_expm
    monkeypatch.setattr(_kernels, "LANCZOS_MAX", 64)
    calls = _counted_rhs(monkeypatch)
    bases = _recorded_bases(monkeypatch, calls)
    gen, lv, rho0 = _oracle_case("common", 2, 2)
    tol, t_final = 1e-12, 30.0
    traj = evolve(gen, rho0, t_final, tol=tol)
    assert bases[0]["vectors"] == _kernels.LANCZOS_MAX
    ((tau,),) = [bases[0]["taken"]]
    assert tau < t_final
    assert traj.accepted == len(bases) >= 2
    assert traj.times[-1] == t_final
    for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
        assert np.linalg.norm(state - want) <= _grid_bound(tol, t, rho0)


@pytest.mark.parametrize("bath,j1,j2", LANCZOS_CASES)
def test_basis_accepted_at_krylov_dim_is_the_arnoldi_basis(monkeypatch, bath, j1, j2):
    # a basis whose first KRYLOV_DIM vectors pass the offsets it is given
    # (every trusted offset passes an infinite tol) stops there, at
    # KRYLOV_DIM right-hand sides, and is the basis given no offset: its
    # small problem's inputs (alpha, sub, beta, resid) and its states bit
    # for bit
    calls = _counted_rhs(monkeypatch)
    problems = _recorded_small_problems(monkeypatch)
    gen, _, rho0 = _oracle_case(bath, j1, j2)
    plain = _kernels.krylov_propagator(rho0, *_args(gen), taus=[], tol=0.0)
    assert len(calls) == _kernels.KRYLOV_DIM
    kept = _kernels.krylov_propagator(rho0, *_args(gen), taus=[0.3, 3.0], tol=math.inf)
    assert len(calls) == 2 * _kernels.KRYLOV_DIM
    assert len(problems) == 2
    for a, b in zip(*problems):
        assert np.array_equal(a, b)
    for tau in (0.01, 0.3, 3.0):
        assert np.array_equal(_state(kept[1], tau), _state(plain[1], tau))


@pytest.mark.parametrize("stored", [16, 1])
def test_continued_basis_regenerates_its_vectors(monkeypatch, stored):
    # a basis whose first KRYLOV_DIM rows, one every 4 to t = 64, do not
    # all pass grows to LANCZOS_MAX, here 64, so that the rows outrun it
    # (this n = 25 basis does not close first), with one small problem a
    # length from KRYLOV_DIM on, however many vectors are stored.
    # ``states`` rebuilds the vectors past the ``stored`` ones from the
    # last of them: every row whose estimate passes tol 1e-10 within
    # _grid_bound of exp(tau L) rho0, and the first, middle and last rows
    # within 1e-12 ||rho0||_F of the state at tau alone (bounds fixed
    # before running, as in TestDenseLiouvillianOracle).  The vectors regenerated at the full
    # cap are checked by test_small_problem_matches_expm[adaptive-continued]
    monkeypatch.setattr(_kernels, "LANCZOS_MAX", 64)
    calls = _counted_rhs(monkeypatch)
    problems = _recorded_small_problems(monkeypatch)
    gen, lv, rho0 = _oracle_case("common", 2, 2)
    _store(monkeypatch, gen.dim, stored)
    times = np.arange(1, 31) * 4.0
    passing, states = _kernels.krylov_propagator(rho0, *_args(gen), taus=times, tol=1e-10)
    assert len(calls) == _kernels.LANCZOS_MAX
    assert len(problems) == _kernels.LANCZOS_MAX - _kernels.KRYLOV_DIM + 1
    rows = states(times[: passing(times)])
    assert len(calls) == 2 * _kernels.LANCZOS_MAX - stored
    assert 2 <= len(rows) < len(times)
    for tau, row, want in zip(times, rows, _exact_rows(lv, rho0, times[: len(rows)])):
        assert _passes(passing, tau)
        assert np.linalg.norm(row - want) <= _grid_bound(1e-10, tau, rho0)
    for i in (0, len(rows) // 2, len(rows) - 1):
        assert np.linalg.norm(rows[i] - _state(states, times[i])) <= 1e-12 * max(1.0, np.linalg.norm(rho0))


@pytest.mark.parametrize("stored", [16, 4, 2, 1])
def test_replay_is_the_build(monkeypatch, stored):
    # n = 25 at one offset of 3 and tol 1e-10, which KRYLOV_DIM vectors do
    # not reach, so the basis continues past its ``stored`` vectors.
    # ``states`` replays the later ones by the build's own step from the
    # last stored one: L is applied again to v_(stored-1), ..., v_(m-2),
    # each bit for bit the vector the build applied it to, at m - stored
    # right-hand sides for two rows as for one
    vectors = []
    rhs = _kernels.lindblad_rhs

    def recorded(x, *a, **k):
        vectors.append(x.tobytes())
        return rhs(x, *a, **k)

    monkeypatch.setattr(_kernels, "lindblad_rhs", recorded)
    gen, _, rho0 = _oracle_case("common", 2, 2)
    _store(monkeypatch, gen.dim, stored)
    _, states = _kernels.krylov_propagator(rho0, *_args(gen), taus=[3.0], tol=1e-10)
    built = vectors[:]
    m = len(built)
    assert m > _kernels.KRYLOV_DIM
    for offsets in ([3.0], [1.5, 3.0]):
        del vectors[:]
        assert len(states(np.array(offsets))) == len(offsets)
        assert len(vectors) == m - stored
        assert vectors == built[stored - 1 : m - 1]


def test_factor_hermitian_to_roundoff_takes_the_lanczos_path(monkeypatch):
    # a jump factor with a relative asymmetry of 1e-14 is Hermitian to
    # HERMITIAN_TOL, so the generator is taken as self-adjoint: n = 25 to
    # t = 3 at tol 1e-10, where the first KRYLOV_DIM
    # vectors do not reach t_final, continues its basis by Lanczos.  The
    # asymmetry moves L by about 1e-13, so the unperturbed model's dense
    # Liouvillian is the oracle, with the bound of
    # test_lanczos_evolve_matches_dense_expm
    bases = _recorded_bases(monkeypatch, _counted_rhs(monkeypatch))
    gen, lv, rho0 = _oracle_case("common", 2, 2)
    first = gen.jump_ops[0]
    x = first.x.copy()
    x[0, 1] += 1e-14 * np.abs(x).max()
    assert not np.array_equal(x, x.conj().T)
    skewed = Generator([FactoredOperator(x, first.y, first.dims)] + gen.jump_ops[1:], gen.dims)
    tol, t_final = 1e-10, 3.0
    traj = evolve(skewed, rho0, t_final, tol=tol)
    assert all(len(rec["taus"]) == 1 for rec in bases)
    assert max(rec["vectors"] for rec in bases) > _kernels.KRYLOV_DIM
    assert traj.times[-1] == t_final
    for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
        assert np.linalg.norm(state - want) <= _grid_bound(tol, t, rho0)


@pytest.mark.parametrize("stored", [16, 1])
def test_fixed_basis_continues_until_it_gives_krylov_dim_rows(monkeypatch, stored):
    # n = 25, a row every 0.2 to t = 8: KRYLOV_DIM vectors give fewer than
    # KRYLOV_DIM of the 40 rows, so the first basis continues by Lanczos and
    # stops at the first length that gives KRYLOV_DIM rows, as one vector
    # fewer shows; the last basis needs only the rows left.  No basis gives
    # fewer rows than it needs, and each costs one right-hand side a vector
    # and, for its rows, one more a vector past the ``stored`` ones.  Bound
    # fixed before running: every row within _grid_bound(GRID_TOL) of
    # exp(t L) rho0
    build = _kernels.krylov_propagator
    calls = _counted_rhs(monkeypatch)
    bases = _recorded_bases(monkeypatch, calls)
    gen, lv, rho0 = _oracle_case("common", 2, 2)
    _store(monkeypatch, gen.dim, stored)
    traj = evolve(gen, rho0, 8.0, step=0.2)
    dim = _kernels.KRYLOV_DIM
    assert len(traj.times) == 41
    left = 40
    for rec in bases:
        ((offsets, given),) = rec["sampled"]
        assert offsets == left
        assert min(left, dim) <= given
        left -= given
    assert left == 0
    assert len(calls) == sum(rec["vectors"] + max(0, rec["vectors"] - stored) for rec in bases)
    first = bases[0]
    assert first["vectors"] > dim
    monkeypatch.setattr(_kernels, "LANCZOS_MAX", first["vectors"] - 1)
    passing, _ = build(rho0, *_args(gen), taus=first["taus"], tol=GRID_TOL)
    assert passing(first["taus"]) < dim
    for t, state, want in zip(traj.times, traj.states, _exact_rows(lv, rho0, traj.times)):
        assert np.linalg.norm(state - want) <= _grid_bound(GRID_TOL, t, rho0)


@pytest.mark.parametrize("stored", [4, 1])
@pytest.mark.parametrize("mode", ["adaptive", "restarted", "fixed"])
@pytest.mark.parametrize("j", [1, 2], ids=["n9", "n25"])
def test_fewer_stored_vectors_keep_every_step(monkeypatch, j, mode, stored):
    # a basis that stores ``stored`` vectors and regenerates the rest by
    # the Lanczos step against one that stores all KRYLOV_DIM: adaptive to
    # t = 30 at tol 1e-10 (one continued basis), the same on bases capped
    # at KRYLOV_DIM to t = 16 (sub-step searches and refused trials), and
    # fixed steps of 0.2 to t = 8 (continued bases that give rows).  The
    # acceptance decisions are taken at KRYLOV_DIM vectors and more, so the
    # two runs have the same row times, steps and refused trials.  Bound
    # fixed before running: every row within tol t max(1, ||rho0||_F) +
    # 1e-13 of the all-stored one, tol = GRID_TOL in fixed mode
    gen, _, rho0 = _oracle_case("common", j, j)
    if mode == "restarted":
        _krylov_dim_bases(monkeypatch)
    t_final, kw = {"adaptive": (30.0, {"tol": 1e-10}), "restarted": (16.0, {"tol": 1e-10}),
                   "fixed": (8.0, {"step": 0.2})}[mode]
    tol = kw.get("tol", GRID_TOL)
    runs = []
    for count in (_kernels.KRYLOV_DIM, stored):
        _store(monkeypatch, gen.dim, count)
        runs.append(evolve(gen, rho0, t_final, **kw))
    full, fewer = runs
    assert np.array_equal(fewer.times, full.times)
    assert (fewer.accepted, fewer.rejected) == (full.accepted, full.rejected)
    for t, a, b in zip(full.times, full.states, fewer.states):
        assert np.linalg.norm(b - a) <= _grid_bound(tol, t, rho0)


@pytest.mark.parametrize("mode", ["adaptive", "restarted", "fixed"])
@pytest.mark.parametrize("j", [1, 2], ids=["n9", "n25"])
def test_consumer_gets_every_row_once_with_no_basis_alive(monkeypatch, j, mode):
    # the runs of test_fewer_stored_vectors_keep_every_step, once collected
    # and once handed to a row consumer.  The consumer is called once a
    # row, in time order, with the collected run's time, state and s_lin
    # bit for bit, and never while a Krylov basis is alive (the closures of
    # every basis built so far are gone).  The streamed Trajectory keeps no
    # state, and its times, s_lin and step counts are the collected ones
    gen, _, rho0 = _oracle_case("common", j, j)
    if mode == "restarted":
        _krylov_dim_bases(monkeypatch)
    t_final, kw = {"adaptive": (30.0, {"tol": 1e-10}), "restarted": (16.0, {"tol": 1e-10}),
                   "fixed": (8.0, {"step": 0.2})}[mode]
    collected = evolve(gen, rho0, t_final, **kw)
    bases = []
    build = _kernels.krylov_propagator

    def tracked(*args, **kwargs):
        closures = build(*args, **kwargs)
        bases.append([weakref.ref(f) for f in closures])
        return closures

    monkeypatch.setattr(_kernels, "krylov_propagator", tracked)
    rows = []

    def consumer(t, state, s_lin):
        assert bases and all(ref() is None for refs in bases for ref in refs)
        rows.append((t, state, s_lin))

    streamed = evolve(gen, rho0, t_final, consumer=consumer, **kw)
    assert streamed.states == []
    assert [t for t, _, _ in rows] == collected.times.tolist()
    assert np.array_equal(streamed.times, collected.times)
    assert np.array_equal(streamed.s_lin, collected.s_lin)
    assert (streamed.accepted, streamed.rejected) == (collected.accepted, collected.rejected)
    for (_, state, s_lin), want, s_want in zip(rows, collected.states, collected.s_lin):
        assert np.array_equal(state, want) and s_lin == s_want
    assert not np.shares_memory(rows[0][1], rho0)


def test_consumer_gets_the_one_row_of_a_zero_horizon():
    gen, _, rho0 = _oracle_case("common", 1, 1)
    rows = []
    traj = evolve(gen, rho0, 0.0, consumer=lambda *row: rows.append(row))
    assert traj.states == [] and traj.times.tolist() == [0.0]
    [(t, state, s_lin)] = rows
    assert t == 0.0 and np.array_equal(state, rho0) and s_lin == traj.s_lin[0]


def test_fixed_benchmark_basis_replays_only_what_it_does_not_keep(monkeypatch):
    # the seed-0 fixed benchmark run (n = 9, steps of 1e-3 to t = 20, a row
    # every 200) takes one basis of KRYLOV_DIM vectors.  Its Krylov space is
    # invariant at 11 vectors, but the Lanczos vectors lose orthogonality
    # before the residual falls to BREAKDOWN_TOL, so the basis grows on: a
    # lost closure costs right-hand sides, not accuracy.  With every vector
    # kept it takes 16 right-hand sides and replays none; with 4 kept it
    # replays the other 12 for its rows, 16 + 12.  Bounds fixed before
    # running: every row within _grid_bound(GRID_TOL) of the other run's
    # and of the exact state (``oracles.independent_exact``)
    gen, rho0 = _benchmark_case("fixed")
    cfg = parse_config(_workloads().fixed_scenario(0))
    exact = independent_exact(cfg.j1, cfg.j2, cfg.model.gamma1, cfg.model.gamma2)
    calls = _counted_rhs(monkeypatch)
    bases = _recorded_bases(monkeypatch, calls)
    dim = _kernels.KRYLOV_DIM
    runs = []
    for count, cost in ((dim, dim), (4, dim + dim - 4)):
        _store(monkeypatch, gen.dim, count)
        del calls[:], bases[:]
        runs.append(evolve(gen, rho0, 20.0, step=1e-3, stride=200))
        assert [rec["vectors"] for rec in bases] == [dim]
        assert len(calls) == cost
    full, fewer = runs
    assert len(full.times) == 101
    assert np.array_equal(fewer.times, full.times)
    assert (fewer.accepted, fewer.rejected) == (full.accepted, full.rejected)
    for t, a, b in zip(full.times, full.states, fewer.states):
        assert np.linalg.norm(b - a) <= _grid_bound(GRID_TOL, t, rho0)
        assert np.linalg.norm(a - exact(rho0, t)) <= _grid_bound(GRID_TOL, t, rho0)
        assert np.linalg.norm(b - exact(rho0, t)) <= _grid_bound(GRID_TOL, t, rho0)


# exact oracle for independent baths (``oracles.independent_exact``) at n
# up to 169, j1 != j2, one ensemble and an undamped second one.  The first
# bath takes GAMMA_A, the seed-0 fixed benchmark's gamma1; the second takes
# GAMMA_B, that scenario's gamma2 diag(0.5, 0.75, 0.5) with an xz entry of
# -0.15, so that correlated damping is covered in the second bath too
INDEPENDENT_CASES = [
    (6, 6, GAMMA_B),
    (2, 3, GAMMA_B),
    (6, None, None),
    (3, 2, None),
]


def _independent_case(j1, j2, gamma2, seed=7):
    model = IndependentBath(gamma1=GAMMA_A, gamma2=gamma2, axes=("x", "y", "z"))
    gen = build_generator(model, j1, j2)
    rho0 = random_density(np.random.default_rng(seed), gen.dim)
    return gen, independent_exact(j1, j2, GAMMA_A, gamma2), rho0


@pytest.mark.parametrize("j1,j2,gamma2", [(1, 1.5, GAMMA_B), (1.5, 1, None), (2, None, None)])
def test_independent_oracle_matches_dense_liouvillian(j1, j2, gamma2):
    # the oracle's E1 R E2^T against expm of the full n^2 x n^2 double-sum
    # Liouvillian at n <= 12: one exponential each, so both round to about
    # 1e-15; bound fixed before running
    _, exact, rho0 = _independent_case(j1, j2, gamma2)
    sets = coupling_sets("independent", j1, j2, GAMMA_A, np.zeros((3, 3)) if gamma2 is None else gamma2, 0.0)
    lv = dense_liouvillian(sets)
    for t in (0.3, 2.0):
        assert np.abs(exact(rho0, t) - _exact(lv, rho0, t)).max() <= 1e-13


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
@pytest.mark.parametrize("j1,j2,gamma2", INDEPENDENT_CASES)
def test_evolve_matches_independent_oracle(monkeypatch, mode, j1, j2, gamma2):
    # adaptive: tol 1e-10 to t = 2, every accepted step a row; fixed: step
    # 0.05 to t = 0.5, a row every step.  Bounds fixed before running: every
    # row within tol t max(1, ||rho0||_F) + 1e-13 (Frobenius), tol =
    # GRID_TOL in fixed mode.  At n = 169 an adaptive basis continues past
    # KRYLOV_DIM vectors, and in fixed mode every case's one basis does, to
    # give all 10 rows.  The exact purity never grows (<X, L X> <= 0), and
    # a row within g of the exact state, of norm at most ||rho0||_F, has its
    # S_lin within g (2 ||rho0||_F + g) of the exact one, so S_lin falls
    # from row to row by no more than the two rows' sum of that
    bases = _recorded_bases(monkeypatch, _counted_rhs(monkeypatch))
    gen, exact, rho0 = _independent_case(j1, j2, gamma2)
    if mode == "adaptive":
        tol, t_final = 1e-10, 2.0
        traj = evolve(gen, rho0, t_final, tol=tol)
        assert all(len(rec["taus"]) == 1 for rec in bases)
        if gen.dim == 169:
            assert max(rec["vectors"] for rec in bases) > _kernels.KRYLOV_DIM
    else:
        tol, t_final = GRID_TOL, 0.5
        traj = evolve(gen, rho0, t_final, step=0.05)
        assert traj.times.tolist() == [k * 0.05 for k in range(10)] + [t_final]
        assert [rec["sampled"] for rec in bases] == [[(10, 10)]]
        assert bases[0]["vectors"] > _kernels.KRYLOV_DIM
    assert traj.times[-1] == t_final
    bound = _grid_bound(tol, traj.times, rho0)
    slack = bound * (2.0 * np.linalg.norm(rho0) + bound)
    assert np.all(np.diff(traj.s_lin) >= -(slack[:-1] + slack[1:]))
    for t, state in zip(traj.times, traj.states):
        assert np.linalg.norm(state - exact(rho0, t)) <= _grid_bound(tol, t, rho0)


def test_many_rows_match_independent_oracle():
    # 500 fixed-mode rows at n = 12 (j1 = 1, j2 = 3/2), a row every step of
    # 0.002 to t = 1, each within _grid_bound(GRID_TOL) of the oracle
    gen, exact, rho0 = _independent_case(1, 1.5, GAMMA_B)
    traj = evolve(gen, rho0, 1.0, step=0.002)
    assert len(traj.states) == 501
    for t, state in zip(traj.times, traj.states):
        assert np.linalg.norm(state - exact(rho0, t)) <= _grid_bound(GRID_TOL, t, rho0)


# a full x, y, z damping matrix with every off-diagonal entry, for the
# common-bath oracle at lam = 1 (``oracles.common_exact``)
GAMMA_FULL = np.array([[1.0, 0.2, 0.3], [0.2, 0.5, 0.1], [0.3, 0.1, 0.25]])


def _common_case(j1, j2, seed=5):
    # lam = 1 from a random pure state
    gen = build_generator(CommonBath(gamma=GAMMA_FULL, lam=1.0, axes=("x", "y", "z")), j1, j2)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
    psi /= np.linalg.norm(psi)
    return gen, common_exact(j1, j2, GAMMA_FULL), np.outer(psi, psi.conj())


@pytest.mark.parametrize("j1,j2", [(1, 2), (1.5, 1)])
def test_common_oracle_matches_dense_liouvillian(j1, j2):
    # the oracle's total-spin blocks against expm of the full n^2 x n^2
    # double-sum Liouvillian at n <= 15, j1 != j2 in both orders: one
    # exponential each, so both round to about 1e-15; bound fixed before
    # running
    _, exact, rho0 = _common_case(j1, j2)
    lv = dense_liouvillian(coupling_sets("common", j1, j2, GAMMA_FULL, None, 1.0))
    for t in (0.3, 2.0):
        assert np.abs(exact(rho0, t) - _exact(lv, rho0, t)).max() <= 1e-13


@pytest.mark.parametrize("j1,j2,mode", [(1, 2, "adaptive"), (1, 2, "fixed"), (4, 4, "adaptive")])
def test_evolve_matches_common_oracle(monkeypatch, j1, j2, mode):
    # the common bath at lam = 1 against its exact total-spin oracle:
    # adaptive tol 1e-10 to t = 2, fixed step 0.05 to t = 0.5 (a row every
    # step).  j1 != j2 catches a level-ordering error; at n = 81 the one
    # adaptive basis continues past KRYLOV_DIM vectors.  Bounds fixed before
    # running: every row within tol t max(1, ||rho0||_F) + 1e-13
    # (Frobenius), tol = GRID_TOL in fixed mode.  The n = 81 case takes
    # about 0.4 s, most of it the oracle's 81 block diagonalizations
    bases = _recorded_bases(monkeypatch, _counted_rhs(monkeypatch))
    gen, exact, rho0 = _common_case(j1, j2)
    if mode == "adaptive":
        tol, t_final = 1e-10, 2.0
        traj = evolve(gen, rho0, t_final, tol=tol)
        if gen.dim == 81:
            assert max(rec["vectors"] for rec in bases) > _kernels.KRYLOV_DIM
    else:
        tol, t_final = GRID_TOL, 0.5
        traj = evolve(gen, rho0, t_final, step=0.05)
        assert traj.times.tolist() == [k * 0.05 for k in range(10)] + [t_final]
    assert traj.times[-1] == t_final
    for t, state in zip(traj.times, traj.states):
        assert np.linalg.norm(state - exact(rho0, t)) <= _grid_bound(tol, t, rho0)


def test_common_singlet_is_stationary_against_the_oracle():
    # the paper's stable-entanglement case: the j1 = j2 = 4 singlet
    # (n = 81) at lam = 1 under GAMMA_FULL, adaptive (tol 1e-10 to t = 2)
    # and fixed (step 1 to t = 2).  Bounds fixed before running: every row
    # within tol t max(1, ||rho0||_F) + 1e-13 (Frobenius) of the exact
    # oracle and of rho0 itself, tol = GRID_TOL in fixed mode.  The oracle's
    # 81 block diagonalizations take most of the test's 0.3 s
    j = 4
    gen = build_generator(CommonBath(gamma=GAMMA_FULL, lam=1.0, axes=("x", "y", "z")), j, j)
    rho0 = density_from_pure(entangled_state(EntangledStateSpec(j, j, coefficient_profile("singlet", j))))
    exact, rows = common_exact(j, j, GAMMA_FULL), {}
    for tol, kw in ((1e-10, {"tol": 1e-10}), (GRID_TOL, {"step": 1.0})):
        traj = evolve(gen, rho0, 2.0, **kw)
        assert traj.times[-1] == 2.0
        for t, state in zip(traj.times, traj.states):
            if t not in rows:
                rows[t] = exact(rho0, t)
            assert np.linalg.norm(state - rows[t]) <= _grid_bound(tol, t, rho0)
            assert np.linalg.norm(state - rho0) <= _grid_bound(tol, t, rho0)


def test_fixed_rows_are_not_copied():
    # n = 49 (j1 = j2 = 3) to t = 0.2 in steps of 5e-4: 401 rows, most
    # from one basis.  Each row is kept as the basis's ``states`` made it, so
    # the allocations peak below the rows plus KRYLOV_DIM + 10 states (the
    # stored basis and a right-hand side's three n x n arrays fit); a copy of
    # every row would take about twice the rows.  rho0 itself is copied
    # once, so no state aliases it
    gen, _, rho0 = _independent_case(3, 3, GAMMA_B, seed=5)
    state = gen.dim**2 * 16
    tracemalloc.start()
    try:
        traj = evolve(gen, rho0, 0.2, step=5e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 401
    assert peak <= (len(traj.states) + _kernels.KRYLOV_DIM + 10) * state
    assert not np.shares_memory(traj.states[0], rho0)
    assert np.array_equal(traj.states[0], rho0)


def test_continued_basis_memory_is_the_stored_prefix():
    # n = 121, grown to LANCZOS_MAX vectors and combined into one state:
    # the allocations peak below KRYLOV_DIM + 10 vectors of n^2 (the stored
    # basis, two Lanczos buffers, the state and a right-hand side's three
    # n x n arrays fit), where keeping every vector would take LANCZOS_MAX
    model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=("x", "y", "z"))
    gen = build_generator(model, 5, 5)
    rho0 = random_density(np.random.default_rng(5), gen.dim)
    vector = gen.dim**2 * 16
    tracemalloc.start()
    try:
        _, states = _kernels.krylov_propagator(rho0, *_args(gen), taus=[0.1], tol=0.0)
        _state(states, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (_kernels.KRYLOV_DIM + 10) * vector


@pytest.mark.parametrize("bath", ["common", "independent"])
def test_rhs_allocates_three_buffers(bath):
    # one right-hand side at n = 289 (j1 = j2 = 8) allocates three n x n
    # buffers and returns one of them; the bound, 3 n^2 complex numbers
    # plus 256 KiB for the small arrays, was fixed before the first run
    if bath == "common":
        model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=("x", "y", "z"))
    else:
        model = IndependentBath(gamma1=GAMMA_A, gamma2=GAMMA_B, axes=("x", "y", "z"))
    gen = build_generator(model, 8, 8)
    rho = random_density(np.random.default_rng(3), gen.dim)
    tracemalloc.start()
    try:
        out = _kernels.lindblad_rhs(rho, *_args(gen))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (gen.dim, gen.dim)
    assert peak <= 3 * gen.dim**2 * 16 + 256 * 1024


@pytest.mark.parametrize("bath", ["common", "independent"])
@pytest.mark.parametrize("j", [1, 5, 8], ids=["n9", "n121", "n289"])
def test_rhs_into_workspace_equals_allocating_call(bath, j):
    # the same arithmetic into a caller's (3, n, n) workspace, filled with
    # NaN first so that every buffer must be written before it is read; the
    # result is work[0].  Without a workspace the result is a fresh array.
    # Random non-Hermitian input, as Krylov vectors are Hermitian only to
    # roundoff
    if bath == "common":
        model = CommonBath(gamma=GAMMA_A, lam=1.4, axes=("x", "y", "z"))
    else:
        model = IndependentBath(gamma1=GAMMA_A, gamma2=GAMMA_B, axes=("x", "y", "z"))
    gen = build_generator(model, j, j)
    rng = np.random.default_rng(j)
    x = rng.normal(size=(gen.dim, gen.dim)) + 1j * rng.normal(size=(gen.dim, gen.dim))
    fresh = _kernels.lindblad_rhs(x, *_args(gen))
    work = np.full((3, gen.dim, gen.dim), np.nan, dtype=np.complex128)
    into = _kernels.lindblad_rhs(x, *_args(gen), work=work)
    assert np.array_equal(into, fresh)
    assert np.shares_memory(into, work[0])
    assert fresh.base is None


def _workloads():
    """perfbench/workloads.py, the benchmark's scenarios (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def _benchmark_case(name):
    """The generator and initial state of a seed-0 benchmark scenario: the
    adaptive one (n = 121), the fixed one (n = 9), the sweep model at
    j1 = j2 = 8 (n = 289) and the dfs model (n = 81).  The dfs scenario
    has no state, so it starts from a random pure state."""
    workloads = _workloads()
    scenario = getattr(workloads, f"{name}_scenario")(0)
    if name == "sweep":
        scenario["ensembles"] = {"j1": 8, "j2": 8}
    cfg = parse_config(scenario)
    gen = build_generator(cfg.model, cfg.j1, cfg.j2)
    if name == "dfs":
        rng = np.random.default_rng(0)
        psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
        return gen, density_from_pure(psi / np.linalg.norm(psi))
    return gen, density_from_pure(cli.build_state(cfg)[0])


def _recorded_build(monkeypatch, gen, rho0, taus=(), tol=0.0):
    """A Krylov basis of rho0, with what its build used: the vectors L was
    applied to, as rows of V (n^2 columns), their images L V, the matrix
    the last eigh factored (the small problem, lower triangle), and the
    last ``small_problem`` it returned, ``(errors, trusted, coefficients)``.
    By default the basis is given no offset, so it stops at KRYLOV_DIM
    vectors."""
    vectors, images, factored, problems = [], [], [], []
    rhs, eigh, small_problem = _kernels.lindblad_rhs, np.linalg.eigh, _kernels.small_problem

    def recorded_rhs(x, *a, **k):
        out = rhs(x, *a, **k)
        vectors.append(x.reshape(-1).copy())
        images.append(out.reshape(-1).copy())
        return out

    def recorded_eigh(a):
        factored.append(a.copy())
        return eigh(a)

    def recorded_problem(*a):
        problems.append(small_problem(*a))
        return problems[-1]

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "lindblad_rhs", recorded_rhs)
        patch.setattr(np.linalg, "eigh", recorded_eigh)
        patch.setattr(_kernels, "small_problem", recorded_problem)
        propagator = _kernels.krylov_propagator(rho0, *_args(gen), taus=taus, tol=tol)
    small = np.tril(factored[-1])
    return propagator, np.array(vectors), np.array(images), small + np.tril(small, -1).T, problems[-1]


BENCHMARK_MODELS = ["adaptive", "fixed", "sweep", "dfs"]


def _offsets(norm):
    # offsets across the trusted range tau ||T||_2 <= EXPM_NORM_MAX
    return np.array([1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e5, 1e7,
                     0.999 * _kernels.EXPM_NORM_MAX]) / norm


@pytest.mark.parametrize("name", BENCHMARK_MODELS + ["adaptive-continued"])
def test_small_problem_matches_expm(monkeypatch, name):
    # the error estimate (the basis's last ``small_problem``) and the
    # states' coefficients against scipy's expm of the same small problem
    # T (the matrix eigh factored), at offsets across the trusted range and
    # none past it.  Reference: error_ref as in ``_error_reference``, h
    # the norm of L v_m less its projection on v_m and v_(m-1) by the
    # recurrence, and the state beta V exp(tau T) e_1, V the vectors the
    # build applied L to.  No basis here closes: the fixed model's Krylov
    # space is invariant at 11 vectors, but its Lanczos vectors lose
    # orthogonality first, so it grows to KRYLOV_DIM like the others.
    # Bounds fixed before running: both within 1e-13 beta (1 + tau
    # ||T||_2), the error scaled by h (1 + tau), covering the rounding of
    # the eigen-sums and of e^(tau lambda), whose eigenvalues carry about
    # u ||T||_2 each, and the integral's scale beta h tau.  A continued
    # basis is given an offset no estimate passes (tol 0), so it grows to
    # LANCZOS_MAX
    gen, rho0 = _benchmark_case(name.split("-")[0])
    continued = name.endswith("continued")
    (passing, states), vectors, images, small, problem = _recorded_build(
        monkeypatch, gen, rho0, taus=[1.0] if continued else ()
    )
    errors, trusted, _ = problem
    m = len(small)
    beta = np.linalg.norm(rho0)
    norm = np.abs(np.linalg.eigvalsh(small)).max()
    assert m == (_kernels.LANCZOS_MAX if continued else _kernels.KRYLOV_DIM)
    resid = images[-1] - small[-1, -1] * vectors[-1] - small[-1, -2] * vectors[-2]
    h = np.linalg.norm(resid)
    taus = _offsets(norm)
    past = 1.001 * _kernels.EXPM_NORM_MAX / norm
    offsets = np.append(taus, past)
    # every offset is trusted but the one past the range, which no tol
    # passes
    assert trusted(offsets) == len(taus)
    assert not _passes(passing, past)
    assert _kernels._passing(problem, offsets, math.inf) == len(taus)
    # the same basis again, at an infinite tol: given the trusted offsets,
    # a KRYLOV_DIM basis passes them all; a continued basis is also given
    # the one past the range, which keeps it growing to LANCZOS_MAX, and
    # its rows stop before that one
    given = offsets if continued else taus
    passing_inf, states_inf = _kernels.krylov_propagator(rho0, *_args(gen), taus=given, tol=math.inf)
    rows = states_inf(given[: passing_inf(given)])
    assert len(rows) == len(taus)
    for tau, row, error in zip(taus, rows, errors(taus)):
        exact = scipy.linalg.expm(tau * small)
        bound = 1e-13 * beta * (1.0 + tau * norm)
        assert abs(error - _error_reference(small, beta, h, tau)) <= h * bound * (1.0 + tau)
        want = beta * (exact[:, 0] @ vectors)
        assert np.linalg.norm(row.reshape(-1) - want) <= bound
    tau = taus[4]
    want = beta * (scipy.linalg.expm(tau * small)[:, 0] @ vectors)
    assert np.linalg.norm(_state(states, tau).reshape(-1) - want) <= 1e-13 * beta * (1.0 + tau * norm)


@pytest.mark.parametrize("name", ["adaptive", "sweep", "dfs"])
def test_short_offsets_pass(monkeypatch, name):
    # the exact error at a short offset tau is of order (tau ||T||)^(m-1) /
    # (m-1)!, while the eigen-sum that evaluates it cancels only to about
    # u.  So the estimate at 0 is 0 and every offset from 1e-12 / ||T|| to
    # 1e-2 / ||T|| passes the fixed-grid test GRID_TOL tau max(1, beta) on
    # a KRYLOV_DIM basis, in its estimate, and in ``passing`` of one offset and of them all
    gen, rho0 = _benchmark_case(name)
    (passing, _), _, _, small, (errors, _, _) = _recorded_build(monkeypatch, gen, rho0, tol=GRID_TOL)
    norm = np.abs(np.linalg.eigvalsh(small)).max()
    budget = GRID_TOL * max(1.0, np.linalg.norm(rho0))
    assert errors(np.zeros(1))[0] == 0.0
    taus = 10.0 ** np.arange(-12.0, -1.0) / norm
    assert np.all(errors(taus) <= budget * taus)
    assert all(_passes(passing, tau) for tau in taus)
    again, _ = _kernels.krylov_propagator(rho0, *_args(gen), taus=taus, tol=GRID_TOL)
    assert again(taus) == len(taus)


def test_continued_basis_uses_one_workspace(monkeypatch):
    # the seed-0 adaptive benchmark run (n = 121, to t = 2) takes one
    # basis continued by Lanczos to 46 vectors, of which it stores 4; its
    # build and its state's 42 regenerated vectors write every right-hand
    # side into one workspace, and no state of the run shares memory with it
    works = []
    rhs = _kernels.lindblad_rhs

    def recorded(*a, **kw):
        works.append(kw.get("work"))
        return rhs(*a, **kw)

    monkeypatch.setattr(_kernels, "lindblad_rhs", recorded)
    bases = _recorded_bases(monkeypatch)
    gen, rho0 = _benchmark_case("adaptive")
    traj = evolve(gen, rho0, 2.0, tol=1e-10)
    assert len(bases) == traj.accepted == 1
    assert _stored(gen.dim) == 4
    assert len(works) == 46 + 42
    assert works[0] is not None and all(w is works[0] for w in works)
    assert works[0].shape == (3, gen.dim, gen.dim)
    assert not any(np.shares_memory(state, works[0]) for state in traj.states)


def test_adaptive_run_memory_is_the_stored_prefix():
    # the seed-0 adaptive benchmark run (n = 121, to t = 2, one basis of 46
    # vectors): the allocations peak within the stored vectors (4 here),
    # the (3, n, n) workspace, the two Lanczos vectors and the rows (t = 0
    # and t = 2), each n^2 complex numbers, plus 256 KiB for the small
    # arrays and numpy's ufunc buffer (8,192 elements, 128 KiB of complex
    # numbers, taken by a right-hand side's transposes).  Bound fixed before
    # running; storing all KRYLOV_DIM vectors would take 12 more vectors of
    # n^2
    gen, rho0 = _benchmark_case("adaptive")
    vector = gen.dim**2 * 16
    tracemalloc.start()
    try:
        traj = evolve(gen, rho0, 2.0, tol=1e-10, stride=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 2 and _stored(gen.dim) == 4
    assert peak <= (_stored(gen.dim) + 3 + 2 + len(traj.states)) * vector + 256 * 1024


# the sweep benchmark model at j1 = j2 = 8 (n = 289) on a grid of 10^6
# steps of 1e-3: 1,000,001 rows of 16 n^2 bytes, 1.3 TB if kept
FINE_GRID = {"t_final": 1e3, "step": 1e-3}


def test_kept_grid_past_physical_memory_is_refused_before_any_rhs(monkeypatch):
    gen, rho0 = _benchmark_case("sweep")
    kept = 16 * gen.dim**2 * (10**6 + 1)
    limit, what = generator._memory_limit()
    if kept <= limit:
        pytest.skip(f"the machine holds {kept:.3g} bytes")
    calls = _counted_rhs(monkeypatch)
    with pytest.raises(IntegrationAbortError, match=re.escape(what)) as info:
        evolve(gen, rho0, **FINE_GRID)
    assert info.value.t_last == 0.0
    assert calls == []


class _Stop(Exception):
    pass


def test_streamed_fine_grid_is_not_refused(monkeypatch):
    # the same grid with a consumer runs: its first basis gives the first
    # rows (21 here), and the test stops the run at the t = 0 row.  The
    # basis's ``passing`` takes the error at 48 of the 10^6 offsets, in
    # blocks of 16 and 32 (``_kernels._passing``), where it once took all of
    # them in (10^6, m) arrays: a process peak of 476 MB against 130 MB
    gen, rho0 = _benchmark_case("sweep")
    rows = []

    def consumer(t, state, s_lin):
        rows.append(t)
        raise _Stop

    with pytest.raises(_Stop):
        evolve(gen, rho0, **FINE_GRID, consumer=consumer)
    assert rows == [0.0]


def test_passing_tests_offsets_in_doubling_blocks(monkeypatch):
    # a basis of the sweep model at n = 289 given the fine grid's first
    # 10^4 offsets: the count that pass is the one a single test of them
    # all gives, and the error is taken in blocks of 16, 32, 64, ... up to
    # the first block with a failure
    gen, rho0 = _benchmark_case("sweep")
    taus = np.arange(1, 10**4 + 1) * FINE_GRID["step"]
    _, _, _, _, (errors, trusted, coefficients) = _recorded_build(
        monkeypatch, gen, rho0, taus=taus, tol=GRID_TOL
    )
    sizes = []

    def recorded(block):
        sizes.append(len(block))
        return errors(block)

    budget = GRID_TOL * max(1.0, np.linalg.norm(rho0))
    given = _kernels._passing((recorded, trusted, coefficients), taus, budget)
    passed = errors(taus) <= budget * taus
    assert 0 < given == int(np.argmin(passed)) < len(taus)
    assert sizes == [_kernels.KRYLOV_DIM * 2**k for k in range(len(sizes))]
    assert sum(sizes[:-1]) <= given < sum(sizes)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack until it returns")
@pytest.mark.parametrize("tol", [None, 1e-10], ids=["fixed", "adaptive"])
def test_temporary_rho0_is_freed_before_the_first_row(tol):
    # evolve copies rho0 and drops its name, so a temporary initial state,
    # as ``cmd_simulate`` passes, costs no n^2 array past the copy
    gen, rho = _case("common", 1)
    refs, alive = [], []

    def temporary():
        mat = rho.copy()
        refs.append(weakref.ref(mat))
        return mat

    def consumer(t, state, s_lin):
        alive.append(refs[0]() is not None)

    evolve(gen, temporary(), 1.0, tol=tol, consumer=consumer)
    assert alive and not any(alive)

"""Invariants of the dense Lindblad kernels."""

import numpy as np
import pytest

from oracles import random_density, random_hermitian
from spinbath import _kernels
from spinbath.generator import CommonBath, IndependentBath, build_generator, default_step, evolve
from spinbath.spin_algebra import SpinOperator
from spinbath.states import coefficient_profile, density_from_pure, entangled_state
from spinbath.states import EntangledStateSpec


def _stacked_inputs(seed=3, j=1):
    rng = np.random.default_rng(seed)
    model = CommonBath(
        gamma=np.diag([1.0, 0.4, 0.7]), lam=1.3, axes=("x", "y", "z")
    )
    gen = build_generator(model, j, j)
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

    def test_chunk_normalizes_by_index_order_trace(self):
        # reference: the same steps with the trace summed by a Python loop in
        # index order; the kernel must reproduce it bit for bit
        gen, rho0 = _stacked_inputs(seed=5, j=2)
        args = (gen._jumps, gen._jdags, gen._ksum, None, False)
        h = 0.005
        ref = rho0
        for _ in range(10):
            k1 = _kernels.lindblad_rhs(ref, *args)
            k2 = _kernels.lindblad_rhs(ref + (0.5 * h) * k1, *args)
            k3 = _kernels.lindblad_rhs(ref + (0.5 * h) * k2, *args)
            k4 = _kernels.lindblad_rhs(ref + h * k3, *args)
            ref = ref + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ref = 0.5 * (ref + ref.conj().T)
            tr = 0.0
            for i in range(ref.shape[0]):
                tr += ref[i, i].real
            ref = ref / tr
        assert np.array_equal(_kernels.rk4_chunk(rho0, *args, h, 10), ref)


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


def test_step_matrix_chunk_normalizes_by_index_order_trace():
    # reference: the same matvec steps with the trace summed by a Python
    # loop in index order; the chunk must reproduce it bit for bit
    gen, rho0 = _stacked_inputs(seed=5, j=1.5)
    n = gen.dim
    inc = _kernels.rk4_step_increment(_kernels.liouvillian(*_args(gen)), 0.005)
    ref = rho0
    for _ in range(10):
        ref = ref + (inc @ ref.reshape(n * n)).reshape(n, n)
        ref = 0.5 * (ref + ref.conj().T)
        tr = 0.0
        for i in range(n):
            tr += ref[i, i].real
        ref = ref / tr
    assert np.array_equal(_kernels.step_matrix_chunk(rho0, inc, 10), ref)


# (bath, j, Hamiltonian): the step-matrix cases plus n = 81
DOUBLING_CASES = STEP_MATRIX_CASES + [("common", 4, True), ("independent", 4, False)]


@pytest.mark.parametrize("scale", [1.0, 8.0])
@pytest.mark.parametrize("bath,j,with_ham", DOUBLING_CASES)
def test_rk4_doubling_matches_stage_steps(bath, j, with_ham, scale):
    # bound fixed before running: the power form and the stage form evaluate
    # the same polynomial in hL, so they differ by roundoff alone; 8x the
    # default step is about the largest step the adaptive controller takes
    gen, rho = _case(bath, j, with_ham)
    h = scale * default_step(gen)
    full, half = _kernels.rk4_doubling(rho, *_args(gen), h)
    bound = 1e-13 * max(1.0, float(np.linalg.norm(rho)))
    assert np.abs(full - _kernels.rk4_chunk(rho, *_args(gen), h, 1)).max() <= bound
    assert np.abs(half - _kernels.rk4_chunk(rho, *_args(gen), 0.5 * h, 2)).max() <= bound


def test_adaptive_attempt_costs_eight_rhs(monkeypatch):
    # the public name and rk4_chunk's alias are both counted
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
    assert len(calls) == 8 * (traj.accepted + traj.rejected)

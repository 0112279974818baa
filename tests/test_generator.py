"""Damping validation, canonical jumps and RK4 evolution tests."""

import math

import numpy as np
import pytest

from oracles import (
    dephasing_s_lin,
    dissipator_double_sum,
    product_m_values,
    random_density,
    random_hermitian,
    z_damping_closed_form,
)
from spinbath.generator import (
    AXIS_INDEX,
    CommonBath,
    Generator,
    IndependentBath,
    IntegrationAbortError,
    NonSymmetricError,
    NotPositiveSemidefiniteError,
    apply_generator,
    build_generator,
    canonical_jumps,
    coupling_operators,
    default_step,
    evolve,
    rank_one_factors,
    stationary_residual,
    validate_damping,
)
from spinbath.spin_algebra import SpinOperator, angular_momentum_ops, coupled_basis_state
from spinbath.states import (
    EntangledStateSpec,
    coefficient_profile,
    coherent_x,
    density_from_pure,
    entangled_state,
    fock_state,
)


def gamma_on(axes, entries):
    """3x3 damping matrix with the given {(a, b): value} entries."""
    g = np.zeros((3, 3))
    for (a, b), v in entries.items():
        g[AXIS_INDEX[a], AXIS_INDEX[b]] = v
        g[AXIS_INDEX[b], AXIS_INDEX[a]] = v
    return g


def random_psd_on(rng, axes):
    idx = [AXIS_INDEX[a] for a in axes]
    b = rng.normal(size=(len(axes), len(axes)))
    g = np.zeros((3, 3))
    g[np.ix_(idx, idx)] = b @ b.T
    return g


def plus_x_density():
    return density_from_pure(coherent_x(0.5), (2,)).matrix


def dephasing_generator(gamma=1.0):
    model = IndependentBath(gamma1=gamma_on("z", {("z", "z"): gamma}), gamma2=None, axes=("z",))
    return build_generator(model, 0.5)


class TestValidateDamping:
    def test_accepts_psd_with_cross_terms(self):
        g = gamma_on(("x", "z"), {("x", "x"): 1.0, ("z", "z"): 1.0, ("x", "z"): 0.5})
        out = validate_damping(g, ("x", "z"))
        np.testing.assert_array_equal(out, g)
        assert out.dtype == np.float64

    def test_rejects_asymmetric(self):
        g = np.zeros((3, 3))
        g[0, 2] = 0.3
        with pytest.raises(NonSymmetricError):
            validate_damping(g, ("x", "z"))

    def test_rejects_indefinite(self):
        g = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0, ("x", "z"): 0.5})
        with pytest.raises(NotPositiveSemidefiniteError):
            validate_damping(g, ("x", "z"))

    def test_rejects_entries_outside_axes(self):
        g = gamma_on(("x", "y"), {("x", "x"): 1.0, ("y", "y"): 1.0})
        with pytest.raises(ValueError, match="axes"):
            validate_damping(g, ("x",))

    def test_rejects_complex_and_bad_shape(self):
        with pytest.raises(ValueError):
            validate_damping(np.eye(3) * (1 + 0j) + 1j * 0.001, ("x", "y", "z"))
        with pytest.raises(ValueError):
            validate_damping(np.eye(2), ("x", "y"))

    def test_tiny_negative_eigenvalue_tolerated(self):
        g = np.diag([1.0, 1.0, -1e-13])
        out = validate_damping(g, ("x", "y", "z"))
        assert out[2, 2] == -1e-13


class TestModels:
    def test_axes_canonical_order(self):
        model = CommonBath(gamma=np.diag([1.0, 0.0, 1.0]), lam=1.0, axes=("z", "x"))
        assert model.axes == ("x", "z")

    def test_axes_validation(self):
        with pytest.raises(ValueError):
            IndependentBath(gamma1=np.eye(3), gamma2=None, axes=("x", "x"))
        with pytest.raises(ValueError):
            IndependentBath(gamma1=np.eye(3), gamma2=None, axes=("w",))
        with pytest.raises(ValueError):
            IndependentBath(gamma1=np.eye(3), gamma2=None, axes=())

    def test_lambda_range(self):
        g = gamma_on("z", {("z", "z"): 1.0})
        for bad in (-0.01, 2.01):
            with pytest.raises(ValueError):
                CommonBath(gamma=g, lam=bad, axes=("z",))

    def test_single_ensemble_rejects_gamma2(self):
        model = IndependentBath(gamma1=np.eye(3), gamma2=np.eye(3), axes=("x", "y", "z"))
        with pytest.raises(ValueError, match="second ensemble"):
            coupling_operators(model, 0.5)

    def test_common_needs_two_ensembles(self):
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        with pytest.raises(ValueError):
            coupling_operators(model, 0.5)


class TestCanonicalJumps:
    def test_diagonal_single_axis(self):
        ops = {"z": angular_momentum_ops(0.5).z}
        jumps = canonical_jumps(gamma_on("z", {("z", "z"): 0.25}), ops)
        assert len(jumps) == 1
        np.testing.assert_allclose(jumps[0].matrix, 0.5 * ops["z"].matrix, atol=1e-15)

    def test_cross_coupling_rates(self):
        single = angular_momentum_ops(0.5)
        ops = {"x": single.x, "z": single.z}
        g = gamma_on(("x", "z"), {("x", "x"): 1.0, ("z", "z"): 1.0, ("x", "z"): 0.5})
        jumps = canonical_jumps(g, ops)
        # eigen-rates 0.5 and 1.5; tr(A^dag A) = rate / 2 for spin-1/2 ops
        norms = sorted(float(np.vdot(j.matrix, j.matrix).real) for j in jumps)
        np.testing.assert_allclose(norms, [0.25, 0.75], atol=1e-14)

    def test_rank_deficient_drops_zero_rate(self):
        single = angular_momentum_ops(1)
        ops = {"x": single.x, "z": single.z}
        g = gamma_on(("x", "z"), {("x", "x"): 1.0, ("z", "z"): 1.0, ("x", "z"): 1.0})
        assert len(canonical_jumps(g, ops)) == 1

    def test_tiny_negative_rate_dropped(self):
        single = angular_momentum_ops(0.5)
        ops = {"x": single.x, "y": single.y, "z": single.z}
        g = np.diag([1.0, 0.0, -1e-13])
        assert len(canonical_jumps(g, ops)) == 1

    def test_clearly_negative_rate_raises(self):
        single = angular_momentum_ops(0.5)
        ops = {"x": single.x, "z": single.z}
        g = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0, ("x", "z"): 0.5})
        with pytest.raises(NotPositiveSemidefiniteError):
            canonical_jumps(g, ops)


class TestDissipatorEquivalence:
    def test_matches_double_sum_oracle(self):
        # canonical decomposition vs the literal double sum, random inputs
        rng = np.random.default_rng(41)
        cases = []
        g1 = random_psd_on(rng, ("x", "y", "z"))
        g2 = random_psd_on(rng, ("x", "y", "z"))
        cases.append((IndependentBath(gamma1=g1, gamma2=g2, axes=("x", "y", "z")), 1.0, 1.0))
        gx = random_psd_on(rng, ("x", "z"))
        cases.append((IndependentBath(gamma1=gx, gamma2=None, axes=("x", "z")), 1.5, None))
        gc = random_psd_on(rng, ("x", "y", "z"))
        cases.append((CommonBath(gamma=gc, lam=0.7, axes=("x", "y", "z")), 1.0, 1.5))
        for model, j1, j2 in cases:
            gen = build_generator(model, j1, j2)
            sets = coupling_operators(model, j1, j2)
            for _ in range(4):
                rho = random_hermitian(rng, gen.dim)
                expect = np.zeros_like(rho)
                for gamma, ops in sets:
                    axes = sorted(ops, key=AXIS_INDEX.get)
                    idx = [AXIS_INDEX[a] for a in axes]
                    sub = gamma[np.ix_(idx, idx)]
                    mats = [ops[a].matrix for a in axes]
                    expect += dissipator_double_sum(sub, mats, rho)
                got = apply_generator(gen, rho)
                scale = max(1.0, float(np.abs(expect).max()))
                assert np.abs(got - expect).max() <= 1e-12 * scale

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(8)
        model = CommonBath(gamma=random_psd_on(rng, ("x", "y", "z")), lam=1.2, axes=("x", "y", "z"))
        gen = build_generator(model, 1, 1)
        rho = random_density(rng, gen.dim)
        out = apply_generator(gen, rho)
        assert np.abs(out - out.conj().T).max() <= 1e-13
        assert abs(np.trace(out)) <= 1e-13


class TestCommonBathEndpoints:
    def test_lambda_2_reduces_to_first_ensemble(self):
        g = random_psd_on(np.random.default_rng(2), ("x", "y", "z"))
        common = build_generator(CommonBath(gamma=g, lam=2.0, axes=("x", "y", "z")), 1, 0.5)
        solo = build_generator(
            IndependentBath(gamma1=g, gamma2=None, axes=("x", "y", "z")), 1, 0.5
        )
        rho = random_hermitian(np.random.default_rng(3), common.dim)
        np.testing.assert_array_equal(apply_generator(common, rho), apply_generator(solo, rho))

    def test_lambda_0_reduces_to_second_ensemble(self):
        g = random_psd_on(np.random.default_rng(4), ("x", "z"))
        common = build_generator(CommonBath(gamma=g, lam=0.0, axes=("x", "z")), 1, 1)
        zero = np.zeros((3, 3))
        solo = build_generator(IndependentBath(gamma1=zero, gamma2=g, axes=("x", "z")), 1, 1)
        rho = random_hermitian(np.random.default_rng(5), common.dim)
        np.testing.assert_array_equal(apply_generator(common, rho), apply_generator(solo, rho))


class TestApplyGenerator:
    def test_spin_half_dephasing_action(self):
        gen = dephasing_generator()
        out = apply_generator(gen, plus_x_density())
        np.testing.assert_allclose(out, [[0, -0.25], [-0.25, 0]], atol=1e-15)

    def test_shape_mismatch(self):
        gen = dephasing_generator()
        with pytest.raises(ValueError):
            apply_generator(gen, np.eye(3) / 3.0)

    def test_empty_generator_is_zero_map(self):
        gen = Generator([], None, (2,))
        rho = plus_x_density()
        assert np.abs(apply_generator(gen, rho)).max() == 0.0


class TestRankOneFactors:
    def test_matches_dense_generator_on_outer_product(self):
        # tolerance fixed up front: max |U V^dag - L(psi phi^dag)| <= 1e-12 max(1, ||L(psi phi^dag)||)
        rng = np.random.default_rng(29)
        g_xz = gamma_on(("x", "z"), {("x", "x"): 0.3, ("z", "z"): 1.0, ("x", "z"): 0.4})
        cases = [
            (IndependentBath(gamma1=g_xz, gamma2=None, axes=("x", "z")), 3, None, True),
            (
                IndependentBath(
                    gamma1=random_psd_on(rng, ("x", "y", "z")),
                    gamma2=random_psd_on(rng, ("x", "y", "z")),
                    axes=("x", "y", "z"),
                ),
                1,
                1.5,
                False,
            ),
            (CommonBath(gamma=random_psd_on(rng, ("x", "y", "z")), lam=0.7, axes=("x", "y", "z")), 2, 3, True),
            (CommonBath(gamma=g_xz, lam=1.3, axes=("x", "z")), 3, 3, False),
        ]
        for model, j1, j2, with_ham in cases:
            gen = build_generator(model, j1, j2)
            if with_ham:
                gen = Generator(gen.jump_ops, SpinOperator(random_hermitian(rng, gen.dim), gen.dims), gen.dims)
            ham = gen._ham
            for _ in range(3):
                psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
                phi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
                u, v = rank_one_factors(gen._jumps, ham, psi, phi)
                assert u.shape == v.shape == (gen.dim, gen._jumps.shape[0] + 2)
                dense = apply_generator(gen, np.outer(psi, phi.conj()))
                scale = max(1.0, float(np.linalg.norm(dense)))
                assert np.abs(u @ v.conj().T - dense).max() <= 1e-12 * scale


class TestStationaryResidual:
    def test_dephasing_plus_x_value(self):
        gen = dephasing_generator()
        assert stationary_residual(gen, plus_x_density()) == pytest.approx(
            math.sqrt(2.0) / 4.0, abs=1e-14
        )

    def test_fock_state_stationary(self):
        gen = dephasing_generator()
        rho = density_from_pure(fock_state(0.5, 0.5), (2,)).matrix
        assert stationary_residual(gen, rho) <= 1e-15

    def test_singlet_stationary_for_balanced_common_bath(self):
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        gen = build_generator(model, 0.5, 0.5)
        rho = density_from_pure(coupled_basis_state(0.5, 0.5, 0, 0), (2, 2)).matrix
        assert stationary_residual(gen, rho) <= 1e-12


class TestDefaultStep:
    def test_dephasing_scale(self):
        assert default_step(dephasing_generator()) == pytest.approx(0.4, abs=1e-14)

    def test_hamiltonian_contributes(self):
        ham = angular_momentum_ops(0.5).x
        model = IndependentBath(gamma1=gamma_on("z", {("z", "z"): 1.0}), gamma2=None, axes=("z",))
        gen = build_generator(model, 0.5, hamiltonian=ham)
        assert default_step(gen) == pytest.approx(0.1 / 0.75, abs=1e-14)

    def test_free_generator_has_no_scale(self):
        assert default_step(Generator([], None, (2,))) is None


class TestEvolveFixedStep:
    def test_matches_dephasing_closed_form(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 1.0, step=1e-3)
        assert traj.times[-1] == 1.0
        assert traj.s_lin[-1] == pytest.approx(float(dephasing_s_lin(1.0)), abs=1e-8)

    def test_fourth_order_convergence(self):
        gen = dephasing_generator()
        exact = float(dephasing_s_lin(1.0))
        errs = []
        for h in (0.2, 0.1):
            traj = evolve(gen, plus_x_density(), 1.0, step=h)
            errs.append(abs(traj.s_lin[-1] - exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_zero_generator_keeps_state(self):
        gen = Generator([], None, (2,))
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        traj = evolve(gen, rho0, 3.0)
        assert np.array_equal(traj.states[-1], rho0)
        assert traj.accepted == 1

    def test_time_grid_and_stride(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 1.0, step=0.1, stride=3)
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
        assert traj.accepted == 10
        assert traj.rejected == 0

    def test_t_zero_single_sample(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 0.0)
        assert traj.times.shape == (1,)
        assert traj.s_lin[0] == pytest.approx(0.0, abs=1e-14)

    def test_final_partial_step(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 0.25, step=0.1)
        assert traj.times[-1] == 0.25
        assert traj.s_lin[-1] == pytest.approx(float(dephasing_s_lin(0.25)), abs=1e-7)

    def test_trajectory_state_invariants(self):
        spec = EntangledStateSpec.make(1, 1, coefficient_profile("uniform", 1))
        model = IndependentBath(
            gamma1=gamma_on(("x", "z"), {("x", "x"): 0.3, ("z", "z"): 1.0}),
            gamma2=gamma_on(("x", "z"), {("x", "x"): 0.3, ("z", "z"): 1.0}),
            axes=("x", "z"),
        )
        gen = build_generator(model, 1, 1)
        rho0 = density_from_pure(entangled_state(spec), (3, 3))
        traj = evolve(gen, rho0, 2.0, stride=10)
        assert np.all(np.diff(traj.times) > 0)
        for mat in traj.states:
            assert np.abs(mat - mat.conj().T).max() <= 1e-10
            assert abs(np.trace(mat).real - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(mat).min() >= -1e-8
        recomputed = [1.0 - np.vdot(m, m).real for m in traj.states]
        np.testing.assert_allclose(traj.s_lin, recomputed, atol=1e-13)

    def test_blowup_aborts_with_last_time(self):
        # amplification ~13.7x per h=10 step crosses the 10x cap at step two
        gen = dephasing_generator()
        with pytest.raises(IntegrationAbortError) as info:
            evolve(gen, plus_x_density(), 100.0, step=10.0)
        assert info.value.t_last == pytest.approx(20.0)

    def test_step_budget_enforced(self):
        gen = dephasing_generator()
        with pytest.raises(IntegrationAbortError, match="max_steps") as info:
            evolve(gen, plus_x_density(), 1.0, step=1e-9, max_steps=100)
        assert info.value.t_last == 0.0

    def test_argument_validation(self):
        gen = dephasing_generator()
        rho = plus_x_density()
        with pytest.raises(ValueError):
            evolve(gen, rho, -1.0)
        with pytest.raises(ValueError):
            evolve(gen, rho, 1.0, stride=0)
        with pytest.raises(ValueError):
            evolve(gen, rho, 1.0, step=0.0)
        with pytest.raises(ValueError):
            evolve(gen, rho, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            evolve(gen, np.eye(3) / 3.0, 1.0)


class TestZOnlyClosedForm:
    """Evolution under z-only damping against the exact solution.

    Fixed step: n = 9 and 16 run on the RK4 step matrix, n = 81 and 169 on
    the dense kernel.  Adaptive: Krylov steps at n = 81 and 169.

    Tolerances fixed before running: the default step keeps h * rate <= 0.2
    for every coherence, so RK4's global error is at most
    (h rate)^4 / (120 e) < 5e-6 of |rho_ab(0)|; an adaptive run commits at most
    tol per accepted step.
    """

    T_FINAL = 0.25

    @staticmethod
    def _pure_state(dim, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    @staticmethod
    def _common(j, lam=1.3, gamma=1.0):
        m1, m2 = product_m_values(j, j)
        model = CommonBath(gamma=gamma_on("z", {("z", "z"): gamma}), lam=lam, axes=("z",))
        return model, [(gamma, (lam * m1 + (2.0 - lam) * m2) / 2.0)]

    @staticmethod
    def _independent(j, gamma1=1.0, gamma2=0.5):
        m1, m2 = product_m_values(j, j)
        model = IndependentBath(
            gamma1=gamma_on("z", {("z", "z"): gamma1}),
            gamma2=gamma_on("z", {("z", "z"): gamma2}),
            axes=("z",),
        )
        return model, [(gamma1, m1), (gamma2, m2)]

    def _max_error(self, model, baths, j, tol):
        gen = build_generator(model, j, j)
        rho0 = self._pure_state(gen.dim, seed=int(2 * j))
        traj = evolve(gen, rho0, self.T_FINAL, tol=tol, stride=40)
        assert traj.times[-1] == self.T_FINAL
        err = max(
            float(np.abs(state - z_damping_closed_form(rho0, baths, t)).max())
            for t, state in zip(traj.times, traj.states)
        )
        return err, float(np.abs(rho0).max()), traj.accepted

    @pytest.mark.parametrize(
        "bath,j",
        [
            ("common", 1),
            ("independent", 1),
            ("common", 1.5),
            ("independent", 1.5),
            ("common", 4),
            ("independent", 4),
            ("common", 6),
        ],
    )
    def test_default_fixed_step(self, bath, j):
        model, baths = getattr(self, "_" + bath)(j)
        err, scale, _ = self._max_error(model, baths, j, tol=None)
        assert err <= 5e-6 * scale

    @pytest.mark.parametrize("j", [4, 6])
    @pytest.mark.parametrize("bath", ["common", "independent"])
    def test_adaptive(self, bath, j):
        model, baths = getattr(self, "_" + bath)(j)
        err, _, accepted = self._max_error(model, baths, j, tol=1e-10)
        assert err <= accepted * 1e-10


class TestEvolveAdaptive:
    def test_matches_dephasing_closed_form(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 5.0, tol=1e-10)
        expect = dephasing_s_lin(traj.times)
        assert np.abs(traj.s_lin - expect).max() <= 1e-7
        assert traj.rejected >= 0

    def test_stationary_state_fast_path(self):
        # zero local error lets the controller quintuple the step
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        gen = build_generator(model, 0.5, 0.5)
        psi = coupled_basis_state(0.5, 0.5, 0, 0)
        traj = evolve(gen, density_from_pure(psi, (2, 2)), 10.0, tol=1e-12)
        assert traj.accepted + traj.rejected <= 20
        overlap = np.vdot(psi, traj.states[-1] @ psi).real
        assert overlap >= 1.0 - 1e-12

    def test_rejections_counted_for_rough_start(self):
        # a first step of t_final: the Krylov basis of this state does not
        # close, so the step is too long for the tolerance
        model = CommonBath(gamma=np.diag([1.0, 0.5, 0.25]), lam=1.4, axes=("x", "y", "z"))
        gen = build_generator(model, 1, 1)
        psi = np.kron(coherent_x(1), coherent_x(1))
        traj = evolve(gen, density_from_pure(psi, (3, 3)), 8.0, step=8.0, tol=1e-12)
        assert traj.rejected >= 1
        assert traj.times[-1] == 8.0

    def test_hamiltonian_precession(self):
        ham = angular_momentum_ops(0.5).z
        gen = Generator([], ham, (2,))
        jx = angular_momentum_ops(0.5).x.matrix
        traj = evolve(gen, plus_x_density(), math.pi, step=0.02)
        mean_x = np.vdot(traj.states[-1], jx).real
        assert mean_x == pytest.approx(-0.5, abs=1e-6)
        assert np.abs(traj.s_lin).max() <= 1e-9

    def test_finite_difference_entropy_rate(self):
        gen = dephasing_generator()
        delta = 1e-5
        traj = evolve(gen, plus_x_density(), delta, step=delta)
        fd = (traj.s_lin[-1] - traj.s_lin[0]) / delta
        rho = plus_x_density()
        rate = -2.0 * np.vdot(rho, apply_generator(gen, rho)).real
        assert fd == pytest.approx(rate, rel=1e-3)


class TestPurityLossAtPureStates:
    def test_rate_nonnegative(self):
        rng = np.random.default_rng(77)
        models = [
            IndependentBath(
                gamma1=random_psd_on(rng, ("x", "y", "z")),
                gamma2=random_psd_on(rng, ("x", "y", "z")),
                axes=("x", "y", "z"),
            ),
            CommonBath(gamma=random_psd_on(rng, ("x", "y", "z")), lam=0.4, axes=("x", "y", "z")),
        ]
        for model in models:
            gen = build_generator(model, 1, 1)
            for _ in range(6):
                raw = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
                psi = raw / np.linalg.norm(raw)
                rho = np.outer(psi, psi.conj())
                rate = -2.0 * np.vdot(rho, apply_generator(gen, rho)).real
                assert rate >= -1e-12


class TestBuildGenerator:
    def test_dims_and_jump_count(self):
        model = IndependentBath(gamma1=np.eye(3), gamma2=np.eye(3), axes=("x", "y", "z"))
        gen = build_generator(model, 1, 0.5)
        assert gen.dims == (3, 2)
        assert gen.dim == 6
        assert len(gen.jump_ops) == 6

    def test_jump_dimension_checked(self):
        bad = angular_momentum_ops(1).z
        with pytest.raises(ValueError):
            Generator([bad], None, (2,))

    def test_hamiltonian_dimension_checked(self):
        ham = angular_momentum_ops(1).z
        with pytest.raises(ValueError):
            Generator([], ham, (2,))

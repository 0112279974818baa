"""Damping validation, canonical jumps, the generator and Krylov evolution tests."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dense_views import dense, dense_generator
from oracles import (
    coupling_sets,
    dephasing_s_lin,
    dissipator_double_sum,
    product_m_values,
    purity_loss_rate,
    random_density,
    random_hermitian,
    z_damping_closed_form,
)
from spinbath import _kernels, generator
from spinbath.generator import (
    AXIS_INDEX,
    DEFAULT_ROWS,
    GRID_TOL,
    CommonBath,
    FactoredOperator,
    Generator,
    IndependentBath,
    IntegrationAbortError,
    NonSymmetricError,
    NotPositiveSemidefiniteError,
    apply_generator,
    build_generator,
    canonical_jumps,
    coupling_factors,
    evolve,
    rank_one_factors,
    validate_damping,
)
from spinbath.spin_algebra import angular_momentum_ops, coupled_basis_state
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
    return density_from_pure(coherent_x(0.5))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_entries(self, bad):
        g = np.diag([1.0, 0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            validate_damping(g, ("x", "y", "z"))
        with pytest.raises(ValueError, match="finite"):
            IndependentBath(gamma1=g, gamma2=None, axes=("x", "y", "z"))
        with pytest.raises(ValueError, match="finite"):
            IndependentBath(gamma1=np.eye(3), gamma2=g, axes=("x", "y", "z"))
        with pytest.raises(ValueError, match="finite"):
            CommonBath(gamma=g, lam=1.0, axes=("x", "y", "z"))

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
            coupling_factors(model, 0.5)

    def test_common_needs_two_ensembles(self):
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        with pytest.raises(ValueError):
            coupling_factors(model, 0.5)


def single_factors(j, axes):
    """Factored single-ensemble coupling operators {axis: J_a}."""
    single = angular_momentum_ops(j)
    return {a: FactoredOperator(getattr(single, a), None, single.z.shape[:1]) for a in axes}


class TestCanonicalJumps:
    def test_diagonal_single_axis(self):
        ops = single_factors(0.5, "z")
        jumps = canonical_jumps(gamma_on("z", {("z", "z"): 0.25}), ops)
        assert len(jumps) == 1
        assert jumps[0].y is None
        np.testing.assert_allclose(dense(jumps[0]), 0.5 * dense(ops["z"]), atol=1e-15)

    def test_cross_coupling_rates(self):
        ops = single_factors(0.5, "xz")
        g = gamma_on(("x", "z"), {("x", "x"): 1.0, ("z", "z"): 1.0, ("x", "z"): 0.5})
        jumps = canonical_jumps(g, ops)
        # eigen-rates 0.5 and 1.5; tr(A^dag A) = rate / 2 for spin-1/2 ops
        norms = sorted(float(np.vdot(dense(j), dense(j)).real) for j in jumps)
        np.testing.assert_allclose(norms, [0.25, 0.75], atol=1e-14)

    def test_rank_deficient_drops_zero_rate(self):
        ops = single_factors(1, "xz")
        g = gamma_on(("x", "z"), {("x", "x"): 1.0, ("z", "z"): 1.0, ("x", "z"): 1.0})
        assert len(canonical_jumps(g, ops)) == 1

    def test_tiny_negative_rate_dropped(self):
        ops = single_factors(0.5, "xyz")
        g = np.diag([1.0, 0.0, -1e-13])
        assert len(canonical_jumps(g, ops)) == 1

    def test_clearly_negative_rate_raises(self):
        ops = single_factors(0.5, "xz")
        g = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0, ("x", "z"): 0.5})
        with pytest.raises(NotPositiveSemidefiniteError):
            canonical_jumps(g, ops)


class TestDissipatorEquivalence:
    def test_matches_double_sum_oracle(self):
        # canonical decomposition vs the literal double sum, random inputs
        rng = np.random.default_rng(41)
        # (model, j1, j2, oracle coupling sets): gamma entries off the
        # model's axes are zero, so the oracle's x, y, z operators contract
        # the same double sum
        cases = []
        g1 = random_psd_on(rng, ("x", "y", "z"))
        g2 = random_psd_on(rng, ("x", "y", "z"))
        cases.append((IndependentBath(gamma1=g1, gamma2=g2, axes=("x", "y", "z")), 1.0, 1.0,
                      coupling_sets("independent", 1.0, 1.0, g1, g2, 0.0)))
        gx = random_psd_on(rng, ("x", "z"))
        cases.append((IndependentBath(gamma1=gx, gamma2=None, axes=("x", "z")), 1.5, None,
                      coupling_sets("independent", 1.5, None, gx, None, 0.0)))
        gc = random_psd_on(rng, ("x", "y", "z"))
        cases.append((CommonBath(gamma=gc, lam=0.7, axes=("x", "y", "z")), 1.0, 1.5,
                      coupling_sets("common", 1.0, 1.5, gc, None, 0.7)))
        for model, j1, j2, sets in cases:
            gen = build_generator(model, j1, j2)
            for _ in range(4):
                rho = random_hermitian(rng, gen.dim)
                expect = sum(dissipator_double_sum(gamma, ops, rho) for gamma, ops in sets)
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
        gen = Generator([], (2,))
        rho = plus_x_density()
        assert np.abs(apply_generator(gen, rho)).max() == 0.0


class TestRankOneFactors:
    def test_matches_dense_generator_on_outer_product(self):
        # tolerance fixed up front: max |U V^dag - L(psi phi^dag)| <= 1e-12 max(1, ||L(psi phi^dag)||)
        rng = np.random.default_rng(29)
        g_xz = gamma_on(("x", "z"), {("x", "x"): 0.3, ("z", "z"): 1.0, ("x", "z"): 0.4})
        cases = [
            (IndependentBath(gamma1=g_xz, gamma2=None, axes=("x", "z")), 3, None),
            (
                IndependentBath(
                    gamma1=random_psd_on(rng, ("x", "y", "z")),
                    gamma2=random_psd_on(rng, ("x", "y", "z")),
                    axes=("x", "y", "z"),
                ),
                1,
                1.5,
            ),
            (CommonBath(gamma=random_psd_on(rng, ("x", "y", "z")), lam=0.7, axes=("x", "y", "z")), 2, 3),
            (CommonBath(gamma=g_xz, lam=1.3, axes=("x", "z")), 3, 3),
        ]
        for model, j1, j2 in cases:
            gen = build_generator(model, j1, j2)
            jumps = [op for gamma, ops in coupling_factors(model, j1, j2) for op in canonical_jumps(gamma, ops)]
            for _ in range(3):
                psi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
                phi = rng.normal(size=gen.dim) + 1j * rng.normal(size=gen.dim)
                # L(psi phi^dag) = U_psi V_phi^dag: U from psi's factors, V from phi's
                u, v = rank_one_factors(jumps, psi)[0], rank_one_factors(jumps, phi)[1]
                assert u.shape == v.shape == (gen.dim, len(dense_generator(gen).jumps) + 2)
                dense = apply_generator(gen, np.outer(psi, phi.conj()))
                scale = max(1.0, float(np.linalg.norm(dense)))
                assert np.abs(u @ v.conj().T - dense).max() <= 1e-12 * scale


class TestFactoredOperator:
    def test_apply_matches_dense_matrix(self):
        rng = np.random.default_rng(17)
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 4)
        for op in (FactoredOperator(x, y, (3, 4)), FactoredOperator(x, None, (3,))):
            mat = dense(op)
            assert mat.shape == (op.dim, op.dim)
            v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            np.testing.assert_allclose(op.apply(v), mat @ v, rtol=0, atol=1e-13)

    def test_non_hermitian_factor_rejected(self):
        # every factor is Hermitian to a relative HERMITIAN_TOL = 1e-12, so
        # each operator is its own adjoint.  J+, i J_x and a nilpotent 2 x 2
        # are refused in either slot; an asymmetry of 1e-13 of the largest
        # entry is rounding, and passes
        ops = angular_momentum_ops(1)
        jz = ops.z.astype(complex)
        for bad in (ops.x + 1j * ops.y, 1j * ops.x):
            with pytest.raises(ValueError, match="not Hermitian"):
                FactoredOperator(bad, None, (3,))
            with pytest.raises(ValueError, match="not Hermitian"):
                FactoredOperator(jz, bad, (3, 3))
        with pytest.raises(ValueError, match="not Hermitian"):
            FactoredOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), None, (2,))
        nearly = np.array([[1.0, 0.5], [0.5 + 1e-13, -1.0]])
        assert np.array_equal(FactoredOperator(nearly, None, (2,)).x, nearly)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_factor_rejected(self, entry, where):
        # a NaN fails every comparison, so the Hermiticity test alone would
        # pass it; an inf turns X - X^dag into NaN with a RuntimeWarning.
        # Either way the factor is refused, in either slot, before any
        # arithmetic
        jz = angular_momentum_ops(0.5).z.astype(complex)
        bad = jz.copy()
        bad[where] = bad[where[::-1]] = entry
        with pytest.raises(ValueError, match="finite"):
            FactoredOperator(bad, None, (2,))
        with pytest.raises(ValueError, match="finite"):
            FactoredOperator(jz, bad, (2, 2))

    def test_factor_shapes_checked_against_dims(self):
        for y, dims in ((None, (2, 2)), (np.eye(2), (2,)), (np.eye(3), (2, 2))):
            with pytest.raises(ValueError, match="do not match dims"):
                FactoredOperator(np.eye(2), y, dims)


class TestStationaryResidual:
    # the residual of a state is ||L(rho)||_F
    def test_dephasing_plus_x_value(self):
        gen = dephasing_generator()
        assert np.linalg.norm(apply_generator(gen, plus_x_density())) == pytest.approx(
            math.sqrt(2.0) / 4.0, abs=1e-14
        )

    def test_fock_state_stationary(self):
        gen = dephasing_generator()
        rho = density_from_pure(fock_state(0.5, 0.5))
        assert np.linalg.norm(apply_generator(gen, rho)) <= 1e-15

    def test_singlet_stationary_for_balanced_common_bath(self):
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        gen = build_generator(model, 0.5, 0.5)
        rho = density_from_pure(coupled_basis_state(0.5, 0.5, 0, 0))
        assert np.linalg.norm(apply_generator(gen, rho)) <= 1e-12


class TestEvolveFixedStep:
    def test_matches_dephasing_closed_form(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 1.0, step=1e-3)
        assert traj.times[-1] == 1.0
        assert traj.s_lin[-1] == pytest.approx(float(dephasing_s_lin(1.0)), abs=1e-8)

    def test_step_sets_only_the_grid(self):
        # the qubit's Krylov basis closes, so every grid samples exp(t L)
        # exactly: steps 0.2, 0.1 and 0.03 reach the closed form at t = 1
        # alike.  Bound fixed before the first run: |S_lin error| <=
        # 2 ||rho error||_F <= 2 (GRID_TOL + 1e-13) at t = 1
        gen = dephasing_generator()
        exact = float(dephasing_s_lin(1.0))
        for h in (0.2, 0.1, 0.03):
            traj = evolve(gen, plus_x_density(), 1.0, step=h)
            assert traj.accepted == math.ceil(1.0 / h - 1e-12)
            assert abs(traj.s_lin[-1] - exact) <= 2.0 * (GRID_TOL + 1e-13)

    def test_zero_generator_keeps_state(self):
        # a free generator takes the default grid like any other
        gen = Generator([], (2,))
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        traj = evolve(gen, rho0, 3.0)
        assert all(np.array_equal(state, rho0) for state in traj.states)
        assert traj.accepted == DEFAULT_ROWS

    @pytest.mark.parametrize("free", [False, True], ids=["dephasing", "free"])
    def test_default_grid_is_default_rows_steps(self, free):
        # step unset: DEFAULT_ROWS steps of t_final / DEFAULT_ROWS, whatever
        # the generator's norm, so 101 rows at stride 1 and every 25th step
        # and t_final at stride 25
        gen = Generator([], (2,)) if free else dephasing_generator()
        h = 3.0 / DEFAULT_ROWS
        for stride, steps in ((1, range(1, 100)), (25, (25, 50, 75))):
            traj = evolve(gen, plus_x_density(), 3.0, stride=stride)
            assert DEFAULT_ROWS == 100 and traj.accepted == 100
            assert traj.times.tolist() == [0.0] + [k * h for k in steps] + [3.0]

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
        spec = EntangledStateSpec(1, 1, coefficient_profile("uniform", 1))
        model = IndependentBath(
            gamma1=gamma_on(("x", "z"), {("x", "x"): 0.3, ("z", "z"): 1.0}),
            gamma2=gamma_on(("x", "z"), {("x", "x"): 0.3, ("z", "z"): 1.0}),
            axes=("x", "z"),
        )
        gen = build_generator(model, 1, 1)
        rho0 = density_from_pure(entangled_state(spec))
        traj = evolve(gen, rho0, 2.0, stride=10)
        assert np.all(np.diff(traj.times) > 0)
        for mat in traj.states:
            assert np.abs(mat - mat.conj().T).max() <= 1e-10
            assert abs(np.trace(mat).real - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(mat).min() >= -1e-8
        recomputed = [1.0 - np.vdot(m, m).real for m in traj.states]
        np.testing.assert_allclose(traj.s_lin, recomputed, atol=1e-13)

    @pytest.mark.parametrize("tol,t_last", [(None, 8 * 0.6), (1e-10, 0.0)], ids=["fixed", "adaptive"])
    def test_blowup_aborts_with_last_time(self, tol, t_last):
        # A Lindblad generator with Hermitian jumps never grows ||rho||_F, so
        # the tripwire is reached by flipping the sign of -K/2: L = A . A +
        # {K, .}/2, still self-adjoint but not contractive.  For unit
        # z-dephasing, A = J_z and K = I/4, so from plus_x the populations
        # grow as e^(t/2) / 2 and the coherences stay 1/2: ||rho||_F^2 =
        # (e^t + 1)/2 passes 10^2 at t = ln 199 = 5.29.  The basis closes (n = 2),
        # so every state is exact: the fixed grid (step 0.6) fails at its row
        # t = 5.4 (norm 10.55) after t = 4.8, and the adaptive run takes
        # t_final = 6 in one step (norm 14.22) and fails there, after t = 0.
        # t_last is the last time that passed
        gen = dephasing_generator()
        gen._drift = _kernels.Banded(-gen._drift.diags, gen._drift.offsets)
        with pytest.raises(IntegrationAbortError, match=f"last good time t={t_last:.6g}") as info:
            evolve(gen, plus_x_density(), 6.0, **({"step": 0.6} if tol is None else {"tol": tol}))
        assert info.value.t_last == t_last

    def test_step_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(generator, "MAX_STEPS", 100)
        gen = dephasing_generator()
        with pytest.raises(IntegrationAbortError, match="max_steps") as info:
            evolve(gen, plus_x_density(), 1.0, step=1e-9)
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

    @pytest.mark.parametrize(
        "t_final,kwargs",
        [
            # adaptive NaN t_final once returned the times [0, nan]
            (math.nan, {"tol": 1e-10}),
            (math.inf, {"tol": 1e-10}),
            # fixed mode once failed only by accident, inside math.ceil
            (math.nan, {}),
            (math.inf, {}),
            (1.0, {"step": math.nan}),
            (1.0, {"step": math.inf}),
            (1.0, {"tol": math.nan}),
            (1.0, {"tol": math.inf}),
        ],
        ids=["adaptive-t_final-nan", "adaptive-t_final-inf", "fixed-t_final-nan", "fixed-t_final-inf",
             "fixed-step-nan", "fixed-step-inf", "tol-nan", "tol-inf"],
    )
    def test_non_finite_arguments_rejected(self, t_final, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            evolve(dephasing_generator(), plus_x_density(), t_final, **kwargs)

    @pytest.mark.parametrize("mode", [{"step": 0.1}, {"tol": 1e-10}], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_initial_state_refused_before_any_rhs(self, monkeypatch, mode, bad):
        # refused before any right-hand side: one non-finite entry of rho0
        # (n = 25) would fill a basis with NaN and end in numpy's
        # LinAlgError
        calls = []
        rhs = _kernels.lindblad_rhs
        monkeypatch.setattr(_kernels, "lindblad_rhs", lambda *a, **k: calls.append(1) or rhs(*a, **k))
        gen = build_generator(CommonBath(gamma=np.eye(3), lam=1.3, axes=("x", "y", "z")), 2, 2)
        rho0 = random_density(np.random.default_rng(3), gen.dim)
        rho0[4, 7] = bad
        with pytest.raises(ValueError, match="rho0 must be finite"):
            evolve(gen, rho0, 1.0, **mode)
        assert calls == []

    @pytest.mark.parametrize("stride", [2.5, 2.0, True, "2", None, 0, -1, np.int64(0)])
    def test_stride_must_be_an_integer_of_at_least_one(self, stride):
        # a fractional stride would put rows at 0.25, 0.5 and 0.75, off the
        # step grid of 0.1
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            evolve(dephasing_generator(), plus_x_density(), 1.0, step=0.1, stride=stride)

    @pytest.mark.parametrize("stride", [3, np.int64(3), np.int32(3)])
    def test_numpy_integer_stride_is_a_stride(self, stride):
        traj = evolve(dephasing_generator(), plus_x_density(), 1.0, step=0.1, stride=stride)
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("step", [0.1, 1.0, math.nan])
    def test_step_and_tol_are_exclusive(self, step):
        # adaptive mode has no grid step, so a step beside tol would be
        # silently ignored; any step, even one equal to t_final, is refused
        with pytest.raises(ValueError, match="step and tol are exclusive"):
            evolve(dephasing_generator(), plus_x_density(), 1.0, step=step, tol=1e-10)


class TestZOnlyClosedForm:
    """Evolution under z-only damping against the exact solution.

    Fixed step: the default grid at n = 9, 16, 81, 169 and 289.  Adaptive:
    Krylov steps at n = 81, 169 and 289.

    Tolerances fixed before running: a fixed run commits an estimated error
    of at most GRID_TOL per unit time, relative to max(1, ||rho0||_F), so
    every entry is within GRID_TOL * T_FINAL * max(1, ||rho0||_F) + 1e-13
    (rounding); an adaptive run commits at most tol per accepted step.
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

    def _max_error(self, model, baths, j, tol, t_final=T_FINAL):
        gen = build_generator(model, j, j)
        rho0 = self._pure_state(gen.dim, seed=int(2 * j))
        traj = evolve(gen, rho0, t_final, tol=tol, stride=40)
        assert traj.times[-1] == t_final
        err = max(
            float(np.abs(state - z_damping_closed_form(rho0, baths, t)).max())
            for t, state in zip(traj.times, traj.states)
        )
        return err, float(np.linalg.norm(rho0)), traj.accepted

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
            ("common", 8),
        ],
    )
    def test_default_fixed_step(self, bath, j):
        model, baths = getattr(self, "_" + bath)(j)
        err, norm0, _ = self._max_error(model, baths, j, tol=None)
        assert err <= GRID_TOL * self.T_FINAL * max(1.0, norm0) + 1e-13

    @pytest.mark.parametrize(
        "bath,j",
        [("common", 4), ("independent", 4), ("common", 6), ("independent", 6), ("common", 8)],
    )
    def test_adaptive(self, bath, j):
        model, baths = getattr(self, "_" + bath)(j)
        err, _, accepted = self._max_error(model, baths, j, tol=1e-10)
        assert err <= accepted * 1e-10

    def test_adaptive_lanczos_at_j8(self, monkeypatch):
        # n = 289 to t = 2, past what KRYLOV_DIM vectors reach at tol 1e-10:
        # the generator is self-adjoint, so a basis continues by Lanczos and
        # costs more than KRYLOV_DIM right-hand sides.  Bound fixed before
        # running: tol t_final max(1, ||rho0||_F) + 1e-13 on every entry, as
        # each step commits at most tol per unit time in Frobenius norm
        calls = []
        rhs = _kernels.lindblad_rhs

        def counted(*a, **kw):
            calls.append(1)
            return rhs(*a, **kw)

        monkeypatch.setattr(_kernels, "lindblad_rhs", counted)
        model, baths = self._common(8)
        tol, t_final = 1e-10, 2.0
        err, norm0, accepted = self._max_error(model, baths, 8, tol=tol, t_final=t_final)
        assert len(calls) > _kernels.KRYLOV_DIM * accepted
        assert err <= tol * t_final * max(1.0, norm0) + 1e-13


class TestEvolveAdaptive:
    def test_matches_dephasing_closed_form(self):
        gen = dephasing_generator()
        traj = evolve(gen, plus_x_density(), 5.0, tol=1e-10)
        expect = dephasing_s_lin(traj.times)
        assert np.abs(traj.s_lin - expect).max() <= 1e-7
        assert traj.rejected >= 0

    def test_stationary_state_fast_path(self):
        # the basis closes, so every trial has zero error and the search
        # doubles its first trial up to t_final
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        gen = build_generator(model, 0.5, 0.5)
        psi = coupled_basis_state(0.5, 0.5, 0, 0)
        traj = evolve(gen, density_from_pure(psi), 10.0, tol=1e-12)
        assert (traj.accepted, traj.rejected) == (1, 0)
        overlap = np.vdot(psi, traj.states[-1] @ psi).real
        assert overlap >= 1.0 - 1e-12

    def test_rejections_counted_for_rough_start(self, monkeypatch):
        # the first trial is t_final: the Krylov basis of this state does
        # not close, and capped at KRYLOV_DIM vectors (no Lanczos
        # continuation) it does not reach t = 8 at tol 1e-12, so the step is
        # too long for the tolerance
        monkeypatch.setattr(_kernels, "LANCZOS_MAX", _kernels.KRYLOV_DIM)
        model = CommonBath(gamma=np.diag([1.0, 0.5, 0.25]), lam=1.4, axes=("x", "y", "z"))
        gen = build_generator(model, 1, 1)
        psi = np.kron(coherent_x(1), coherent_x(1))
        traj = evolve(gen, density_from_pure(psi), 8.0, tol=1e-12)
        assert traj.rejected >= 1
        assert traj.times[-1] == 8.0

    def test_finite_difference_entropy_rate(self):
        gen = dephasing_generator()
        delta = 1e-5
        traj = evolve(gen, plus_x_density(), delta, step=delta)
        fd = (traj.s_lin[-1] - traj.s_lin[0]) / delta
        rho = plus_x_density()
        rate = purity_loss_rate(rho, apply_generator(gen, rho))
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
                assert purity_loss_rate(rho, apply_generator(gen, rho)) >= -1e-12


class TestBuildGenerator:
    def test_dims_and_jump_count(self):
        model = IndependentBath(gamma1=np.eye(3), gamma2=np.eye(3), axes=("x", "y", "z"))
        gen = build_generator(model, 1, 0.5)
        assert gen.dims == (3, 2)
        assert gen.dim == 6
        assert len(gen.jump_ops) == 6

    def test_jump_dimension_checked(self):
        bad = FactoredOperator(angular_momentum_ops(1).z, None, (3,))
        with pytest.raises(ValueError):
            Generator([bad], (2,))

    def test_kernel_args_end_in_placeholder_slots(self):
        # the kernels' ham and has_ham slots are always None and False
        model = IndependentBath(gamma1=gamma_on("z", {("z", "z"): 1.0}), gamma2=None, axes=("z",))
        assert build_generator(model, 0.5).kernel_args[3:] == (None, False)

    @pytest.mark.parametrize("bath", ["common", "independent"])
    def test_no_n_by_n_array(self, bath):
        # j1 = j2 = 20, n = 1,681: one n x n complex matrix is 45 MB, and
        # dense (k, n, n) stacks of the jumps, their adjoints and K would take
        # about 316 MB.  Bound fixed before the first run: the build peaks
        # below 8 MB, so it holds no n x n array
        g = np.array([[1.0, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.25]])
        if bath == "common":
            model = CommonBath(gamma=g, lam=1.4, axes=("x", "y", "z"))
        else:
            model = IndependentBath(gamma1=g, gamma2=0.5 * g, axes=("x", "y", "z"))
        tracemalloc.start()
        try:
            gen = build_generator(model, 20, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.dim == 1681
        assert peak < 8 * 2**20


# a child whose soft address-space limit is 1,000,000 KiB, as a shell's
# ``ulimit -v 1000000`` sets it, keeps n = 81 (j1 = j2 = 4) on a grid of
# steps of 1e-3 to t_final (its argument): t_final / 1e-3 + 1 rows of
# 16 n^2 bytes, the t = 0 row among them
ADDRESS_SPACE_CHILD = """
import json, resource, sys
import numpy as np
from spinbath import _kernels, generator
from spinbath.generator import CommonBath, IntegrationAbortError, build_generator, evolve
resource.setrlimit(resource.RLIMIT_AS, (1_024_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))
limit, what = generator._memory_limit()
calls, rhs = [], _kernels.lindblad_rhs
_kernels.lindblad_rhs = lambda *a, **k: calls.append(1) or rhs(*a, **k)
gen = build_generator(CommonBath(gamma=np.diag([1.0, 0.5, 0.25]), lam=1.4, axes=("x", "y", "z")), 4, 4)
try:
    evolve(gen, np.eye(gen.dim) / gen.dim, float(sys.argv[1]), step=1e-3)
except IntegrationAbortError as exc:
    print(json.dumps({"limit": limit, "what": what, "message": str(exc), "t_last": exc.t_last,
                      "calls": len(calls)}))
"""


def _address_space_child(t_final: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", ADDRESS_SPACE_CHILD, str(t_final)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout, done.stderr
    got = json.loads(done.stdout)
    # the limit read at the child's start: the process maps more by the refusal
    refused = re.search(r"more than the (\S+) bytes of (.+); pass a consumer", got["message"])
    assert refused and refused[2] == got["what"], got["message"]
    assert float(refused[1]) <= got["limit"]
    assert (got["t_last"], got["calls"]) == (0.0, 0)
    return got


class TestMemoryLimit:
    def test_kept_grid_past_the_address_space_limit_is_refused(self):
        # 12,001 rows, 1.26 GB: refused before any right-hand side, with
        # t_last = 0, naming the limit it hit: the address-space limit,
        # unless a cgroup allows less.  Read from the physical memory alone,
        # the limit let numpy raise MemoryError on the rows instead.  About
        # 0.5 s
        got = _address_space_child(12.0)
        assert got["limit"] <= 1_024_000_000
        assert got["what"] == "what is left of the address-space limit (RLIMIT_AS)" or got["limit"] < 1_024_000_000

    def test_kept_grid_past_what_the_address_space_has_left_is_refused(self):
        # 9,001 rows, 0.945 GB, fit the whole limit but not what the
        # process has left of it once it maps numpy: compared with the whole
        # limit they passed, and numpy raised MemoryError on the rows.  About
        # 0.5 s
        assert 16 * 81**2 * 9_001 < 1_024_000_000
        got = _address_space_child(9.0)
        assert got["limit"] < 16 * 81**2 * 9_001
        assert "address-space limit (RLIMIT_AS)" in got["what"] or "cgroup" in got["what"]

    @pytest.mark.parametrize("v2,v1,want", [
        ("8192\n", "4096", (8192, 0)),
        ("max\n", "4096", None),
        ("unreadable", "4096", (4096, 1)),
        (None, "4096", (4096, 1)),
        (None, None, None),
    ])
    def test_cgroup_limit_is_read_from_v2_then_v1(self, monkeypatch, tmp_path, v2, v1, want):
        # the first file that holds "max" or a byte count is the cgroup's
        # limit, "max" none; the least of the limits wins
        paths = [tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"]
        for path, text in zip(paths, (v2, v1)):
            if text is not None:
                path.write_text(text, encoding="ascii")
        monkeypatch.setattr(generator, "CGROUP_MEMORY", tuple(map(str, paths)))
        limit, what = generator._memory_limit()
        if want is None:
            assert "cgroup" not in what
        else:
            assert (limit, what) == (want[0], f"the cgroup memory limit ({paths[want[1]]})")

    def test_kept_grid_past_the_cgroup_limit_is_refused(self, monkeypatch, tmp_path):
        # a cgroup limit of 1 MB against 1,002 kept rows of n = 9 (1.3 MB):
        # refused before any right-hand side, naming the cgroup's file
        path = tmp_path / "memory.max"
        path.write_text("1000000\n", encoding="ascii")
        monkeypatch.setattr(generator, "CGROUP_MEMORY", (str(path),))
        calls, rhs = [], _kernels.lindblad_rhs
        monkeypatch.setattr(_kernels, "lindblad_rhs", lambda *a, **k: calls.append(1) or rhs(*a, **k))
        gen = build_generator(CommonBath(gamma=np.eye(3), lam=1.4, axes=("x", "y", "z")), 1, 1)
        with pytest.raises(IntegrationAbortError, match=re.escape(f"of the cgroup memory limit ({path})")) as info:
            evolve(gen, np.eye(gen.dim) / gen.dim, 1.0, step=1e-3)
        assert info.value.t_last == 0.0 and calls == []

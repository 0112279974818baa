"""Entropy rates, variances and stationarity certification tests."""

import tracemalloc

import numpy as np
import pytest

from dense_views import dense, dense_generator
from spinbath import diagnostics
from spinbath.diagnostics import (
    certify_stationary,
    coupled_state_rate,
    entanglement_entropy,
    entropy_rate_analytic,
    entropy_rate_estimate,
    linear_entropy,
    pairing_residual,
    pure_fidelity,
    schmidt_number,
    variance_exact,
    variance_x_approx,
    von_neumann_entropy,
)
from spinbath.generator import (
    CommonBath,
    FactoredOperator,
    IndependentBath,
    apply_generator,
    build_generator,
    canonical_jumps,
    coupling_factors,
    rank_one_factors,
)
from spinbath.spin_algebra import angular_momentum_ops, composite_coupling_ops, coupled_basis_state
from spinbath.states import (
    EntangledStateSpec,
    coefficient_profile,
    coherent_x,
    density_from_pure,
    entangled_state,
    fock_state,
)
from oracles import dissipator_double_sum, purity_loss_rate
from test_generator import gamma_on


def uniform_spec(n_tilde, j1=None, j2=None):
    j1 = n_tilde if j1 is None else j1
    j2 = n_tilde if j2 is None else j2
    return EntangledStateSpec(j1, j2, coefficient_profile("uniform", n_tilde))


def total_jx(j):
    """J1x + J2x on two spin-j ensembles, factored."""
    jx = angular_momentum_ops(j).x
    return FactoredOperator(jx, jx, (jx.shape[0], jx.shape[0]))


def z_pair_model(g=1.0, gp=1.0):
    return IndependentBath(
        gamma1=gamma_on("z", {("z", "z"): g}),
        gamma2=gamma_on("z", {("z", "z"): gp}),
        axes=("z",),
    )


class TestScalarDiagnostics:
    def test_linear_entropy(self):
        assert linear_entropy(np.eye(2, dtype=complex) / 2.0) == pytest.approx(0.5, abs=1e-14)
        assert linear_entropy(np.eye(3, dtype=complex) / 3.0) == pytest.approx(2 / 3, abs=1e-14)
        rho = density_from_pure(coherent_x(1))
        assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-14)

    def test_pure_fidelity(self):
        psi = fock_state(0.5, 0.5)
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert pure_fidelity(psi, rho) == pytest.approx(0.7, abs=1e-14)

    def test_von_neumann_entropy(self):
        assert von_neumann_entropy(np.eye(4, dtype=complex) / 4.0) == pytest.approx(
            np.log(4), abs=1e-12
        )
        rho = density_from_pure(fock_state(1, 0))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_von_neumann_clips_rounding_negatives(self):
        rho = np.diag([1.0 + 1e-14, -1e-14]).astype(complex)
        assert np.isfinite(von_neumann_entropy(rho))


class TestEntropyRateNumeric:
    # the purity-loss rate -2 Re tr(rho L(rho)) of the generator's action
    def test_spin_half_dephasing(self):
        model = IndependentBath(gamma1=gamma_on("z", {("z", "z"): 1.0}), gamma2=None, axes=("z",))
        gen = build_generator(model, 0.5)
        rho = density_from_pure(coherent_x(0.5))
        assert purity_loss_rate(rho, apply_generator(gen, rho)) == pytest.approx(0.5, abs=1e-14)

    def test_stationary_state_zero(self):
        model = z_pair_model()
        gen = build_generator(model, 0.5, 0.5)
        rho = density_from_pure(np.kron(fock_state(0.5, 0.5), fock_state(0.5, -0.5)))
        assert abs(purity_loss_rate(rho, apply_generator(gen, rho))) <= 1e-14

    def test_maximally_mixed_fixed_point_of_unital_map(self):
        gen = build_generator(z_pair_model(), 0.5, 0.5)
        mixed = np.eye(4, dtype=complex) / 4.0
        assert abs(purity_loss_rate(mixed, apply_generator(gen, mixed))) <= 1e-14


class TestEntropyRateAnalytic:
    def test_uniform_pair_exact_value(self):
        spec = uniform_spec(1)
        report = entropy_rate_analytic(entangled_state(spec), z_pair_model(), 1, 1)
        assert report.analytic_rate == pytest.approx(8 / 3, rel=1e-13)
        assert report.numeric_rate == pytest.approx(report.analytic_rate, rel=1e-12)

    def test_uniform_unequal_ensembles_same_rate(self):
        spec = uniform_spec(1, j1=1, j2=2)
        report = entropy_rate_analytic(entangled_state(spec), z_pair_model(), 1, 2)
        assert report.analytic_rate == pytest.approx(8 / 3, rel=1e-13)

    def test_exact_vs_estimate_scaling(self):
        for nt in (1, 2, 3, 5):
            spec = uniform_spec(nt)
            model = z_pair_model()
            report = entropy_rate_analytic(entangled_state(spec), model, nt, nt)
            exact = 4.0 * nt * (nt + 1) / 3.0
            assert report.analytic_rate == pytest.approx(exact, rel=1e-12)

    def test_common_bath_balance_suppression(self):
        g = gamma_on("z", {("z", "z"): 1.0})
        psi = entangled_state(uniform_spec(1))
        balanced = entropy_rate_analytic(psi, CommonBath(gamma=g, lam=1.0, axes=("z",)), 1, 1)
        assert abs(balanced.analytic_rate) <= 1e-14
        tilted = entropy_rate_analytic(psi, CommonBath(gamma=g, lam=1.5, axes=("z",)), 1, 1)
        assert tilted.analytic_rate == pytest.approx(1 / 3, rel=1e-12)

    def test_contributions_sum_to_total(self):
        rng = np.random.default_rng(13)
        g = np.zeros((3, 3))
        sub = rng.normal(size=(2, 2))
        g[np.ix_([0, 2], [0, 2])] = sub @ sub.T
        model = IndependentBath(gamma1=g, gamma2=g, axes=("x", "z"))
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs = coefficient_profile("custom", 1.5, coeffs=raw, auto_normalize=True)
        spec = EntangledStateSpec(1.5, 1.5, coeffs)
        report = entropy_rate_analytic(entangled_state(spec), model, 1.5, 1.5)
        assert set(report.per_axis_contributions) <= {"xx", "xz", "zz"}
        assert sum(report.per_axis_contributions.values()) == pytest.approx(
            report.analytic_rate, rel=1e-12
        )
        assert report.numeric_rate == pytest.approx(report.analytic_rate, rel=1e-10)

    def test_numeric_matches_analytic_at_large_spin(self):
        rng = np.random.default_rng(5)
        g = np.zeros((3, 3))
        sub = rng.normal(size=(3, 3))
        g[:] = sub @ sub.T
        models = [
            CommonBath(gamma=g, lam=1.4, axes=("x", "y", "z")),
            IndependentBath(gamma1=g, gamma2=np.diag([0.5, 0.0, 1.0]), axes=("x", "y", "z")),
        ]
        for j in (8, 12):
            dim = (2 * j + 1) ** 2
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi = raw / np.linalg.norm(raw)
            for model in models:
                report = entropy_rate_analytic(psi, model, j, j)
                assert report.numeric_rate == pytest.approx(report.analytic_rate, rel=1e-10)

    def test_total_spin_coupled_level_value(self):
        psi = coupled_basis_state(1, 1, 1, 0)
        g = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0})
        model = CommonBath(gamma=g, lam=1.0, axes=("x", "z"))
        total = entropy_rate_analytic(psi, model, 1, 1, normalization="total_spin")
        assert total.analytic_rate == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda s: f"psi{s}")
    @pytest.mark.parametrize(
        "j1,j2", [(1, 1), (0.5, 1.5), (1.5, 2.5), (1, 2)], ids=["j1,1", "j1/2,3/2", "j3/2,5/2", "j1,2"]
    )
    @pytest.mark.parametrize("lam", [0.7, 1.0, 1.6], ids=lambda v: f"lam{v}")
    def test_total_spin_normalization_quadruples_common_rate(self, lam, j1, j2, seed):
        # the factor is a power of two, so it must hold bit for bit
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(3, 3))
        g = b @ b.T
        dim = int((2 * j1 + 1) * (2 * j2 + 1))
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = raw / np.linalg.norm(raw)
        common = CommonBath(gamma=g, lam=lam, axes=("x", "y", "z"))
        independent = IndependentBath(gamma1=g, gamma2=np.diag([0.5, 0.0, 1.0]), axes=("x", "y", "z"))
        for model, factor in ((common, 4.0), (independent, 1.0)):
            comp = entropy_rate_analytic(psi, model, j1, j2, normalization="composite")
            total = entropy_rate_analytic(psi, model, j1, j2, normalization="total_spin")
            assert total.numeric_rate == factor * comp.numeric_rate
            assert total.analytic_rate == factor * comp.analytic_rate
            assert total.per_axis_contributions.keys() == comp.per_axis_contributions.keys()
            for pair, term in comp.per_axis_contributions.items():
                assert total.per_axis_contributions[pair] == factor * term
        # independently: -2 tr(rho D(rho)) with the literal double sum over the
        # doubled composite operators lam J1a + (2 - lam) J2a
        ops = [2.0 * op for op in composite_coupling_ops(j1, j2, lam)]
        rho = np.outer(psi, psi.conj())
        direct = -2.0 * np.real(np.vdot(rho, dissipator_double_sum(g, ops, rho)))
        total = entropy_rate_analytic(psi, common, j1, j2, normalization="total_spin")
        assert total.analytic_rate == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_normalization_ignored_for_independent(self):
        psi = entangled_state(uniform_spec(1))
        a = entropy_rate_analytic(psi, z_pair_model(), 1, 1, normalization="composite")
        b = entropy_rate_analytic(psi, z_pair_model(), 1, 1, normalization="total_spin")
        assert a.analytic_rate == b.analytic_rate

    def test_input_validation(self):
        with pytest.raises(ValueError, match="normaliz"):
            entropy_rate_analytic(
                entangled_state(uniform_spec(1)), z_pair_model(), 1, 1, normalization="bare"
            )
        with pytest.raises(ValueError):
            entropy_rate_analytic(np.ones(9), z_pair_model(), 1, 1)
        with pytest.raises(ValueError):
            entropy_rate_analytic(coherent_x(1), z_pair_model(), 1, 1)


class TestLargeSpinRate:
    """j1 = j2 = 50, n = 10,201: one dense n x n complex matrix would be 1.66 GB."""

    J = 50

    def _rate(self, model):
        tracemalloc.start()
        try:
            psi = entangled_state(uniform_spec(self.J))
            report = entropy_rate_analytic(psi, model, self.J, self.J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        return report

    def test_z_only_common_bath_closed_form(self):
        # L_z |m, -m> = (lam - 1) m |m, -m>, and the uniform profile has
        # <m^2> = j(j + 1) / 3, so the rate is 2 g_zz (lam - 1)^2 j(j + 1) / 3
        g_zz, lam = 0.75, 1.4
        model = CommonBath(gamma=gamma_on("z", {("z", "z"): g_zz}), lam=lam, axes=("z",))
        report = self._rate(model)
        exact = 2.0 * g_zz * (lam - 1.0) ** 2 * self.J * (self.J + 1.0) / 3.0
        assert report.analytic_rate == pytest.approx(exact, rel=1e-12)
        assert report.numeric_rate == pytest.approx(exact, rel=1e-12)

    def test_correlated_common_bath_numeric_matches_analytic(self):
        g = gamma_on(
            ("x", "y", "z"),
            {("x", "x"): 1.0, ("y", "y"): 0.5, ("z", "z"): 0.25, ("x", "z"): 0.3},
        )
        report = self._rate(CommonBath(gamma=g, lam=1.4, axes=("x", "y", "z")))
        assert report.mismatch <= 1e-10


class TestEntropyRateEstimate:
    def test_independent_value(self):
        assert entropy_rate_estimate(3, z_pair_model()) == pytest.approx(12.0, abs=1e-12)

    def test_common_value(self):
        g = gamma_on("z", {("z", "z"): 1.0})
        model = CommonBath(gamma=g, lam=1.5, axes=("z",))
        assert entropy_rate_estimate(2, model) == pytest.approx(2 / 3, rel=1e-13)
        balanced = CommonBath(gamma=g, lam=1.0, axes=("z",))
        assert entropy_rate_estimate(2, balanced) == 0.0

    def test_small_n_tilde_rejected(self):
        with pytest.raises(ValueError):
            entropy_rate_estimate(0.5, z_pair_model())


class TestEntanglementMeasures:
    def test_uniform_profile_entropy(self):
        psi = entangled_state(uniform_spec(1))
        assert entanglement_entropy(psi, (3, 3)) == pytest.approx(np.log(3), abs=1e-12)

    def test_singlet_entropy(self):
        psi = coupled_basis_state(0.5, 0.5, 0, 0)
        assert entanglement_entropy(psi, (2, 2)) == pytest.approx(np.log(2), abs=1e-12)

    def test_product_state_zero(self):
        psi = np.kron(coherent_x(0.5), coherent_x(1))
        assert entanglement_entropy(psi, (2, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_coefficient_weights(self):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs = coefficient_profile("custom", 2, coeffs=raw, auto_normalize=True)
        spec = EntangledStateSpec(2, 2, coeffs)
        probs = np.abs(spec.coeffs) ** 2
        expect = float(-np.sum(probs * np.log(probs)))
        assert entanglement_entropy(entangled_state(spec), (5, 5)) == pytest.approx(
            expect, rel=1e-12
        )

    def test_schmidt_number(self):
        assert schmidt_number(entangled_state(uniform_spec(1)), (3, 3)) == 3
        assert schmidt_number(entangled_state(uniform_spec(1, j1=1, j2=2)), (3, 5)) == 3
        assert schmidt_number(np.kron(coherent_x(0.5), coherent_x(0.5)), (2, 2)) == 1

    def test_schmidt_threshold(self, monkeypatch):
        eps = 1e-12
        raw = np.array([np.sqrt(1.0 - 2.0 * eps**2), eps, eps])
        coeffs = coefficient_profile("custom", 1, coeffs=raw, auto_normalize=True)
        spec = EntangledStateSpec(1, 1, coeffs)
        psi = entangled_state(spec)
        assert schmidt_number(psi, (3, 3)) == 1
        monkeypatch.setattr(diagnostics, "SCHMIDT_TOL", 1e-13)
        assert schmidt_number(psi, (3, 3)) == 3


class TestVariance:
    def test_jz_on_plus_x(self):
        op = FactoredOperator(angular_momentum_ops(0.5).z, None, (2,))
        assert variance_exact(op, coherent_x(0.5)) == pytest.approx(0.25, abs=1e-14)

    def test_total_jx_on_triplet_zero(self):
        psi = coupled_basis_state(0.5, 0.5, 1, 0)
        assert variance_exact(total_jx(0.5), psi) == pytest.approx(1.0, abs=1e-13)

    def test_factored_total_jx_matches_dense(self):
        # against <M^2> - <M>^2 with M = kron(Jx, I) + kron(I, Jx) dense
        rng = np.random.default_rng(23)
        factored = total_jx(1.5)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi = raw / np.linalg.norm(raw)
        mpsi = dense(factored) @ psi
        want = float(np.vdot(mpsi, mpsi).real) - float(np.vdot(psi, mpsi).real) ** 2
        assert variance_exact(factored, psi) == pytest.approx(want, rel=1e-13)
        with pytest.raises(ValueError, match="pure state"):
            variance_exact(factored, density_from_pure(psi))


class TestVarianceXApprox:
    def test_uniform_value(self):
        assert variance_x_approx(uniform_spec(1)) == pytest.approx(2.0, abs=1e-13)

    def test_sign_alternation_cancels_exactly(self):
        for j in (1, 1.5, 2, 4):
            spec = EntangledStateSpec(j, j, coefficient_profile("alternating_uniform", j))
            assert variance_x_approx(spec) == 0.0
            assert pairing_residual(spec.coeffs) == 0.0

    def test_gaussian_tracks_exact_variance(self):
        spec = EntangledStateSpec(4, 4, coefficient_profile("gaussian", 4, width=2.0))
        approx = variance_x_approx(spec)
        exact = variance_exact(total_jx(4), entangled_state(spec))
        assert abs(approx - exact) <= 0.15 * exact

    def test_needs_equal_spins(self):
        with pytest.raises(ValueError):
            variance_x_approx(uniform_spec(1, j1=1, j2=2))


class TestPairingResidual:
    def test_uniform_value(self):
        assert pairing_residual(coefficient_profile("uniform", 1)) == pytest.approx(
            2 / 3, rel=1e-13
        )

    def test_single_interior_spike(self):
        assert pairing_residual(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)

    def test_short_vectors_trivial(self):
        assert pairing_residual(np.array([1.0])) == 0.0

    def test_complex_phase_handled(self):
        c = coefficient_profile("uniform", 1).astype(complex) * np.exp(0.7j)
        assert pairing_residual(c) == pytest.approx(2 / 3, rel=1e-13)


class TestCoupledStateRate:
    def test_two_axis_value(self):
        g = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0})
        assert coupled_state_rate(1, g, ("x", "z")) == pytest.approx(0.2, rel=1e-13)
        assert coupled_state_rate(1, g, ("x", "z"), normalization="composite") == pytest.approx(
            0.05, rel=1e-13
        )

    def test_three_axis_value(self):
        g = np.diag([0.1, 0.25, 1.0])
        assert coupled_state_rate(2, g, ("x", "y", "z")) == pytest.approx(0.35 * 6.0, rel=1e-13)

    def test_singlet_level_is_free(self):
        g = np.diag([0.1, 0.25, 1.0])
        assert coupled_state_rate(0, g, ("x", "y", "z")) == 0.0

    def test_pure_z_damping_is_free_at_m_zero(self):
        g = gamma_on("z", {("z", "z"): 1.0})
        assert coupled_state_rate(3, g, ("z",)) == 0.0

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            coupled_state_rate(1, np.eye(3), ("x", "y", "z"), normalization="raw")

    def test_matches_covariance_rate_for_all_levels(self):
        g = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0})
        model = CommonBath(gamma=g, lam=1.0, axes=("x", "z"))
        j = 1.5
        for ell in (0, 1, 2, 3):
            psi = coupled_basis_state(j, j, ell, 0)
            report = entropy_rate_analytic(psi, model, j, j, normalization="total_spin")
            closed = coupled_state_rate(ell, g, ("x", "z"))
            assert report.analytic_rate == pytest.approx(closed, abs=1e-12)


class TestCertifyStationary:
    def test_fock_basis_states_pass_individually(self):
        states = [
            np.kron(fock_state(0.5, m1), fock_state(0.5, m2))
            for m1 in (0.5, -0.5)
            for m2 in (0.5, -0.5)
        ]
        report = certify_stationary(states, z_pair_model(), 0.5, 0.5)
        assert report.certified
        assert all(report.state_ok)
        assert max(report.residuals) <= 1e-13
        assert max(abs(r) for r in report.purity_rates) <= 1e-13
        assert report.pair_residuals == {}

    def test_fock_basis_fails_as_subspace(self):
        # coherences between distinct |m1, m2> decay, so the span is not free
        states = [
            np.kron(fock_state(0.5, m1), fock_state(0.5, m2))
            for m1 in (0.5, -0.5)
            for m2 in (0.5, -0.5)
        ]
        report = certify_stationary(states, z_pair_model(), 0.5, 0.5, subspace=True)
        assert all(report.state_ok)
        assert not report.certified
        assert len(report.pair_residuals) == 6
        assert max(report.pair_residuals.values()) > 1e-6

    def test_pair_verdict_uses_residual_tol(self, monkeypatch):
        # cross projectors flipping one spin have residual 1/2, both spins 1
        states = [
            np.kron(fock_state(0.5, m1), fock_state(0.5, m2))
            for m1 in (0.5, -0.5)
            for m2 in (0.5, -0.5)
        ]
        monkeypatch.setattr(diagnostics, "STATIONARY_RESIDUAL_TOL", 0.75)
        report = certify_stationary(states, z_pair_model(), 0.5, 0.5, subspace=True)
        assert all(report.state_ok)
        assert report.pair_ok == {pair: res <= 0.75 for pair, res in report.pair_residuals.items()}
        assert sorted(report.pair_residuals.values()) == pytest.approx([0.5] * 4 + [1.0] * 2, rel=1e-14)
        assert not report.certified

    def test_singlet_certified_under_balanced_common_bath(self):
        model = CommonBath(gamma=np.eye(3), lam=1.0, axes=("x", "y", "z"))
        report = certify_stationary([coupled_basis_state(1, 1, 0, 0)], model, 1, 1)
        assert report.certified

    def test_decaying_state_flagged(self):
        model = IndependentBath(gamma1=gamma_on("z", {("z", "z"): 1.0}), gamma2=None, axes=("z",))
        report = certify_stationary([coherent_x(0.5)], model, 0.5)
        assert not report.certified
        assert report.purity_rates[0] == pytest.approx(0.5, abs=1e-12)

    def test_wide_factors_match_assembled_norms(self):
        # a spin-1/2 with three jumps: U and V are 2 x 5, so R is 2 x 5 too.
        # U V^dag from the factored jumps is checked against the dense
        # generator to 1e-12 max(1, ||L(psi_i psi_j^dag)||)
        g = gamma_on(("x", "y", "z"), {("x", "x"): 1.0, ("y", "y"): 0.5, ("z", "z"): 0.25, ("x", "z"): 0.3})
        model = IndependentBath(gamma1=g, gamma2=None, axes=("x", "y", "z"))
        gen = build_generator(model, 0.5)
        jumps = [op for gamma, ops in coupling_factors(model, 0.5) for op in canonical_jumps(gamma, ops)]
        assert len(dense_generator(gen).jumps) == len(jumps) == 3
        states = [fock_state(0.5, 0.5), coherent_x(0.5), np.array([0.6, 0.8j])]
        report = certify_stationary(states, model, 0.5, subspace=True)
        got = {(i, i): res for i, res in enumerate(report.residuals)} | report.pair_residuals
        assert len(got) == 6
        for (i, j), res in got.items():
            u, v = rank_one_factors(jumps, states[i])[0], rank_one_factors(jumps, states[j])[1]
            assert u.shape == (2, 5)
            assembled = u @ v.conj().T
            want = apply_generator(gen, np.outer(states[i], states[j].conj()))
            assert np.abs(assembled - want).max() <= 1e-12 * max(1.0, float(np.linalg.norm(want)))
            want = np.linalg.norm(assembled)
            assert abs(res - want) <= 1e-13 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))
        assert not report.certified

    def test_large_singlet_builds_no_dense_matrix(self):
        # j1 = j2 = 50, n = 10,201: one dense n x n complex matrix is 1.66 GB
        j = 50
        g = gamma_on(("x", "y", "z"), {("x", "x"): 1.0, ("y", "y"): 0.5, ("z", "z"): 0.25, ("x", "z"): 0.3})
        model = CommonBath(gamma=g, lam=1.0, axes=("x", "y", "z"))
        tracemalloc.start()
        try:
            psi = entangled_state(EntangledStateSpec(j, j, coefficient_profile("singlet", j)))
            report = certify_stationary([psi], model, j, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert report.certified

    def test_empty_candidate_list_not_certified(self):
        assert not certify_stationary([], z_pair_model(), 0.5, 0.5).certified

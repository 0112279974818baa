"""State constructors, coefficient profiles and reduced-state tests."""

import numpy as np
import pytest

from spinbath.spin_algebra import SpinQuantum, angular_momentum_ops, coupled_basis_state
from spinbath.states import (
    EntangledStateSpec,
    coefficient_profile,
    coherent_x,
    density_from_pure,
    entangled_state,
    fock_state,
    partial_trace,
)


class TestFockState:
    def test_index_convention(self):
        vec = fock_state(1, 0)
        np.testing.assert_array_equal(vec, [0, 1, 0])
        np.testing.assert_array_equal(fock_state(1.5, 1.5), [1, 0, 0, 0])
        np.testing.assert_array_equal(fock_state(1.5, -1.5), [0, 0, 0, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fock_state(0.5, 1.5)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fock_state(1, 0.5)
        with pytest.raises(ValueError):
            fock_state(1, 0.3)


class TestCoherentX:
    def test_spin_half(self):
        np.testing.assert_allclose(coherent_x(0.5), np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_top_jx_eigenvector(self):
        for j in (1, 2.5, 4):
            vec = coherent_x(j)
            jx = angular_momentum_ops(j).x
            assert np.linalg.norm(jx @ vec - j * vec) <= 1e-12
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    @pytest.mark.parametrize("j", [520, 600])
    def test_past_the_float_range_of_the_binomial(self, j):
        # C(2j, j) is above 1.8e308 from j = 515.  Bounds fixed before
        # running: the norm within 1e-12 of 1, and ||Jx v - j v|| within
        # 1e-12 j, about 1e3 times the rounding of a row of Jx v
        vec = coherent_x(j)
        assert vec.shape == (2 * j + 1,)
        assert np.all(vec.real >= 0.0) and not vec.imag.any()
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        jx = angular_momentum_ops(j).x
        assert np.linalg.norm(jx @ vec - j * vec) <= 1e-12 * j


class TestCoefficientProfile:
    def test_uniform(self):
        c = coefficient_profile("uniform", 1)
        np.testing.assert_allclose(c, np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_alternating_signs(self):
        c = coefficient_profile("alternating_uniform", 1.5)
        np.testing.assert_allclose(c, np.array([1, -1, 1, -1]) / 2.0, atol=1e-15)
        assert c[0].real > 0

    def test_singlet_same_vector(self):
        np.testing.assert_array_equal(
            coefficient_profile("singlet", 2), coefficient_profile("alternating_uniform", 2)
        )

    def test_alternating_needs_pairs(self):
        with pytest.raises(ValueError):
            coefficient_profile("alternating_uniform", 0)

    def test_gaussian(self):
        width = 1.5
        c = coefficient_profile("gaussian", 2, width=width)
        m = np.array([2.0, 1.0, 0.0, -1.0, -2.0])
        raw = np.exp(-(m**2) / (2 * width**2))
        np.testing.assert_allclose(c, raw / np.linalg.norm(raw), atol=1e-14)

    def test_gaussian_needs_width(self):
        with pytest.raises(ValueError):
            coefficient_profile("gaussian", 2)
        with pytest.raises(ValueError):
            coefficient_profile("gaussian", 2, width=0.0)

    def test_custom_passthrough(self):
        raw = np.array([0.6, 0.0, 0.8j])
        c = coefficient_profile("custom", 1, coeffs=raw)
        np.testing.assert_array_equal(c, raw.astype(complex))

    def test_custom_norm_enforced(self):
        with pytest.raises(ValueError):
            coefficient_profile("custom", 1, coeffs=[1.0, 1.0, 0.0])
        c = coefficient_profile("custom", 1, coeffs=[1.0, 1.0, 0.0], auto_normalize=True)
        np.testing.assert_allclose(c, [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["squares-overflow", "squares-underflow"])
    def test_auto_normalize_past_the_range_of_the_squares(self, scale):
        # 3 scale^2 overflows or underflows, so dividing by the plain norm
        # gave a zero vector or refused a nonzero one
        c = coefficient_profile("custom", 1, coeffs=[scale] * 3, auto_normalize=True)
        np.testing.assert_array_equal(c, coefficient_profile("uniform", 1))

    def test_custom_length_checked(self):
        with pytest.raises(ValueError):
            coefficient_profile("custom", 1, coeffs=[1.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            coefficient_profile("thermal", 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            coefficient_profile("custom", 0.5, coeffs=[0.0, 0.0], auto_normalize=True)


class TestEntangledStateSpec:
    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EntangledStateSpec(1, 1.5, [1.0, 0.0, 0.0])

    def test_length_checked(self):
        with pytest.raises(ValueError):
            EntangledStateSpec(1, 2, [1.0, 0.0])

    def test_norm_checked_with_hint(self):
        with pytest.raises(ValueError, match=r'coefficient_profile\("custom", \.\.\., auto_normalize=True\)'):
            EntangledStateSpec(0.5, 0.5, [1.0, 1.0])

    def test_auto_normalized_custom_profile(self):
        coeffs = coefficient_profile("custom", 0.5, coeffs=[1.0, 1.0], auto_normalize=True)
        spec = EntangledStateSpec(0.5, 0.5, coeffs)
        np.testing.assert_allclose(spec.coeffs, np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_n_tilde_is_smaller_spin(self):
        spec = EntangledStateSpec(1, 3, coefficient_profile("uniform", 1))
        assert spec.n_tilde == SpinQuantum.of(1)
        np.testing.assert_array_equal(spec.m_values(), [1.0, 0.0, -1.0])


class TestEntangledState:
    def test_uniform_pair_amplitudes(self):
        spec = EntangledStateSpec(1, 1, coefficient_profile("uniform", 1))
        vec = entangled_state(spec)
        r = 1 / np.sqrt(3)
        # |1,-1>, |0,0>, |-1,1> at lexicographic indices 2, 4, 6
        expect = np.zeros(9, dtype=complex)
        expect[2] = expect[4] = expect[6] = r
        np.testing.assert_allclose(vec, expect, atol=1e-15)

    def test_unequal_spins_three_nonzeros(self):
        spec = EntangledStateSpec(1, 2, coefficient_profile("uniform", 1))
        vec = entangled_state(spec)
        assert vec.shape == (15,)
        nz = np.nonzero(vec)[0]
        # m = 1, 0, -1 with partner -m at j2 = 2: indices 3, 7, 11
        np.testing.assert_array_equal(nz, [3, 7, 11])

    def test_amplitude_matches_coefficient(self):
        rng = np.random.default_rng(23)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        coeffs = coefficient_profile("custom", 1.5, coeffs=raw, auto_normalize=True)
        spec = EntangledStateSpec(1.5, 1.5, coeffs)
        vec = entangled_state(spec)
        s = spec.j1
        for i, m in enumerate(spec.m_values()):
            i1 = s.index_of(int(round(2 * m)))
            i2 = s.index_of(-int(round(2 * m)))
            assert vec[i1 * s.dim + i2] == spec.coeffs[i]

    def test_singlet_profile_matches_coupled_zero_state(self):
        for j in (0.5, 1, 1.5):
            spec = EntangledStateSpec(j, j, coefficient_profile("singlet", j))
            vec = entangled_state(spec)
            ref = coupled_basis_state(j, j, 0, 0)
            assert abs(abs(np.vdot(ref, vec)) - 1.0) <= 1e-12


class TestDensityFromPure:
    def test_rank_one_projector(self):
        psi = coherent_x(1)
        rho = density_from_pure(psi)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        np.testing.assert_allclose(rho @ psi, psi, atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            density_from_pure(np.array([1.0, 1.0]))
        # NaN fails every comparison, so a bound tested with ">" passed it
        with pytest.raises(ValueError, match="not normalized"):
            density_from_pure(np.array([np.nan, 0.0]))

    def test_refuses_what_a_custom_profile_refuses(self):
        # sum |c|^2 - 1 = 1.5e-12 is past the 1e-12 bound on tr rho, while
        # ||c|| - 1 = 7.5e-13 is inside it: one rule, on the squared norm
        c = coefficient_profile("uniform", 1) * np.sqrt(1.0 + 1.5e-12)
        assert 1.4e-12 < float(np.sum(np.abs(c) ** 2)) - 1.0 < 1.6e-12
        with pytest.raises(ValueError, match="not normalized"):
            coefficient_profile("custom", 1, coeffs=c)
        with pytest.raises(ValueError, match="not normalized"):
            density_from_pure(c)


class TestPartialTrace:
    def test_singlet_marginals_maximally_mixed(self):
        psi = coupled_basis_state(0.5, 0.5, 0, 0)
        rho = density_from_pure(psi)
        for keep in (0, 1):
            red = partial_trace(rho, (2, 2), keep)
            np.testing.assert_allclose(red, np.eye(2) / 2.0, atol=1e-14)

    def test_uniform_marginal(self):
        spec = EntangledStateSpec(1, 1, coefficient_profile("uniform", 1))
        rho = density_from_pure(entangled_state(spec))
        np.testing.assert_allclose(partial_trace(rho, (3, 3), 0), np.eye(3) / 3.0, atol=1e-14)

    def test_product_state_marginal_pure(self):
        psi = np.kron(coherent_x(0.5), fock_state(1, 0))
        rho = density_from_pure(psi)
        red = partial_trace(rho, (2, 3), 0)
        assert abs(np.trace(red @ red).real - 1.0) <= 1e-12

    def test_marginal_spectra_match_coefficient_weights(self):
        # both marginals of sum c_m |m,-m> carry eigenvalues |c_m|^2
        rng = np.random.default_rng(5)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs = coefficient_profile("custom", 2, coeffs=raw, auto_normalize=True)
        spec = EntangledStateSpec(2, 2, coeffs)
        rho = density_from_pure(entangled_state(spec))
        weights = np.sort(np.abs(spec.coeffs) ** 2)
        for keep in (0, 1):
            vals = np.sort(np.linalg.eigvalsh(partial_trace(rho, (5, 5), keep)))
            np.testing.assert_allclose(vals, weights, atol=1e-12)

    def test_purity_of_marginal(self):
        raw = np.array([0.6, 0.0, 0.8])
        spec = EntangledStateSpec(1, 1, raw)
        red = partial_trace(density_from_pure(entangled_state(spec)), (3, 3), 1)
        purity = np.trace(red @ red).real
        assert purity == pytest.approx(np.sum(np.abs(raw) ** 4), abs=1e-13)

    def test_needs_two_factors(self):
        with pytest.raises(ValueError, match="two factors"):
            partial_trace(np.eye(8) / 8.0, (2, 2, 2), 0)
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4) / 4.0, (2, 2), 2)

    def test_dims_must_match_shape(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(4) / 4.0, (2, 3), 0)
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.full(36, 1 / 6.0), (2, 3), 0)

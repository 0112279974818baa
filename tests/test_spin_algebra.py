"""Operator construction and angular-momentum coupling tests."""

import numpy as np
import pytest

from oracles import ladder_coupled_table
from spinbath.spin_algebra import (
    CoupledLevel,
    SpinQuantum,
    angular_momentum_ops,
    clebsch_gordan,
    composite_coupling_ops,
    coupled_basis_state,
    embed,
)


def comm(a, b):
    return a @ b - b @ a


class TestSpinQuantum:
    def test_half_integers_accepted(self):
        for j in (0, 0.5, 1, 1.5, 2, 7.5, 15):
            q = SpinQuantum.of(j)
            assert q.j == j
            assert q.dim == int(2 * j) + 1

    def test_non_half_integer_rejected(self):
        # 2 x 1e308 overflows to inf, which no integer holds, and an int past
        # the float range has no float to double; doubling is exact, so a
        # value 1e-10 off a half-integer is refused too
        for bad in (0.3, -0.5, 1.25, np.nan, 1e308, -1e308, np.inf, 10**400, 1.0000000001, 0.5 + 2**-40):
            with pytest.raises(ValueError):
                SpinQuantum.of(bad)

    def test_m_values_descend_from_j(self):
        q = SpinQuantum.of(1.5)
        np.testing.assert_array_equal(q.m_values(), [1.5, 0.5, -0.5, -1.5])

    def test_index_of(self):
        q = SpinQuantum.of(2)
        assert q.index_of(4) == 0
        assert q.index_of(-4) == 4
        with pytest.raises(ValueError):
            q.index_of(5)


class TestAngularMomentumOps:
    def test_commutation_relations_up_to_j_15(self):
        # [Jx,Jy]=iJz and cyclic, residual below 1e-12 for every j <= 15
        worst = 0.0
        for two_j in range(1, 31):
            ops = angular_momentum_ops(two_j / 2.0)
            x, y, z = ops.x, ops.y, ops.z
            worst = max(
                worst,
                np.abs(comm(x, y) - 1j * z).max(),
                np.abs(comm(y, z) - 1j * x).max(),
                np.abs(comm(z, x) - 1j * y).max(),
            )
        assert worst <= 1e-12

    def test_casimir_matches_sum_of_squares(self):
        for j in (0.5, 1, 2.5, 6):
            ops = angular_momentum_ops(j)
            total = ops.x @ ops.x + ops.y @ ops.y + ops.z @ ops.z
            expect = j * (j + 1) * np.eye(ops.z.shape[0])
            assert np.abs(total - expect).max() <= 1e-12

    def test_jz_diagonal_descending(self):
        ops = angular_momentum_ops(1)
        np.testing.assert_allclose(np.diag(ops.z).real, [1.0, 0.0, -1.0])
        assert np.abs(ops.z - np.diag(np.diag(ops.z))).max() == 0.0

    def test_spin_half_matrices(self):
        ops = angular_momentum_ops(0.5)
        np.testing.assert_allclose(ops.x, [[0, 0.5], [0.5, 0]], atol=1e-15)
        np.testing.assert_allclose(ops.y, [[0, -0.5j], [0.5j, 0]], atol=1e-15)

    def test_hermitian(self):
        rng = np.random.default_rng(7)
        for j in rng.choice([0.5, 1.5, 3, 5.5, 9], size=3, replace=False):
            ops = angular_momentum_ops(float(j))
            for op in (ops.x, ops.y, ops.z):
                assert np.abs(op - op.conj().T).max() <= 1e-14

    def test_bad_j_rejected(self):
        with pytest.raises(ValueError):
            angular_momentum_ops(0.4)
        with pytest.raises(ValueError):
            angular_momentum_ops(-1)


class TestEmbed:
    def test_acts_on_named_slot_only(self):
        a = angular_momentum_ops(0.5).z
        b = angular_momentum_ops(1).z
        za = embed(a, 0, (2, 3))
        zb = embed(b, 1, (2, 3))
        np.testing.assert_allclose(za, np.kron(a, np.eye(3)))
        np.testing.assert_allclose(zb, np.kron(np.eye(2), b))
        assert za.dtype == zb.dtype == np.complex128
        assert np.abs(comm(za, zb)).max() == 0.0

    def test_spectrum_multiplicity(self):
        op = angular_momentum_ops(1).z
        emb = embed(op, 0, (3, 4))
        vals = np.sort(np.linalg.eigvalsh(emb))
        expect = np.sort(np.repeat([-1.0, 0.0, 1.0], 4))
        np.testing.assert_allclose(vals, expect, atol=1e-12)

    def test_slot_and_dim_errors(self):
        op = angular_momentum_ops(0.5).x
        with pytest.raises(ValueError):
            embed(op, 2, (2, 2))
        with pytest.raises(ValueError):
            embed(op, 0, (3, 2))


class TestCompositeCouplingOps:
    def test_lambda_endpoints_reduce_to_single_ensemble(self):
        # lam=2 leaves exactly J1, lam=0 exactly J2, bit-for-bit
        for j1, j2 in ((0.5, 0.5), (1, 1.5)):
            ops1 = angular_momentum_ops(j1)
            ops2 = angular_momentum_ops(j2)
            dims = (ops1.z.shape[0], ops2.z.shape[0])
            hi = composite_coupling_ops(j1, j2, 2.0)
            lo = composite_coupling_ops(j1, j2, 0.0)
            for axis, single1, single2 in (("x", ops1.x, ops2.x), ("y", ops1.y, ops2.y), ("z", ops1.z, ops2.z)):
                assert np.array_equal(getattr(hi, axis), embed(single1, 0, dims))
                assert np.array_equal(getattr(lo, axis), embed(single2, 1, dims))

    def test_balanced_point_is_half_total_spin(self):
        ops = composite_coupling_ops(1, 1, 1.0)
        single = angular_momentum_ops(1)
        dims = (3, 3)
        for axis in ("x", "y", "z"):
            total = embed(getattr(single, axis), 0, dims) + embed(getattr(single, axis), 1, dims)
            np.testing.assert_allclose(getattr(ops, axis), 0.5 * total, atol=1e-15)

    def test_weighted_expectation_example(self):
        # lam=1.5 on |1/2, -1/2>: (1.5*(1/2) + 0.5*(-1/2))/2 = 0.25
        ops = composite_coupling_ops(0.5, 0.5, 1.5)
        psi = np.zeros(4, dtype=complex)
        psi[1] = 1.0
        assert np.vdot(psi, ops.z @ psi).real == pytest.approx(0.25, abs=1e-15)

    def test_balanced_annihilates_singlet(self):
        ops = composite_coupling_ops(0.5, 0.5, 1.0)
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        for axis in ("x", "y", "z"):
            assert np.linalg.norm(getattr(ops, axis) @ psi) <= 1e-15

    def test_lambda_range_enforced(self):
        for bad in (-0.1, 2.1, np.nan):
            with pytest.raises(ValueError):
                composite_coupling_ops(0.5, 0.5, bad)


class TestClebschGordan:
    def test_spin_half_pair_values(self):
        r = 1.0 / np.sqrt(2.0)
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(r, abs=1e-14)
        assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 1, 0) == pytest.approx(r, abs=1e-14)
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(r, abs=1e-14)
        assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-r, abs=1e-14)
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0, abs=1e-14)

    def test_magnetization_mismatch_is_zero(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 0) == 0.0
        assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0

    def test_triangle_violation_rejected(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0, 1, 0, 3, 0)
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 0.5, 0.5, -0.5, 2, 0)

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 2, 1, -2, 2, 0)

    def test_parity_mismatch_rejected(self):
        # j1 + j2 and L must differ by an integer
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 0.5, 1, 0, 1, 0.5)

    def test_full_tables_match_ladder_construction(self):
        # every coefficient against an independent lowering-built table
        worst = 0.0
        for two_j1 in range(1, 7):
            for two_j2 in range(1, two_j1 + 1):
                j1, j2 = two_j1 / 2.0, two_j2 / 2.0
                table = ladder_coupled_table(j1, j2)
                q1, q2 = SpinQuantum.of(j1), SpinQuantum.of(j2)
                for (two_l, two_m), vec in table.items():
                    for i1, m1 in enumerate(q1.m_values()):
                        for i2, m2 in enumerate(q2.m_values()):
                            if abs(2 * (m1 + m2) - two_m) > 0.1:
                                continue
                            got = clebsch_gordan(j1, m1, j2, m2, two_l / 2.0, two_m / 2.0)
                            worst = max(worst, abs(got - vec[i1 * q2.dim + i2]))
        assert worst <= 1e-10

    def test_coupling_matrix_orthogonal(self):
        for j1, j2 in ((1.5, 1.0), (2.0, 2.0)):
            q1, q2 = SpinQuantum.of(j1), SpinQuantum.of(j2)
            cols = []
            two_l = int(round(2 * (j1 + j2)))
            lmin = int(round(2 * abs(j1 - j2)))
            while two_l >= lmin:
                two_m = two_l
                while two_m >= -two_l:
                    col = np.zeros(q1.dim * q2.dim)
                    for i1, m1 in enumerate(q1.m_values()):
                        for i2, m2 in enumerate(q2.m_values()):
                            if abs(2 * (m1 + m2) - two_m) > 0.1:
                                continue
                            col[i1 * q2.dim + i2] = clebsch_gordan(
                                j1, m1, j2, m2, two_l / 2.0, two_m / 2.0
                            )
                    cols.append(col)
                    two_m -= 2
                two_l -= 2
            mat = np.array(cols)
            gram = mat @ mat.T
            assert np.abs(gram - np.eye(len(cols))).max() <= 1e-10


class TestCoupledBasisState:
    def test_simultaneous_eigenvector(self):
        rng = np.random.default_rng(11)
        cases = [(0.5, 0.5), (1.0, 1.0), (1.5, 1.0), (2.0, 2.0)]
        for j1, j2 in cases:
            o1, o2 = angular_momentum_ops(j1), angular_momentum_ops(j2)
            dims = (o1.z.shape[0], o2.z.shape[0])
            tx = embed(o1.x, 0, dims) + embed(o2.x, 1, dims)
            ty = embed(o1.y, 0, dims) + embed(o2.y, 1, dims)
            tz = embed(o1.z, 0, dims) + embed(o2.z, 1, dims)
            jsq = tx @ tx + ty @ ty + tz @ tz
            lmax = j1 + j2
            ell = float(rng.integers(int(round(abs(j1 - j2))), int(lmax) + 1)) + (lmax % 1)
            for em in (ell, 0.0 if ell == int(ell) else 0.5, -ell):
                psi = coupled_basis_state(j1, j2, ell, em)
                assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
                assert np.linalg.norm(jsq @ psi - ell * (ell + 1) * psi) <= 1e-10
                assert np.linalg.norm(tz @ psi - em * psi) <= 1e-10

    def test_singlet_vector(self):
        psi = coupled_basis_state(0.5, 0.5, 0, 0)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(psi, [0.0, r, -r, 0.0], atol=1e-14)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            coupled_basis_state(0.5, 0.5, 2, 0)
        with pytest.raises(ValueError):
            coupled_basis_state(1, 1, 1, 3)


class TestCoupledLevel:
    def test_of_and_properties(self):
        lvl = CoupledLevel.of(1.5, -0.5)
        assert lvl.L == 1.5
        assert lvl.M == -0.5

    def test_rejects_m_beyond_l(self):
        with pytest.raises(ValueError):
            CoupledLevel.of(1, 2)

    def test_rejects_parity_mismatch(self):
        with pytest.raises(ValueError):
            CoupledLevel.of(1, 0.5)

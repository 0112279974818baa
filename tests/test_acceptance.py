"""Acceptance battery: one test per shipped guarantee, at its stated tolerance.

Each test prints one PASS line with the measured numbers when it succeeds,
so a verbose run doubles as a certification transcript.
"""

import time

import numpy as np
import pytest

from oracles import coupling_sets, dephasing_s_lin, dissipator_double_sum, random_hermitian
from spinbath.diagnostics import (
    entanglement_entropy,
    entropy_rate_analytic,
    entropy_rate_estimate,
    pairing_residual,
    pure_fidelity,
    variance_x_approx,
)
from spinbath.generator import (
    AXIS_INDEX,
    CommonBath,
    IndependentBath,
    apply_generator,
    GRID_TOL,
    build_generator,
    coupling_factors,
    evolve,
)
from spinbath.spin_algebra import (
    SpinQuantum,
    angular_momentum_ops,
    clebsch_gordan,
    coupled_basis_state,
)
from spinbath.states import (
    EntangledStateSpec,
    coefficient_profile,
    coherent_x,
    density_from_pure,
    entangled_state,
    fock_state,
)


def gamma_on(axes, entries):
    g = np.zeros((3, 3))
    for (a, b), v in entries.items():
        g[AXIS_INDEX[a], AXIS_INDEX[b]] = v
        g[AXIS_INDEX[b], AXIS_INDEX[a]] = v
    return g


def rel_gap(a, b):
    scale = max(abs(a), abs(b))
    if scale <= 1e-13:
        return 0.0
    return abs(a - b) / scale


def half_integers(lo, hi):
    out = []
    v = lo
    while v <= hi + 1e-9:
        out.append(v)
        v += 0.5
    return out


class TestAcceptance:
    def test_01_rate_oracle_equivalence(self):
        # >= 50 (state, model) pairs, numeric vs covariance rate, j <= 6
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        models = [
            IndependentBath(
                gamma1=gamma_on("z", {("z", "z"): 1.0}),
                gamma2=gamma_on("z", {("z", "z"): 0.5}),
                axes=("z",),
            ),
            IndependentBath(
                gamma1=gamma_on(("x", "z"), {("x", "x"): 1.0, ("z", "z"): 1.0, ("x", "z"): 0.2}),
                gamma2=gamma_on(("x", "z"), {("x", "x"): 0.4, ("z", "z"): 0.8}),
                axes=("x", "z"),
            ),
            IndependentBath(
                gamma1=np.diag([0.3, 0.7, 1.0]),
                gamma2=np.diag([0.2, 0.1, 0.9]),
                axes=("x", "y", "z"),
            ),
            CommonBath(gamma=gamma_on("z", {("z", "z"): 1.0}), lam=0.3, axes=("z",)),
            CommonBath(gamma=np.diag([1.0, 0.5, 0.25]), lam=1.7, axes=("x", "y", "z")),
        ]
        pairs = 0
        worst = 0.0
        for j in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0):
            nt = SpinQuantum.of(j)
            raw = rng.normal(size=nt.dim) + 1j * rng.normal(size=nt.dim)
            profiles = [
                coefficient_profile("uniform", j),
                coefficient_profile("alternating_uniform", j),
                coefficient_profile("gaussian", j, width=1.5),
                raw / np.linalg.norm(raw),
            ]
            states = [entangled_state(EntangledStateSpec(nt, nt, c)) for c in profiles]
            states.append(np.kron(fock_state(j, j), fock_state(j, -j)))
            states.append(np.kron(coherent_x(j), coherent_x(j)))
            for psi in states:
                for model in models:
                    report = entropy_rate_analytic(psi, model, j, j)
                    worst = max(worst, rel_gap(report.numeric_rate, report.analytic_rate))
                    pairs += 1
        elapsed = time.perf_counter() - start
        assert pairs >= 50
        assert worst <= 1e-10
        assert elapsed < 10.0
        print(
            "[acceptance 01] PASS: %d pairs, worst relative gap %.3e, %.2f s"
            % (pairs, worst, elapsed)
        )

    def test_02_purity_loss_scaling_with_pair_count(self):
        g, gp = 1.0, 0.5
        model = IndependentBath(
            gamma1=gamma_on("z", {("z", "z"): g}),
            gamma2=gamma_on("z", {("z", "z"): gp}),
            axes=("z",),
        )
        worst = 0.0
        ratios = []
        for nt in range(1, 11):
            spec = EntangledStateSpec(nt, nt, coefficient_profile("uniform", nt))
            report = entropy_rate_analytic(entangled_state(spec), model, nt, nt)
            exact = 2.0 * (g + gp) * nt * (nt + 1) / 3.0
            worst = max(worst, rel_gap(report.analytic_rate, exact))
            ratio = report.analytic_rate / entropy_rate_estimate(nt, model)
            ratios.append((nt, ratio))
            assert 1.0 - 1e-12 <= ratio <= 1.0 + 1.0 / nt + 1e-12
        assert worst <= 1e-10
        print(
            "[acceptance 02] PASS: worst gap to 2(g+g')N(N+1)/3 is %.3e; "
            "exact/estimate ratio in [%.6f, %.6f]"
            % (worst, min(r for _, r in ratios), max(r for _, r in ratios))
        )

    def test_03_common_bath_suppression(self):
        g = gamma_on("z", {("z", "z"): 1.0})
        spec = EntangledStateSpec(2, 2, coefficient_profile("uniform", 2))
        psi = entangled_state(spec)

        def rate(lam):
            model = CommonBath(gamma=g, lam=lam, axes=("z",))
            return entropy_rate_analytic(psi, model, 2, 2).analytic_rate

        lams = np.arange(1.01, 1.5 + 1e-9, 0.01)
        rates = np.array([rate(l) for l in lams])
        slope = np.polyfit(np.log(lams - 1.0), np.log(rates), 1)[0]
        balanced = abs(rate(1.0))
        assert abs(slope - 2.0) <= 1e-6
        assert balanced <= 1e-12
        print(
            "[acceptance 03] PASS: log-log slope %.9f over %d points, rate(balance) %.3e"
            % (slope, len(lams), balanced)
        )

    def test_04_fock_states_free_under_z_damping(self):
        model = IndependentBath(
            gamma1=gamma_on("z", {("z", "z"): 1.0}),
            gamma2=gamma_on("z", {("z", "z"): 1.0}),
            axes=("z",),
        )
        rng = np.random.default_rng(7)
        worst_res = 0.0
        worst_fid = 1.0
        evolved = 0
        for j in half_integers(0.5, 4.0):
            s = SpinQuantum.of(j)
            gen = build_generator(model, j, j)
            states = [
                np.kron(fock_state(j, m1), fock_state(j, m2))
                for m1 in s.m_values()
                for m2 in s.m_values()
            ]
            for psi in states:
                rho = density_from_pure(psi)
                worst_res = max(worst_res, float(np.linalg.norm(apply_generator(gen, rho))))
            if j <= 1.5:
                sample = states
            else:
                sample = [states[i] for i in rng.choice(len(states), size=6, replace=False)]
            for psi in sample:
                traj = evolve(gen, density_from_pure(psi), 10.0, tol=1e-12)
                worst_fid = min(worst_fid, pure_fidelity(psi, traj.states[-1]))
                evolved += 1
        assert worst_res <= 1e-13
        assert worst_fid >= 1.0 - 1e-10
        print(
            "[acceptance 04] PASS: max residual %.3e over all |m1,m2>, "
            "min fidelity %.12f after t=10 across %d evolutions"
            % (worst_res, worst_fid, evolved)
        )

    def test_05_coupled_level_rates(self):
        two_axis = gamma_on(("x", "z"), {("x", "x"): 0.1, ("z", "z"): 1.0})
        three_axis = np.diag([0.1, 0.25, 1.0])
        cases = [
            (two_axis, ("x", "z"), 0.1),
            (three_axis, ("x", "y", "z"), 0.35),
        ]
        worst = 0.0
        checked = 0
        for gamma, axes, weight in cases:
            model = CommonBath(gamma=gamma, lam=1.0, axes=axes)
            for j in half_integers(0.5, 4.0):
                for two_l in range(0, int(round(4 * j)) + 1, 2):
                    ell = two_l / 2.0
                    psi = coupled_basis_state(j, j, ell, 0)
                    closed = weight * ell * (ell + 1.0)
                    total = entropy_rate_analytic(
                        psi, model, j, j, normalization="total_spin"
                    ).analytic_rate
                    comp = entropy_rate_analytic(
                        psi, model, j, j, normalization="composite"
                    ).analytic_rate
                    worst = max(worst, abs(total - closed) / max(1.0, closed))
                    worst = max(worst, abs(comp - 0.25 * closed) / max(1.0, closed))
                    checked += 1
        assert worst <= 1e-9
        print(
            "[acceptance 05] PASS: %d coupled levels, worst gap to weight*L(L+1) is %.3e"
            % (checked, worst)
        )

    def test_06_singlet_decoherence_free(self):
        # the common-bath singlet at lambda = 1 is annihilated by every
        # collective J_a, so it is stationary under any damping matrix: gamma
        # = I and a correlated x, y, z gamma with an xz entry, each in
        # adaptive mode (tol 1e-12) and in fixed mode (GRID_TOL, a row every
        # 0.5).  Bound fixed before running: every row within
        # tol t max(1, ||rho0||_F) + 1e-13 of rho0 (Frobenius)
        j = 4
        spec = EntangledStateSpec(j, j, coefficient_profile("singlet", j))
        psi = entangled_state(spec)
        rho0 = density_from_pure(psi)
        correlated = np.array([[1.0, 0.0, 0.3], [0.0, 0.5, 0.0], [0.3, 0.0, 0.25]])
        for gamma in (np.eye(3), correlated):
            for tol, kw in ((1e-12, {"tol": 1e-12}), (GRID_TOL, {"step": 0.5})):
                start = time.perf_counter()
                model = CommonBath(gamma=gamma, lam=1.0, axes=("x", "y", "z"))
                (_, ops), = coupling_factors(model, j, j)
                op_norms = {a: float(np.linalg.norm(ops[a].apply(psi))) for a in ops}
                gen = build_generator(model, j, j)
                residual = float(np.linalg.norm(apply_generator(gen, rho0)))
                traj = evolve(gen, rho0, 10.0, **kw)
                fidelity = pure_fidelity(psi, traj.states[-1])
                drift = max(np.linalg.norm(state - rho0) / (tol * t * max(1.0, np.linalg.norm(rho0)) + 1e-13)
                            for t, state in zip(traj.times, traj.states))
                elapsed = time.perf_counter() - start
                assert traj.times[-1] == 10.0
                assert max(op_norms.values()) <= 1e-13
                assert residual <= 1e-12
                assert fidelity >= 1.0 - 1e-10
                assert drift <= 1.0
                assert elapsed < 5.0
                print(
                    "[acceptance 06] PASS: gamma_xz %.2f, %s, %d rows, max ||L_a psi|| %.3e, "
                    "residual %.3e, fidelity %.12f, largest drift / bound %.2e, %.2f s"
                    % (gamma[0, 2], "fixed" if "step" in kw else "adaptive", len(traj.times),
                       max(op_norms.values()), residual, fidelity, drift, elapsed)
                )

    def test_07_entanglement_entropy_values(self):
        worst = 0.0
        for nt in range(1, 11):
            spec = EntangledStateSpec(nt, nt, coefficient_profile("uniform", nt))
            value = entanglement_entropy(entangled_state(spec), (spec.j1.dim, spec.j2.dim))
            worst = max(worst, abs(value - np.log(2 * nt + 1)))
        for j in half_integers(0.5, 4.0):
            spec = EntangledStateSpec(j, j, coefficient_profile("singlet", j))
            value = entanglement_entropy(entangled_state(spec), (spec.j1.dim, spec.j2.dim))
            worst = max(worst, abs(value - np.log(2 * j + 1)))
        assert worst <= 1e-10
        print("[acceptance 07] PASS: worst |E_F - ln(2N+1)| = %.3e" % worst)

    def test_08_integrator_matches_dephasing(self):
        model = IndependentBath(gamma1=gamma_on("z", {("z", "z"): 1.0}), gamma2=None, axes=("z",))
        gen = build_generator(model, 0.5)
        rho0 = density_from_pure(coherent_x(0.5))
        traj = evolve(gen, rho0, 5.0, step=1e-3, stride=100)
        gap = float(np.abs(traj.s_lin - dephasing_s_lin(traj.times)).max())
        assert gap <= 1e-8
        print("[acceptance 08] PASS: max |S_lin - closed form| %.3e at h=1e-3" % gap)

    def test_09_structural_invariants(self):
        start = time.perf_counter()
        # commutators at spot-check spins, including the j = 15 edge
        comm_worst = 0.0
        for j in (0.5, 7.5, 15.0):
            ops = angular_momentum_ops(j)
            x, y, z = ops.x, ops.y, ops.z
            comm_worst = max(
                comm_worst,
                float(np.abs(x @ y - y @ x - 1j * z).max()),
                float(np.abs(y @ z - z @ y - 1j * x).max()),
                float(np.abs(z @ x - x @ z - 1j * y).max()),
            )
        assert comm_worst <= 1e-12
        # coupling-table orthogonality
        j1, j2 = 2.0, 1.5
        q1, q2 = SpinQuantum.of(j1), SpinQuantum.of(j2)
        cols = []
        two_l = int(round(2 * (j1 + j2)))
        while two_l >= int(round(2 * abs(j1 - j2))):
            for two_m in range(two_l, -two_l - 1, -2):
                col = np.zeros(q1.dim * q2.dim)
                for i1, m1 in enumerate(q1.m_values()):
                    for i2, m2 in enumerate(q2.m_values()):
                        if abs(2 * (m1 + m2) - two_m) > 0.1:
                            continue
                        col[i1 * q2.dim + i2] = clebsch_gordan(
                            j1, m1, j2, m2, two_l / 2.0, two_m / 2.0
                        )
                cols.append(col)
            two_l -= 2
        mat = np.array(cols)
        gram_err = float(np.abs(mat @ mat.T - np.eye(len(cols))).max())
        assert gram_err <= 1e-10
        # trajectory preservation of trace, Hermiticity, positivity
        model = CommonBath(gamma=np.diag([1.0, 0.5, 0.25]), lam=0.5, axes=("x", "y", "z"))
        gen = build_generator(model, 1, 1)
        spec = EntangledStateSpec(1, 1, coefficient_profile("uniform", 1))
        traj = evolve(gen, density_from_pure(entangled_state(spec)), 2.0, stride=20)
        traj_worst = 0.0
        for mat_s in traj.states:
            traj_worst = max(
                traj_worst,
                float(np.abs(mat_s - mat_s.conj().T).max()),
                abs(float(np.trace(mat_s).real) - 1.0),
                max(0.0, -float(np.linalg.eigvalsh(mat_s).min())),
            )
        assert traj_worst <= 1e-9
        # canonical jumps against the literal double sum
        rng = np.random.default_rng(5)
        (gamma, ops), = coupling_sets("common", 1, 1, model.gamma, None, model.lam)
        diss_worst = 0.0
        for _ in range(3):
            rho = random_hermitian(rng, gen.dim)
            expect = dissipator_double_sum(gamma, ops, rho)
            diss_worst = max(diss_worst, float(np.abs(apply_generator(gen, rho) - expect).max()))
        assert diss_worst <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        print(
            "[acceptance 09] PASS: commutators %.3e, coupling gram %.3e, "
            "trajectory %.3e, dissipator %.3e, %.2f s"
            % (comm_worst, gram_err, traj_worst, diss_worst, elapsed)
        )

    def test_10_sign_alternation_minimizes_transverse_variance(self):
        worst_res = 0.0
        worst_var = 0.0
        for nt in (0.5, 1.0, 1.5, 2.0, 4.0):
            for kind in ("alternating_uniform", "singlet"):
                spec = EntangledStateSpec(nt, nt, coefficient_profile(kind, nt))
                worst_res = max(worst_res, pairing_residual(spec.coeffs))
                worst_var = max(worst_var, abs(variance_x_approx(spec)))
        assert worst_res <= 1e-12
        assert worst_var == 0.0
        positives = []
        for nt in (1.0, 2.0, 4.0):
            spec = EntangledStateSpec(nt, nt, coefficient_profile("uniform", nt))
            res = pairing_residual(spec.coeffs)
            var = variance_x_approx(spec)
            assert res > 0.0
            assert var > 0.0
            positives.append((nt, res, var))
        one = dict((nt, (res, var)) for nt, res, var in positives)[1.0]
        assert one[0] == pytest.approx(2 / 3, rel=1e-13)
        assert one[1] == pytest.approx(2.0, abs=1e-13)
        print(
            "[acceptance 10] PASS: alternating residual %.3e and variance %.3e; "
            "uniform residual/variance positive (N=1: %.6f, %.6f)"
            % (worst_res, worst_var, one[0], one[1])
        )

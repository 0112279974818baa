"""Self-tests of the benchmark's reference builders against closed forms.

    python3 -m pytest perfbench/tests
"""

import numpy as np
import pytest

import reference
import workloads


def test_liouvillian_reproduces_spin_half_dephasing():
    g = 0.7
    model = {"kind": "independent", "axes": ["z"], "gamma1": {"zz": g}}
    lv = reference.liouvillian(model, 0.5, None)
    rho0 = np.full((2, 2), 0.5, dtype=complex)  # |+x><+x|
    times = [0.0, 0.3, 1.0, 5.0]
    for t, rho in zip(times, reference.evolve_exact(lv, rho0, times)):
        coherence = 0.5 * np.exp(-g * t / 2)
        want = np.array([[0.5, coherence], [coherence, 0.5]])
        np.testing.assert_allclose(rho, want, rtol=0, atol=1e-14)
        assert reference.simulate_rows(rho, np.full(2, 2**-0.5))["s_lin"] == pytest.approx(
            0.5 * (1 - np.exp(-g * t)), abs=1e-14
        )


def test_propagation_matches_z_only_closed_form():
    # rho_ab(t) = rho_ab(0) exp(-g (l_a - l_b)^2 t / 2) in the product Fock
    # basis, at the n = 121 of the adaptive workload
    g, lam, j = 0.8, 1.3, 5
    model = {"kind": "common", "axes": ["z"], "gamma": {"zz": g}, "lambda": lam}
    m = j - np.arange(2 * j + 1)
    ell = (lam * m[:, None] + (2 - lam) * m[None, :]).reshape(-1) / 2
    psi = reference.uniform_pair_state(j)
    rho0 = np.outer(psi, psi.conj())
    times = [0.0, 0.05, 0.4]
    got = reference.evolve_exact(reference.liouvillian(model, j, j), rho0, times)
    for t, rho in zip(times, got):
        want = rho0 * np.exp(-g * (ell[:, None] - ell[None, :]) ** 2 * t / 2)
        np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nt", [0.5, 1, 2.5, 4, 16])
def test_covariance_rate_reproduces_independent_z_closed_form(nt):
    g1, g2 = 1.0, 0.35
    model = {"kind": "independent", "axes": ["z"], "gamma1": {"zz": g1}, "gamma2": {"zz": g2}}
    rate, contrib = reference.covariance_rate(model, nt, nt, reference.uniform_pair_state(nt))
    want = 2 * (g1 + g2) * nt * (nt + 1) / 3
    assert rate == pytest.approx(want, rel=1e-12)
    assert contrib == {"zz": pytest.approx(want, rel=1e-12)}


@pytest.mark.parametrize("lam", [1.0, 1.3])
def test_fock_residual_matches_liouvillian(lam):
    model = {"kind": "common", "axes": ["z"], "gamma": {"zz": 1.0}, "lambda": lam}
    j = 1
    lv = reference.liouvillian(model, j, j)
    ms = [(j - i, j - k) for i in range(3) for k in range(3)]
    for ia, a in enumerate(ms):
        for ib, b in enumerate(ms):
            op = np.zeros((9, 9), dtype=complex)
            op[ia, ib] = 1.0
            got = np.linalg.norm(lv @ op.reshape(-1))
            assert got == pytest.approx(reference.fock_residual(model, a, b), abs=1e-14)
            if lam == 1.0:
                assert (got < 1e-12) == reference.fock_pair_certified(a, b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_scenarios_repeat_per_seed_and_keep_positive_damping(name):
    make = workloads.WORKLOADS[name].scenario
    for seed in range(40):
        doc = make(seed)
        assert doc == make(seed)
        for key in ("gamma", "gamma1", "gamma2"):
            if key in doc["model"]:
                idx = ["xyz".index(a) for a in doc["model"]["axes"]]
                gamma = reference.gamma_matrix(doc["model"][key])[np.ix_(idx, idx)]
                assert np.linalg.eigvalsh(gamma).min() > 0

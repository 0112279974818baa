"""Exchange and rotation covariance of the generator, as oracles of ``evolve``
and of the pure-state rate.

Exchange: the swap S of two equal ensembles maps the common-bath coupling
(lam J1 + (2 - lam) J2) / 2 to that of 2 - lam, so
exp(t L_(2 - lam)) (S rho S) = S exp(t L_lam)(rho) S, and for independent
baths it swaps gamma1 and gamma2.  Rotation: with
D(R) = exp(-i theta n.J) on each ensemble and U = D(R) (x) D(R),
U J_a U^dag = sum_b R_ba J_b, so U C_a U^dag = sum_b R_ba C_b for every
coupling operator and the double-sum dissipator of gamma, conjugated by U,
is that of R gamma R^T: exp(t L_(R gamma R^T)) (U rho U^dag) =
U exp(t L_gamma)(rho) U^dag, for a common bath and for independent ones.

D(R) is built here from the tests' own Condon-Shortley matrices
(``oracles.spin_matrices``) and scipy's expm, not from the package.  Both
sides of each relation run through the package, so the relation checks
the generator's build and the integrator against each other, on a full
(every axis pair) damping matrix.  Bounds fixed before the first run: each
state within tol t max(1, ||rho0||_F) + 1e-13 of its image (tol = GRID_TOL
in fixed mode), each rate within 1e-13 relative.  Both sides must give the
same row times and step counts.
"""

import numpy as np
import pytest
import scipy.linalg

from oracles import random_density, spin_matrices
from spinbath.diagnostics import entropy_rate_analytic
from spinbath.generator import GRID_TOL, CommonBath, IndependentBath, build_generator, evolve

AXES = ("x", "y", "z")
# full damping matrices: positive definite, every axis pair nonzero
GAMMA = np.array([[1.0, 0.2, 0.3], [0.2, 0.5, 0.1], [0.3, 0.1, 0.25]])
GAMMA2 = np.array([[0.4, -0.1, 0.05], [-0.1, 0.8, 0.2], [0.05, 0.2, 0.3]])
LAM = 1.3
# a rotation by 1.1 rad about a generic axis
AXIS = np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])
ANGLE = 1.1


def rotation():
    """The 3 x 3 rotation R = exp(ANGLE [AXIS]_x)."""
    cross = np.array([[0.0, -AXIS[2], AXIS[1]], [AXIS[2], 0.0, -AXIS[0]], [-AXIS[1], AXIS[0], 0.0]])
    return scipy.linalg.expm(ANGLE * cross)


def wigner_d(j):
    """D(R) = exp(-i ANGLE n.J) of spin j, checked to rotate J as R does."""
    ops = spin_matrices(j)
    d = scipy.linalg.expm(-1j * ANGLE * sum(n * op for n, op in zip(AXIS, ops)))
    r = rotation()
    for a in range(3):
        turned = d @ ops[a] @ d.conj().T
        assert np.abs(turned - sum(r[b, a] * ops[b] for b in range(3))).max() <= 1e-12 * max(1.0, j)
    return d


def models(name):
    """The model and its image under the relation ``name``."""
    if name == "exchange-common":
        return CommonBath(GAMMA, LAM, AXES), CommonBath(GAMMA, 2.0 - LAM, AXES)
    if name == "exchange-independent":
        return IndependentBath(GAMMA, GAMMA2, AXES), IndependentBath(GAMMA2, GAMMA, AXES)
    r = rotation()
    if name == "rotation-common":
        return CommonBath(GAMMA, LAM, AXES), CommonBath(r @ GAMMA @ r.T, LAM, AXES)
    return IndependentBath(GAMMA, GAMMA2, AXES), IndependentBath(r @ GAMMA @ r.T, r @ GAMMA2 @ r.T, AXES)


def state_image(name, j):
    """S rho S or U rho U^dag, for two ensembles of spin j."""
    d = int(2 * j) + 1
    if name.startswith("exchange"):
        return lambda mat: mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    u = np.kron(wigner_d(j), wigner_d(j))
    return lambda mat: u @ mat @ u.conj().T


RELATIONS = ["exchange-common", "exchange-independent", "rotation-common", "rotation-independent"]
MODES = [("adaptive", 1e-10, 2.0, {"tol": 1e-10}), ("fixed", GRID_TOL, 1.0, {"step": 0.25})]


@pytest.mark.parametrize("mode,tol,t_final,kw", MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("j", [1.5, 3])
@pytest.mark.parametrize("name", RELATIONS)
def test_evolve_is_covariant(name, j, mode, tol, t_final, kw):
    # n = 16 and 49; each case (two runs) well under 0.5 s
    model, image_model = models(name)
    image = state_image(name, j)
    rho0 = random_density(np.random.default_rng(int(4 * j)), (int(2 * j) + 1) ** 2)
    one = evolve(build_generator(model, j, j), rho0, t_final, **kw)
    other = evolve(build_generator(image_model, j, j), image(rho0), t_final, **kw)
    assert one.times.tolist() == other.times.tolist()
    assert one.times[-1] == t_final
    assert (one.accepted, one.rejected) == (other.accepted, other.rejected)
    scale = max(1.0, float(np.linalg.norm(rho0)))
    for t, a, b in zip(one.times, one.states, other.states):
        assert np.linalg.norm(image(a) - b) <= tol * t * scale + 1e-13


RATE_TOL = 1e-13


@pytest.mark.parametrize("j", [0.5, 2, 7.5, 32])
@pytest.mark.parametrize("name", RELATIONS)
def test_pure_state_rate_is_covariant(name, j):
    # the image of a pure state psi, reshaped to Psi (d x d), is Psi^T or
    # D Psi D^T: at j = 32 (n = 4,225) only d x d matrices are built
    d = int(2 * j) + 1
    model, image_model = models(name)
    if name.startswith("exchange"):
        image = np.transpose
    else:
        rot = wigner_d(j)
        image = lambda psi: rot @ psi @ rot.T  # noqa: E731
    rng = np.random.default_rng(d)
    psi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi /= np.linalg.norm(psi)
    one = entropy_rate_analytic(psi.reshape(-1), model, j, j)
    other = entropy_rate_analytic(image(psi).reshape(-1), image_model, j, j)
    for a, b in ((one.numeric_rate, other.numeric_rate), (one.analytic_rate, other.analytic_rate)):
        assert a > 0.0
        assert abs(a - b) <= RATE_TOL * abs(a)

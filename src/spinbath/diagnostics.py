"""Scalar diagnostics for collective-spin decoherence.

Entropy measures, pure-state purity-loss rates (covariance form checked
against the factored generator image, and the coarse large-spin
estimates), operator variances with the pairing-sum approximation for
smooth coefficient profiles, Schmidt data, and stationary-state
certification.

Two operator normalizations appear for the common bath.  The generator is
always built from the weighted composite operators L_a (the physical
dissipator).  Closed forms for coupled |L, M> levels are conventionally
quoted for the bare total spin J1 + J2, which at lam=1 equals 2 L_a.
Functions that touch both conventions take ``normalization`` =
"composite" | "total_spin".  Rates are quadratic in the operators, so
total-spin rates are the composite rates times 4, exactly: a power of two
rounds nothing.  The factor applies to a common bath, never an independent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generator import (
    AXES,
    AXIS_INDEX,
    CommonBath,
    IndependentBath,
    _as_matrix,
    _canonical_jump_set,
    _purity,
    coupling_factors,
    rank_one_factors,
    validate_damping,
)
# not called here: kept because perfbench/tracing.py wraps diagnostics.apply_generator
from .generator import apply_generator
from .spin_algebra import CoupledLevel
from .states import EntangledStateSpec, _unit_vector

__all__ = [
    "RateReport",
    "StationaryReport",
    "linear_entropy",
    "pure_fidelity",
    "entropy_rate_analytic",
    "entropy_rate_estimate",
    "von_neumann_entropy",
    "entanglement_entropy",
    "variance_exact",
    "variance_x_approx",
    "pairing_residual",
    "schmidt_number",
    "coupled_state_rate",
    "certify_stationary",
]

_NORMALIZATIONS = ("composite", "total_spin")
# largest |d S_lin / dt| that certify_stationary accepts as stationary
STATIONARY_RATE_TOL = 1e-12


def linear_entropy(rho) -> float:
    """1 - tr(rho^2); zero on pure states, 1 - 1/dim when maximally mixed."""
    return 1.0 - _purity(_as_matrix(rho))


def pure_fidelity(psi, rho) -> float:
    """<psi|rho|psi> for a unit vector psi."""
    vec = _unit_vector(psi)
    mat = _as_matrix(rho)
    return float(np.real(np.vdot(vec, mat @ vec)))


def _pure_rate(psi, u, v) -> float:
    # -2 tr(rho L(rho)) at rho = psi psi^dag with L(rho) = U V^dag
    bra = psi.conj()
    return -2.0 * float(np.real(np.vdot(bra @ v, bra @ u)))


def _check_length(vec, dims) -> np.ndarray:
    dim = math.prod(dims)
    if vec.shape[0] != dim:
        raise ValueError(f"state length {vec.shape[0]} does not match model dimension {dim}")
    return vec


def _rate_factor(normalization: str, common: bool) -> float:
    # total spin doubles the common-bath operators (J1a + J2a = 2 L_a at
    # lam=1) and every rate is quadratic in them
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"normalization must be one of {_NORMALIZATIONS}")
    return 4.0 if common and normalization == "total_spin" else 1.0


@dataclass(eq=False)
class RateReport:
    """Purity-loss rate of a pure state under one decoherence model.

    ``numeric_rate`` comes from the rank-one factors of the generator image
    (``rank_one_factors``), ``analytic_rate`` from the covariance form; the
    two agree to rounding for any pure state, which is the cross-check this
    type exists to expose.  Contributions are
    keyed by canonical axis pair ("xx", "xy", ..., "zz"), off-diagonal
    pairs counted once with their symmetry factor absorbed.
    """

    numeric_rate: float
    analytic_rate: float
    per_axis_contributions: dict[str, float]

    @property
    def mismatch(self) -> float:
        """|numeric - analytic| / max(|numeric|, |analytic|, 1)."""
        denom = max(abs(self.numeric_rate), abs(self.analytic_rate), 1.0)
        return abs(self.numeric_rate - self.analytic_rate) / denom


def entropy_rate_analytic(psi, model, j1, j2=None, normalization: str = "composite") -> RateReport:
    """Covariance form of the initial purity-loss rate of a pure state.

    Evaluates 2 sum_ab gamma_ab (Re<C_a psi|C_b psi> - <C_a><C_b>) over the
    model's factored coupling operators C_a (``coupling_factors``) and
    cross-checks it against the canonical jump operators built from the
    same factors, applied to psi psi^dag through ``rank_one_factors``.
    Every operator acts on psi as X psi + psi Y^T, so the cost is O(n d)
    per operator, d = max(2 j1 + 1, 2 j2 + 1), and no n x n matrix is
    built.
    """
    factor = _rate_factor(normalization, isinstance(model, CommonBath))
    vec = _unit_vector(psi)
    sets = coupling_factors(model, j1, j2)
    jumps, dims = _canonical_jump_set(sets)
    _check_length(vec, dims)

    contributions: dict[str, float] = {}
    total = 0.0
    for gamma, ops in sets:
        axes = [a for a in AXES if a in ops]
        applied = {a: ops[a].apply(vec) for a in axes}
        means = {a: float(np.real(np.vdot(vec, applied[a]))) for a in axes}
        for i, a in enumerate(axes):
            for b in axes[i:]:
                g = float(gamma[AXIS_INDEX[a], AXIS_INDEX[b]])
                if g == 0.0:
                    continue
                cov = float(np.real(np.vdot(applied[a], applied[b]))) - means[a] * means[b]
                weight = 2.0 if a != b else 1.0
                term = 2.0 * g * cov * weight
                key = a + b
                contributions[key] = contributions.get(key, 0.0) + term
                total += term

    numeric = _pure_rate(vec, *rank_one_factors(jumps, vec))
    scaled = {key: factor * term for key, term in contributions.items()}
    return RateReport(factor * numeric, factor * total, scaled)


def entropy_rate_estimate(n_tilde, model) -> float:
    """Large-spin estimate of the uniform-profile purity-loss rate.

    Uses the z-axis damping entries verbatim: 2(g_zz + g'_zz) Ntilde^2 / 3
    for independent baths, 2 g_zz (lam-1)^2 Ntilde^2 / 3 for a common bath.
    The exact rate replaces Ntilde^2 with Ntilde(Ntilde+1).
    """
    nt = float(n_tilde)
    if nt < 1.0:
        raise ValueError(f"estimate needs n_tilde >= 1, got {n_tilde}")
    z = AXIS_INDEX["z"]
    if isinstance(model, IndependentBath):
        g = float(model.gamma1[z, z])
        if model.gamma2 is not None:
            g += float(model.gamma2[z, z])
        return 2.0 * g * nt * nt / 3.0
    if isinstance(model, CommonBath):
        g = float(model.gamma[z, z])
        return 2.0 * g * (model.lam - 1.0) ** 2 * nt * nt / 3.0
    raise TypeError(f"unknown model type {type(model).__name__}")


def von_neumann_entropy(rho) -> float:
    """-sum p ln p over the eigenvalues, 0 ln 0 = 0; natural log."""
    mat = _as_matrix(rho)
    evals = np.linalg.eigvalsh(mat)
    evals = np.clip(evals.real, 0.0, None)
    nz = evals[evals > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def _schmidt_values(psi, dims) -> np.ndarray:
    vec = _unit_vector(psi)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise ValueError(f"need exactly two subsystem dimensions, got {dims}")
    if dims[0] * dims[1] != vec.shape[0]:
        raise ValueError(f"dims {dims} do not factor a length-{vec.shape[0]} vector")
    return np.linalg.svd(vec.reshape(dims), compute_uv=False)


def entanglement_entropy(psi, dims) -> float:
    """Von Neumann entropy of either marginal of a bipartite pure state."""
    svals = _schmidt_values(psi, dims)
    probs = svals * svals
    nz = probs[probs > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def schmidt_number(psi, dims, tol: float = 1e-10) -> int:
    """Count of Schmidt coefficients above tol."""
    return int(np.sum(_schmidt_values(psi, dims) > tol))


def variance_exact(op, psi) -> float:
    """<op^2> - <op>^2 for a Hermitian FactoredOperator on a pure state.

    The operator acts on psi through its factors, so no n x n matrix is
    formed; the variance is ||(op - <op>) psi||^2.
    """
    if any(float(np.max(np.abs(p - p.conj().T))) > 1e-12 for p in (op.x, op.y) if p is not None):
        raise ValueError("variance_exact needs a Hermitian operator")
    if np.ndim(psi) != 1:
        raise ValueError("variance_exact needs a pure state vector")
    vec = _unit_vector(psi)
    applied = op.apply(vec)
    mean = float(np.real(np.vdot(vec, applied)))
    shifted = applied - mean * vec
    return float(np.real(np.vdot(shifted, shifted)))


def _pairing_terms(coeffs: np.ndarray) -> np.ndarray:
    # bracket [|c_m|^2 + Re(c*_{m-1} c_m)] for interior m; coefficients are
    # stored descending, so index i holds m and i+1 holds m-1
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape[0] < 2:
        return np.zeros(0)
    upper = c[:-1]
    lower = c[1:]
    return (upper.conj() * upper).real + (lower.conj() * upper).real


def variance_x_approx(spec: EntangledStateSpec) -> float:
    """Pairing-sum approximation to the total-spin x variance.

    Valid for equal spins: sum over interior m of
    [|c_m|^2 + Re(c*_{m-1} c_m)] [j(j+1) - m^2], the smooth-profile
    stand-in for the exact variance of J1x + J2x on sum_m c_m |m,-m>.
    Profiles whose consecutive products cancel the moduli give exactly 0.
    """
    if spec.j1 != spec.j2:
        raise ValueError("pairing approximation needs j1 == j2")
    jj = spec.j1.j * (spec.j1.j + 1.0)
    terms = _pairing_terms(spec.coeffs)
    m = np.asarray(spec.m_values())[:-1]
    return float(np.sum(terms * (jj - m * m)))


def pairing_residual(coeffs) -> float:
    """Max interior |bracket| of the pairing sum; 0 certifies the
    sign-alternating minimization condition."""
    terms = _pairing_terms(coeffs)
    if terms.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(terms)))


def coupled_state_rate(ell, gamma, axes, normalization: str = "total_spin") -> float:
    """Closed-form purity-loss rate of the coupled level |L, M=0> under a
    balanced common bath (lam=1).

    In composite normalization the x and y axes each contribute a quarter of
    their diagonal damping entry times L(L+1); the z axis contributes nothing
    at M=0.  Total-spin normalization is exactly 4 times that.
    """
    factor = _rate_factor(normalization, common=True)
    level = CoupledLevel.of(ell, 0)
    gamma = validate_damping(gamma, axes)
    ll = level.L * (level.L + 1.0)
    return float(factor * 0.25 * (gamma[0, 0] + gamma[1, 1]) * ll)


@dataclass(eq=False)
class StationaryReport:
    """Stationarity certificate for a list of candidate pure states.

    ``residuals[i]`` is the Frobenius norm of the generator applied to the
    i-th projector, ``purity_rates[i]`` the matching d S_lin / dt.  With
    ``pair_residuals`` present the candidates were also checked as a
    subspace: every cross projector |psi_i><psi_j| must be annihilated, and
    ``pair_ok`` holds the verdict on each against the same tolerance.
    Every residual is ||R_Ui R_Vj^dag||_F from the thin-QR R factors of the
    rank-one generator images (``certify_stationary``), which equals
    ||L(|psi_i><psi_j|)||_F exactly and, unlike the Gram trace
    tr((U^dag U)(V^dag V)), squares nothing.
    """

    residuals: list[float]
    purity_rates: list[float]
    state_ok: list[bool]
    certified: bool
    pair_residuals: dict[tuple[int, int], float] = field(default_factory=dict)
    pair_ok: dict[tuple[int, int], bool] = field(default_factory=dict)


def certify_stationary(
    states,
    model,
    j1,
    j2=None,
    subspace: bool = False,
    residual_tol: float = 1e-12,
) -> StationaryReport:
    """Check candidate pure states for stationarity under a decoherence model.

    The generator acts through the model's factored canonical jumps (the
    ones ``entropy_rate_analytic`` uses), so no n x n matrix is built.  Each
    image is rank one in factored form, L(|psi_i><psi_j|) = U_i V_j^dag
    (``rank_one_factors``), with U and V of shape n x (k + 2) for k jumps.
    With thin QR factors U_i = Q R_Ui and V_j = Q' R_Vj, Q and Q' having
    orthonormal columns, ||U_i V_j^dag||_F = ||R_Ui R_Vj^dag||_F exactly:
    every residual, states (i = j) and pairs alike, is the norm of a small
    product of R factors.  Nothing is squared, unlike the Gram form
    tr((U^dag U)(V^dag V)), which cancels catastrophically near zero;
    Householder QR is backward stable, so the error stays of order
    eps ||U|| ||V||, as for the assembled product.
    """
    jumps, dims = _canonical_jump_set(coupling_factors(model, j1, j2))
    vecs = [_check_length(_unit_vector(s), dims) for s in states]
    rates = []
    r_u = []
    r_v = []
    for vec in vecs:
        u, v = rank_one_factors(jumps, vec)
        rates.append(_pure_rate(vec, u, v))
        r_u.append(np.linalg.qr(u, mode="r"))
        r_v.append(np.linalg.qr(v, mode="r"))
    residuals = []
    ok = []
    pair_residuals: dict[tuple[int, int], float] = {}
    pair_ok: dict[tuple[int, int], bool] = {}
    r_v = np.conj(r_v)
    for i, rate in enumerate(rates):
        # ||R_Ui R_Vj^dag||_F for j = i and, as a subspace, every j > i
        stop = len(vecs) if subspace else i + 1
        norms = np.linalg.norm(np.einsum("ab,jcb->jac", r_u[i], r_v[i:stop]), axis=(1, 2))
        res = float(norms[0])
        residuals.append(res)
        ok.append(res <= residual_tol and abs(rate) <= STATIONARY_RATE_TOL)
        for jdx, pair_res in enumerate(norms[1:].tolist(), start=i + 1):
            pair_residuals[(i, jdx)] = pair_res
            pair_ok[(i, jdx)] = pair_res <= residual_tol
    certified = bool(ok) and all(ok) and all(pair_ok.values())
    return StationaryReport(residuals, rates, ok, certified, pair_residuals, pair_ok)

"""Reference results the benchmark checks spinbath's output against.

Nothing here imports spinbath.  Spin matrices come from ladder-operator
matrix elements, the dissipator is the double sum over the damping matrix
(not the canonical jump form the library uses), and time evolution is the
matrix exponential of a Liouvillian assembled here.

Basis conventions match the scenario format: |m> ordered j, j-1, ..., -j,
two ensembles in plain Kronecker order, density matrices vectorized
row-major, so vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

AXES = "xyz"


def spin_matrices(j: float) -> dict[str, np.ndarray]:
    """Jx, Jy, Jz of spin j from <m+1|J+|m> = sqrt(j(j+1) - m(m+1))."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jp = np.zeros((dim, dim), dtype=np.complex128)
    jp[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jm = jp.conj().T
    return {"x": (jp + jm) / 2, "y": (jp - jm) / 2j, "z": np.diag(m).astype(np.complex128)}


def gamma_matrix(entries: dict) -> np.ndarray:
    """3x3 symmetric damping matrix from {"xx": .., "xz": .., ...}."""
    g = np.zeros((3, 3))
    for key, value in entries.items():
        a, b = AXES.index(key[0]), AXES.index(key[1])
        g[a, b] = g[b, a] = value
    return g


def coupling_sets(model: dict, j1: float, j2: float | None):
    """Damping matrices with the coupling operators they contract.

    Each operator is a pair (a1, a2) meaning a1 kron I + I kron a2; a single
    ensemble is treated as a second factor of dimension 1.
    """
    s1 = spin_matrices(j1)
    s2 = spin_matrices(j2) if j2 is not None else {a: np.zeros((1, 1)) for a in AXES}
    zero1 = np.zeros_like(s1["z"])
    zero2 = np.zeros_like(s2["z"])
    if model["kind"] == "common":
        lam = model["lambda"]
        ops = {a: (lam / 2 * s1[a], (2 - lam) / 2 * s2[a]) for a in AXES}
        return [(gamma_matrix(model["gamma"]), ops)]
    sets = [(gamma_matrix(model["gamma1"]), {a: (s1[a], zero2) for a in AXES})]
    if model.get("gamma2") is not None:
        sets.append((gamma_matrix(model["gamma2"]), {a: (zero1, s2[a]) for a in AXES}))
    return sets


def uniform_pair_state(nt: float) -> np.ndarray:
    """sum_m |m>|-m> / sqrt(2nt+1) for two spins nt."""
    dim = int(round(2 * nt)) + 1
    psi = np.zeros((dim, dim), dtype=np.complex128)
    psi[np.arange(dim), np.arange(dim)[::-1]] = 1 / np.sqrt(dim)
    return psi.reshape(-1)


def _apply(pair, psi_mat: np.ndarray) -> np.ndarray:
    a1, a2 = pair
    return (a1 @ psi_mat + psi_mat @ a2.T).reshape(-1)


def covariance_rate(model: dict, j1: float, j2: float | None, psi: np.ndarray):
    """Initial purity-loss rate 2 sum_ab g_ab (Re<C_a psi|C_b psi> - <C_a><C_b>).

    Returns (total, contributions) with contributions keyed "xx", "xy", ...
    and off-diagonal pairs counted once with their factor 2.
    """
    contrib: dict[str, float] = {}
    for gamma, ops in coupling_sets(model, j1, j2):
        d2 = ops["z"][1].shape[0]
        mat = psi.reshape(-1, d2)
        applied = {a: _apply(ops[a], mat) for a in AXES}
        mean = {a: np.vdot(psi, applied[a]).real for a in AXES}
        for i, a in enumerate(AXES):
            for b in AXES[i:]:
                g = gamma[AXES.index(a), AXES.index(b)]
                if g == 0.0:
                    continue
                cov = np.vdot(applied[a], applied[b]).real - mean[a] * mean[b]
                weight = 1.0 if a == b else 2.0
                contrib[a + b] = contrib.get(a + b, 0.0) + 2 * g * cov * weight
    return sum(contrib.values()), contrib


def liouvillian(model: dict, j1: float, j2: float | None) -> sp.csr_matrix:
    """Sparse superoperator of sum_ab g_ab (C_b rho C_a - {C_a C_b, rho}/2)."""
    sets = coupling_sets(model, j1, j2)
    d1, d2 = sets[0][1]["z"][0].shape[0], sets[0][1]["z"][1].shape[0]
    n = d1 * d2
    eye = sp.identity(n, dtype=np.complex128, format="csr")
    out = sp.csr_matrix((n * n, n * n), dtype=np.complex128)
    for gamma, ops in sets:
        full = {
            a: sp.kron(a1, np.eye(d2)) + sp.kron(np.eye(d1), a2)
            for a, (a1, a2) in ops.items()
        }
        for i, a in enumerate(AXES):
            for k, b in enumerate(AXES):
                g = gamma[i, k]
                if g == 0.0:
                    continue
                ca, cb = full[a].tocsr(), full[b].tocsr()
                prod = (ca @ cb).tocsr()
                out = out + g * (
                    sp.kron(cb, ca.T) - 0.5 * sp.kron(prod, eye) - 0.5 * sp.kron(eye, prod.T)
                )
    return out.tocsr()


def evolve_exact(lv: sp.csr_matrix, rho0: np.ndarray, times) -> list[np.ndarray]:
    """exp(t L) rho0 at each of the increasing times (t = 0 allowed).

    expm_multiply (Al-Mohy and Higham) carries the state across the gap
    between successive times.
    """
    n = rho0.shape[0]
    vec = rho0.reshape(-1).astype(np.complex128)
    out = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            vec = expm_multiply((t - t_prev) * lv, vec)
        out.append(vec.reshape(n, n))
        t_prev = t
    return out


def simulate_rows(rho: np.ndarray, psi: np.ndarray) -> dict[str, float]:
    """The per-row quantities spinbath's simulate table reports."""
    herm = (rho + rho.conj().T) / 2
    return {
        "s_lin": 1.0 - np.vdot(herm, herm).real,
        "min_eig": float(np.linalg.eigvalsh(herm).min()),
        "fidelity": np.vdot(psi, herm @ psi).real,
    }


def fock_pair_certified(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Balanced common z bath: |a><b| is stationary iff m1 + m2 agree."""
    return a[0] + a[1] == b[0] + b[1]


def fock_residual(model: dict, a: tuple[float, float], b: tuple[float, float]) -> float:
    """||L(|a><b|)||_F under a common z bath: (g_zz / 2) (l_a - l_b)^2.

    l = (lam m1 + (2 - lam) m2) / 2 is the Fock-state eigenvalue of the
    composite coupling operator.
    """
    lam = model["lambda"]
    g = gamma_matrix(model["gamma"])[2, 2]
    la = (lam * a[0] + (2 - lam) * a[1]) / 2
    lb = (lam * b[0] + (2 - lam) * b[1]) / 2
    return g / 2 * (la - lb) ** 2

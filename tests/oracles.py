"""Independent reference constructions for the test suite.

Everything here is derived directly from ladder-operator matrix elements
with plain numpy, deliberately not reusing the package's constructors, so
each comparison pits two separate derivations against each other.
"""

import numpy as np


def ladder_down(j: float) -> np.ndarray:
    """J- in the descending-m basis (|j> first)."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    out = np.zeros((dim, dim))
    amp = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1.0))
    out[np.arange(1, dim), np.arange(dim - 1)] = amp
    return out


def ladder_coupled_table(j1: float, j2: float) -> dict:
    """Coupled states |L, M> built by lowering from stretched states.

    Returns {(2L, 2M): vector} over the lexicographic product basis.  The
    top state of each L ladder is fixed by the Condon-Shortley convention:
    the product component with maximal m1 is positive.  Lowering with the
    total J- (all-positive amplitudes) then propagates the phase down the
    ladder, giving a full independent Clebsch-Gordan table.
    """
    d1 = int(round(2 * j1)) + 1
    d2 = int(round(2 * j2)) + 1
    dim = d1 * d2
    jm = np.kron(ladder_down(j1), np.eye(d2)) + np.kron(np.eye(d1), ladder_down(j2))

    def idx(m1: float, m2: float) -> int:
        return int(round(j1 - m1)) * d2 + int(round(j2 - m2))

    table: dict = {}
    lmax = j1 + j2
    lmin = abs(j1 - j2)
    n_levels = int(round(lmax - lmin)) + 1
    for k in range(n_levels):
        ell = lmax - k
        if k == 0:
            vec = np.zeros(dim)
            vec[idx(j1, j2)] = 1.0
        else:
            # the M = ell sector has k+1 product states; k of its dimensions
            # are used up by the already-built |L' > ell, M = ell> states
            cols = []
            m1 = j1
            while m1 >= -j1 - 1e-9:
                m2 = ell - m1
                if -j2 - 1e-9 <= m2 <= j2 + 1e-9:
                    cols.append(idx(m1, m2))
                m1 -= 1.0
            built = np.array(
                [table[(int(round(2 * (lmax - kk))), int(round(2 * ell)))][cols] for kk in range(k)]
            )
            _, _, vt = np.linalg.svd(built)
            null = vt[-1]
            vec = np.zeros(dim)
            vec[cols] = null
            if vec[idx(j1, ell - j1)] < 0.0:
                vec = -vec
        table[(int(round(2 * ell)), int(round(2 * ell)))] = vec
        cur = vec
        em = ell
        while em > -ell + 1e-9:
            nxt = jm @ cur
            cur = nxt / np.linalg.norm(nxt)
            em -= 1.0
            table[(int(round(2 * ell)), int(round(2 * em)))] = cur
    return table


def spin_matrices(j: float) -> list[np.ndarray]:
    """[Jx, Jy, Jz] from J- = ``ladder_down(j)`` and J+ = J-^T."""
    down = ladder_down(j)
    up = down.T
    return [(up + down) / 2.0, (up - down) / 2.0j, np.diag(j - np.arange(down.shape[0]))]


def coupling_sets(bath: str, j1: float, j2, gamma1, gamma2, lam: float) -> list:
    """(gamma, [C_x, C_y, C_z]) for each bath of the double-sum dissipator.

    ``bath`` is "common" (C_a = (lam J1a + (2 - lam) J2a) / 2, damping
    ``gamma1``) or "independent" (J1a with ``gamma1`` and J2a with
    ``gamma2``; ``j2=None`` is one ensemble).
    """
    ops1 = spin_matrices(j1)
    if j2 is None:
        return [(gamma1, ops1)]
    ops2 = spin_matrices(j2)
    eye1, eye2 = np.eye(ops1[0].shape[0]), np.eye(ops2[0].shape[0])
    left = [np.kron(op, eye2) for op in ops1]
    right = [np.kron(eye1, op) for op in ops2]
    if bath == "common":
        return [(gamma1, [(lam * a + (2.0 - lam) * b) / 2.0 for a, b in zip(left, right)])]
    return [(gamma1, left), (gamma2, right)]


def dense_liouvillian(sets, ham=None) -> np.ndarray:
    """(n^2, n^2) matrix of -i[H, rho] + the double-sum dissipators.

    Column k is the master equation applied to the k-th row-major unit
    matrix, so it acts on the row-major vec(rho).
    """
    n = sets[0][1][0].shape[0]
    cols = []
    for k in range(n * n):
        unit = np.zeros((n, n), dtype=complex)
        unit.flat[k] = 1.0
        out = sum(dissipator_double_sum(gamma, ops, unit) for gamma, ops in sets)
        if ham is not None:
            out = out - 1j * (ham @ unit - unit @ ham)
        cols.append(out.reshape(n * n))
    return np.array(cols).T


def dephasing_s_lin(t, gamma: float = 1.0):
    """Closed-form linear entropy of |+x><+x| under spin-1/2 z damping."""
    return 0.5 * (1.0 - np.exp(-gamma * np.asarray(t)))


def dissipator_double_sum(gamma: np.ndarray, ops, rho: np.ndarray) -> np.ndarray:
    """Literal double-sum dissipator over a list of coupling operators."""
    out = np.zeros_like(rho, dtype=complex)
    for a in range(len(ops)):
        for b in range(len(ops)):
            g = gamma[a, b]
            if g == 0.0:
                continue
            oa, ob = ops[a], ops[b]
            out = out + g * (ob @ rho @ oa - 0.5 * (oa @ ob @ rho + rho @ oa @ ob))
    return out


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def z_damping_closed_form(rho0: np.ndarray, baths, t: float) -> np.ndarray:
    """rho_ab(t) = rho_ab(0) exp(-1/2 sum_k gamma_k (l_a - l_b)^2 t).

    Exact solution for baths that couple only through z.  ``baths`` lists
    (gamma_k, l_k) with l_k the diagonal of the k-th coupling operator in the
    product Fock basis.
    """
    exponent = np.zeros(rho0.shape)
    for gamma, ell in baths:
        ell = np.asarray(ell, dtype=float)
        exponent += gamma * (ell[:, None] - ell[None, :]) ** 2
    return rho0 * np.exp(-0.5 * exponent * t)


def product_m_values(j1: float, j2: float) -> tuple[np.ndarray, np.ndarray]:
    """(m1, m2) of every product basis state, lexicographic, descending m."""
    m1 = j1 - np.arange(int(round(2 * j1)) + 1)
    m2 = j2 - np.arange(int(round(2 * j2)) + 1)
    return np.repeat(m1, m2.size), np.tile(m2, m1.size)

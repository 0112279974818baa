"""Independent reference constructions for the test suite.

Everything here is derived directly from ladder-operator matrix elements
with plain numpy (and scipy's expm for ``independent_exact``), deliberately
not reusing the package's constructors, so each comparison pits two
separate derivations against each other.
"""

import numpy as np
import scipy.linalg


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
    ladder to M = 0 or 1/2, and the M < 0 half is the reflection
    |L, -M> = (-1)^(j1 + j2 - L) sum <m1, m2|L, M> |-m1, -m2>, giving a full
    independent Clebsch-Gordan table.  Lowering all the way amplifies the
    roundoff of the other levels with the same M as a ladder nears its
    bottom: the table was orthonormal only to 2.3e-12 at j1 = j2 = 6
    (2.6e-14 with the reflection) and 5.6e-11 at j1 = j2 = 8 (1.3e-13).
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
        while em > 0.5 + 1e-9:
            nxt = jm @ cur
            cur = nxt / np.linalg.norm(nxt)
            em -= 1.0
            table[(int(round(2 * ell)), int(round(2 * em)))] = cur
    # <-m1, -m2|L, -M> = (-1)^(j1 + j2 - L) <m1, m2|L, M>, and (-m1, -m2)
    # is the reversed product index
    for (two_l, two_m), vec in list(table.items()):
        if two_m > 0:
            table[(two_l, -two_m)] = (-1) ** int(round(j1 + j2 - two_l / 2)) * vec[::-1]
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


def dense_liouvillian(sets) -> np.ndarray:
    """(n^2, n^2) matrix of the double-sum dissipators.

    Column k is the master equation applied to the k-th row-major unit
    matrix, so it acts on the row-major vec(rho).
    """
    n = sets[0][1][0].shape[0]
    cols = []
    for k in range(n * n):
        unit = np.zeros((n, n), dtype=complex)
        unit.flat[k] = 1.0
        out = sum(dissipator_double_sum(gamma, ops, unit) for gamma, ops in sets)
        cols.append(out.reshape(n * n))
    return np.array(cols).T


def independent_exact(j1: float, j2, gamma1, gamma2):
    """exp(t L) rho0 for independent baths, as a function of (rho0, t).

    L = L1 (x) id + id (x) L2 on the index pairs (a, a') and (b, b'), and
    the two parts commute, so exp(t L) = exp(t L1) (x) exp(t L2).  Each Lk is
    the d^2 x d^2 ``dense_liouvillian`` of the literal double sum over
    ``spin_matrices``, exponentiated by ``scipy.linalg.expm``; E1 R E2^T acts
    on rho0 with its indices grouped as R[(a, a'), (b, b')].  ``j2=None`` is
    one ensemble, and ``gamma2=None`` an undamped second one (E2 = id).  The
    cost is O(d^6 + n^2 d^2) per time, with no basis and no tolerance.
    """
    l1 = dense_liouvillian([(gamma1, spin_matrices(j1))])
    l2 = None if j2 is None or gamma2 is None else dense_liouvillian([(gamma2, spin_matrices(j2))])
    d1 = int(round(2 * j1)) + 1
    d2 = 1 if j2 is None else int(round(2 * j2)) + 1

    def exact(rho0: np.ndarray, t: float) -> np.ndarray:
        e1 = scipy.linalg.expm(t * l1)
        e2 = np.eye(d2 * d2) if l2 is None else scipy.linalg.expm(t * l2)
        r = rho0.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
        out = (e1 @ r @ e2.T).reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3)
        return out.reshape(d1 * d2, d1 * d2)

    return exact


def common_exact(j1: float, j2: float, gamma):
    """exp(t L) rho0 for a common bath at lam = 1, as a function of (rho0, t).

    At lam = 1 each coupling operator is C_a = (J1a + J2a) / 2 = J_a / 2,
    block-diagonal in the coupled basis |L, M> of ``ladder_coupled_table``
    (levels L = j1 + j2 down to |j1 - j2|, M descending): on level L it is
    ``spin_matrices(L)`` / 2, as the table lowers with Condon-Shortley
    phases.  So L maps each block R_LL' of R = U^T rho U (U the real
    orthogonal table) to itself, as the literal double sum on a d_L x d_L'
    block.  Each block pair's (d_L d_L')^2 superoperator is Hermitian, as
    every C_a is, so it is diagonalized by one ``eigh`` when the oracle is
    built; exp(t L) on the block is then V exp(t w) V^dag at every t, and
    the result is transformed back.  No basis and no tolerance.
    """
    table = ladder_coupled_table(j1, j2)
    levels = sorted({two_l for two_l, _ in table}, reverse=True)
    u = np.column_stack([table[(two_l, two_m)] for two_l in levels for two_m in range(two_l, -two_l - 1, -2)])
    halves = [[op / 2.0 for op in spin_matrices(two_l / 2.0)] for two_l in levels]
    ends = np.cumsum([two_l + 1 for two_l in levels])
    spans = [slice(end - (two_l + 1), end) for two_l, end in zip(levels, ends)]

    def block(left, right):
        # vec(A X B) = (A (x) B^T) vec(X) on the row-major vec of a d_L x d_L' block
        eye_l, eye_r = np.eye(left[0].shape[0]), np.eye(right[0].shape[0])
        out = 0.0
        for a in range(3):
            for b in range(3):
                if gamma[a, b] != 0.0:
                    out = out + gamma[a, b] * (
                        np.kron(left[b], right[a].T)
                        - 0.5 * np.kron(left[a] @ left[b], eye_r)
                        - 0.5 * np.kron(eye_l, (right[a] @ right[b]).T)
                    )
        return out

    def eig(sup):
        # eigh reads one triangle, so a non-Hermitian block would go unnoticed
        assert np.abs(sup - sup.conj().T).max() <= 1e-12 * max(1.0, np.abs(sup).max())
        return np.linalg.eigh(sup)

    eigs = {(p, q): eig(block(halves[p], halves[q])) for p in range(len(levels)) for q in range(len(levels))}

    def exact(rho0: np.ndarray, t: float) -> np.ndarray:
        r = u.T @ rho0 @ u
        out = np.empty_like(r)
        for (p, q), (w, v) in eigs.items():
            blk = r[spans[p], spans[q]]
            out[spans[p], spans[q]] = (v @ (np.exp(t * w) * (v.conj().T @ blk.reshape(-1)))).reshape(blk.shape)
        return u @ out @ u.T

    return exact


def dephasing_s_lin(t, gamma: float = 1.0):
    """Closed-form linear entropy of |+x><+x| under spin-1/2 z damping."""
    return 0.5 * (1.0 - np.exp(-gamma * np.asarray(t)))


def purity_loss_rate(rho: np.ndarray, l_rho: np.ndarray) -> float:
    """d S_lin / dt = -2 Re tr(rho L(rho)) of a Hermitian rho, given L(rho)."""
    return -2.0 * float(np.real(np.vdot(rho, l_rho)))


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

"""Dense numeric kernels: Lindblad right-hand side, RK4 steps, Krylov steps.

``rk4_chunk`` runs fixed RK4 steps stage by stage; ``step_matrix_chunk``
runs them as one product with the precomputed step matrix (small n);
``krylov_propagator`` projects exp(tau L) rho onto the Krylov space of
``rho`` for the adaptive integrator, one right-hand side per basis vector,
with ``pade_expm`` for the small exponential.  Every step is a linear map
of rho: nothing is Hermitized or renormalized, so trace and Hermiticity
drift shows in the result.

Arrays are complex128: ``rho`` (n, n), ``jumps``/``jdags`` stacked
(k, n, n), ``ksum`` = sum_k A_k^dag A_k (n, n).  ``ham`` is the (n, n)
Hamiltonian or None when there is none, and ``has_ham`` is ``ham is not
None``.  Superoperators act on the row-major vec(rho), of length n^2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lindblad_rhs",
    "rk4_chunk",
    "KRYLOV_DIM",
    "krylov_propagator",
    "pade_expm",
    "liouvillian",
    "rk4_step_increment",
    "step_matrix_chunk",
]


def lindblad_rhs(rho, jumps, jdags, ksum, ham, has_ham):
    """drho/dt = -i[H, rho] + sum_k A_k rho A_k^dag - (1/2){ksum, rho}."""
    out = -0.5 * (ksum @ rho + rho @ ksum)
    for k in range(jumps.shape[0]):
        out += jumps[k] @ rho @ jdags[k]
    if has_ham:
        out += -1j * (ham @ rho - rho @ ham)
    return out


# rk4_chunk's own reference: profilers wrap the public name, so a stage step
# counts once as an RK4 step; krylov_propagator calls the public name, so
# each basis vector counts as a right-hand side
_rhs = lindblad_rhs


def rk4_chunk(rho, jumps, jdags, ksum, ham, has_ham, h, nsteps):
    """``nsteps`` classic RK4 steps of size ``h``, evaluated stage by stage."""
    args = (jumps, jdags, ksum, ham, has_ham)
    for _ in range(nsteps):
        k1 = _rhs(rho, *args)
        k2 = _rhs(rho + (0.5 * h) * k1, *args)
        k3 = _rhs(rho + (0.5 * h) * k2, *args)
        k4 = _rhs(rho + h * k3, *args)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def liouvillian(jumps, jdags, ksum, ham, has_ham):
    """Dense (n^2, n^2) matrix of ``lindblad_rhs`` on the row-major vec(rho).

    vec(X rho Y) = (X kron Y^T) vec(rho), so
    L = sum_k A_k kron conj(A_k) - (1/2)(K kron I + I kron K^T)
        - i(H kron I - I kron H^T).
    """
    eye = np.eye(ksum.shape[0])
    out = -0.5 * (np.kron(ksum, eye) + np.kron(eye, ksum.T))
    for k in range(jumps.shape[0]):
        out += np.kron(jumps[k], jdags[k].T)
    if has_ham:
        out += -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    return out


def rk4_step_increment(lv, h):
    """D = P(hL) - I for the RK4 step matrix P(hL), in Horner form.

    One classic RK4 step of a time-independent linear equation is exactly
    vec(rho) -> P(hL) vec(rho), P(hL) = I + hL + (hL)^2/2 + (hL)^3/6 +
    (hL)^4/24, so RK4's truncation error is kept.  A step rho + D vec(rho)
    rounds like the stage update of ``rk4_chunk``; a stored P(hL) would
    round its near-1 diagonal once and repeat that error at every step.
    """
    m = h * lv
    eye = np.eye(m.shape[0])
    p = eye + m / 4.0
    for c in (3.0, 2.0):
        p = eye + (m @ p) / c
    return m @ p


def step_matrix_chunk(rho, inc, nsteps):
    """``rk4_chunk`` with each RK4 step done as vec(rho) + D vec(rho).

    ``inc`` is ``rk4_step_increment(liouvillian(...), h)``.
    """
    n = rho.shape[0]
    vec = rho.reshape(n * n)
    for _ in range(nsteps):
        vec = vec + inc @ vec
    return vec.reshape(n, n)


# Krylov dimension m: an adaptive step builds span{rho, L rho, ...,
# L^(m-1) rho} from m right-hand sides and holds m vectors of n^2.  On the
# adaptive j = 5 benchmark scenario (n = 121, t = 2, tol 1e-10, stride 20)
# m = 10, 12, 14 and 16 take 420, 288, 238 and 208 right-hand sides, and
# the peak RSS at m = 16 is 1.6 % above that at m = 12.  m = 12 is the
# largest that leaves that table a row inside (0, t).
KRYLOV_DIM = 12

# h_{j+1,j} at or below this multiple of ||ksum||_F + ||ham||_F is roundoff:
# the basis has closed and the projection is exact
BREAKDOWN_TOL = 1e-14


def krylov_propagator(rho, jumps, jdags, ksum, ham, has_ham):
    """Arnoldi on vec(rho); returns ``propagate(tau) -> (state, err)``.

    Builds an orthonormal basis V of span{rho, L rho, ..., L^(m-1) rho},
    m = ``KRYLOV_DIM``, with Gram-Schmidt applied twice per vector, and the
    Hessenberg matrix H = V^dag L V.  ``propagate(tau)`` returns
    beta V exp(tau H) e_1 ~ exp(tau L) rho, beta = ||rho||_F, and the error
    estimate err = beta h_{m+1,m} |[exp(tau H)]_{m1}| (Saad, SIAM J. Numer.
    Anal. 29 (1992) 209).  Every tau reuses the one basis, so a retried tau
    costs no right-hand side.  When the basis closes early (an invariant
    subspace, e.g. a stationary state) the projection is exact and err is 0.
    Nothing is Hermitized or renormalized.
    """
    n = rho.shape[0]
    args = (jumps, jdags, ksum, ham, has_ham)
    beta = float(np.linalg.norm(rho))
    floor = BREAKDOWN_TOL * (np.linalg.norm(ksum) + (np.linalg.norm(ham) if has_ham else 0.0))
    basis = np.empty((KRYLOV_DIM, n * n), dtype=np.complex128)
    hess = np.zeros((KRYLOV_DIM, KRYLOV_DIM), dtype=np.complex128)
    basis[0] = rho.reshape(n * n) / beta
    m = KRYLOV_DIM
    for j in range(KRYLOV_DIM):
        w = lindblad_rhs(basis[j].reshape(n, n), *args).reshape(n * n)
        for _ in range(2):
            # V^dag w without conjugating (copying) the basis
            c = (basis[: j + 1] @ w.conj()).conj()
            w -= c @ basis[: j + 1]
            hess[: j + 1, j] += c
        sub = float(np.linalg.norm(w))  # the subdiagonal entry below column j
        if sub <= floor:
            m, sub = j + 1, 0.0
            break
        if j + 1 < KRYLOV_DIM:
            hess[j + 1, j] = sub
            basis[j + 1] = w / sub
    basis, hess = basis[:m], hess[:m, :m]

    def propagate(tau):
        small = pade_expm(tau * hess)
        state = (beta * small[:, 0]) @ basis
        return state.reshape(n, n), beta * sub * abs(small[m - 1, 0])

    return propagate


def pade_expm(a):
    """exp(a) for a small square matrix by scaling and squaring.

    The (6, 6) diagonal Pade approximant of exp(a / 2^s), squared s times
    (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).  s follows
    Expokit's ``padm`` (Sidje, ACM TOMS 24 (1998) 130), which leaves
    ||a / 2^s||_inf < 1/2.  With N(x) = V + U split into its even and odd
    parts, the approximant N(x) / N(-x) is (V - U)^-1 (V + U).
    """
    norm = float(np.abs(a).sum(axis=1).max(initial=0.0))
    s = max(0, int(math.log2(norm)) + 2) if norm > 0.0 else 0
    x = a / 2.0**s
    x2 = x @ x
    eye = np.eye(a.shape[0])
    # diagonal (6, 6) Pade coefficients
    c = [1.0]
    for k in range(1, 7):
        c.append(c[-1] * (7 - k) / (k * (13 - k)))
    even = c[0] * eye + x2 @ (c[2] * eye + x2 @ (c[4] * eye + c[6] * x2))
    odd = x @ (c[1] * eye + x2 @ (c[3] * eye + c[5] * x2))
    out = np.linalg.solve(even - odd, even + odd)
    for _ in range(s):
        out = out @ out
    return out

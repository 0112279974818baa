"""Dense numeric kernels: the Lindblad right-hand side and Krylov steps.

``krylov_propagator`` projects exp(tau L) rho onto the Krylov space of
``rho``, one right-hand side per basis vector, with ``pade_expm`` for the
small exponential; both integration modes of ``generator.evolve`` take
their states from it, at one tau or at a grid of times.  Every state is a
linear map of rho: nothing is Hermitized or renormalized, so trace and
Hermiticity drift shows in the result.

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
]


def lindblad_rhs(rho, jumps, jdags, ksum, ham, has_ham):
    """drho/dt = -i[H, rho] + sum_k A_k rho A_k^dag - (1/2){ksum, rho}."""
    out = -0.5 * (ksum @ rho + rho @ ksum)
    for k in range(jumps.shape[0]):
        out += jumps[k] @ rho @ jdags[k]
    if has_ham:
        out += -1j * (ham @ rho - rho @ ham)
    return out


# not called here: rk4_chunk and its own reference _rhs are kept because
# perfbench/tracing.py wraps _kernels.rk4_chunk by name.  Profilers wrap the
# public lindblad_rhs, so a stage step counts once as an RK4 step;
# krylov_propagator calls the public name, so each basis vector counts as a
# right-hand side
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


# Krylov dimension m: an adaptive step builds span{rho, L rho, ...,
# L^(m-1) rho} from m right-hand sides and holds m vectors of n^2, and a
# larger basis supports a longer step.  Right-hand sides per unit time
# (m / tau over every step but the last, each tau the largest its basis
# supports) on the adaptive benchmark scenario (n = 121, tol 1e-10, to
# t = 2) at its seeds 0-3:
#
#     m                     10    12    14    16    18    20    24
#     seed 0               167   107    79    71    62    53    39
#     seeds 1-3, lowest    170   109    82    64    54    56    42
#     seeds 1-3, highest   180   116    84    66    56    57    43
#
# The rate keeps falling with m while the basis grows as m n^2 complex
# numbers, 19 MB a vector at n = 1,089.  m = 16 takes the steep part:
# 12 -> 16 cuts the rate by 34-44 % for 33 % more basis, 16 -> 20 by 13-25 %
# for 25 % more, and the basis at n = 1,089 is already 303 MB.
KRYLOV_DIM = 16

# h_{j+1,j} at or below this multiple of ||ksum||_F + ||ham||_F is roundoff:
# the basis has closed and the projection is exact
BREAKDOWN_TOL = 1e-14


def krylov_propagator(rho, jumps, jdags, ksum, ham, has_ham):
    """Arnoldi on vec(rho); returns ``(error, state, samples)``.

    Builds an orthonormal basis V of span{rho, L rho, ..., L^(m-1) rho},
    m = ``KRYLOV_DIM``, with Gram-Schmidt applied twice per vector, and the
    Hessenberg matrix H = V^dag L V.  ``error(tau)`` is the estimate
    beta h_{m+1,m} |[exp(tau H)]_{m1}|, beta = ||rho||_F, of the error of
    ``state(tau)`` = beta V exp(tau H) e_1 ~ exp(tau L) rho (Saad, SIAM J.
    Numer. Anal. 29 (1992) 209).  Both reuse the one basis and cost no
    right-hand side: ``error`` takes only the m x m exponential, and
    ``state`` also combines the basis into the n x n state.

    ``samples(times, t0, spacing, budget)`` evaluates the basis at many
    times, as Expokit's ``expv`` does (Sidje, ACM TOMS 24 (1998) 130): the
    states at offsets tau = times[i] - t0, in order, up to the first whose
    error exceeds ``budget`` * tau, as a (rows, n, n) array.  ``times``
    increase ``spacing`` apart, except that the last gap may be shorter.
    The first offset and the last gap take one m x m exponential each and
    every other time one product with exp(spacing H); all states come from
    one (rows x m)(m x n^2) product.

    When the basis closes early (an invariant subspace, e.g. a stationary
    state) the projection is exact and the error is 0; rho = 0 spans
    nothing, its states are 0 and take no right-hand side.  Nothing is
    Hermitized or renormalized.
    """
    n = rho.shape[0]
    beta = float(np.linalg.norm(rho))
    if beta == 0.0:
        return (
            lambda tau: 0.0,
            lambda tau: np.zeros((n, n), dtype=np.complex128),
            lambda times, t0, spacing, budget: np.zeros((len(times), n, n), dtype=np.complex128),
        )
    args = (jumps, jdags, ksum, ham, has_ham)
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

    def error(tau):
        return beta * sub * abs(pade_expm(tau * hess)[m - 1, 0])

    def state(tau):
        return ((beta * pade_expm(tau * hess)[:, 0]) @ basis).reshape(n, n)

    def samples(times, t0, spacing, budget):
        coeffs = []
        for i, t in enumerate(times):
            if i == 0:
                col = pade_expm((t - t0) * hess)[:, 0]
            elif i == len(times) - 1:
                col = pade_expm((t - times[i - 1]) * hess) @ col
            else:
                if i == 1:
                    gap = pade_expm(spacing * hess)
                col = gap @ col
            # error(tau), evaluated as there, so the first offset fails here
            # exactly when it fails error()
            if beta * sub * abs(col[m - 1]) > budget * (t - t0):
                break
            coeffs.append(col)
        return ((beta * np.reshape(coeffs, (-1, m))) @ basis).reshape(-1, n, n)

    return error, state, samples


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

"""Dense numeric kernels: Lindblad right-hand side and RK4 steps.

``rk4_chunk`` runs fixed RK4 steps stage by stage; ``step_matrix_chunk``
runs them as one product with the precomputed step matrix (small n);
``rk4_doubling`` gives the full step and the two half steps of one adaptive
attempt in 8 right-hand sides, the full and the first half step sharing
L rho ... L^4 rho.

Arrays are complex128: ``rho`` (n, n), ``jumps``/``jdags`` stacked
(k, n, n), ``ksum`` = sum_k A_k^dag A_k (n, n).  ``ham`` is the (n, n)
Hamiltonian or None when there is none, and ``has_ham`` is ``ham is not
None``.  Superoperators act on the row-major vec(rho), of length n^2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lindblad_rhs",
    "rk4_chunk",
    "rk4_doubling",
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
# counts once as an RK4 step; rk4_doubling calls the public name, so its
# L^m rho powers count as right-hand sides
_rhs = lindblad_rhs


def rk4_chunk(rho, jumps, jdags, ksum, ham, has_ham, h, nsteps):
    """Classic RK4 with per-step Hermitization and trace renormalization."""
    args = (jumps, jdags, ksum, ham, has_ham)
    for _ in range(nsteps):
        k1 = _rhs(rho, *args)
        k2 = _rhs(rho + (0.5 * h) * k1, *args)
        k3 = _rhs(rho + (0.5 * h) * k2, *args)
        k4 = _rhs(rho + h * k3, *args)
        rho = _renormalized(rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return rho


def rk4_doubling(rho, jumps, jdags, ksum, ham, has_ham, h):
    """(full, half): one RK4 step of h and two of h/2 from ``rho``.

    L is time-independent, so an RK4 step of size s is exactly
    rho + s v1 + s^2 v2/2 + s^3 v3/6 + s^4 v4/24 with v_m = L^m rho.  The
    full step and the first half step share v1..v4 (four right-hand sides);
    the second half step is one ``rk4_chunk`` step (four more).  Every step
    is Hermitized and trace-renormalized as in ``rk4_chunk``.
    """
    args = (jumps, jdags, ksum, ham, has_ham)
    powers = [rho]
    for _ in range(4):
        powers.append(lindblad_rhs(powers[-1], *args))
    full = _renormalized(rho + _taylor_increment(powers, h))
    half = _renormalized(rho + _taylor_increment(powers, 0.5 * h))
    # v1..v4 go before the second half step allocates its four stages
    del powers
    return full, rk4_chunk(half, *args, 0.5 * h, 1)


def _taylor_increment(powers, s):
    # s v1 + s^2 v2/2 + s^3 v3/6 + s^4 v4/24 in Horner form
    _, v1, v2, v3, v4 = powers
    return s * (v1 + (s / 2.0) * (v2 + (s / 3.0) * (v3 + (s / 4.0) * v4)))


def _renormalized(rho):
    rho = 0.5 * (rho + rho.conj().T)
    # index-order sum: np.trace's pairwise order would move the last digits
    # of every trajectory
    return rho / np.add.accumulate(rho.diagonal().real)[-1]


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
    """``rk4_chunk`` with each RK4 step done as rho + D vec(rho).

    ``inc`` is ``rk4_step_increment(liouvillian(...), h)``; every step keeps
    the Hermitization and trace renormalization of ``rk4_chunk``.
    """
    n = rho.shape[0]
    for _ in range(nsteps):
        rho = _renormalized(rho + (inc @ rho.reshape(n * n)).reshape(n, n))
    return rho

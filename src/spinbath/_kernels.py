"""Dense numeric kernels: Lindblad right-hand side and fixed-step RK4 chunks.

Arrays are complex128: ``rho`` (n, n), ``jumps``/``jdags`` stacked
(k, n, n), ``ksum`` = sum_k A_k^dag A_k (n, n).  ``ham`` is the (n, n)
Hamiltonian or None when there is none, and ``has_ham`` is ``ham is not
None``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lindblad_rhs", "rk4_chunk"]


def lindblad_rhs(rho, jumps, jdags, ksum, ham, has_ham):
    """drho/dt = -i[H, rho] + sum_k A_k rho A_k^dag - (1/2){ksum, rho}."""
    out = -0.5 * (ksum @ rho + rho @ ksum)
    for k in range(jumps.shape[0]):
        out += jumps[k] @ rho @ jdags[k]
    if has_ham:
        out += -1j * (ham @ rho - rho @ ham)
    return out


# rk4_chunk's own reference: profilers wrap the public name, and an RK4 step
# must not show up again as four separate right-hand-side calls
_rhs = lindblad_rhs


def rk4_chunk(rho, jumps, jdags, ksum, ham, has_ham, h, nsteps):
    """Classic RK4 with per-step Hermitization and trace renormalization."""
    args = (jumps, jdags, ksum, ham, has_ham)
    for _ in range(nsteps):
        k1 = _rhs(rho, *args)
        k2 = _rhs(rho + (0.5 * h) * k1, *args)
        k3 = _rhs(rho + (0.5 * h) * k2, *args)
        k4 = _rhs(rho + h * k3, *args)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        # index-order sum: np.trace's pairwise order would move the last
        # digits of every trajectory
        rho = rho / np.add.accumulate(rho.diagonal().real)[-1]
    return rho

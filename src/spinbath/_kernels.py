"""Numeric kernels: the banded Lindblad right-hand side and Krylov steps.

``lindblad_rhs`` applies every jump A_k, and -K/2 with K = sum_k A_k^dag
A_k, from its few nonzero diagonals: each jump X (x) I + I (x) Y of
tridiagonal spin factors lies on at most 5 diagonals and K on at most 13,
so a right-hand side costs O(n^2) per diagonal and never forms an n x n
operator.  ``krylov_propagator`` projects exp(tau L) rho onto the Krylov
space of ``rho``, one right-hand side per basis vector, with ``pade_expm``
for the small exponential; both integration modes of ``generator.evolve``
take their states from it, at one tau or at a grid of times.  Its first
``KRYLOV_DIM`` vectors come from Arnoldi and are stored; for a generator
that is self-adjoint in the Hilbert-Schmidt inner product, adaptive
``evolve`` has the basis continue by the Lanczos three-term recurrence, up
to ``LANCZOS_MAX`` vectors, until it reaches t_final, and the vectors past
the stored ones are regenerated when a state is formed instead of kept.
Every state is a linear map of rho: nothing is Hermitized or renormalized,
so trace and Hermiticity drift shows in the result.

Arrays are complex128, ``rho`` (n, n).  A banded operator is stored
row-aligned: ``diags[i, s]`` = A[i, i + offsets[s]], 0 where i + offsets[s]
falls outside the matrix.  ``jumps`` stacks the k jumps' diagonals as
(k, n, w), w the most any jump has, and jump k uses the first
``len(offsets[k])`` columns; ``drift`` is the ``Banded`` -K/2.  ``ham`` is
the dense (n, n) Hamiltonian or None when there is none, and ``has_ham`` is
``ham is not None``.  Superoperators act on the row-major vec(rho), of
length n^2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Banded",
    "kron_banded",
    "stack_banded",
    "lindblad_rhs",
    "rk4_chunk",
    "KRYLOV_DIM",
    "krylov_propagator",
    "pade_expm",
]


class Banded(NamedTuple):
    """An n x n operator on its nonzero diagonals, row-aligned (see above)."""

    diags: np.ndarray
    offsets: tuple[int, ...]


def _row_diagonal(mat, p):
    """Diagonal p of a square matrix, row-aligned: v[a] = mat[a, a + p], 0 past the edge."""
    d = mat.shape[0]
    v = np.zeros(d, dtype=np.complex128)
    v[max(0, -p) : d - max(0, p)] = np.diagonal(mat, p)
    return v


def kron_banded(terms, n, scale=1.0) -> Banded:
    """``scale`` sum_t P_t (x) Q_t on its nonzero diagonals, built from the factors.

    (P (x) Q)[(a, b), (a + p, b + q)] = P[a, a + p] Q[b, b + q] lies on
    diagonal p d2 + q (d2 the size of Q), and row-aligned that diagonal is
    the outer product of P's and Q's row-aligned diagonals p and q, zero
    wherever a + p or b + q leaves its factor.  Only the factors' nonzero
    diagonals are visited, and no n x n matrix is formed.
    """
    def nonzero_offsets(mat):
        # a set, not np.unique, whose first call maps about 1 MB of sort code
        rows, cols = np.nonzero(mat)
        return sorted(set((cols - rows).tolist()))

    diags = {}
    for p_mat, q_mat in terms:
        d2 = q_mat.shape[0]
        q_offsets = nonzero_offsets(q_mat)
        for p in nonzero_offsets(p_mat):
            row = _row_diagonal(p_mat, p)
            for q in q_offsets:
                vec = np.outer(row, _row_diagonal(q_mat, q)).reshape(-1)
                o = p * d2 + q
                diags[o] = diags[o] + vec if o in diags else vec
    offsets = tuple(o for o in sorted(diags) if diags[o].any())
    stack = np.zeros((n, len(offsets)), dtype=np.complex128)
    for s, o in enumerate(offsets):
        stack[:, s] = scale * diags[o]
    return Banded(stack, offsets)


def stack_banded(bands, n):
    """``(jumps, offsets)``: the (k, n, w) stack of the bands' diagonals, zero-padded."""
    width = max((len(b.offsets) for b in bands), default=0)
    jumps = np.zeros((len(bands), n, width), dtype=np.complex128)
    for k, band in enumerate(bands):
        jumps[k, :, : len(band.offsets)] = band.diags
    return jumps, tuple(b.offsets for b in bands)


def _banded_product(diags, offsets, x, out, tmp, add):
    """out += A x (``add``) or out = A x, for A on its row-aligned ``diags``.

    O(n^2) per diagonal.  Without ``add`` the first diagonal's product is
    written into ``out`` and only the rows it misses are zeroed.
    """
    n = x.shape[0]
    for s, o in enumerate(offsets):
        lo, hi = max(0, -o), n - max(0, o)  # the rows i with 0 <= i + o < n
        if add:
            part = tmp[: hi - lo]
            np.multiply(diags[lo:hi, s, None], x[lo + o : hi + o], out=part)
            out[lo:hi] += part
        else:
            np.multiply(diags[lo:hi, s, None], x[lo + o : hi + o], out=out[lo:hi])
            out[:lo] = 0.0
            out[hi:] = 0.0
            add = True
    if not add:
        out.fill(0.0)


def lindblad_rhs(rho, jumps, offsets, drift, ham, has_ham):
    """drho/dt = -i[H, rho] + sum_k A_k rho A_k^dag - (1/2){K, rho}.

    Every right product is taken as a left one, with no assumption that rho
    is Hermitian (Krylov vectors are Hermitian only to roundoff):
    rho G = (G rho^dag)^dag for the Hermitian G = -K/2, and
    (A rho) A^dag = (A (A rho)^dag)^dag, so the dissipator is
    G rho + (G rho^dag + sum_k A_k (A_k rho)^dag)^dag.

    Three separate n x n buffers, so the result frees the others:
    ``inner`` sums the bracket; ``applied`` holds A_k rho and is the
    products' scratch once it has been transposed into ``adjoint``;
    ``adjoint`` is the scratch while ``applied`` is formed, and is returned.
    """
    n = rho.shape[0]
    applied = np.empty((n, n), dtype=np.complex128)
    adjoint = np.empty((n, n), dtype=np.complex128)
    inner = np.empty((n, n), dtype=np.complex128)
    np.conjugate(rho.T, out=adjoint)
    _banded_product(drift.diags, drift.offsets, adjoint, inner, applied, False)
    for k, offs in enumerate(offsets):
        _banded_product(jumps[k], offs, rho, applied, adjoint, False)
        np.conjugate(applied.T, out=adjoint)
        _banded_product(jumps[k], offs, adjoint, inner, applied, True)
    np.conjugate(inner.T, out=adjoint)
    _banded_product(drift.diags, drift.offsets, rho, adjoint, applied, True)
    if has_ham:
        adjoint += -1j * (ham @ rho - rho @ ham)
    return adjoint


# not called here: rk4_chunk and its own reference _rhs are kept because
# perfbench/tracing.py wraps _kernels.rk4_chunk by name.  Profilers wrap the
# public lindblad_rhs, so a stage step counts once as an RK4 step;
# krylov_propagator calls the public name, so each basis vector counts as a
# right-hand side
_rhs = lindblad_rhs


def rk4_chunk(rho, jumps, offsets, drift, ham, has_ham, h, nsteps):
    """``nsteps`` classic RK4 steps of size ``h``, evaluated stage by stage."""
    args = (jumps, offsets, drift, ham, has_ham)
    for _ in range(nsteps):
        k1 = _rhs(rho, *args)
        k2 = _rhs(rho + (0.5 * h) * k1, *args)
        k3 = _rhs(rho + (0.5 * h) * k2, *args)
        k4 = _rhs(rho + h * k3, *args)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


# Krylov dimension m of the stored prefix: every basis builds span{rho,
# L rho, ..., L^(m-1) rho} by Arnoldi from m right-hand sides and holds these
# m vectors of n^2.  A restarted basis (fixed mode, or a generator that is
# not self-adjoint) is this long, and a larger one supports a longer step;
# a Lanczos continuation grows past it without storing more.  Right-hand
# sides per unit time of restarted bases (m / tau over every step but the
# last, each tau the largest its basis supports) on the adaptive benchmark
# scenario (n = 121, tol 1e-10, to t = 2) at its seeds 0-3:
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

# most vectors a Lanczos continuation (``krylov_propagator``'s
# ``lanczos_until``) grows a basis to.  Bases / right-hand sides, and the
# evolve time in ms (best of 3, one BLAS thread, 2 vCPUs), of the adaptive
# benchmark model (tol 1e-10) against the cap:
#
#     cap                            32        48        64        96       128
#     n = 121, t = 2, seeds 0-3    2/88-92   1/76-80   1/76-80   1/76-80   1/76-80
#     n = 121, t = 20, seed 0      7/328     4/276     3/246     2/232     1/196
#                                  654 ms    508 ms    488 ms    526 ms    560 ms
#     n = 121, t = 20, seed 1      8/352     4/302     3/278     2/254     1/220
#                                  873 ms    702 ms    788 ms    971 ms   1732 ms
#     n = 289, t = 2, seed 0       4/176     2/150     2/144     1/132     1/132
#                                 2645 ms   2043 ms   1853 ms   1757 ms   1447 ms
#
# Right-hand sides fall with the cap, but every length past KRYLOV_DIM
# costs its reach test an m x m exponential, O(m^3): at n = 121 past 64
# these cost more than the right-hand sides they save, at n = 289 a larger
# cap still gains 5-20 %.  64 takes the benchmark horizon in one basis, and
# at n = 121, t = 20 it is the fastest at seed 0 and 12 % behind 48 at seed 1.
LANCZOS_MAX = 64

# h_{j+1,j} at or below this multiple of ||K||_F + ||ham||_F is roundoff:
# the basis has closed and the projection is exact
BREAKDOWN_TOL = 1e-14

# largest ||K||_F + ||ham||_F a basis is built for.  A right-hand side of a
# unit vector has norm at most (sqrt(n) + 1) ||K||_F + 2 ||ham||_F, and its
# squared norm must stay inside the float range (1.8e308); past this the
# kernel raises OverflowError instead of letting an infinite scale close
# every basis after one vector, with error 0
SCALE_MAX = 1e150


# pade_expm(tau H) squares s ~ log2(||tau H||_inf) times, and the rounding of
# a mode with eigenvalue near 0 grows as 2^s u (u = 1.1e-16 the unit
# roundoff): past ||tau H||_inf = 2^30, 2^32 u ~ 5e-7, such a mode (the trace
# of a stationary state) is lost; at ||tau H|| ~ 1e100 it decays to exactly
# 0.  ``error`` reports inf there and ``samples`` stops, so no such state is
# taken
EXPM_NORM_MAX = 2.0**30


def _frobenius(a) -> float:
    """||a||_F, rescaled by the largest entry when the squares of entries
    above 1e154 overflow."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if math.isinf(norm):
        big = float(np.abs(a).max())
        norm = big * float(np.linalg.norm(a / big))
    return norm


def krylov_propagator(rho, jumps, offsets, drift, ham, has_ham, *, lanczos_until=None):
    """Arnoldi on vec(rho), continued by Lanczos if asked; returns ``(error, state, samples)``.

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

    ``lanczos_until``, a predicate on error functions, is for a generator
    that is self-adjoint in the Hilbert-Schmidt inner product <X, Y> =
    tr(X^dag Y), as one without a Hamiltonian is (its jumps are Hermitian,
    ``generator.Generator``).  Then H is tridiagonal and the
    basis follows the three-term recurrence beta_j v_{j+1} = L v_j -
    alpha_j v_j - beta_{j-1} v_{j-1} (Lanczos), which stays accurate for
    exp(tau L) rho without reorthogonalization (Druskin, Greenbaum and
    Knizhnerman, SIAM J. Sci. Comput. 19 (1998) 38).  When the
    predicate rejects the error function of the first ``KRYLOV_DIM``
    vectors, the basis grows by that recurrence, one right-hand side a
    vector, until it accepts the error function of the basis so far, or
    the basis has ``LANCZOS_MAX`` vectors.  Only the first ``KRYLOV_DIM``
    are stored: ``state`` and ``samples`` regenerate the others from the
    last stored ones, repeating the same arithmetic, at one right-hand side
    each (one per vector past ``KRYLOV_DIM``).  Memory stays that of
    ``KRYLOV_DIM`` vectors and two n x n buffers.

    When the basis closes early (an invariant subspace, e.g. a stationary
    state) the projection is exact and the error is 0; rho = 0 spans
    nothing, its states are 0 and take no right-hand side.  A generator
    with ||K||_F + ||H||_F above ``SCALE_MAX`` raises OverflowError, and an
    offset with ||tau H||_inf above ``EXPM_NORM_MAX`` fails whatever the
    estimate.  Nothing is Hermitized or renormalized.
    """
    n = rho.shape[0]
    beta = float(np.linalg.norm(rho))
    if beta == 0.0:
        return (
            lambda tau: 0.0,
            lambda tau: np.zeros((n, n), dtype=np.complex128),
            lambda times, t0, spacing, budget: np.zeros((len(times), n, n), dtype=np.complex128),
        )
    args = (jumps, offsets, drift, ham, has_ham)
    # row-aligned diagonals hold each entry of K / 2 once
    scale = 2.0 * _frobenius(drift.diags) + (_frobenius(ham) if has_ham else 0.0)
    if not scale <= SCALE_MAX:
        raise OverflowError(f"generator norm {scale:.3e} is past the float range of a Krylov basis")
    floor = BREAKDOWN_TOL * scale
    size = KRYLOV_DIM if lanczos_until is None else LANCZOS_MAX
    basis = np.empty((KRYLOV_DIM, n * n), dtype=np.complex128)
    hess = np.zeros((size, size), dtype=np.complex128)
    basis[0] = rho.reshape(n * n) / beta

    def orthogonalized(j):
        # L v_j less its projection on v_0, ..., v_j, Gram-Schmidt applied
        # twice, and the projection's coefficients (column j of H)
        w = lindblad_rhs(basis[j].reshape(n, n), *args).reshape(n * n)
        coeffs = np.zeros(j + 1, dtype=np.complex128)
        for _ in range(2):
            # V^dag w without conjugating (copying) the basis
            c = (basis[: j + 1] @ w.conj()).conj()
            w -= c @ basis[: j + 1]
            coeffs += c
        return w, coeffs

    def lanczos_residual(prev, cur, spare, beta_prev):
        # L v_j - beta_{j-1} v_{j-1} - alpha_j v_j for v_j = cur, and alpha_j
        # (Paige's order).  ``spare`` is scratch and may be ``prev``
        w = lindblad_rhs(cur.reshape(n, n), *args).reshape(n * n)
        w -= np.multiply(prev, beta_prev, out=spare)
        alpha = np.vdot(cur, w).real
        w -= np.multiply(cur, alpha, out=spare)
        return w, alpha

    def estimate(m, sub):
        # the error function of the first m vectors, and the offsets whose
        # m x m exponential it trusts
        small = hess[:m, :m]
        hnorm = float(np.abs(small).sum(axis=1).max())

        def trusted(tau):
            return tau * hnorm <= EXPM_NORM_MAX

        def error(tau):
            if not trusted(tau):
                return math.inf
            return beta * sub * abs(pade_expm(tau * small)[m - 1, 0])

        return error, trusted

    m, sub = KRYLOV_DIM, 0.0
    for j in range(KRYLOV_DIM):
        w, hess[: j + 1, j] = orthogonalized(j)
        sub = float(np.linalg.norm(w))  # the subdiagonal entry below column j
        if sub <= floor:
            m, sub = j + 1, 0.0
            break
        if j + 1 < KRYLOV_DIM:
            hess[j + 1, j] = sub
            np.divide(w, sub, out=basis[j + 1])
            del w  # not alive through the next right-hand side
    if lanczos_until is not None and sub > 0.0:
        while m < LANCZOS_MAX and not lanczos_until(estimate(m, sub)[0]):
            if m == KRYLOV_DIM:
                # the two Lanczos vectors alive past the stored basis
                pair = np.empty((2, n * n), dtype=np.complex128)
                prev, cur, spare = basis[-1], pair[0], pair[1]
            hess[m, m - 1] = hess[m - 1, m] = sub
            np.divide(w, sub, out=cur)
            del w
            w, hess[m, m] = lanczos_residual(prev, cur, spare, sub)
            prev, cur, spare = cur, spare, cur
            m += 1
            sub = float(np.linalg.norm(w))
            if sub <= floor:
                sub = 0.0
                break
    error, trusted = estimate(m, sub)
    hess, stored = hess[:m, :m], basis[:m]

    def combine(coeffs):
        # sum_i coeffs[..., i] v_i as (..., n^2): the stored vectors in one
        # product, then each later one regenerated as the build made it
        out = coeffs[..., :KRYLOV_DIM] @ stored
        if m > KRYLOV_DIM and out.size:
            rows, cols = out.reshape(-1, n * n), coeffs.reshape(-1, m)
            w, _ = orthogonalized(KRYLOV_DIM - 1)
            prev, cur, spare = basis[-1], pair[0], pair[1]
            for j in range(KRYLOV_DIM, m):
                beta_prev = hess[j, j - 1].real
                np.divide(w, beta_prev, out=cur)
                del w
                if j + 1 < m:
                    w, _ = lanczos_residual(prev, cur, spare, beta_prev)
                for row, c in zip(rows, cols[:, j]):
                    row += np.multiply(cur, c, out=spare)
                prev, cur, spare = cur, spare, cur
        return out

    def state(tau):
        return combine(beta * pade_expm(tau * hess)[:, 0]).reshape(n, n)

    def samples(times, t0, spacing, budget):
        coeffs = []
        for i, t in enumerate(times):
            if not trusted(t - t0):
                break
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
        return combine(beta * np.reshape(coeffs, (-1, m))).reshape(-1, n, n)

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

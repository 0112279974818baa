"""Numeric kernels: the banded Lindblad right-hand side and Krylov steps.

``lindblad_rhs`` applies every jump A_k, and -K/2 with K = sum_k A_k^dag
A_k, from its few nonzero diagonals: each jump X (x) I + I (x) Y of
tridiagonal spin factors lies on at most 5 diagonals and K on at most 13,
so a right-hand side costs O(n^2) per diagonal and never forms an n x n
operator; given a workspace it allocates nothing.  ``krylov_propagator``
projects exp(tau L) rho onto the Krylov space of ``rho``, one right-hand
side per basis vector, all written into one workspace per basis; both
integration modes of ``generator.evolve`` take their states from it, at
a sub-step or at a grid of times.  Every generator is self-adjoint in the
Hilbert-Schmidt inner product, so one step, the Lanczos three-term
recurrence, makes every vector, to at least ``KRYLOV_DIM`` and up to
``LANCZOS_MAX`` until the next ``KRYLOV_DIM`` of the offsets its caller
asks for pass (or every one, if fewer).  The first vectors, as many as
``BASIS_BYTES`` holds, are kept; the same step replays the others when
states are formed.  The projected generator is the Lanczos matrix T, real
symmetric tridiagonal, and one ``eigh`` of it per basis length gives every
state and error estimate in O(m) per time, with no matrix exponential.
Every state is a linear map of rho: nothing is Hermitized or renormalized,
so trace and Hermiticity drift shows in the result.

Arrays are complex128, ``rho`` (n, n).  A banded operator is stored
row-aligned: ``diags[i, s]`` = A[i, i + offsets[s]], 0 where i + offsets[s]
falls outside the matrix.  ``jumps`` stacks the k jumps' diagonals as
(k, n, w), w the most any jump has, and jump k uses the first
``len(offsets[k])`` columns; ``drift`` is the ``Banded`` -K/2.  ``ham`` and
``has_ham`` are placeholder slots, always ``None`` and ``False``
(``generator.Generator.kernel_args``): the kernels ignore them, and they stay
only because perfbench's tracer reads the kernels' arguments by position
(``has_ham`` is ``args[5]``); they go when that tracer does.  Superoperators
act on the row-major vec(rho), of length n^2.
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


def lindblad_rhs(rho, jumps, offsets, drift, ham, has_ham, *, work=None):
    """drho/dt = sum_k A_k rho A_k^dag - (1/2){K, rho}; ``ham``, ``has_ham`` unused.

    Every right product is taken as a left one, with no assumption that rho
    is Hermitian (Krylov vectors are Hermitian only to roundoff):
    rho G = (G rho^dag)^dag for the Hermitian G = -K/2, and
    (A rho) A^dag = (A (A rho)^dag)^dag, so the dissipator is
    G rho + (G rho^dag + sum_k A_k (A_k rho)^dag)^dag.

    Three n x n buffers: ``inner`` sums the bracket; ``applied`` holds
    A_k rho and is the products' scratch once it has been transposed into
    ``adjoint``; ``adjoint`` is the scratch while ``applied`` is formed, and
    is returned.  ``work``, a (3, n, n) complex array that does not overlap
    ``rho``, holds them as ``adjoint, applied, inner``: nothing is
    allocated and the result is ``work[0]``.  Without it the three are
    allocated separately, so the result frees the others.
    """
    n = rho.shape[0]
    if work is None:
        work = [np.empty((n, n), dtype=np.complex128) for _ in range(3)]
    adjoint, applied, inner = work
    np.conjugate(rho.T, out=adjoint)
    _banded_product(drift.diags, drift.offsets, adjoint, inner, applied, False)
    for k, offs in enumerate(offsets):
        _banded_product(jumps[k], offs, rho, applied, adjoint, False)
        np.conjugate(applied.T, out=adjoint)
        _banded_product(jumps[k], offs, adjoint, inner, applied, True)
    np.conjugate(inner.T, out=adjoint)
    _banded_product(drift.diags, drift.offsets, rho, adjoint, applied, True)
    return adjoint


# not called here: kept because perfbench/tracing.py wraps _kernels.rk4_chunk
# by name, and tests check it against the dense exponential
def rk4_chunk(rho, jumps, offsets, drift, ham, has_ham, h, nsteps):
    """``nsteps`` classic RK4 steps of size ``h``, evaluated stage by stage."""
    args = (jumps, offsets, drift, ham, has_ham)
    for _ in range(nsteps):
        k1 = lindblad_rhs(rho, *args)
        k2 = lindblad_rhs(rho + (0.5 * h) * k1, *args)
        k3 = lindblad_rhs(rho + (0.5 * h) * k2, *args)
        k4 = lindblad_rhs(rho + h * k3, *args)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


# shortest Krylov basis m: every basis spans at least {rho, L rho, ...,
# L^(m-1) rho}, m right-hand sides, unless it closes first.  A basis asked
# for no offset, or whose offsets pass at this length, stops here, and a
# basis whose offsets do not pass grows past it.  Right-hand sides per
# unit time of restarted bases of m vectors (m / tau over every step but
# the last, each tau the largest its basis supports) on the adaptive
# benchmark scenario (n = 121, tol 1e-10, to t = 2) at its seeds 0-3:
#
#     m                     10    12    14    16    18    20    24
#     seed 0               167   107    79    71    62    53    39
#     seeds 1-3, lowest    170   109    82    64    54    56    42
#     seeds 1-3, highest   180   116    84    66    56    57    43
#
# The rate keeps falling with m, but a basis whose offsets pass sooner
# still pays for all m.  m = 16 takes the steep part: 12 -> 16 cuts the
# rate by 34-44 %, 16 -> 20 by 13-25 %.  How many of the m vectors are
# stored is ``BASIS_BYTES``'s to set, not m's.
KRYLOV_DIM = 16

# most bytes of basis vectors one basis keeps: min(KRYLOV_DIM, max(1,
# BASIS_BYTES // (16 n^2))) vectors of n^2 complex numbers, all KRYLOV_DIM
# up to n = 64, 4 at n = 121 and 1 from n = 256.  Every vector comes from
# the Lanczos step; the ones past the kept ones are made again by it when a
# state is formed, so a basis of m vectors costs m + max(0, m - stored)
# right-hand sides.  The budget sets only what is replayed: the vectors,
# and so every acceptance decision, are the same bit for bit whatever it
# keeps.  KRYLOV_DIM kept vectors would take 303 MB at n = 1,089 and
# 4.6 GB at n = 4,225 (j1 = j2 = 32), more than any other array of a run;
# under the budget a basis holds, beside the kept vectors, the (3, n, n)
# workspace and two Lanczos vectors, 6 n^2 complex numbers in all at large
# n (README's cost model, "A Krylov basis").  1 MiB keeps all KRYLOV_DIM at
# every n up to 64, the shipped configs (n <= 25) among them, so they
# replay none.
BASIS_BYTES = 2**20

# most vectors a Lanczos continuation (``krylov_propagator``) grows a
# basis to.  Bases / right-hand sides, and the evolve time in ms
# (best of 5, of 3 at n = 289; one BLAS thread, 2 vCPUs), of the adaptive
# benchmark model (tol 1e-10) against the cap:
#
#     cap                            48        64        96       128       192       256
#     n = 121, t = 2, seeds 0-3    1/76-80   1/76-80   1/76-80   1/76-80   1/76-80   1/76-80
#     n = 121, t = 20, seed 0      4/278     3/246     2/232     1/196     1/196     1/196
#                                  397 ms    400 ms    392 ms    362 ms    391 ms    383 ms
#     n = 121, t = 20, seed 1      4/302     3/278     2/254     1/220     1/220     1/220
#                                  748 ms    628 ms    619 ms    541 ms    571 ms    609 ms
#     n = 289, t = 2, seed 0       2/150     2/144     1/132     1/132     1/132     1/132
#                                 2038 ms   1929 ms   1895 ms   1886 ms   1845 ms   1890 ms
#
# The rule: the cap at which right-hand sides stop falling.  A continuation
# stores no more vectors, and its stop test costs one m x m eigh a length,
# small next to a right-hand side at these n, so a longer basis costs only
# the right-hand sides it takes.  128 takes every horizon above in one
# basis and is the fastest or within noise of it on every row; past it
# nothing changes.
LANCZOS_MAX = 128

# a residual norm T[j+1, j] at or below this multiple of ||K||_F is
# roundoff: the basis has closed and the projection is exact.  Lanczos
# vectors lose orthogonality, so a basis whose Krylov space is invariant
# may not fall this low and grows on instead: that costs right-hand sides,
# not accuracy (the recurrence stays accurate for exp(tau L) rho,
# ``krylov_propagator``)
BREAKDOWN_TOL = 1e-14

# largest ||K||_F a basis is built for.  A right-hand side of a unit vector
# has norm at most (sqrt(n) + 1) ||K||_F, and its squared norm must stay
# inside the float range (1.8e308); past this the kernel raises
# OverflowError instead of letting an infinite scale close every basis after
# one vector, with error 0
SCALE_MAX = 1e150


# largest tau ||T||_2 at which a basis's states and error estimate are
# trusted (T the projected generator, ``krylov_propagator``).  Nothing is
# squared, but eigh gives each eigenvalue only to an absolute error of about
# u ||T||_2 (u = 1.1e-16 the unit roundoff), so e^(tau lambda) carries a
# relative error of about tau u ||T||_2: past 2^30 that is 1.2e-7 on a mode
# whose eigenvalue is near 0 (the trace of a stationary state), and at
# tau ||T|| ~ 1e100 such a mode decays to exactly 0, the state with it,
# while the error estimate reads 0 too.  No offset passes there
# (``_passing``), so no such state is taken
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


def small_problem(alpha, sub, beta, resid):
    """The small problem of a Krylov basis of m vectors; returns
    ``(errors, trusted, coefficients)``.

    T is the real symmetric tridiagonal matrix with ``alpha`` (m entries) on
    its diagonal and ``sub`` (m - 1) beside it, factored once as
    T = Q diag(lam) Q^T by ``np.linalg.eigh``; ``beta`` is ||rho||_F and
    ``resid`` the residual norm h, 0 for a closed basis.  For increasing
    offsets ``taus``, ``trusted(taus)`` counts those with
    tau ||T||_2 <= ``EXPM_NORM_MAX``, ``errors(taus)`` the error estimate of
    ``krylov_propagator`` at trusted ones, and ``coefficients(taus)`` the
    (rows, m) array of beta exp(tau T) e_1.  Each row costs O(m)
    arithmetic; ``_passing`` is where trust and error meet.
    """
    m = len(alpha)
    # eigh reads the lower triangle
    lam, q = np.linalg.eigh(np.diag(alpha) + np.diag(sub, -1))
    norm = float(np.abs(lam).max())
    weights = (beta * resid) * q[m - 1] * q[0]
    inverse = np.divide(1.0, lam, out=np.zeros(m), where=lam != 0.0)
    top = max(float(lam[-1]), 0.0)
    if resid > 0.0:
        # log of the cap's factors that do not depend on tau
        log_cap = math.log(beta * resid) + float(np.log(sub).sum()) - math.lgamma(m)

    def trusted(taus):
        return int(np.count_nonzero(taus * norm <= EXPM_NORM_MAX))

    def errors(taus):
        exponents = np.multiply.outer(taus, lam)
        est = np.abs((np.exp(exponents) * weights).sum(axis=-1))
        if resid == 0.0:
            return est
        # int_0^tau e^(s lam) ds, which is tau where lam = 0
        integrals = np.where(lam != 0.0, np.expm1(exponents) * inverse, taus[:, None])
        bound = np.abs((integrals * weights).sum(axis=-1))
        with np.errstate(divide="ignore", over="ignore"):
            cap = np.exp(log_cap + (m - 1) * np.log(taus) + top * taus)
            bound = np.minimum(bound, cap * taus / m)
        return np.maximum(np.minimum(est, cap), bound)

    def coefficients(taus):
        return (beta * np.exp(np.multiply.outer(taus, lam)) * q[0]) @ q.T

    return errors, trusted, coefficients


def _passing(problem, taus, budget) -> int:
    """How many leading ``taus`` (increasing) are trusted and have an error <= ``budget`` * tau,
    tested in blocks doubling from ``KRYLOV_DIM`` up to the first failure."""
    errors, trusted, _ = problem
    taus = taus[: trusted(taus)]
    done, size = 0, KRYLOV_DIM
    while done < len(taus):
        block = taus[done : done + size]
        passed = errors(block) <= budget * block
        if not passed.all():
            return done + int(np.argmin(passed))
        done, size = done + len(block), 2 * size
    return done


def krylov_propagator(rho, jumps, offsets, drift, ham, has_ham, *, taus, tol):
    """A Krylov basis of vec(rho) and the states it gives; returns ``(passing, states)``.

    Builds a basis V of span{rho, L rho, ..., L^(m-1) rho}, m at least
    ``KRYLOV_DIM``, one vector a step, by the Lanczos recurrence
    beta_j v_{j+1} = L v_j - alpha_j v_j - beta_{j-1} v_{j-1}.  The
    generator is self-adjoint in the Hilbert-Schmidt inner product
    <X, Y> = tr(X^dag Y) (its jumps are Hermitian, ``generator.Generator``),
    so the small problem is the Lanczos matrix T, real symmetric
    tridiagonal with the alpha_j on its diagonal and the beta_j beside it,
    factored once as T = Q diag(lambda) Q^T by ``np.linalg.eigh``
    (``small_problem``; Hochbruck and Lubich, SIAM J. Numer. Anal. 34
    (1997) 1911).  No vector is reorthogonalized: the recurrence stays
    accurate for exp(tau L) rho as its vectors lose orthogonality (Druskin,
    Greenbaum and Knizhnerman, SIAM J. Sci. Comput. 19 (1998) 38).
    The state at tau is beta V Q e^(tau lambda) Q^T e_1 ~ exp(tau L) rho, beta =
    ||rho||_F.  With h the norm of the residual L v_m - V T e_m and
    f(s) = e_m^T exp(s T) e_1 > 0, its error is at most
    beta h int_0^tau f(s) ds, as ||exp(r L)|| <= 1 for a self-adjoint
    dissipative L.  The error estimate is the larger of that bound and
    Saad's estimate beta h f(tau) (SIAM J. Numer. Anal. 29 (1992) 209),
    which alone falls short of the error once f has passed its peak.  Both
    are eigen-sums beta h |sum_i Q[m-1, i] Q[0, i] g(lambda_i)|, g(x) =
    e^(tau x) and (e^(tau x) - 1) / x, which cancel to roundoff, about u,
    where the exact values are far smaller, so each is capped by its exact
    bound: beta h (prod_j T[j+1, j]) tau^(m-1) e^(tau max(lambda, 0)) /
    (m-1)! for the estimate, and tau / m times that for the bound; a short
    step then passes as it should.

    An offset tau passes when tau ||T||_2 <= ``EXPM_NORM_MAX`` and its
    estimate is at most tol max(1, beta) tau: ``passing(offsets)`` counts
    the leading ones of increasing offsets that pass (``_passing``), at O(m)
    each.  ``states(offsets)`` gives their states as a (rows, n, n) array,
    as Expokit's ``expv`` gives a time grid from one basis (Sidje, ACM TOMS
    24 (1998) 130): O(m) arithmetic a row, and one (rows x m)(m x n^2)
    product.  The basis grows at one right-hand side a vector: to
    ``KRYLOV_DIM`` vectors, and then, at one m x m eigh more a vector,
    while fewer than min(len(taus), ``KRYLOV_DIM``) of the offsets ``taus``
    pass, up to ``LANCZOS_MAX``.  ``states`` replays the vectors past the
    kept ones by the build's own step, from the last two kept ones, at
    m - stored right-hand sides a call.

    Memory is that of the ``stored`` = min(``KRYLOV_DIM``, max(1,
    ``BASIS_BYTES`` // (16 n^2))) kept vectors, two more Lanczos vectors
    and one (3, n, n) workspace, which every right-hand side writes into
    (``lindblad_rhs``'s ``work``) and every step uses as scratch; no state
    aliases it, and a basis of at most ``stored`` vectors frees it once
    built.  When the basis closes early (an invariant subspace, e.g. a
    stationary state, whose residual falls to ``BREAKDOWN_TOL``) the
    projection is exact and the error is 0; rho = 0 spans nothing, its
    states are 0, every offset passes (``passing`` is ``len``) and none
    takes a right-hand side.  A generator with ||K||_F
    above ``SCALE_MAX`` raises OverflowError.  Nothing is Hermitized or
    renormalized.
    """
    n = rho.shape[0]
    taus = np.asarray(taus, dtype=np.float64)
    beta = float(np.linalg.norm(rho))
    if beta == 0.0:
        return len, lambda offsets: np.zeros((len(offsets), n, n), dtype=np.complex128)
    budget = tol * max(1.0, beta)
    need = min(len(taus), KRYLOV_DIM)  # the leading offsets the basis grows to pass
    args = (jumps, offsets, drift, ham, has_ham)
    # row-aligned diagonals hold each entry of K / 2 once
    scale = 2.0 * _frobenius(drift.diags)
    if not scale <= SCALE_MAX:
        raise OverflowError(f"generator norm {scale:.3e} is past the float range of a Krylov basis")
    floor = BREAKDOWN_TOL * scale
    stored = min(KRYLOV_DIM, max(1, BASIS_BYTES // (16 * n * n)))
    basis = np.empty((stored, n * n), dtype=np.complex128)
    # every right-hand side writes into ``work`` and returns work[0], which
    # holds L v until it becomes the next vector; work[1] is also the
    # recurrence's scratch
    work = np.empty((3, n, n), dtype=np.complex128)
    scratch = work[1].reshape(n * n)
    # T: alpha on its diagonal, sub[j] = T[j + 1, j] below it
    alpha = np.zeros(LANCZOS_MAX)
    sub = np.zeros(LANCZOS_MAX)
    np.divide(rho.reshape(n * n), beta, out=basis[0])

    def step(j, vec, prev):
        # the Lanczos three-term recurrence in Paige's order, for vec = v_j
        # and prev = v_(j-1): w = L v_j - sub[j - 1] v_(j-1) (no such term
        # at j = 0), alpha_j = Re<v_j, w>, then w -= alpha_j v_j
        w = lindblad_rhs(vec.reshape(n, n), *args, work=work).reshape(n * n)
        if j:
            w -= np.multiply(prev, sub[j - 1], out=scratch)
        diag = np.vdot(vec, w).real
        w -= np.multiply(vec, diag, out=scratch)
        return w, diag

    def advance(j, w, vec):
        # v_(j+1) = w / sub[j], into the next stored row or else the
        # Lanczos buffer that ``vec`` = v_j is not in
        nxt = basis[j + 1] if j + 1 < stored else lanczos[1] if vec is lanczos[0] else lanczos[0]
        return np.divide(w, sub[j], out=nxt)

    # at each length m: the breakdown test, then from KRYLOV_DIM on the
    # small problem, until ``need`` offsets pass or the basis reaches
    # LANCZOS_MAX
    m, vec, prev = 1, basis[0], None
    while True:
        w, alpha[m - 1] = step(m - 1, vec, prev)
        resid = float(np.linalg.norm(w))  # the subdiagonal entry below column m - 1
        resid = 0.0 if resid <= floor else resid
        if resid == 0.0 or m >= KRYLOV_DIM:
            problem = small_problem(alpha[:m], sub[: m - 1], beta, resid)
            if resid == 0.0 or m >= LANCZOS_MAX or _passing(problem, taus[:need], budget) >= need:
                break
        if m == stored:
            # the two Lanczos vectors alive past the stored basis
            lanczos = tuple(np.empty((2, n * n), dtype=np.complex128))
        sub[m - 1] = resid
        prev, vec = vec, advance(m - 1, w, vec)
        m += 1
    if m <= stored:
        # ``states`` replays no vector, so no state is formed with the
        # workspace alive
        del work, scratch
    _, _, coefficients = problem

    def passing(offsets):
        return _passing(problem, offsets, budget)

    def states(offsets):
        # sum_i coeffs[:, i] v_i: the stored vectors in one product, then
        # each later one replayed by the build's steps from the last two
        # stored ones
        coeffs = coefficients(offsets)
        out = coeffs[:, :stored] @ basis[:m]
        if m > stored and len(out):
            vec, prev = basis[-1], basis[-2] if stored > 1 else None
            for j in range(stored - 1, m - 1):
                w, _ = step(j, vec, prev)
                prev, vec = vec, advance(j, w, vec)
                for row, c in zip(out, coeffs[:, j + 1]):
                    row += np.multiply(vec, c, out=scratch)
        return out.reshape(-1, n, n)

    return passing, states

"""Initial states for one and two collective spins.

State vectors and density matrices are plain complex arrays, length n and
n x n, in the basis conventions of :mod:`spinbath.spin_algebra`
(descending m, lexicographic products).
"""

from __future__ import annotations

from math import ldexp, sqrt

import numpy as np

from .spin_algebra import SpinQuantum, _twice

__all__ = [
    "PROFILE_KINDS",
    "EntangledStateSpec",
    "fock_state",
    "coherent_x",
    "coefficient_profile",
    "entangled_state",
    "density_from_pure",
    "partial_trace",
]

PROFILE_KINDS = ("uniform", "alternating_uniform", "singlet", "gaussian", "custom")


def fock_state(j, m) -> np.ndarray:
    """Unit vector |m> of a single collective spin j."""
    s = SpinQuantum.of(j)
    idx = s.index_of(_twice(m, name="m", allow_negative=True))
    vec = np.zeros(s.dim, dtype=np.complex128)
    vec[idx] = 1.0
    return vec


def coherent_x(j) -> np.ndarray:
    """Spin coherent state polarized along +x (top Jx eigenvector).

    Amplitudes on |m> are 2^-j sqrt(C(2j, j-m)), all positive.  C = C(2j, k)
    passes the float range from j = 515, so it is divided, exactly rounded,
    by the power 4^e that leaves it in [1/2, 2): sqrt(C / 4^e) 2^(e - j) is
    2^-j sqrt(C) bit for bit wherever C fits.
    """
    s = SpinQuantum.of(j)
    whole = s.two_j // 2
    frac = 2.0 ** (whole - s.j)  # 1, or 2^-1/2 at a half-integer j
    amps, c = [], 1  # c = C(2j, k), exact
    for k in range(s.dim):
        e = c.bit_length() // 2
        amps.append(ldexp(sqrt(c / (1 << 2 * e)) * frac, e - whole))
        c = c * (s.two_j - k) // (k + 1)
    return np.array(amps, dtype=np.complex128)


def _unit_vector(psi, what: str = "state vector", hint: str = "") -> np.ndarray:
    """psi flattened to complex128; raises unless sum |psi_i|^2 (tr |psi><psi|)
    is 1 within 1e-12."""
    vec = np.ascontiguousarray(np.asarray(psi).reshape(-1), dtype=np.complex128)
    norm_dev = abs(float(np.sum(np.abs(vec) ** 2)) - 1.0)
    if not norm_dev <= 1e-12:
        raise ValueError(f"{what} not normalized (|1 - sum| = {norm_dev:.3e}){hint}")
    return vec


def _normalized(c: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(c))
    if (norm == 0.0 or norm == np.inf) and c.any():  # the squares underflowed or overflowed
        c = c / np.abs(c).max()
        norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero coefficient vector")
    return c / norm


class EntangledStateSpec:
    """Coefficient profile c_m over the anticorrelated pairs |m, -m>.

    ``coeffs[i]`` is c_m for m = n_tilde - i (descending, matching basis
    order), with n_tilde = min(j1, j2).  Ensemble 1 carries m, ensemble 2
    carries -m, so j1 - j2 must be an integer for the pairs to exist.
    """

    def __init__(self, j1: SpinQuantum, j2: SpinQuantum, coeffs: np.ndarray) -> None:
        s1 = SpinQuantum.of(j1)
        s2 = SpinQuantum.of(j2)
        if (s1.two_j - s2.two_j) % 2:
            raise ValueError(
                f"j1={s1.j} and j2={s2.j} have no |m, -m> pairs "
                "(integer spins couple to integer, half-integer to half-integer)"
            )
        coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        expected = min(s1.two_j, s2.two_j) + 1
        if coeffs.ndim != 1 or coeffs.shape[0] != expected:
            raise ValueError(f"expected {expected} coefficients, got shape {coeffs.shape}")
        _unit_vector(coeffs, "coefficients", '; use coefficient_profile("custom", ..., auto_normalize=True)')
        self.j1, self.j2, self.coeffs = s1, s2, coeffs

    @property
    def n_tilde(self) -> SpinQuantum:
        return min(self.j1, self.j2)

    def m_values(self) -> np.ndarray:
        return self.n_tilde.m_values()


def coefficient_profile(
    kind: str,
    n_tilde,
    width: float | None = None,
    coeffs=None,
    auto_normalize: bool = False,
) -> np.ndarray:
    """Normalized coefficient vector c_m, m = n_tilde .. -n_tilde (descending).

    Kinds
    -----
    uniform
        c_m = 1 / sqrt(2 n_tilde + 1).
    alternating_uniform, singlet
        c_m = (-1)^(n_tilde - m) / sqrt(2 n_tilde + 1); adjacent products
        are negative and the top coefficient is real positive.  ``singlet``
        is the same vector and exists because for equal ensembles
        (n_tilde = j) these are exactly the |L=0, M=0> amplitudes.
    gaussian
        c_m proportional to exp(-m^2 / (2 width^2)), ``width`` > 0 required.
    custom
        ``coeffs`` taken verbatim; must be normalized within 1e-12 unless
        ``auto_normalize`` is set.
    """
    nt = SpinQuantum.of(n_tilde)
    if kind == "uniform":
        c = np.ones(nt.dim, dtype=np.complex128)
    elif kind in ("alternating_uniform", "singlet"):
        if nt.two_j < 1:
            raise ValueError("alternating profile needs n_tilde >= 1/2")
        c = ((-1.0) ** np.arange(nt.dim)).astype(np.complex128)
    elif kind == "gaussian":
        if width is None or float(width) <= 0.0:
            raise ValueError("gaussian profile needs width > 0")
        m = nt.m_values()
        with np.errstate(over="ignore"):  # (m / width)^2 = inf gives c_m = 0
            c = np.exp(-((m / float(width)) ** 2) / 2.0).astype(np.complex128)
    elif kind == "custom":
        if coeffs is None:
            raise ValueError("custom profile needs coeffs")
        c = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.shape[0] != nt.dim:
            raise ValueError(f"expected {nt.dim} coefficients, got shape {c.shape}")
        if not auto_normalize:
            _unit_vector(c, "custom coefficients")
            return c
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return _normalized(c)


def entangled_state(spec: EntangledStateSpec) -> np.ndarray:
    """Product-basis vector sum_m c_m |m>_1 |-m>_2."""
    s1, s2 = spec.j1, spec.j2
    nt = spec.n_tilde
    vec = np.zeros(s1.dim * s2.dim, dtype=np.complex128)
    for i, cm in enumerate(spec.coeffs):
        two_m = nt.two_j - 2 * i
        i1 = s1.index_of(two_m)
        i2 = s2.index_of(-two_m)
        vec[i1 * s2.dim + i2] = cm
    return vec


def density_from_pure(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| (n x n) for a normalized vector."""
    psi = _unit_vector(psi)
    return np.outer(psi, psi.conj())


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Reduced density matrix of factor ``keep`` of a two-factor state.

    ``dims`` = (d1, d2) are the factor dimensions of the (d1 d2) x (d1 d2)
    array ``rho``.
    """
    if len(dims) != 2:
        raise ValueError(f"partial trace needs exactly two factors, got dims {tuple(dims)}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    d1, d2 = dims
    mat = np.asarray(rho, dtype=np.complex128)
    if mat.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {tuple(dims)}")
    r = mat.reshape(d1, d2, d1, d2)
    reduced = np.einsum("abcb->ac", r) if keep == 0 else np.einsum("abad->bd", r)
    return np.ascontiguousarray(reduced)

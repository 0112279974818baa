"""Initial states for one and two collective spins.

Vectors and density matrices follow the basis conventions of
:mod:`spinbath.spin_algebra` (descending m, lexicographic products).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .spin_algebra import SpinOperator, SpinQuantum, _twice

__all__ = [
    "PROFILE_KINDS",
    "DensityMatrix",
    "EntangledStateSpec",
    "fock_state",
    "coherent_x",
    "coefficient_profile",
    "entangled_state",
    "density_from_pure",
    "partial_trace",
]

PROFILE_KINDS = ("uniform", "alternating_uniform", "singlet", "gaussian", "custom")


# DensityMatrix.validate bounds: Hermiticity defect, |tr - 1|, lowest eigenvalue
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


class DensityMatrix(SpinOperator):
    """Density operator tagged with its tensor-factor dimensions."""

    def validate(self) -> None:
        """Raise ValueError unless Hermitian, unit trace and PSD."""
        mat = self.matrix
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > HERM_TOL:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"trace deviates from one by {trace_dev:.3e}")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {lo:.3e}")


def fock_state(j, m) -> np.ndarray:
    """Unit vector |m> of a single collective spin j."""
    s = SpinQuantum.of(j)
    idx = s.index_of(_twice(m, name="m", allow_negative=True))
    vec = np.zeros(s.dim, dtype=np.complex128)
    vec[idx] = 1.0
    return vec


def coherent_x(j) -> np.ndarray:
    """Spin coherent state polarized along +x (top Jx eigenvector).

    Amplitudes on |m> are 2^-j sqrt(C(2j, j-m)), all positive.
    """
    s = SpinQuantum.of(j)
    amps = np.array([comb(s.two_j, k) for k in range(s.dim)], dtype=np.float64)
    vec = np.sqrt(amps) * 2.0 ** (-s.j)
    return vec.astype(np.complex128)


def _check_normalized(c: np.ndarray, what: str, hint: str = "") -> None:
    norm_dev = abs(float(np.sum(np.abs(c) ** 2)) - 1.0)
    if norm_dev > 1e-12:
        raise ValueError(f"{what} not normalized (|1 - sum| = {norm_dev:.3e}){hint}")


def _normalized(c: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero coefficient vector")
    return c / norm


@dataclass(frozen=True, eq=False)
class EntangledStateSpec:
    """Coefficient profile c_m over the anticorrelated pairs |m, -m>.

    ``coeffs[i]`` is c_m for m = n_tilde - i (descending, matching basis
    order), with n_tilde = min(j1, j2).  Ensemble 1 carries m, ensemble 2
    carries -m, so j1 - j2 must be an integer for the pairs to exist.
    """

    j1: SpinQuantum
    j2: SpinQuantum
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        s1 = SpinQuantum.of(self.j1)
        s2 = SpinQuantum.of(self.j2)
        if (s1.two_j - s2.two_j) % 2:
            raise ValueError(
                f"j1={s1.j} and j2={s2.j} have no |m, -m> pairs "
                "(integer spins couple to integer, half-integer to half-integer)"
            )
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        expected = min(s1.two_j, s2.two_j) + 1
        if coeffs.ndim != 1 or coeffs.shape[0] != expected:
            raise ValueError(f"expected {expected} coefficients, got shape {coeffs.shape}")
        _check_normalized(
            coeffs, "coefficients", "; use EntangledStateSpec.make(..., auto_normalize=True)"
        )
        object.__setattr__(self, "j1", s1)
        object.__setattr__(self, "j2", s2)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def make(cls, j1, j2, coeffs, auto_normalize: bool = False) -> "EntangledStateSpec":
        coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if auto_normalize:
            coeffs = _normalized(coeffs)
        return cls(SpinQuantum.of(j1), SpinQuantum.of(j2), coeffs)

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
        c = np.exp(-(m**2) / (2.0 * float(width) ** 2)).astype(np.complex128)
    elif kind == "custom":
        if coeffs is None:
            raise ValueError("custom profile needs coeffs")
        c = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.shape[0] != nt.dim:
            raise ValueError(f"expected {nt.dim} coefficients, got shape {c.shape}")
        if not auto_normalize:
            _check_normalized(c, "custom coefficients")
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


def _unit_vector(psi) -> np.ndarray:
    """psi flattened to complex128; raises unless its norm is 1 within 1e-12."""
    vec = np.ascontiguousarray(np.asarray(psi).reshape(-1), dtype=np.complex128)
    norm_dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if norm_dev > 1e-12:
        raise ValueError(f"state vector not normalized (|1 - norm| = {norm_dev:.3e})")
    return vec


def density_from_pure(psi, dims) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| for a normalized vector."""
    psi = _unit_vector(psi)
    return DensityMatrix(np.outer(psi, psi.conj()), tuple(dims))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced density matrix of one factor of a two-factor state."""
    if len(rho.dims) != 2:
        raise ValueError(f"partial trace needs exactly two factors, got dims {rho.dims}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    d1, d2 = rho.dims
    r = rho.matrix.reshape(d1, d2, d1, d2)
    if keep == 0:
        reduced = np.einsum("abcb->ac", r)
        dims = (d1,)
    else:
        reduced = np.einsum("abad->bd", r)
        dims = (d2,)
    return DensityMatrix(np.ascontiguousarray(reduced), dims)

"""Collective spin operators and angular-momentum coupling.

An ensemble of N spin-1/2 particles restricted to its symmetric subspace
behaves as a single spin j = N/2.  All matrices here use the eigenbasis of
Jz ordered by descending magnetic number m = j, ..., -j; operators on two
ensembles live on the lexicographic tensor product of the single-ensemble
bases (plain ``np.kron`` order, first ensemble outermost).  Half-integer
quantum numbers are stored as doubled integers so no comparison ever goes
through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SpinQuantum",
    "SpinOperator",
    "CoupledLevel",
    "AngularMomentumOps",
    "CompositeOps",
    "angular_momentum_ops",
    "embed",
    "composite_coupling_ops",
    "clebsch_gordan",
    "coupled_basis_state",
]


def _twice(value, name: str = "j", allow_negative: bool = False) -> int:
    """Return 2*value as an exact integer, rejecting non-half-integers."""
    two = 2.0 * float(value)
    rounded = int(round(two))
    if abs(two - rounded) > 1e-9:
        raise ValueError(f"{name}={value!r} is not a half-integer")
    if not allow_negative and rounded < 0:
        raise ValueError(f"{name}={value!r} must be non-negative")
    return rounded


def _check_level(two_j: int, two_m: int, m_name: str, j_name: str) -> None:
    """Raise unless 2m is a level of 2j: |m| <= j and j - m an integer."""
    if abs(two_m) > two_j or (two_j - two_m) % 2:
        raise ValueError(f"{m_name}={two_m / 2} is not a level of {j_name}={two_j / 2}")


@dataclass(frozen=True, order=True)
class SpinQuantum:
    """Spin magnitude j stored as the exact integer 2j."""

    two_j: int

    def __post_init__(self) -> None:
        two = int(self.two_j)
        if two != self.two_j or two < 0:
            raise ValueError(f"2j must be a non-negative integer, got {self.two_j!r}")
        object.__setattr__(self, "two_j", two)

    @classmethod
    def of(cls, j) -> "SpinQuantum":
        """Coerce a float/int half-integer (or SpinQuantum) to SpinQuantum."""
        if isinstance(j, SpinQuantum):
            return j
        return cls(_twice(j))

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order (descending j..-j)."""
        return (self.two_j - 2.0 * np.arange(self.dim)) / 2.0

    def index_of(self, two_m: int) -> int:
        """Basis index of |m> given 2m."""
        _check_level(self.two_j, two_m, "m", "j")
        return (self.two_j - two_m) // 2


@dataclass(frozen=True, eq=False)
class SpinOperator:
    """Dense complex operator tagged with its tensor-factor dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in dims):
            raise ValueError("every factor dimension must be positive")
        n = math.prod(dims)
        if mat.ndim != 2 or mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CoupledLevel:
    """Total angular momentum level |L, M>, stored as doubled integers."""

    two_l: int
    two_m: int

    def __post_init__(self) -> None:
        tl, tm = int(self.two_l), int(self.two_m)
        if tl != self.two_l or tm != self.two_m or tl < 0:
            raise ValueError("2L and 2M must be integers with L >= 0")
        _check_level(tl, tm, "M", "L")
        object.__setattr__(self, "two_l", tl)
        object.__setattr__(self, "two_m", tm)

    @classmethod
    def of(cls, ell, em) -> "CoupledLevel":
        if isinstance(ell, CoupledLevel):
            return ell
        return cls(_twice(ell, name="L"), _twice(em, name="M", allow_negative=True))

    @property
    def L(self) -> float:
        return self.two_l / 2.0

    @property
    def M(self) -> float:
        return self.two_m / 2.0


class AngularMomentumOps(NamedTuple):
    x: SpinOperator
    y: SpinOperator
    z: SpinOperator
    sq: SpinOperator


class CompositeOps(NamedTuple):
    x: SpinOperator
    y: SpinOperator
    z: SpinOperator


def angular_momentum_ops(j) -> AngularMomentumOps:
    """Spin operators Jx, Jy, Jz and J^2 for a single collective spin.

    Parameters
    ----------
    j : half-integer or SpinQuantum
        Spin magnitude (N/2 for an ensemble of N spin-1/2 particles).

    Returns
    -------
    AngularMomentumOps
        Named tuple of SpinOperator fields ``x, y, z, sq`` on the
        (2j+1)-dimensional space, basis ordered by descending m.
    """
    s = SpinQuantum.of(j)
    m = s.m_values()
    dim = s.dim
    jj = s.j * (s.j + 1.0)
    jz = np.diag(m.astype(np.complex128))
    # <m+1|J+|m> = sqrt(j(j+1) - m(m+1)); descending order puts the raising
    # operator on the superdiagonal.
    raise_amp = np.sqrt(jj - m[1:] * (m[1:] + 1.0))
    jp = np.zeros((dim, dim), dtype=np.complex128)
    jp[np.arange(dim - 1), np.arange(1, dim)] = raise_amp
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jsq = jj * np.eye(dim, dtype=np.complex128)
    dims = (dim,)
    return AngularMomentumOps(
        SpinOperator(jx, dims),
        SpinOperator(jy, dims),
        SpinOperator(jz, dims),
        SpinOperator(jsq, dims),
    )


def embed(op, slot: int, dims: Sequence[int]) -> SpinOperator:
    """Lift an operator on one tensor factor to the full product space.

    Parameters
    ----------
    op : SpinOperator or ndarray
        Operator acting on factor ``slot``.
    slot : int
        Index of the factor ``op`` acts on.
    dims : sequence of int
        Dimensions of all factors.
    """
    dims = tuple(int(d) for d in dims)
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} outside 0..{len(dims) - 1}")
    mat = op.matrix if isinstance(op, SpinOperator) else np.asarray(op, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape != (dims[slot], dims[slot]):
        raise ValueError(
            f"operator of shape {mat.shape} does not act on factor of dimension {dims[slot]}"
        )
    out = np.eye(1, dtype=np.complex128)
    for k, d in enumerate(dims):
        out = np.kron(out, mat if k == slot else np.eye(d, dtype=np.complex128))
    return SpinOperator(out, dims)


def composite_coupling_ops(j1, j2, lam: float) -> CompositeOps:
    """Weighted coupling operators of two ensembles sharing one bath.

    For each axis a the returned operator is
    ``(lam * J1a + (2 - lam) * J2a) / 2`` on the product space.  At the
    endpoints lam = 0 and lam = 2 this reduces exactly (entrywise) to the
    embedded single-ensemble operator.

    Parameters
    ----------
    j1, j2 : half-integer or SpinQuantum
        Spin magnitudes of the two ensembles.
    lam : float
        Coupling asymmetry, 0 <= lam <= 2; lam = 1 is the symmetric point.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 2.0:
        raise ValueError(f"lam={lam} outside [0, 2]")
    ops1 = angular_momentum_ops(j1)
    ops2 = angular_momentum_ops(j2)
    dims = (ops1.z.dim, ops2.z.dim)
    out = []
    for a in range(3):
        m1 = embed(ops1[a], 0, dims).matrix
        m2 = embed(ops2[a], 1, dims).matrix
        out.append(SpinOperator((lam * m1 + (2.0 - lam) * m2) / 2.0, dims))
    return CompositeOps(*out)


def _ln_fact(n: int) -> float:
    return math.lgamma(n + 1.0)


def _check_triangle(tj1: int, tj2: int, tl: int) -> None:
    """Raise unless L couples j1 and j2 (all arguments doubled)."""
    if not (abs(tj1 - tj2) <= tl <= tj1 + tj2) or (tj1 + tj2 - tl) % 2:
        raise ValueError(f"L={tl / 2} incompatible with j1={tj1 / 2}, j2={tj2 / 2}")


def clebsch_gordan(j1, m1, j2, m2, ell, em) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | L M>.

    Racah closed form with log-factorial accumulation, Condon-Shortley
    phase convention.  Returns 0.0 when M != m1 + m2; raises ValueError
    for quantum numbers that are not consistent half-integers.
    """
    tj1 = SpinQuantum.of(j1).two_j
    tj2 = SpinQuantum.of(j2).two_j
    tl = SpinQuantum.of(ell).two_j
    tm1 = _twice(m1, name="m1", allow_negative=True)
    tm2 = _twice(m2, name="m2", allow_negative=True)
    tm = _twice(em, name="M", allow_negative=True)
    _check_level(tj1, tm1, "m1", "j1")
    _check_level(tj2, tm2, "m2", "j2")
    _check_level(tl, tm, "M", "L")
    _check_triangle(tj1, tj2, tl)
    if tm1 + tm2 != tm:
        return 0.0

    a = (tj1 + tj2 - tl) // 2
    b = (tj1 - tj2 + tl) // 2
    c = (tj2 - tj1 + tl) // 2
    log_pref = 0.5 * (
        math.log(tl + 1.0)
        + _ln_fact(a)
        + _ln_fact(b)
        + _ln_fact(c)
        - _ln_fact((tj1 + tj2 + tl) // 2 + 1)
        + _ln_fact((tl + tm) // 2)
        + _ln_fact((tl - tm) // 2)
        + _ln_fact((tj1 - tm1) // 2)
        + _ln_fact((tj1 + tm1) // 2)
        + _ln_fact((tj2 - tm2) // 2)
        + _ln_fact((tj2 + tm2) // 2)
    )
    p = (tj1 - tm1) // 2
    q = (tj2 + tm2) // 2
    r = (tl - tj2 + tm1) // 2
    s = (tl - tj1 - tm2) // 2
    total = 0.0
    for k in range(max(0, -r, -s), min(a, p, q) + 1):
        log_term = log_pref - (
            _ln_fact(k)
            + _ln_fact(a - k)
            + _ln_fact(p - k)
            + _ln_fact(q - k)
            + _ln_fact(r + k)
            + _ln_fact(s + k)
        )
        total += (-1.0) ** k * math.exp(log_term)
    return total


def coupled_basis_state(j1, j2, ell, em) -> np.ndarray:
    """Expand the coupled level |L, M> in the two-ensemble product basis.

    Returns a complex vector of length (2 j1 + 1)(2 j2 + 1) whose entries
    follow the lexicographic product-basis order.
    """
    s1 = SpinQuantum.of(j1)
    s2 = SpinQuantum.of(j2)
    lvl = CoupledLevel.of(ell, em)
    _check_triangle(s1.two_j, s2.two_j, lvl.two_l)
    vec = np.zeros(s1.dim * s2.dim, dtype=np.complex128)
    for i1 in range(s1.dim):
        tm1 = s1.two_j - 2 * i1
        tm2 = lvl.two_m - tm1
        if abs(tm2) > s2.two_j:
            continue
        i2 = (s2.two_j - tm2) // 2
        vec[i1 * s2.dim + i2] = clebsch_gordan(
            s1.j, tm1 / 2.0, s2.j, tm2 / 2.0, lvl.L, lvl.M
        )
    return vec

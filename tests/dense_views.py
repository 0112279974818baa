"""Dense n x n views of factored operators and of a ``Generator``.

The library keeps every operator factored, X (x) I + I (x) Y, and the
generator keeps its jumps and -K/2 on their nonzero diagonals only.  Tests
that want dense matrices build them here, with plain ``np.kron`` from
``gen.jump_ops``, and never read the generator's private kernel arrays.
"""

from typing import NamedTuple

import numpy as np


def dense(op) -> np.ndarray:
    """The n x n matrix kron(X, I) + kron(I, Y) of a ``FactoredOperator``, or X alone."""
    if op.y is None:
        return op.x.copy()
    return np.kron(op.x, np.eye(op.dims[1])) + np.kron(np.eye(op.dims[0]), op.y)


class DenseGenerator(NamedTuple):
    jumps: list[np.ndarray]
    ksum: np.ndarray


def dense_generator(gen) -> DenseGenerator:
    """The jumps A_k and K = sum_k A_k^dag A_k, dense."""
    jumps = [dense(op) for op in gen.jump_ops]
    ksum = np.zeros((gen.dim, gen.dim), dtype=np.complex128)
    for a in jumps:
        ksum += a.conj().T @ a
    return DenseGenerator(jumps, ksum)


def dense_rhs(gen, x: np.ndarray) -> np.ndarray:
    """sum_k A_k X A_k^dag - (1/2){K, X} from the dense view."""
    view = dense_generator(gen)
    out = -0.5 * (view.ksum @ x + x @ view.ksum)
    for a in view.jumps:
        out += a @ x @ a.conj().T
    return out


def rk4_step(gen) -> float:
    """0.1 / sum_k (||X_k||_2 + ||Y_k||_2)^2 over the jumps' factors (||X_k||_2 alone
    on one ensemble): an RK4 stability scale that tests keep their grids on."""
    scale = 0.0
    for op in gen.jump_ops:
        scale += sum(float(np.linalg.norm(p, 2)) for p in (op.x, op.y) if p is not None) ** 2
    return 0.1 / scale

"""Dense n x n views of a ``Generator``, for tests that need its matrices.

The generator keeps its jumps and -K/2 on their nonzero diagonals only;
tests that want dense matrices build them here, from ``gen.jump_ops``
(``FactoredOperator.matrix``), and never read the generator's private
kernel arrays.
"""

from typing import NamedTuple

import numpy as np


class DenseGenerator(NamedTuple):
    jumps: list[np.ndarray]
    ksum: np.ndarray
    ham: np.ndarray | None


def dense_generator(gen) -> DenseGenerator:
    """The jumps A_k, K = sum_k A_k^dag A_k and the Hamiltonian (or None), dense."""
    jumps = [op.matrix for op in gen.jump_ops]
    ksum = np.zeros((gen.dim, gen.dim), dtype=np.complex128)
    for a in jumps:
        ksum += a.conj().T @ a
    ham = None if gen.hamiltonian is None else gen.hamiltonian.matrix
    return DenseGenerator(jumps, ksum, ham)


def dense_rhs(gen, x: np.ndarray) -> np.ndarray:
    """sum_k A_k X A_k^dag - (1/2){K, X} - i[H, X] from the dense view."""
    dense = dense_generator(gen)
    out = -0.5 * (dense.ksum @ x + x @ dense.ksum)
    for a in dense.jumps:
        out += a @ x @ a.conj().T
    if dense.ham is not None:
        out += -1j * (dense.ham @ x - x @ dense.ham)
    return out

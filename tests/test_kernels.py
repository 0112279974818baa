"""Invariants of the dense Lindblad kernels."""

import numpy as np

from oracles import random_density
from spinbath import _kernels
from spinbath.generator import CommonBath, build_generator
from spinbath.states import coefficient_profile, density_from_pure, entangled_state
from spinbath.states import EntangledStateSpec


def _stacked_inputs(seed=3):
    rng = np.random.default_rng(seed)
    model = CommonBath(
        gamma=np.diag([1.0, 0.4, 0.7]), lam=1.3, axes=("x", "y", "z")
    )
    gen = build_generator(model, 1, 1)
    rho = random_density(rng, gen.dim)
    return gen, rho


class TestKernelAgreement:
    def test_rhs_annihilates_trace(self):
        gen, rho = _stacked_inputs(seed=17)
        out = _kernels.lindblad_rhs(rho, gen._jumps, gen._jdags, gen._ksum, gen._ham, gen._has_ham)
        assert abs(np.trace(out)) <= 1e-12 * gen.dim

    def test_chunk_keeps_density_properties(self):
        spec = EntangledStateSpec.make(1, 1, coefficient_profile("uniform", 1))
        rho0 = density_from_pure(entangled_state(spec), (3, 3)).matrix
        gen, _ = _stacked_inputs()
        out = _kernels.rk4_chunk(rho0, gen._jumps, gen._jdags, gen._ksum, gen._ham, gen._has_ham, 0.01, 200)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10


"""Invariants of the dense Lindblad kernels."""

import numpy as np

from oracles import random_density
from spinbath import _kernels
from spinbath.generator import CommonBath, build_generator
from spinbath.states import coefficient_profile, density_from_pure, entangled_state
from spinbath.states import EntangledStateSpec


def _stacked_inputs(seed=3, j=1):
    rng = np.random.default_rng(seed)
    model = CommonBath(
        gamma=np.diag([1.0, 0.4, 0.7]), lam=1.3, axes=("x", "y", "z")
    )
    gen = build_generator(model, j, j)
    rho = random_density(rng, gen.dim)
    return gen, rho


class TestKernelAgreement:
    def test_rhs_annihilates_trace(self):
        gen, rho = _stacked_inputs(seed=17)
        out = _kernels.lindblad_rhs(rho, gen._jumps, gen._jdags, gen._ksum, None, False)
        assert abs(np.trace(out)) <= 1e-12 * gen.dim

    def test_chunk_keeps_density_properties(self):
        spec = EntangledStateSpec.make(1, 1, coefficient_profile("uniform", 1))
        rho0 = density_from_pure(entangled_state(spec), (3, 3)).matrix
        gen, _ = _stacked_inputs()
        out = _kernels.rk4_chunk(rho0, gen._jumps, gen._jdags, gen._ksum, None, False, 0.01, 200)
        assert np.abs(out - out.conj().T).max() <= 1e-12
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_chunk_normalizes_by_index_order_trace(self):
        # reference: the same steps with the trace summed by a Python loop in
        # index order; the kernel must reproduce it bit for bit
        gen, rho0 = _stacked_inputs(seed=5, j=2)
        args = (gen._jumps, gen._jdags, gen._ksum, None, False)
        h = 0.005
        ref = rho0
        for _ in range(10):
            k1 = _kernels.lindblad_rhs(ref, *args)
            k2 = _kernels.lindblad_rhs(ref + (0.5 * h) * k1, *args)
            k3 = _kernels.lindblad_rhs(ref + (0.5 * h) * k2, *args)
            k4 = _kernels.lindblad_rhs(ref + h * k3, *args)
            ref = ref + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ref = 0.5 * (ref + ref.conj().T)
            tr = 0.0
            for i in range(ref.shape[0]):
                tr += ref[i, i].real
            ref = ref / tr
        assert np.array_equal(_kernels.rk4_chunk(rho0, *args, h, 10), ref)

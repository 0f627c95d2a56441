import numpy as np
import pytest
from scipy.stats import unitary_group

from aqctensor.mps import (
    EXACT,
    MPS,
    apply_single_site_gate,
    apply_two_site_gate,
    from_product_state,
)
from aqctensor.statevector import apply_gate, basis_state


@pytest.fixture
def exact_policy():
    return EXACT


def random_bits(n, rng):
    return "".join(rng.choice(["0", "1"]) for _ in range(n))


def random_circuit_pair(n, rng, layers=3, singles=True):
    """The same random brickwork circuit applied to an MPS and a dense vector."""
    bits = random_bits(n, rng)
    psi = from_product_state(bits)
    dense = basis_state(bits)
    for layer in range(layers):
        if singles:
            for q in range(n):
                u = unitary_group.rvs(2, random_state=rng)
                psi = apply_single_site_gate(psi, u, q)
                dense = apply_gate(dense, u, (q,))
        for i in range(layer % 2, n - 1, 2):
            u = unitary_group.rvs(4, random_state=rng)
            psi = apply_two_site_gate(psi, u, i, EXACT)
            dense = apply_gate(dense, u, (i, i + 1))
    return psi, dense


def assert_left_orthonormal(tensor, atol=1e-10):
    chi_l, d, chi_r = tensor.shape
    m = tensor.reshape(chi_l * d, chi_r)
    np.testing.assert_allclose(m.conj().T @ m, np.eye(chi_r), atol=atol)


def assert_right_orthonormal(tensor, atol=1e-10):
    chi_l, d, chi_r = tensor.shape
    m = tensor.reshape(chi_l, d * chi_r)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(chi_l), atol=atol)


def assert_canonical(psi: MPS, atol=1e-10):
    assert psi.center is not None
    for i in range(psi.center):
        assert_left_orthonormal(psi.tensors[i], atol)
    for i in range(psi.center + 1, psi.n):
        assert_right_orthonormal(psi.tensors[i], atol)

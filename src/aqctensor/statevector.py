"""Dense statevector reference for small qubit counts.

Amplitude ordering matches the MPS basis-string convention: site 0 is the most
significant bit, so index(bits) = sum_k bits[k] * 2^(n-1-k). Everything here is
brute force by design; size guards are hard errors.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .gates import SZ
from .hamiltonian import XYZHamiltonian
from .mps import EXACT, MPS, apply_two_site_gate, from_product_state

MAX_QUBITS_CIRCUIT = 14
MAX_QUBITS_EVOLUTION = 12


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise ValueError(f"{what} is limited to {limit} qubits, got {n}")


def basis_state(bits: str) -> np.ndarray:
    _guard(len(bits), MAX_QUBITS_CIRCUIT, "dense simulation")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def apply_gate(state: np.ndarray, matrix: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """Apply a 1- or 2-site dense gate (adjacent sites for the 2-site case)."""
    n = int(round(np.log2(state.size)))
    psi = state.reshape([2] * n)
    if len(sites) == 1:
        (q,) = sites
        psi = np.moveaxis(np.tensordot(matrix, psi, axes=([1], [q])), 0, q)
    else:
        a, b = sites
        if b != a + 1:
            raise ValueError("two-site gates act on adjacent sites")
        u4 = matrix.reshape(2, 2, 2, 2)
        psi = np.moveaxis(np.tensordot(u4, psi, axes=([2, 3], [a, b])), (0, 1), (a, b))
    return psi.reshape(-1)


def sv_apply_schedule(state: np.ndarray, gates: Iterable) -> np.ndarray:
    """Apply any iterable of ops with .sites/.matrix (or a GateSchedule)."""
    n = int(round(np.log2(state.size)))
    _guard(n, MAX_QUBITS_CIRCUIT, "dense simulation")
    if hasattr(gates, "flat_gates"):
        gates = gates.flat_gates()
    for g in gates:
        state = apply_gate(state, g.matrix, tuple(g.sites))
    return state


def dense_hamiltonian(ham: XYZHamiltonian) -> np.ndarray:
    """Full 2^n x 2^n matrix of the XYZ Hamiltonian."""
    _guard(ham.n, MAX_QUBITS_EVOLUTION, "dense Hamiltonian assembly")
    n = ham.n
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n - 1):
        h += -_embed(ham.bond_matrix(i), n, (i, i + 1))
    for j in range(n):
        if ham.h[j] != 0.0:
            h += ham.h[j] * _embed(SZ, n, (j,))
    return h


def _embed(op: np.ndarray, n: int, sites: tuple[int, ...]) -> np.ndarray:
    mats = []
    k = 0
    while k < n:
        if k == sites[0]:
            mats.append(op)
            k += len(sites)
        else:
            mats.append(np.eye(2))
            k += 1
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def sv_exact_evolution(ham: XYZHamiltonian, psi0: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} psi0 via dense Hermitian eigendecomposition."""
    _guard(ham.n, MAX_QUBITS_EVOLUTION, "exact evolution")
    h = dense_hamiltonian(ham)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi0)


def sv_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return abs(np.vdot(a, b)) ** 2


def mps_to_statevector(psi: MPS) -> np.ndarray:
    """Contract an MPS into its dense amplitude vector (site 0 most significant)."""
    _guard(psi.n, MAX_QUBITS_CIRCUIT, "MPS densification")
    block = psi.tensors[0]  # (1, 2, chi)
    for t in psi.tensors[1:]:
        block = np.einsum("apb,bqc->apqc", block, t)
        block = block.reshape(1, -1, block.shape[-1])
    return block.reshape(-1)


def statevector_to_mps(vec: np.ndarray) -> MPS:
    """Exact MPS factorization of a dense state (every singular value kept)."""
    n = int(round(np.log2(vec.size)))
    if 2**n != vec.size:
        raise ValueError("vector length is not a power of 2")
    _guard(n, MAX_QUBITS_CIRCUIT, "MPS factorization")
    tensors = []
    rest = vec.reshape(1, -1)
    for _ in range(n - 1):
        chi_l = rest.shape[0]
        mat = rest.reshape(chi_l * 2, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        tensors.append(u.reshape(chi_l, 2, len(s)))
        rest = s[:, None] * vh
    tensors.append(rest.reshape(-1, 2, 1))
    return MPS(tensors, center=n - 1)


def random_mps(n: int, seed: int, entangling_layers: int = 2) -> MPS:
    """Normalized random MPS built from a seeded random brickwork circuit."""
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    bits = "".join(rng.choice(["0", "1"]) for _ in range(n))
    psi = from_product_state(bits)
    for layer in range(entangling_layers):
        for i in range(layer % 2, n - 1, 2):
            u = unitary_group.rvs(4, random_state=rng)
            psi = apply_two_site_gate(psi, u, i, EXACT)
    return psi

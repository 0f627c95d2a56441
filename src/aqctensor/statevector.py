"""Dense statevector reference for small qubit counts.

Amplitude ordering matches the MPS basis-string convention: site 0 is the most
significant bit, so index(bits) = sum_k bits[k] * 2^(n-1-k). Everything here is
brute force by design; size guards are hard errors.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .mps import MPS

MAX_QUBITS_CIRCUIT = 14


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

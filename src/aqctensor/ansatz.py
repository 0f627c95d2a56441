"""Brickwork parametric circuit made of 4-angle CNOT blocks.

The circuit starts with three trainable rotations Rz Ry Rz on every qubit,
then mirrors the fused second-order Trotter layout column for column: every
two-site gate slot becomes a triplet of CNOT blocks (outer two with reversed
CNOT direction) and every field column keeps its fixed, non-trainable
rotations. The slot list Ansatz.columns is the only description of the
circuit; _block states where each block's angles sit in theta.

A CNOT block is a CNOT followed by Ry(t1) Rz(t2) on the control line and
Ry(t3) Rz(t4) on the target line. With this layout a triplet reproduces the
two-site exchange exponential exactly (up to a global phase) in closed form,
which is what makes exact Trotter initialization possible.

For execution the circuit is fused: ansatz_ops returns one 4x4 op per
two-site slot, the triplet B3 B2 B1 with the single-qubit rotations next to it
multiplied in (a rotation joins the last slot that touched its qubit, or the
first one that will). Every initial and field rotation is absorbed, so a cost
sweep puts one SVD-truncated gate per slot on the MPS, and each op carries the
derivatives of all its angles (12 block angles plus absorbed initial and
trainable field angles).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mps as mpslib
from .gates import (
    CX_FORWARD,
    CX_REVERSED,
    ROTATIONS,
    CircuitOp,
    Y,
    Z,
    cnot_depth_from_pairs,
    format_gate_line,
    ry,
    rz,
)
from .hamiltonian import (XYZHamiltonian, build_trotter_schedule, sweep_order, triplet_angles,
                          two_site_unitary)
from .mps import MPS, TruncationPolicy


@dataclass(frozen=True)
class Ansatz:
    """Structure of the parametric circuit (no angle values)."""

    n: int
    dt: float
    field_phis: tuple[float, ...]  # per-qubit fixed angle h_i * dt (one full step)
    columns: tuple[tuple[str, tuple[int, ...]], ...]  # (tag, left sites of pair slots)
    trainable_fields: bool = False  # promote the field rotations into the parameter list

    @property
    def num_field_params(self) -> int:
        if not self.trainable_fields:
            return 0
        field_columns = sum(1 for tag, _ in self.columns if tag == "field")
        return field_columns * self.n

    @property
    def num_params(self) -> int:
        return 3 * self.n + 4 * self.num_blocks + self.num_field_params

    @property
    def num_blocks(self) -> int:
        return 3 * sum(len(pairs) for _, pairs in self.columns)

    def slot_multiset(self) -> list[tuple[str, int]]:
        """(column tag, pair left site) for every two-site slot, in order."""
        out = []
        for tag, pairs in self.columns:
            if tag != "field":
                out.extend((tag, p) for p in pairs)
        return out


def _block(a: Ansatz, s: int, k: int, left: int) -> tuple[int, int, int]:
    """(control, target, first angle) of block k = 0, 1, 2 of two-site slot s on (left, left + 1).

    The parameter layout: 3 initial angles per qubit, then block k of slot s
    owns angles 3n + 12s + 4k .. +4 and is reversed (control on the right
    qubit) when k is even; the trainable field angles come after all blocks.
    """
    offset = 3 * a.n + 12 * s + 4 * k
    return (left + 1, left, offset) if k % 2 == 0 else (left, left + 1, offset)


def build_brickwork_ansatz(
    n: int, l: int, ham: XYZHamiltonian, dt: float, trainable_fields: bool = False
) -> Ansatz:
    """Ansatz mirroring build_trotter_schedule(ham, dt, l) column for column."""
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    if l < 1:
        raise ValueError(f"need at least 1 layer, got {l}")
    if ham.n != n:
        raise ValueError(f"Hamiltonian has {ham.n} sites, expected {n}")
    schedule = build_trotter_schedule(ham, dt, l)
    columns = tuple((col.tag, () if col.tag == "field" else tuple(g.sites[0] for g in col.gates))
                    for col in schedule.columns)
    return Ansatz(n, dt, tuple(h * dt for h in ham.h), columns, trainable_fields)


# --- gate matrices -----------------------------------------------------------


def block_unitary(theta: np.ndarray, reverse: bool = False) -> np.ndarray:
    """4x4 matrix of a CNOT block on a (left, right) pair.

    Normal direction: control = left qubit. All four angles at zero gives the
    bare CNOT.
    """
    t1, t2, t3, t4 = theta
    lc = ry(t1) @ rz(t2)
    lt = ry(t3) @ rz(t4)
    if reverse:
        return np.kron(lt, lc) @ CX_REVERSED
    return np.kron(lc, lt) @ CX_FORWARD


def initial_rotation(angles: np.ndarray) -> np.ndarray:
    """Rz(a) Ry(b) Rz(c) on one qubit (rightmost factor acts first)."""
    a, b, c = angles
    return rz(a) @ ry(b) @ rz(c)


_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)


def _on_pair(m: np.ndarray, side: int) -> np.ndarray:
    """A 2x2 matrix on the left (side 0) or right (side 1) qubit of a pair, as a 4x4 factor."""
    out = np.zeros((4, 4), dtype=complex)
    if side == 0:
        out[0::2, 0::2] = out[1::2, 1::2] = m  # m (x) I
    else:
        out[:2, :2] = out[2:, 2:] = m  # I (x) m
    return out


# d/dt exp(-i t G / 2) = -i G / 2 exp(-i t G / 2), on either qubit of a pair
_GENERATORS = {(name, side): _on_pair(-0.5j * g, side)
               for name, g in (("ry", Y), ("rz", Z)) for side in (0, 1)}

Factor = tuple[np.ndarray, np.ndarray | None, int]  # (4x4 factor, its -iG/2 or None, parameter index)


def _prefix_products(factors) -> list[np.ndarray]:
    """[I, F0, F1 F0, ...]: the product of the first j factors at position j."""
    out = [_I4]
    for f, _, _ in factors:
        out.append(f.dot(out[-1]))  # ndarray.dot: less call overhead than @ on 4x4
    return out


@dataclass(frozen=True)
class AnsatzOp:
    """One fused two-site slot: its CNOTs and the rotations absorbed next to them.

    factors lists every gate of the slot in time order as a 4x4 factor on the
    pair: a CNOT, or a rotation R as R (x) I or I (x) R. A trainable rotation
    carries its generator term -iG/2, lifted the same way, and its parameter
    index; a CNOT or a fixed rotation carries None. matrix is the product.
    """

    sites: tuple[int, int]
    factors: tuple[Factor, ...]
    matrix: np.ndarray
    param_indices: tuple[int, ...]

    def dmatrices(self) -> np.ndarray:
        """Derivatives of matrix with respect to each angle in param_indices, stacked (P, 4, 4).

        The angle of factor j drives R_j = exp(-i t G / 2), so its derivative
        is S_{j+1} (-iG/2) R_j P_j, with P_j and S_{j+1} the products of the
        factors before and after it.
        """
        prefix = _prefix_products(self.factors)
        suffix = _I4
        afters, gens, befores = [], [], []
        for j in range(len(self.factors) - 1, -1, -1):
            f, g, _ = self.factors[j]
            if g is not None:
                afters.append(suffix)
                gens.append(g)
                befores.append(prefix[j + 1])
            suffix = suffix.dot(f)
        return (np.array(afters) @ np.array(gens) @ np.array(befores))[::-1]


def _fused_op(left: int, factors: list[Factor]) -> AnsatzOp:
    params = tuple(idx for _, g, idx in factors if g is not None)
    return AnsatzOp((left, left + 1), tuple(factors), _prefix_products(factors)[-1], params)


def _checked_theta(a: Ansatz, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (a.num_params,):
        raise ValueError(f"expected {a.num_params} parameters, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def _primitive_gates(a: Ansatz, theta: np.ndarray):
    """The circuit gate by gate in time order: (rz | ry | cx, qubits, angle, parameter index)."""
    for q in range(a.n):  # initial_rotation: Rz(theta_3q) Ry(theta_3q+1) Rz(theta_3q+2)
        for name, j in (("rz", 3 * q + 2), ("ry", 3 * q + 1), ("rz", 3 * q)):
            yield name, (q,), theta[j], j
    field_base = 3 * a.n + 4 * a.num_blocks
    field_column = 0
    s = 0  # two-site slot index
    for tag, pairs in a.columns:
        if tag == "field":
            for q in range(a.n):
                if a.trainable_fields:
                    idx = field_base + field_column * a.n + q
                    yield "rz", (q,), theta[idx], idx
                else:
                    yield "rz", (q,), a.field_phis[q] / 2, -1
            field_column += 1
            continue
        for left in pairs:
            for k in range(3):
                control, target, o = _block(a, s, k, left)
                yield "cx", (control, target), None, -1
                yield "rz", (control,), theta[o + 1], o + 1
                yield "ry", (control,), theta[o], o
                yield "rz", (target,), theta[o + 3], o + 3
                yield "ry", (target,), theta[o + 2], o + 2
            s += 1


def ansatz_ops(a: Ansatz, theta: np.ndarray) -> list[AnsatzOp]:
    """The circuit at the given parameters as one fused op per two-site slot, column by column.

    A rotation joins the last slot that touched its qubit; before any slot has
    touched the qubit it joins the next one there, as its first factor. The
    slots of a column come in sweep_order.
    """
    theta = _checked_theta(a, theta)
    slots: list[tuple[int, list[Factor]]] = []  # (left site, factors)
    owner: list[tuple | None] = [None] * a.n  # slot that last touched each qubit
    pending: list[list[tuple]] = [[] for _ in range(a.n)]  # rotations before any slot
    blocks = 0
    for name, qubits, angle, idx in _primitive_gates(a, theta):
        if name == "cx":
            if blocks % 3 == 0:  # the first of a slot's three blocks opens it
                left = min(qubits)
                slot = (left, [])
                for side in (0, 1):
                    slot[1].extend(_rotation_factor(*rot, side) for rot in pending[left + side])
                    pending[left + side] = []
                owner[left] = owner[left + 1] = slot
                slots.append(slot)
            blocks += 1
            cx = CX_FORWARD if qubits[0] < qubits[1] else CX_REVERSED
            slot[1].append((cx, None, -1))
        elif owner[qubits[0]] is None:
            pending[qubits[0]].append((name, angle, idx))
        else:
            left, factors = owner[qubits[0]]
            factors.append(_rotation_factor(name, angle, idx, qubits[0] - left))
    fused = iter([_fused_op(*slot) for slot in slots])
    return [op for tag, pairs in a.columns for op in sweep_order(tag, [next(fused) for _ in pairs])]


def _rotation_factor(name: str, angle: float, idx: int, side: int) -> Factor:
    gen = _GENERATORS[name, side] if idx >= 0 else None
    return _on_pair(ROTATIONS[name](angle), side), gen, idx


def adjoint_ops(ops: list[AnsatzOp]) -> list[CircuitOp]:
    """Reversed order, conjugate-transposed matrices."""
    return [CircuitOp(op.sites, op.matrix.conj().T) for op in reversed(ops)]


def apply_ansatz(a: Ansatz, theta: np.ndarray, psi_in: MPS, policy: TruncationPolicy) -> MPS:
    """V(theta) |psi_in>, normalized."""
    if psi_in.n != a.n:
        raise ValueError(f"state has {psi_in.n} sites, ansatz has {a.n}")
    return mpslib.normalize(mpslib.apply_ops(psi_in, ansatz_ops(a, theta), policy))


def apply_ansatz_adjoint(a: Ansatz, theta: np.ndarray, target: MPS, policy: TruncationPolicy) -> MPS:
    """V(theta)^dagger |target>, normalized; cost terms are its amplitudes."""
    if target.n != a.n:
        raise ValueError(f"state has {target.n} sites, ansatz has {a.n}")
    return mpslib.normalize(mpslib.apply_ops(target, adjoint_ops(ansatz_ops(a, theta)), policy))


def cnot_depth(a: Ansatz) -> int:
    """CNOT depth of the ansatz (one CNOT per block, three blocks per slot)."""
    return cnot_depth_from_pairs(((i, i + 1) for _, pairs in a.columns for i in pairs
                                  for _ in range(3)), a.n)


# --- Trotter initialization --------------------------------------------------


def solve_triplet_angles(alpha: float, beta: float, delta: float, dt: float) -> np.ndarray:
    """12 angles making a block triplet equal the two-site exponential, up to phase.

    Closed form, with (theta, phi, lam) = triplet_angles(alpha, beta, delta, dt):
    block 1 (reversed): control Ry(phi) Rz(-pi/2);
    block 2 (normal):  control Rz(theta), target Ry(lam);
    block 3 (reversed): target Rz(pi/2).
    The closed form is an identity; it is still checked against the dense
    exponential, and a distance above 1e-10 raises RuntimeError.
    """
    theta, phi, lam = triplet_angles(alpha, beta, delta, dt)
    angles = np.array([phi, -np.pi / 2, 0, 0,
                       0, theta, lam, 0,
                       0, 0, 0, np.pi / 2])
    target = two_site_unitary(alpha, beta, delta, dt)
    if _triplet_distance(angles, target) > 1e-10:
        raise RuntimeError("closed-form triplet angles miss the two-site exponential")
    return angles


def triplet_unitary(angles: np.ndarray) -> np.ndarray:
    """Product of the three blocks (outer two reversed), first block rightmost."""
    b1 = block_unitary(angles[0:4], reverse=True)
    b2 = block_unitary(angles[4:8], reverse=False)
    b3 = block_unitary(angles[8:12], reverse=True)
    return b3 @ b2 @ b1


def _triplet_distance(angles: np.ndarray, target: np.ndarray) -> float:
    t = triplet_unitary(angles)
    tr = np.trace(target.conj().T @ t)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.linalg.norm(t - phase * target))


def trotter_initialize(a: Ansatz, ham: XYZHamiltonian, dt: float, bits: str | None = None) -> np.ndarray:
    """Parameters at which V(theta) |0...0> equals the l-step Trotter state.

    bits selects the product state whose preparation is folded into the
    initial rotations (Ry(pi) on '1' sites); default all zeros.
    """
    if ham.n != a.n or abs(a.dt - dt) > 1e-15:
        raise ValueError("ansatz was not built for this Hamiltonian / time step")
    phis = tuple(h * dt for h in ham.h)
    if any(abs(p - q) > 1e-12 for p, q in zip(phis, a.field_phis)):
        raise ValueError("ansatz field rotations do not match this Hamiltonian")
    if bits is None:
        bits = "0" * a.n
    if len(bits) != a.n or any(ch not in "01" for ch in bits):
        raise ValueError("bits must be a 0/1 string of length n")

    theta = np.zeros(a.num_params)
    for q, ch in enumerate(bits):
        if ch == "1":
            theta[3 * q + 1] = np.pi  # Rz(0) Ry(pi) Rz(0) |0> = |1>
    if a.trainable_fields:
        field_base = 3 * a.n + 4 * a.num_blocks
        for f in range(a.num_field_params // a.n):
            for q in range(a.n):
                theta[field_base + f * a.n + q] = a.field_phis[q] / 2

    for s, (tag, i) in enumerate(a.slot_multiset()):
        tau = dt / 2 if tag == "even-half" else dt
        o = _block(a, s, 0, i)[2]  # the slot's three blocks own 12 consecutive angles
        theta[o: o + 12] = solve_triplet_angles(ham.alpha[i], ham.beta[i], ham.delta[i], tau)
    return theta


# --- plain-text export -------------------------------------------------------


def export_circuit_records(a: Ansatz, theta: np.ndarray) -> list[str]:
    """Primitive gate-list lines (rz/ry/cx) for the circuit at given angles."""
    return [format_gate_line(name, qubits, () if angle is None else (angle,))
            for name, qubits, angle, _ in _primitive_gates(a, _checked_theta(a, theta))]

"""Brickwork parametric circuit made of 4-angle CNOT blocks.

The circuit starts with three trainable rotations Rz Ry Rz on every qubit,
then mirrors the fused second-order Trotter layout (hamiltonian.trotter_columns)
column for column: every two-site gate slot becomes a triplet of CNOT blocks
(outer two with reversed CNOT direction) and every field column keeps its
fixed, non-trainable rotations. The slot list Ansatz.columns is that layout
and the only description of the circuit; _block states where each block's
angles sit in theta, and cnot_depth gives the CNOT depth of any such layout.

A CNOT block is a CNOT followed by Ry(t1) Rz(t2) on the control line and
Ry(t3) Rz(t4) on the target line. With this layout a triplet reproduces the
two-site exchange exponential exactly (up to a global phase) in closed form
(solve_triplet_angles), which is what makes exact Trotter initialization
possible. It is the package's one realization of a two-site Trotter gate:
Trotter steps are exported as the Trotter-initialized ansatz.

For execution the circuit is fused: ansatz_ops returns one 4x4 op per
two-site slot, the triplet B3 B2 B1 with the single-qubit rotations next to it
multiplied in (a rotation joins the last slot that touched its qubit, or the
first one that will). Every initial and field rotation is absorbed, so a cost
sweep puts one SVD-truncated gate per slot on the MPS. The slot layout, which
factor sits where and which angle drives it, is fixed per Ansatz and held in
one padded factor table (Ansatz._layout): ansatz_ops builds every slot from
it in one batched product per factor position, and slot_derivatives builds
the derivatives of all angles of a slot (12 block angles plus absorbed
initial and trainable field angles) from the same table.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mps as mpslib
from .gates import CX_FORWARD, CX_REVERSED, I2, CircuitOp, Y, Z, format_gate_line
from .hamiltonian import XYZHamiltonian, pair_time_step, sweep_order, trotter_columns
from .mps import MPS, TruncationPolicy


@dataclass(frozen=True)
class Ansatz:
    """Structure of the parametric circuit (no angle values)."""

    n: int
    dt: float
    field_phis: tuple[float, ...]  # per-qubit fixed angle h_i * dt (one full step)
    columns: tuple[tuple[str, tuple[int, ...]], ...]  # trotter_columns: (tag, left sites of pair slots)
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

    @cached_property
    def _layout(self) -> tuple:
        """The fused slots of ansatz_ops (see _slot_layout); computed on first use."""
        return _slot_layout(self)

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
    """Ansatz on trotter_columns(n, l), the layout of build_trotter_schedule(ham, dt, l)."""
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    if l < 1:
        raise ValueError(f"need at least 1 layer, got {l}")
    if ham.n != n:
        raise ValueError(f"Hamiltonian has {ham.n} sites, expected {n}")
    return Ansatz(n, dt, tuple(h * dt for h in ham.h), trotter_columns(n, l), trainable_fields)


# --- fused slots -------------------------------------------------------------


_I4 = np.eye(4, dtype=complex)

# Every factor of a fused slot is A + cos(t/2) B + sin(t/2) C at its angle t,
# with (A, B, C) picked by its kind: 0 is the identity that pads a slot after
# its last factor, 1 and 2 the CNOT with control left or right, 3 + 2r + side
# the rotation exp(-i t G / 2), G = Y (r = 0) or Z (r = 1), on the left (0) or
# right (1) qubit of the pair. _GEN = C / 2 is a rotation's generator term -iG/2.
_ROTATION_KIND = {(name, side): 3 + 2 * r + side for r, name in enumerate(("ry", "rz")) for side in (0, 1)}
_GEN, _A, _B = np.zeros((3, 7, 4, 4), dtype=complex)
_GEN[3:] = [m for g in (-0.5j * Y, -0.5j * Z) for m in (np.kron(g, I2), np.kron(I2, g))]
_A[:3], _B[3:] = (_I4, CX_FORWARD, CX_REVERSED), _I4
_C = 2 * _GEN


def _factors(kinds: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The 4x4 factors of these kinds whose angles t have these cos(t/2) and sin(t/2)."""
    return _A[kinds] + cos[..., None, None] * _B[kinds] + sin[..., None, None] * _C[kinds]


def _slot_layout(a: Ansatz):
    """Fuse the gates of _primitive_gates into slots by the rule in ansatz_ops.

    Returns (kinds, angles, fixed, slots), rows in ansatz_ops order: factor j
    of slot s has kind kinds[s, j] and angle angles[s, j] of (theta, fixed),
    where fixed holds the fixed field angles (a CNOT or padding reads entry -1,
    whatever it holds: B and C are 0 there). slots holds (sites,
    param_indices, their factor positions) per slot.
    """
    slots: list[tuple[int, list[tuple[int, int]]]] = []  # (left site, [(kind, angle index)])
    owner: list[tuple | None] = [None] * a.n  # slot that last touched each qubit
    pending: list[list[tuple]] = [[] for _ in range(a.n)]  # rotations before any slot
    fixed: list[float] = []
    blocks = 0
    for name, qubits, angle, idx in _primitive_gates(a, np.zeros(a.num_params)):
        if name == "cx":
            if blocks % 3 == 0:  # the first of a slot's three blocks opens it
                left = min(qubits)
                slot = (left, [])
                for side in (0, 1):
                    slot[1].extend((_ROTATION_KIND[rot, side], i) for rot, i in pending[left + side])
                    pending[left + side] = []
                owner[left] = owner[left + 1] = slot
                slots.append(slot)
            blocks += 1
            slot[1].append((1 if qubits[0] < qubits[1] else 2, -1))
            continue
        if idx < 0:  # a fixed rotation: its angle goes after theta
            idx = a.num_params + len(fixed)
            fixed.append(angle)
        if owner[qubits[0]] is None:
            pending[qubits[0]].append((name, idx))
        else:
            left, factors = owner[qubits[0]]
            factors.append((_ROTATION_KIND[name, qubits[0] - left], idx))
    ids = iter(slots)
    slots = [s for tag, pairs in a.columns for s in sweep_order(tag, [next(ids) for _ in pairs])]
    kinds = np.zeros((len(slots), max(len(f) for _, f in slots)), dtype=np.int8)
    angles = np.full(kinds.shape, -1)
    records = []
    for s, (left, factors) in enumerate(slots):
        kinds[s, :len(factors)], angles[s, :len(factors)] = zip(*factors)
        pos = np.flatnonzero((angles[s] >= 0) & (angles[s] < a.num_params))
        records.append(((left, left + 1), tuple(angles[s, pos].tolist()), pos))
    layout = kinds, angles, np.array(fixed), tuple(records)
    for arr in (*layout[:3], *(r[2] for r in records)):
        arr.flags.writeable = False
    return layout


def _checked_theta(a: Ansatz, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (a.num_params,):
        raise ValueError(f"expected {a.num_params} parameters, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def _primitive_gates(a: Ansatz, theta: np.ndarray):
    """The circuit gate by gate in time order: (rz | ry | cx, qubits, angle, parameter index)."""
    for q in range(a.n):  # initial rotation: Rz(theta_3q) Ry(theta_3q+1) Rz(theta_3q+2)
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


def _slot_factors(a: Ansatz, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """kinds, cos(t/2) and sin(t/2) of every factor of every slot at these parameters, (S, F) each."""
    kinds, angles, fixed, _ = a._layout
    half = np.concatenate([_checked_theta(a, theta), fixed]) / 2
    return kinds, np.cos(half)[angles], np.sin(half)[angles]


def ansatz_ops(a: Ansatz, theta: np.ndarray) -> list[CircuitOp]:
    """The circuit at the given parameters as one fused op per two-site slot, column by column.

    A rotation joins the last slot that touched its qubit; before any slot has
    touched the qubit it joins the next one there, as its first factor. The
    slots of a column come in sweep_order.
    """
    kinds, cos, sin = _slot_factors(a, theta)
    product = np.broadcast_to(_I4, (len(kinds), 4, 4))
    for j in range(kinds.shape[1]):
        product = _factors(kinds[:, j], cos[:, j], sin[:, j]) @ product
    return [CircuitOp(sites, m) for (sites, _, _), m in zip(a._layout[3], product)]


def slot_derivatives(a: Ansatz, theta: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(param_indices, derivatives (P, 4, 4)) of each slot matrix of ansatz_ops, in its order.

    The angle of factor j drives R_j = exp(-i t G / 2), so its derivative is
    S_{j+1} (-iG/2) P_{j+1}, with P_{j+1} the product of the factors up to
    and including R_j and S_{j+1} that of the factors after it. The suffixes
    S of all slots are built together, one batched product per factor
    position from the last (the identity that pads a short slot leaves them
    unchanged). Every factor is unitary, so P_j = S_j^dagger S_0; it is formed
    only at the positions of the angles, gathered from all slots into one batch.
    """
    kinds, cos, sin = _slot_factors(a, theta)
    suffixes = np.empty((len(kinds), kinds.shape[1] + 1, 4, 4), dtype=complex)
    suffixes[:, -1] = _I4
    for j in range(kinds.shape[1] - 1, -1, -1):
        np.matmul(suffixes[:, j + 1], _factors(kinds[:, j], cos[:, j], sin[:, j]), out=suffixes[:, j])
    slots = a._layout[3]
    sizes = [len(positions) for _, _, positions in slots]
    rows, pos = np.repeat(np.arange(len(slots)), sizes), np.concatenate([p for _, _, p in slots])
    after = suffixes[rows, pos + 1]
    dmats = after @ _GEN[kinds[rows, pos]] @ (after.conj().swapaxes(-1, -2) @ suffixes[rows, 0])
    return [(params, d) for (_, params, _), d in zip(slots, np.split(dmats, np.cumsum(sizes)[:-1]))]


def adjoint_ops(ops: list[CircuitOp]) -> list[CircuitOp]:
    """Reversed order, conjugate-transposed matrices."""
    return [CircuitOp(op.sites, op.matrix.conj().T) for op in reversed(ops)]


def apply_ansatz(a: Ansatz, theta: np.ndarray, psi_in: MPS, policy: TruncationPolicy) -> MPS:
    """V(theta) |psi_in>, normalized."""
    if psi_in.n != a.n:
        raise ValueError(f"state has {psi_in.n} sites, ansatz has {a.n}")
    return mpslib.normalize(mpslib.apply_ops(psi_in, ansatz_ops(a, theta), policy))


def cnot_depth(columns: tuple[tuple[str, tuple[int, ...]], ...]) -> int:
    """CNOT depth of a column layout (trotter_columns, Ansatz.columns), three CNOTs per pair.

    Each pair is a slot of three blocks, one CNOT each, as in the ansatz; the
    depth is the greedy per-qubit levelling of the pairs in time order.
    """
    level: dict[int, int] = {}
    for _, pairs in columns:
        for i in pairs:
            level[i] = level[i + 1] = max(level.get(i, 0), level.get(i + 1, 0)) + 3
    return max(level.values(), default=0)


# --- Trotter initialization --------------------------------------------------


def solve_triplet_angles(alpha: float, beta: float, delta: float, dt: float) -> np.ndarray:
    """12 angles making a block triplet equal two_site_unitary(alpha, beta, delta, dt), up to phase.

    The standard 3-CNOT form of the exchange exponential, in closed form with
    (a, b, c) = (alpha, beta, delta) * dt:
    block 1 (reversed): control Ry(a/2 - pi/2) Rz(-pi/2);
    block 2 (normal):  control Rz(pi/2 - c/2), target Ry(pi/2 - b/2);
    block 3 (reversed): target Rz(pi/2);
    every other angle is 0.
    """
    a, b, c = alpha * dt, beta * dt, delta * dt
    return np.array([a / 2 - np.pi / 2, -np.pi / 2, 0, 0,
                     0, np.pi / 2 - c / 2, np.pi / 2 - b / 2, 0,
                     0, 0, 0, np.pi / 2])


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
        tau = pair_time_step(tag, dt)
        o = _block(a, s, 0, i)[2]  # the slot's three blocks own 12 consecutive angles
        theta[o: o + 12] = solve_triplet_angles(ham.alpha[i], ham.beta[i], ham.delta[i], tau)
    return theta


# --- plain-text export -------------------------------------------------------


def export_circuit_records(a: Ansatz, theta: np.ndarray) -> list[str]:
    """Primitive gate-list lines (rz/ry/cx) for the circuit at given angles.

    A rotation whose angle is exactly 0 is the identity and is left out.
    """
    return [format_gate_line(name, qubits, () if angle is None else (angle,))
            for name, qubits, angle, _ in _primitive_gates(a, _checked_theta(a, theta)) if angle != 0.0]

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
two-site slot, its three blocks with the single-qubit rotations next to them
multiplied in (a rotation joins the last slot that touched its qubit, or the
first one that will), so a cost sweep puts one SVD-truncated gate per slot on
the MPS. Every slot has one closed form, M = D (K3 C3) (K2 C2) (K1 C1) E: C_j
is block j's CNOT, K_j the kron of its two Ry Rz lines, E the Euler rotations
of the qubits the slot opens (pending field angles summed in) and D the phase
of the field angles after its last block. One walk over the columns lays out,
once per Ansatz, which angles each slot sums into each layer
(Ansatz._layout); ansatz_ops builds all slots from it at once, and
slot_vjp contracts a cotangent with the derivatives of all slots by one
formula, dM = M Q^dagger lift(g) Q, without forming any dM.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import mps as mpslib
from .gates import CX_FORWARD, CX_REVERSED, I2, CircuitOp, X, Y, Z, format_gate_line
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
    def _layout(self) -> _Layout:
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


class _Layout(NamedTuple):
    """Which angles each fused slot sums into which channel, slot rows in ansatz_ops order.

    Channel (r, side, layer, 0 | 1) is the t or u of layer Ry(t) Rz(u) of slot
    row r on its left (0) or right (1) qubit (see _prefixes). Term i adds angle
    angles[i] of (theta, fixed) to the channel at flat index keys[i]; every
    trainable angle has one term, and derivatives[j] is the channel of angle j.
    """

    sites: tuple[tuple[int, int], ...]
    keys: np.ndarray
    angles: np.ndarray
    fixed: np.ndarray
    derivatives: np.ndarray


# -i P / 2 lifted onto the left (0) or right (1) qubit of a pair, P = X, Y, Z, transposed: column
# 3 side + p of G.reshape(16) @ _LIFTED is sum(lift(-iP/2)^T * G)
_LIFTED = -0.5j * np.array([np.kron(p, I2).T for p in (X, Y, Z)] + [np.kron(I2, p).T for p in (X, Y, Z)])
_LIFTED = _LIFTED.reshape(6, 16).T
# C before layers 1..5 as the rows of C Q: none before Rz(c) or D, blocks 1 and 3 reversed, 2 forward
_CNOT_ROWS = [slice(None)] + [np.nonzero(cx)[1] for cx in (CX_REVERSED, CX_FORWARD, CX_REVERSED)] + [slice(None)]


def _slot_layout(a: Ansatz) -> _Layout:
    """One walk over a.columns: the angles each slot of ansatz_ops sums into each channel.

    A rotation joins the last slot that touched its qubit; before that it joins
    the next slot there, which opens the qubit: the initial rotation becomes its
    layers (b, a) and (0, c), and pending field angles add to c. Field angles
    after a slot's last block, until the next slot on the qubit, add to d.
    """
    n, num_params = a.n, a.num_params
    terms = []  # (slot, side, channel = 2 layer + (0 | 1), angle index) of the Euler and field angles
    owner: list[tuple[int, int] | None] = [None] * n  # (slot, side) that last touched each qubit
    pending: list[list[int]] = [[] for _ in range(n)]
    fields = iter(np.arange(3 * n + 4 * a.num_blocks, num_params).reshape(-1, n).tolist())  # trainable
    lefts, order = [], []
    for tag, pairs in a.columns:
        if tag == "field":  # the fixed field angles sit after theta
            for q, idx in enumerate(next(fields) if a.trainable_fields else range(num_params, num_params + n)):
                if owner[q] is None:
                    pending[q].append(idx)
                else:
                    terms.append((*owner[q], 11, idx))  # layer 5, (0, d)
            continue
        for left in pairs:
            s = len(lefts)
            for side, q in enumerate((left, left + 1)):
                if owner[q] is None:  # Ry(b) Rz(a), then Rz(c) with the pending fields
                    terms += [(s, side, 0, 3 * q + 1), (s, side, 1, 3 * q + 2), (s, side, 3, 3 * q)]
                    terms += [(s, side, 3, i) for i in pending[q]]
                owner[q] = (s, side)
            lefts.append(left)
        order.extend(sweep_order(tag, range(len(lefts) - len(pairs), len(lefts))))

    blocks = []  # the block terms of slot 0 on sites (0, 1); slot s adds 12 s to the angle
    for k in range(3):
        control, target, o = _block(a, 0, k, 0)
        blocks += [(0, q, 4 + 2 * k + j, i + j) for q, i in ((control, o), (target, o + 2)) for j in (0, 1)]
    blocks = np.array(blocks) + np.multiply.outer(np.arange(len(lefts)), [1, 0, 0, 12])[:, None]
    terms = np.concatenate([np.array(terms).reshape(-1, 4), *blocks])
    terms[:, 0] = np.argsort(order)[terms[:, 0]]  # the row of each slot in ansatz_ops order
    row, side, channel, angles = terms[np.argsort(terms[:, 0], kind="stable")].T
    trainable = angles < num_params
    derivatives = np.empty((num_params, 4), dtype=int)
    derivatives[angles[trainable]] = np.stack([row, side, *np.divmod(channel, 2)], 1)[trainable]
    layout = _Layout(tuple((lefts[s], lefts[s] + 1) for s in order), (2 * row + side) * 12 + channel, angles,
                     np.array([] if a.trainable_fields else a.field_phis) / 2, derivatives)
    for arr in layout[1:]:
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
    """The circuit gate by gate in time order: (rz | ry | cx, qubits, angle or None)."""
    for q in range(a.n):  # initial rotation: Rz(theta_3q) Ry(theta_3q+1) Rz(theta_3q+2)
        for name, j in (("rz", 3 * q + 2), ("ry", 3 * q + 1), ("rz", 3 * q)):
            yield name, (q,), theta[j]
    fields = iter(theta[3 * a.n + 4 * a.num_blocks:].reshape(-1, a.n))  # one row per field column
    s = 0  # two-site slot index
    for tag, pairs in a.columns:
        if tag == "field":
            angles = next(fields) if a.trainable_fields else [phi / 2 for phi in a.field_phis]
            yield from (("rz", (q,), angles[q]) for q in range(a.n))
            continue
        for left in pairs:
            for k in range(3):
                control, target, o = _block(a, s, k, left)
                yield "cx", (control, target), None
                for q, i in ((control, o), (target, o + 2)):
                    yield "rz", (q,), theta[i + 1]
                    yield "ry", (q,), theta[i]
            s += 1


def _prefixes(a: Ansatz, theta: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(channels, Q) of every slot at these parameters; Q[5] is the slot matrix M.

    M = D (K3 C3) (K2 C2) (K1 C1) E is six local layers kron(Ry(t) Rz(u),
    Ry(t') Rz(u')) with a CNOT C_j before each block layer K_j: E is the
    Euler rotations Rz(c) Ry(b) Rz(a) as layers 0 = (b, a) and 1 = (0, c), and
    D the trailing field phases, layer 5 = (0, d). channels (S, 2, 6, 2) holds
    each layer's (t, u) per qubit, Q[j] (S, 4, 4) the product up to layer j.
    """
    lay = a._layout
    angles = np.concatenate([_checked_theta(a, theta), lay.fixed])[lay.angles]
    channels = np.bincount(lay.keys, angles, len(lay.sites) * 24).reshape(-1, 2, 6, 2)
    c, s, p = np.cos(channels[..., 0] / 2), np.sin(channels[..., 0] / 2), np.exp(-0.5j * channels[..., 1])
    lines = np.stack([c * p, -s * p.conj(), s * p, c * p.conj()], -1).reshape(-1, 2, 6, 2, 2)  # Ry(t) Rz(u)
    layers = np.einsum("sjab,sjcd->sjacbd", lines[:, 0], lines[:, 1]).reshape(-1, 6, 4, 4)
    q = [layers[:, 0]]
    for j, rows in enumerate(_CNOT_ROWS, start=1):
        q.append(layers[:, j] @ q[-1][:, rows])
    return channels, q


def ansatz_ops(a: Ansatz, theta: np.ndarray) -> list[CircuitOp]:
    """The circuit at the given parameters as one fused op per two-site slot (see _slot_layout).

    Slots come column by column, a column's slots in sweep_order.
    """
    return [CircuitOp(sites, m) for sites, m in zip(a._layout.sites, _prefixes(a, theta)[1][5])]


def slot_vjp(a: Ansatz, theta: np.ndarray, cot: np.ndarray) -> np.ndarray:
    """d/dtheta_j sum_s sum(cot[s] * M_s) for every angle j, M_s the slot matrices of ansatz_ops.

    cot (S, 4, 4) holds one cotangent per slot, in ansatz_ops order. Each angle
    drives a rotation exp(-i t P / 2) in a layer Ry(t) Rz(u) of _prefixes.
    With Q the prefix after that layer and X Q the product up to and including
    the rotation, dM = M Q^dagger lift(g) Q with the 2x2 g = X^dagger (-iP/2) X:
    -iY/2 for the Ry, -i/2 (cos(t) Z + sin(t) X) for the Rz under it; so -iZ/2
    for c, d and every field angle summed into them. The contraction is then
    sum(lift(g)^T * G) with G = Q cot^T M Q^dagger: six G per slot, one per
    layer, read through their Pauli components; no dM is formed.
    """
    channels, q = _prefixes(a, theta)
    q = np.stack(q, 1)
    g = q @ (np.swapaxes(cot, -1, -2) @ q[:, 5])[:, None] @ q.conj().swapaxes(-1, -2)  # G (S, 6, 4, 4)
    paulis = (g.reshape(-1, 16) @ _LIFTED).reshape(-1, 6, 2, 3)  # (row, layer, side, P = X, Y, Z)
    rows, side, layer, rz = a._layout.derivatives.T
    phi = channels[rows, side, layer, 0] * rz  # the layer's t for an Rz, 0 for the Ry
    return np.cos(phi) * paulis[rows, layer, side, 1 + rz] + np.sin(phi) * paulis[rows, layer, side, 0]


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
    theta[3 * a.n + 4 * a.num_blocks:] = np.tile(a.field_phis, a.num_field_params // a.n) / 2  # trainable fields

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
            for name, qubits, angle in _primitive_gates(a, _checked_theta(a, theta)) if angle != 0.0]

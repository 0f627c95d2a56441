"""Brickwork parametric circuit made of 4-angle CNOT blocks.

The circuit starts with three trainable rotations Rz Ry Rz on every qubit,
then mirrors the fused second-order Trotter layout column for column: every
two-site gate slot becomes a triplet of CNOT blocks (outer two with reversed
CNOT direction) and every field column keeps its fixed, non-trainable
rotations.

A CNOT block is a CNOT followed by Ry(t1) Rz(t2) on the control line and
Ry(t3) Rz(t4) on the target line. With this layout a triplet reproduces the
two-site exchange exponential exactly (up to a global phase) in closed form,
which is what makes exact Trotter initialization possible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mps as mpslib
from .gates import (
    CX_FORWARD,
    CX_REVERSED,
    Y,
    Z,
    cnot_depth_from_pairs,
    format_gate_line,
    ry,
    rz,
)
from .hamiltonian import XYZHamiltonian, build_trotter_schedule, triplet_angles, two_site_unitary
from .mps import MPS, TruncationPolicy


@dataclass(frozen=True)
class CNOTBlock:
    """One CNOT block: placement plus the offset of its 4 angles."""

    control: int
    target: int
    param_offset: int

    def __post_init__(self) -> None:
        if abs(self.control - self.target) != 1:
            raise ValueError("CNOT blocks act on nearest neighbours only")

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.control, self.target), max(self.control, self.target))

    @property
    def reversed(self) -> bool:
        """True when the control sits on the right qubit of the pair."""
        return self.control > self.target


@dataclass(frozen=True)
class Ansatz:
    """Structure of the parametric circuit (no angle values)."""

    n: int
    l: int
    b: int
    dt: float
    field_phis: tuple[float, ...]  # per-qubit fixed angle h_i * dt (one full step)
    columns: tuple[tuple[str, tuple[int, ...]], ...]  # (tag, left sites of pair slots)
    blocks: tuple[CNOTBlock, ...]
    trainable_fields: bool = False  # promote the field rotations into the parameter list

    @property
    def num_field_params(self) -> int:
        if not self.trainable_fields:
            return 0
        field_columns = sum(1 for tag, _ in self.columns if tag == "field")
        return field_columns * self.n

    @property
    def num_params(self) -> int:
        return 3 * self.n + 4 * len(self.blocks) + self.num_field_params

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def slot_multiset(self) -> list[tuple[str, int]]:
        """(column tag, pair left site) for every two-site slot, in order."""
        out = []
        for tag, pairs in self.columns:
            if tag != "field":
                out.extend((tag, p) for p in pairs)
        return out


def build_brickwork_ansatz(
    n: int, l: int, ham: XYZHamiltonian, dt: float, b: int = 3, trainable_fields: bool = False
) -> Ansatz:
    """Ansatz mirroring build_trotter_schedule(ham, dt, l) column for column."""
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    if l < 1:
        raise ValueError(f"need at least 1 layer, got {l}")
    if ham.n != n:
        raise ValueError(f"Hamiltonian has {ham.n} sites, expected {n}")
    schedule = build_trotter_schedule(ham, dt, l)
    columns = []
    blocks: list[CNOTBlock] = []
    offset = 3 * n
    for col in schedule.columns:
        if col.tag == "field":
            columns.append(("field", ()))
            continue
        pairs = tuple(g.sites[0] for g in col.gates)
        columns.append((col.tag, pairs))
        for i in pairs:
            for k in range(b):
                rev = k % 2 == 0  # outer blocks of a triplet point the other way
                control, target = (i + 1, i) if rev else (i, i + 1)
                blocks.append(CNOTBlock(control, target, offset))
                offset += 4
    return Ansatz(n, l, b, dt, tuple(h * dt for h in ham.h), tuple(columns), tuple(blocks),
                  trainable_fields)


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


_DY = -0.5j * Y
_DZ = -0.5j * Z


@dataclass(frozen=True)
class AnsatzOp:
    """One executable gate of the ansatz with its trainable-angle bookkeeping."""

    sites: tuple[int, ...]
    matrix: np.ndarray
    kind: str  # init | block | field
    param_indices: tuple[int, ...]
    angles: tuple[float, ...]
    reverse: bool = False

    def dmatrices(self) -> np.ndarray:
        """Derivatives of matrix with respect to each local angle, stacked (P, d, d).

        Every angle drives one rotation exp(-i t G / 2), so its derivative puts
        -i G / 2 next to that rotation; each rotation is built once.
        """
        if self.kind == "init":
            a, b, c = self.angles
            za, yb, zc = rz(a), ry(b), rz(c)
            return np.stack([_DZ @ za @ yb @ zc, za @ _DY @ yb @ zc, za @ yb @ _DZ @ zc])
        if self.kind == "block":
            t1, t2, t3, t4 = self.angles
            y1, z2, y3, z4 = ry(t1), rz(t2), ry(t3), rz(t4)
            lc, lt = y1 @ z2, y3 @ z4
            control = np.stack([_DY @ lc, y1 @ _DZ @ z2, lc, lc])
            target = np.stack([lt, lt, _DY @ lt, y3 @ _DZ @ z4])
            left, right = (target, control) if self.reverse else (control, target)
            krons = np.einsum("kac,kbd->kabcd", left, right).reshape(4, 4, 4)
            return krons @ (CX_REVERSED if self.reverse else CX_FORWARD)
        if self.param_indices:
            return np.stack([_DZ @ self.matrix])
        return np.empty((0, 2, 2), dtype=complex)


def ansatz_ops(a: Ansatz, theta: np.ndarray) -> list[AnsatzOp]:
    """The circuit as an ordered op list for the given parameter values."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (a.num_params,):
        raise ValueError(f"expected {a.num_params} parameters, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    ops: list[AnsatzOp] = []
    for q in range(a.n):
        ang = theta[3 * q: 3 * q + 3]
        ops.append(AnsatzOp((q,), initial_rotation(ang), "init",
                            tuple(range(3 * q, 3 * q + 3)), tuple(ang)))
    block_iter = iter(a.blocks)
    field_base = 3 * a.n + 4 * len(a.blocks)
    field_column = 0
    for tag, pairs in a.columns:
        if tag == "field":
            for q in range(a.n):
                if a.trainable_fields:
                    idx = field_base + field_column * a.n + q
                    ops.append(AnsatzOp((q,), rz(theta[idx]), "field", (idx,), (theta[idx],)))
                else:
                    ops.append(AnsatzOp((q,), rz(a.field_phis[q] / 2), "field", (),
                                        (a.field_phis[q] / 2,)))
            field_column += 1
            continue
        for _ in pairs:
            for _ in range(a.b):
                blk = next(block_iter)
                ang = theta[blk.param_offset: blk.param_offset + 4]
                ops.append(AnsatzOp(blk.pair, block_unitary(ang, blk.reversed), "block",
                                    tuple(range(blk.param_offset, blk.param_offset + 4)),
                                    tuple(ang), blk.reversed))
    return ops


def adjoint_ops(ops: list[AnsatzOp]) -> list[AnsatzOp]:
    """Reversed order, conjugate-transposed matrices."""
    out = []
    for op in reversed(ops):
        out.append(AnsatzOp(op.sites, op.matrix.conj().T, op.kind,
                            op.param_indices, op.angles, op.reverse))
    return out


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
    """CNOT depth of the ansatz (one CNOT per block)."""
    return cnot_depth_from_pairs((b.pair for b in a.blocks), a.n)


# --- Trotter initialization --------------------------------------------------


def solve_triplet_angles(alpha: float, beta: float, delta: float, dt: float) -> np.ndarray:
    """12 angles making a block triplet equal the two-site exponential, up to phase.

    Closed form, with (theta, phi, lam) = triplet_angles(alpha, beta, delta, dt):
    block 1 (reversed): control Ry(phi) Rz(-pi/2);
    block 2 (normal):  control Rz(theta), target Ry(lam);
    block 3 (reversed): target Rz(pi/2).
    The assignment is verified against the dense exponential and polished by a
    deterministic least-squares solve if it ever drifts above 1e-10.
    """
    theta, phi, lam = triplet_angles(alpha, beta, delta, dt)
    angles = np.array([phi, -np.pi / 2, 0, 0,
                       0, theta, lam, 0,
                       0, 0, 0, np.pi / 2])
    target = two_site_unitary(alpha, beta, delta, dt)
    if _triplet_distance(angles, target) > 1e-10:
        angles = _polish_triplet(angles, target)
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


def _polish_triplet(seed: np.ndarray, target: np.ndarray) -> np.ndarray:
    from scipy.optimize import least_squares

    def resid(ang):
        t = triplet_unitary(ang)
        tr = np.trace(target.conj().T @ t)
        phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
        d = t - phase * target
        return np.concatenate([d.real.ravel(), d.imag.ravel()])

    result = least_squares(resid, seed, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if _triplet_distance(result.x, target) > 1e-10:
        raise RuntimeError("triplet solve failed to reach the exactness floor")
    return result.x


def trotter_initialize(a: Ansatz, ham: XYZHamiltonian, dt: float, bits: str | None = None) -> np.ndarray:
    """Parameters at which V(theta) |0...0> equals the l-step Trotter state.

    bits selects the product state whose preparation is folded into the
    initial rotations (Ry(pi) on '1' sites); default all zeros.
    """
    if a.b != 3:
        raise ValueError("Trotter initialization requires b = 3 blocks per slot")
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
        field_base = 3 * a.n + 4 * len(a.blocks)
        for f in range(a.num_field_params // a.n):
            for q in range(a.n):
                theta[field_base + f * a.n + q] = a.field_phis[q] / 2

    block_iter = iter(a.blocks)
    for tag, pairs in a.columns:
        if tag == "field":
            continue
        tau = dt / 2 if tag == "even-half" else dt
        for i in pairs:
            angles = solve_triplet_angles(ham.alpha[i], ham.beta[i], ham.delta[i], tau)
            for k in range(3):
                blk = next(block_iter)
                theta[blk.param_offset: blk.param_offset + 4] = angles[4 * k: 4 * k + 4]
    return theta


# --- plain-text export -------------------------------------------------------


def export_circuit_records(a: Ansatz, theta: np.ndarray) -> list[str]:
    """Primitive gate-list lines (rz/ry/cx) for the circuit at given angles."""
    lines = []
    for op in ansatz_ops(a, theta):
        if op.kind == "init":
            q = op.sites[0]
            p0, p1, p2 = op.angles
            lines.append(format_gate_line("rz", [q], [p2]))
            lines.append(format_gate_line("ry", [q], [p1]))
            lines.append(format_gate_line("rz", [q], [p0]))
        elif op.kind == "field":
            lines.append(format_gate_line("rz", [op.sites[0]], [op.angles[0]]))
        else:
            left, right = op.sites
            control, target = (right, left) if op.reverse else (left, right)
            t1, t2, t3, t4 = op.angles
            lines.append(format_gate_line("cx", [control, target]))
            lines.append(format_gate_line("rz", [control], [t2]))
            lines.append(format_gate_line("ry", [control], [t1]))
            lines.append(format_gate_line("rz", [target], [t4]))
            lines.append(format_gate_line("ry", [target], [t3]))
    return lines

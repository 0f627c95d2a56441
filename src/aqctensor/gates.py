"""Elementary gates, circuit-op records, CNOT-depth accounting, gate-list text I/O."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SX = X / 2
SY = Y / 2
SZ = Z / 2

#: CNOT on a (left, right) pair, control = left qubit. Basis order |q_left q_right>.
CX_FORWARD = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
#: control = right qubit.
CX_REVERSED = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


ROTATIONS = {"rx": rx, "ry": ry, "rz": rz}


@dataclass(frozen=True)
class CircuitOp:
    """One gate in an executable circuit: a dense matrix on 1 or 2 adjacent sites."""

    sites: tuple[int, ...]
    matrix: np.ndarray
    label: str = ""


def cnot_depth_from_pairs(pairs: Iterable[tuple[int, int]], n: int) -> int:
    """CNOT depth of a circuit given its CNOT placements in temporal order.

    Greedy per-qubit levelling; equals the makespan of any as-late-as-possible
    schedule since only CNOTs are counted.
    """
    level = [0] * n
    depth = 0
    for a, b in pairs:
        d = max(level[a], level[b]) + 1
        level[a] = level[b] = d
        depth = max(depth, d)
    return depth


# --- plain-text gate list (one gate per line: name, qubits, angles) ---------


def format_gate_line(name: str, qubits: Sequence[int], angles: Sequence[float] = ()) -> str:
    parts = [name] + [f"q{q}" for q in qubits] + [f"{a:.17g}" for a in angles]
    return " ".join(parts)


def write_gate_list(lines: Iterable[str], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# aqctensor gate list v1\n")
        for line in lines:
            fh.write(line + "\n")


def parse_gate_line(line: str) -> tuple[str, list[int], list[float]]:
    parts = line.split()
    name = parts[0]
    qubits = [int(p[1:]) for p in parts if p.startswith("q")]
    angles = [float(p) for p in parts[1 + len(qubits):]]
    return name, qubits, angles


def read_gate_list(path: str) -> list[tuple[str, list[int], list[float]]]:
    """Parse a gate-list file back into (name, qubits, angles) records."""
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append(parse_gate_line(line))
    return out


def op_from_record(name: str, qubits: Sequence[int], angles: Sequence[float]) -> CircuitOp:
    """Turn a parsed gate-list entry (cx, rx, ry, rz) into an executable op.

    For cx the first qubit is the control; sites are normalized to ascending
    order with the matrix direction adjusted accordingly.
    """
    if name == "cx":
        c, t = qubits
        if abs(c - t) != 1:
            raise ValueError(f"cx requires adjacent qubits, got {qubits}")
        mat = CX_FORWARD if c < t else CX_REVERSED
        return CircuitOp((min(c, t), max(c, t)), mat, "cx")
    if name in ROTATIONS:
        return CircuitOp((qubits[0],), ROTATIONS[name](angles[0]), name)
    raise ValueError(f"unknown gate name {name!r}")

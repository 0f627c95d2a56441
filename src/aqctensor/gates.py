"""Elementary gates, circuit-op records, gate-list text output."""
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


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


@dataclass(frozen=True)
class CircuitOp:
    """One gate in an executable circuit: a dense matrix on 1 or 2 adjacent sites."""

    sites: tuple[int, ...]
    matrix: np.ndarray


# --- plain-text gate list (one gate per line: name, qubits, angles) ---------


def format_gate_line(name: str, qubits: Sequence[int], angles: Sequence[float] = ()) -> str:
    parts = [name] + [f"q{q}" for q in qubits] + [f"{a:.17g}" for a in angles]
    return " ".join(parts)


def write_gate_list(lines: Iterable[str], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# aqctensor gate list v1\n")
        for line in lines:
            fh.write(line + "\n")

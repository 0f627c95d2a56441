"""XYZ spin-chain Hamiltonians, second-order Trotter schedules, and TEBD evolution.

The chain is open, with bond couplings alpha_i, beta_i, delta_i on bonds
i = 0..L-2 and on-site fields h_i, i = 0..L-1:

    H = -sum_i (alpha_i Sx Sx + beta_i Sy Sy + delta_i Sz Sz) + sum_i h_i Sz

with S = sigma / 2. One second-order step with time step dt applies, in order:
a half step on even bonds, half field rotations, a full step on odd bonds, half
field rotations, and a closing half step on even bonds. Across multiple steps
the interior even half-steps are fused into full steps, so half-steps survive
only at the circuit boundaries.

trotter_columns is the one statement of that fused column layout; the gate
schedule, the ansatz and every CNOT depth read it. The module knows
Hamiltonians, schedules and TEBD only; the circuit form of a two-site gate
(three CNOT blocks) and the CNOT depth of a layout live in the ansatz.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import mps as mpslib
from .gates import SX, SY, SZ, CircuitOp, rz
from .mps import MPS, TruncationPolicy

_XX = np.kron(2 * SX, 2 * SX)
_YY = np.kron(2 * SY, 2 * SY)
_ZZ = np.kron(2 * SZ, 2 * SZ)


@dataclass(frozen=True)
class XYZHamiltonian:
    """Per-bond couplings and per-site fields of the XYZ family."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    delta: tuple[float, ...]
    h: tuple[float, ...]
    seed: int | None = None  # provenance of randomly drawn couplings, if any

    def __post_init__(self) -> None:
        n = self.n
        for name, coup in (("alpha", self.alpha), ("beta", self.beta), ("delta", self.delta)):
            if len(coup) != n - 1:
                raise ValueError(f"{name} must have length n-1 = {n - 1}, got {len(coup)}")
        values = list(self.alpha) + list(self.beta) + list(self.delta) + list(self.h)
        if not all(np.isfinite(values)):
            raise ValueError("all couplings and fields must be finite")

    @property
    def n(self) -> int:
        return len(self.h)

    @classmethod
    def uniform(cls, n: int, alpha: float, beta: float, delta: float, h: float = 0.0) -> "XYZHamiltonian":
        if n < 2:
            raise ValueError("need at least 2 sites")
        return cls((alpha,) * (n - 1), (beta,) * (n - 1), (delta,) * (n - 1), (h,) * n)

    def bond_matrix(self, i: int) -> np.ndarray:
        """4x4 exchange generator h_{i,i+1} = a SxSx + b SySy + d SzSz."""
        return (self.alpha[i] * _XX + self.beta[i] * _YY + self.delta[i] * _ZZ) / 4.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": [float(x) for x in self.alpha],  # plain floats, so yaml.safe_dump writes them
            "beta": [float(x) for x in self.beta],
            "delta": [float(x) for x in self.delta],
            "h": [float(x) for x in self.h],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "XYZHamiltonian":
        ham = cls(
            tuple(d["alpha"]), tuple(d["beta"]), tuple(d["delta"]), tuple(d["h"]),
            seed=d.get("seed"),
        )
        if ham.n != d["n"]:
            raise ValueError("inconsistent serialized Hamiltonian: n mismatch")
        return ham


def random_xyz(n: int, lo: float, hi: float, seed: int) -> XYZHamiltonian:
    """Couplings i.i.d. uniform in [lo, hi] from a seeded PCG64 stream; fields 0."""
    if lo > hi:
        raise ValueError(f"lo {lo} > hi {hi}")
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(lo, hi, n - 1)
    beta = rng.uniform(lo, hi, n - 1)
    delta = rng.uniform(lo, hi, n - 1)
    return XYZHamiltonian(tuple(alpha), tuple(beta), tuple(delta), (0.0,) * n, seed=seed)


def two_site_unitary(alpha: float, beta: float, delta: float, dt: float) -> np.ndarray:
    """exp(i dt (alpha SxSx + beta SySy + delta SzSz)) as a dense 4x4. XX, YY and ZZ commute, so with
    t-+ = (alpha -+ beta) dt / 4 and phi = delta dt / 4 it is e^{i phi} (cos t- + i sin t- X) on
    {|00>, |11>} and e^{-i phi} (cos t+ + i sin t+ X) on {|01>, |10>}."""
    em, tm, tp = cmath.exp(0.25j * delta * dt), (alpha - beta) * dt / 4, (alpha + beta) * dt / 4
    ep = em.conjugate()
    cm, sm, cp, sp = em * cmath.cos(tm), 1j * em * cmath.sin(tm), ep * cmath.cos(tp), 1j * ep * cmath.sin(tp)
    return np.array([[cm, 0, 0, sm], [0, cp, sp, 0], [0, sp, cp, 0], [sm, 0, 0, cm]])


@dataclass(frozen=True)
class Column:
    """One layer of non-overlapping gates with its role tag."""

    tag: str  # even-half | even-full | odd-full | field
    gates: tuple[CircuitOp, ...]


@dataclass(frozen=True)
class GateSchedule:
    """Fused second-order Trotter circuit: an ordered list of columns."""

    columns: tuple[Column, ...]

    def flat_gates(self) -> Iterator[CircuitOp]:
        for col in self.columns:
            yield from col.gates


def trotter_columns(n: int, steps: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The fused layout of (U_trott(dt))^steps on n sites: (tag, left sites of its pairs) per column.

    steps+1 even columns (the first and last are half-steps, interior ones are
    fused full steps), steps odd columns, and 2*steps field columns (no pairs),
    in the order even-half, (field, odd-full, field, even)*steps.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    even, odd = tuple(range(0, n - 1, 2)), tuple(range(1, n - 1, 2))
    step = (("field", ()), ("odd-full", odd), ("field", ()))
    fused = (*step, ("even-full", even)) * (steps - 1)
    return (("even-half", even), *fused, *step, ("even-half", even))


def pair_time_step(tag: str, dt: float) -> float:
    """Time step of a pair column: dt / 2 for an even-half column, dt for a full one."""
    return dt / 2 if tag == "even-half" else dt


def _column(ham: XYZHamiltonian, tag: str, pairs: tuple[int, ...], dt: float) -> Column:
    if tag == "field":
        return Column(tag, tuple(CircuitOp((j,), rz(ham.h[j] * dt / 2)) for j in range(ham.n)))
    tau = pair_time_step(tag, dt)
    gates = (two_site_unitary(ham.alpha[i], ham.beta[i], ham.delta[i], tau) for i in pairs)
    return Column(tag, tuple(CircuitOp((i, i + 1), u) for i, u in zip(pairs, gates)))


def sweep_order(tag: str, items: Sequence) -> Sequence:
    """A column's gates in the order they are applied: odd-full columns run right to left.

    A column's gates act on disjoint pairs and commute. Alternating directions
    sweep back and forth, about one QR step per gate in mps.iter_ops.
    """
    return items[::-1] if tag == "odd-full" else items


def build_trotter_schedule(ham: XYZHamiltonian, dt: float, steps: int) -> GateSchedule:
    """Fused schedule realizing (U_trott(dt))^steps: the gates of trotter_columns(ham.n, steps).

    Each distinct column is built once and shared by every place it appears.
    """
    layout = trotter_columns(ham.n, steps)
    built = {tag: _column(ham, tag, pairs, dt) for tag, pairs in dict(layout).items()}
    return GateSchedule(tuple(built[tag] for tag, _ in layout))


def tebd_evolve(
    psi0: MPS,
    ham: XYZHamiltonian,
    dt: float,
    steps: int,
    policy: TruncationPolicy,
    stats: dict | None = None,
) -> MPS:
    """Evolve an MPS by `steps` second-order Trotter steps of size dt.

    The whole schedule is one mps.iter_ops pass, each column in sweep_order, so
    the last gate of a column already ends next to the next column's first pair.
    Returns a normalized state. When a stats dict is passed it receives the
    maximum bond dimension seen and the discarded weight added by this call.
    """
    if psi0.n != ham.n:
        raise ValueError(f"state has {psi0.n} sites but Hamiltonian has {ham.n}")
    schedule = build_trotter_schedule(ham, dt, steps)
    ops = [g for col in schedule.columns for g in sweep_order(col.tag, col.gates)]
    max_chi, psi = mpslib.max_bond(psi0), psi0
    for op, psi in zip(ops, mpslib.iter_ops(psi0, ops, policy)):
        max_chi = max(max_chi, psi.tensors[op.sites[0]].shape[2])  # a single-site gate changes no bond
    psi = mpslib.normalize(psi)
    if stats is not None:
        stats["max_bond"] = max_chi
        stats["discarded_weight"] = psi.discarded_weight - psi0.discarded_weight
    return psi


def expectation_energy(ham: XYZHamiltonian, psi: MPS) -> float:
    """<H> in one left-to-right sweep of the orthogonality center.

    With the center on site i, every term on i or (i, i + 1) is read from
    those tensors alone; one QR step then moves the center to i + 1.
    """
    tensors = mpslib.canonicalize(psi, 0).tensors  # a fresh list: the QR steps replace its entries
    e = 0.0
    for i in range(ham.n):
        t = tensors[i]
        if ham.h[i] != 0.0:
            e += ham.h[i] * np.vdot(t, np.matmul(SZ, t)).real
        if i < ham.n - 1:
            nxt = tensors[i + 1]
            pair = (t.reshape(-1, t.shape[2]) @ nxt.reshape(nxt.shape[0], -1)).reshape(t.shape[0], 4, -1)
            e -= np.vdot(pair, np.matmul(ham.bond_matrix(i), pair)).real
            mpslib._shift_center_right(tensors, i)
    return float(e)

"""XYZ spin-chain Hamiltonians, second-order Trotter schedules, and TEBD evolution.

The chain is open, with bond couplings alpha_i, beta_i, delta_i on bonds
i = 0..L-2 and on-site fields h_i, i = 0..L-1:

    H = -sum_i (alpha_i Sx Sx + beta_i Sy Sy + delta_i Sz Sz) + sum_i h_i Sz

with S = sigma / 2. One second-order step with time step dt applies, in order:
a half step on even bonds, half field rotations, a full step on odd bonds, half
field rotations, and a closing half step on even bonds. Across multiple steps
the interior even half-steps are fused into full steps, so half-steps survive
only at the circuit boundaries.

The module knows Hamiltonians, schedules and TEBD only; the circuit form of a
two-site gate (three CNOT blocks) lives in the ansatz.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg import expm

from . import mps as mpslib
from .gates import SX, SY, SZ, CircuitOp, cnot_depth_from_pairs, rz
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
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "delta": list(self.delta),
            "h": list(self.h),
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
    """exp(i dt (alpha SxSx + beta SySy + delta SzSz)) as a dense 4x4."""
    gen = dt * (alpha * _XX + beta * _YY + delta * _ZZ) / 4.0
    return expm(1j * gen)


@dataclass(frozen=True)
class Column:
    """One layer of non-overlapping gates with its role tag."""

    tag: str  # even-half | even-full | odd-full | field
    gates: tuple[CircuitOp, ...]


@dataclass(frozen=True)
class GateSchedule:
    """Fused second-order Trotter circuit: an ordered list of columns."""

    n: int
    columns: tuple[Column, ...]

    def flat_gates(self) -> Iterator[CircuitOp]:
        for col in self.columns:
            yield from col.gates

    def two_site_columns(self) -> list[Column]:
        return [c for c in self.columns if c.tag != "field"]

    def cnot_depth(self) -> int:
        """Depth when every two-site gate is realized in its 3-CNOT form."""
        pairs = []
        for col in self.two_site_columns():
            for g in col.gates:
                pairs.extend([(g.sites[0], g.sites[1])] * 3)
        return cnot_depth_from_pairs(pairs, self.n)


def _pair_column(ham: XYZHamiltonian, start: int, tau: float, tag: str) -> Column:
    gates = tuple(
        CircuitOp((i, i + 1), two_site_unitary(ham.alpha[i], ham.beta[i], ham.delta[i], tau))
        for i in range(start, ham.n - 1, 2)
    )
    return Column(tag, gates)


def _field_column(ham: XYZHamiltonian, dt: float) -> Column:
    gates = tuple(CircuitOp((j,), rz(ham.h[j] * dt / 2)) for j in range(ham.n))
    return Column("field", gates)


def sweep_order(tag: str, items: Sequence) -> Sequence:
    """A column's gates in the order they are applied: odd-full columns run right to left.

    A column's gates act on disjoint pairs and commute. Alternating directions
    sweep back and forth, about one QR step per gate in mps.iter_ops.
    """
    return items[::-1] if tag == "odd-full" else items


def build_trotter_schedule(ham: XYZHamiltonian, dt: float, steps: int) -> GateSchedule:
    """Fused schedule realizing (U_trott(dt))^steps.

    steps+1 even columns (the first and last are half-steps, interior ones are
    fused full steps), steps odd columns, and 2*steps field columns, in the
    order even-half, (field, odd-full, field, even)*steps; each distinct column is built once.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    even_half = _pair_column(ham, 0, dt / 2, "even-half")
    field, odd = _field_column(ham, dt), _pair_column(ham, 1, dt, "odd-full")
    inner = [field, odd, field, _pair_column(ham, 0, dt, "even-full")] if steps > 1 else []
    cols = [even_half, *(inner * (steps - 1)), field, odd, field, even_half]
    return GateSchedule(ham.n, tuple(cols))


def tebd_evolve(
    psi0: MPS,
    ham: XYZHamiltonian,
    dt: float,
    steps: int,
    policy: TruncationPolicy,
    stats: dict | None = None,
) -> MPS:
    """Evolve an MPS by `steps` second-order Trotter steps of size dt.

    Returns a normalized state. When a stats dict is passed it receives the
    maximum bond dimension seen and the discarded weight added by this call.
    """
    if psi0.n != ham.n:
        raise ValueError(f"state has {psi0.n} sites but Hamiltonian has {ham.n}")
    schedule = build_trotter_schedule(ham, dt, steps)
    start_discard = psi0.discarded_weight
    max_chi = mpslib.max_bond(psi0)
    # apply_ops gets the only reference to a column's input state, so the
    # tensors it replaces are freed as the column runs, not at its end
    held = [psi0]
    for col in schedule.columns:
        held.append(mpslib.apply_ops(held.pop(), sweep_order(col.tag, col.gates), policy))
        max_chi = max(max_chi, mpslib.max_bond(held[0]))
    psi = mpslib.normalize(held[0])
    if stats is not None:
        stats["max_bond"] = max_chi
        stats["discarded_weight"] = psi.discarded_weight - start_discard
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

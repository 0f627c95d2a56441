"""Reference computations that only the tests use.

dense_hamiltonian and sv_exact_evolution give exact evolution by dense
diagonalization; tebd_evolve_by_column runs the Trotter schedule one column
per apply_ops call; statevector_to_mps and random_mps make test states;
total_sz and initial_rotation are the closed forms the tests compare with;
block_unitary and triplet_unitary build the CNOT blocks of the ansatz as
dense matrices, gate_walk_slots fuses its slots gate by gate, and
shift_derivatives differentiates them by shifted angles;
levelled_cnot_depth and schedule_cnot_depth count CNOT depth gate by gate.
amplitude reads one basis-string coefficient of an MPS; parse_gate_line,
read_gate_list and op_from_record read an exported circuit back into ops.
cost_full_local_bruteforce enumerates all 2^n amplitudes of a small chain;
probe_gradient_samples and variance_probe give the gradient of the order-k
local cost in closed form for a product circuit, the case whose variance the
acceptance suite compares with its exact scaling.
"""
import numpy as np
from scipy.stats import unitary_group

from aqctensor.ansatz import Ansatz, adjoint_ops, ansatz_ops
from aqctensor.gates import CX_FORWARD, CX_REVERSED, SZ, CircuitOp, rz
from aqctensor.hamiltonian import GateSchedule, XYZHamiltonian, build_trotter_schedule, sweep_order
from aqctensor.mps import (EXACT, MPS, TruncationPolicy, apply_ops, apply_two_site_gate, canonicalize,
                           from_product_state, max_bond, normalize)
from aqctensor.statevector import MAX_QUBITS_CIRCUIT, _guard, mps_to_statevector

MAX_QUBITS_EVOLUTION = 12


def apply_ansatz_adjoint(a: Ansatz, theta: np.ndarray, target: MPS, policy: TruncationPolicy) -> MPS:
    """V(theta)^dagger |target>, normalized; cost terms are its amplitudes."""
    if target.n != a.n:
        raise ValueError(f"state has {target.n} sites, ansatz has {a.n}")
    return normalize(apply_ops(target, adjoint_ops(ansatz_ops(a, theta)), policy))


def cost_full_local_bruteforce(a: Ansatz, theta: np.ndarray, target: MPS) -> float:
    """Untruncated local cost by enumerating all 2^n strings with weights (n-|s|)/n."""
    n = a.n
    amps = mps_to_statevector(apply_ansatz_adjoint(a, theta, target, EXACT))
    weights = np.array([(n - bin(idx).count("1")) / n for idx in range(2**n)])
    return float(1.0 - np.sum(weights * np.abs(amps) ** 2))


def probe_gradient_samples(n: int, k: int, samples: int, seed: int, component: int = 0) -> np.ndarray:
    """Per-sample gradient of the order-k local cost for the product test case.

    The probed circuit is V(theta) = prod_j exp(-i theta_j X_j / 2) with target
    |0...0>, theta drawn uniformly from [0, 2pi)^n. The flip amplitudes
    factorize, |<s| V^dag |0>|^2 = prod_j p_j^{s_j} q_j^{1-s_j} with
    p_j = sin^2(theta_j / 2), so the gradient is evaluated in closed form.

    One qubit is marginalized per added truncation order (all 2^k flip
    patterns on the last k qubits, unit weights), the form for which the
    gradient variance obeys Var = (1/8) (3/8)^(n-k-1) exactly. Then
    C = 1 - prod_{j < n-k} q_j.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= component < n:
        raise ValueError(f"component {component} out of range")
    if component >= n - k:
        raise ValueError("gradient component must not be marginalized")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, size=(samples, n))
    q = 1.0 - np.sin(theta / 2) ** 2
    dsdt = np.sin(theta[:, component]) / 2.0
    keep = [j for j in range(n - k) if j != component]
    return dsdt * np.prod(q[:, keep], axis=1) if keep else dsdt.copy()


def variance_probe(n: int, k: int, samples: int, seed: int, component: int = 0) -> float:
    """Monte-Carlo estimate of Var[dC_k / dtheta_component] for the product case."""
    return float(np.var(probe_gradient_samples(n, k, samples, seed, component)))


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
    rng = np.random.default_rng(seed)
    bits = "".join(rng.choice(["0", "1"]) for _ in range(n))
    psi = from_product_state(bits)
    for layer in range(entangling_layers):
        for i in range(layer % 2, n - 1, 2):
            u = unitary_group.rvs(4, random_state=rng)
            psi = apply_two_site_gate(psi, u, i, EXACT)
    return psi


def tebd_evolve_by_column(psi0: MPS, ham: XYZHamiltonian, dt: float, steps: int,
                          policy: TruncationPolicy, stats: dict) -> MPS:
    """tebd_evolve with one apply_ops call per column, so each column's last gate ends on its own pair."""
    psi, max_chi = psi0, max_bond(psi0)
    for col in build_trotter_schedule(ham, dt, steps).columns:
        psi = apply_ops(psi, sweep_order(col.tag, col.gates), policy)
        max_chi = max(max_chi, max_bond(psi))
    psi = normalize(psi)
    stats.update(max_bond=max_chi, discarded_weight=psi.discarded_weight - psi0.discarded_weight)
    return psi


def expectation_single(psi: MPS, op: np.ndarray, site: int) -> complex:
    """<psi| op_site |psi> for a 2x2 operator at one site."""
    t = canonicalize(psi, site).tensors[site]
    return complex(np.einsum("asb,st,atb->", t.conj(), op, t, optimize=True))


def total_sz(psi: MPS) -> float:
    """Total-magnetization expectation sum_j <Sz_j>."""
    return sum(expectation_single(psi, SZ, j).real for j in range(psi.n))


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def initial_rotation(angles: np.ndarray) -> np.ndarray:
    """Rz(a) Ry(b) Rz(c) on one qubit (rightmost factor acts first)."""
    a, b, c = angles
    return rz(a) @ ry(b) @ rz(c)


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


def triplet_unitary(angles: np.ndarray) -> np.ndarray:
    """Product of the three blocks of a slot (outer two reversed), first block rightmost."""
    b1 = block_unitary(angles[0:4], reverse=True)
    b2 = block_unitary(angles[4:8], reverse=False)
    b3 = block_unitary(angles[8:12], reverse=True)
    return b3 @ b2 @ b1


def gate_walk_slots(a: Ansatz, theta: np.ndarray) -> list[CircuitOp]:
    """ansatz_ops by walking the circuit gate by gate: each slot is the 4x4 product of its gates.

    The circuit in time order is Rz(theta_3q+2), Ry(theta_3q+1), Rz(theta_3q)
    on every qubit, then per column either one field Rz per qubit or, per
    pair, three CNOT blocks: CX, then Rz, Ry on the control and Rz, Ry on the
    target line (block k of slot s owns angles 3n + 12s + 4k .. +4: the
    control line's Ry, Rz at +0, +1, the target line's at +2, +3; blocks 1
    and 3 reversed). A rotation joins the last slot that touched its qubit; before
    any slot has touched the qubit it waits for the next slot there and goes
    in before its first CNOT. A column's slots come in sweep_order.
    """
    n = a.n
    gates = [(name, q, theta[3 * q + j]) for q in range(n) for name, j in (("rz", 2), ("ry", 1), ("rz", 0))]
    field, s = 3 * n + 4 * a.num_blocks, 0
    for tag, pairs in a.columns:
        if tag == "field":
            gates += [("rz", q, theta[field + q] if a.trainable_fields else a.field_phis[q] / 2) for q in range(n)]
            field += n if a.trainable_fields else 0
            continue
        for i in pairs:
            for k in range(3):
                o = 3 * n + 12 * s + 4 * k
                control, target = (i + 1, i) if k % 2 == 0 else (i, i + 1)
                gates += [("cx", control, target), ("rz", control, theta[o + 1]), ("ry", control, theta[o]),
                          ("rz", target, theta[o + 3]), ("ry", target, theta[o + 2])]
            s += 1

    def lift(m, left, q):
        return np.kron(m, np.eye(2)) if q == left else np.kron(np.eye(2), m)

    slots, owner, pending, cnots = [], [None] * n, [[] for _ in range(n)], 0
    for name, q, value in gates:
        if name == "cx":
            if cnots % 3 == 0:  # a slot's three CNOTs come one after another; the first opens it
                slot = [min(q, value), np.eye(4, dtype=complex)]
                for p in (slot[0], slot[0] + 1):
                    for m in pending[p]:
                        slot[1] = lift(m, slot[0], p) @ slot[1]
                    pending[p], owner[p] = [], slot
                slots.append(slot)
            slot[1] = (CX_FORWARD if q < value else CX_REVERSED) @ slot[1]
            cnots += 1
        elif owner[q] is None:
            pending[q].append(rz(value) if name == "rz" else ry(value))
        else:
            owner[q][1] = lift(rz(value) if name == "rz" else ry(value), owner[q][0], q) @ owner[q][1]
    ids = iter(slots)
    ordered = [slot for tag, pairs in a.columns for slot in sweep_order(tag, [next(ids) for _ in pairs])]
    return [CircuitOp((left, left + 1), matrix) for left, matrix in ordered]


def shift_derivatives(a: Ansatz, theta: np.ndarray):
    """dM_s / dtheta_j of every slot of ansatz_ops, one (S, 4, 4) array per angle j in order.

    Every angle drives one rotation exp(-i t P / 2) with P^2 = 1, and each slot
    matrix is linear in it, so (M(theta + pi e_j) - M(theta - pi e_j)) / 4 is
    the derivative exactly; a slot that does not read angle j gets exact zeros.
    """
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += np.pi
        down[j] -= np.pi
        yield np.array([u.matrix - d.matrix for u, d in zip(ansatz_ops(a, up), ansatz_ops(a, down))]) / 4


def levelled_cnot_depth(cnots, n: int) -> int:
    """CNOT depth of CNOTs on these qubit pairs, in time order, by greedy per-qubit levelling."""
    level = [0] * n
    for a, b in cnots:
        level[a] = level[b] = max(level[a], level[b]) + 1
    return max(level)


def schedule_cnot_depth(schedule: GateSchedule, n: int) -> int:
    """CNOT depth of a dense Trotter schedule on n qubits, each two-site gate as three CNOTs."""
    gates = [g.sites for g in schedule.flat_gates() if len(g.sites) == 2]
    return levelled_cnot_depth([sites for sites in gates for _ in range(3)], n)


def amplitude(psi: MPS, bits: str) -> complex:
    """Coefficient of the given basis string, O(n chi^2)."""
    if len(bits) != psi.n:
        raise ValueError(f"basis string length {len(bits)} != {psi.n} sites")
    vec = np.ones(1, dtype=complex)
    for ch, t in zip(bits, psi.tensors):
        vec = vec @ t[:, int(ch), :]
    return complex(vec[0])


def parse_gate_line(line: str) -> tuple[str, list[int], list[float]]:
    """(name, qubits, angles) of one gate-list line."""
    parts = line.split()
    qubits = [int(p[1:]) for p in parts if p.startswith("q")]
    return parts[0], qubits, [float(p) for p in parts[1 + len(qubits):]]


def read_gate_list(path: str) -> list[tuple[str, list[int], list[float]]]:
    """Parse a gate-list file back into (name, qubits, angles) records."""
    with open(path) as fh:
        return [parse_gate_line(line) for line in map(str.strip, fh) if line and not line.startswith("#")]


def op_from_record(name: str, qubits: list[int], angles: list[float]) -> CircuitOp:
    """Turn a parsed gate-list entry (cx, ry, rz) into an executable op.

    For cx the first qubit is the control; sites are normalized to ascending
    order with the matrix direction adjusted accordingly.
    """
    if name == "cx":
        c, t = qubits
        if abs(c - t) != 1:
            raise ValueError(f"cx requires adjacent qubits, got {qubits}")
        return CircuitOp((min(c, t), max(c, t)), CX_FORWARD if c < t else CX_REVERSED)
    rotations = {"ry": ry, "rz": rz}
    if name in rotations:
        return CircuitOp((qubits[0],), rotations[name](angles[0]))
    raise ValueError(f"unknown gate name {name!r}")

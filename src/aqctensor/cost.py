"""Hilbert-Schmidt state-overlap costs over MPS amplitudes, and their gradients.

The global cost is 1 - |<0|V^dag(theta)|psi_t>|^2. The truncated local cost
subtracts alpha_m-weighted sums of |<0| X_{j1}..X_{jm} V^dag |psi_t>|^2 over
all bit-flip patterns of weight m = 1..k; every term is an amplitude of the
single state |phi> = V^dag |psi_t>, so one adjoint circuit application feeds
the whole cost.

Gradients use the parameter-shift rule: every trainable angle sits in a
rotation with generator eigenvalues +-1/2, so dC/dtheta_j equals
(C(theta_j + pi/2) - C(theta_j - pi/2)) / 2, term by term for each
modulus-squared amplitude. Two evaluation strategies are provided:
"reevaluation" literally runs the 2P shifted cost evaluations, while the
default "environments" strategy evaluates each derivative as one overlap
<W_m| dO_m^dag |prefix_m>, where O_m is one fused two-site slot of the
ansatz. One gradient costs a backward (adjoint) sweep with checkpoints, a
rebuild of each checkpoint segment and a forward sweep of the weighted bra
state, plus per slot one window: amortized O(chi^3) environment work (the
overlap environments are reused while the tensors they absorbed are
unchanged), one O(chi^3) contraction into a 4x4 operator E, and O(P) 4x4
products for the slot's P angles (12 to 18 plus trainable fields). The two
strategies agree exactly only when no sweep truncates; under a binding bond
cap each sweep truncates differently, and neither is the derivative of the
untruncated cost.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import mps as mpslib
from .ansatz import Ansatz, adjoint_ops, ansatz_ops, apply_ansatz_adjoint
from .mps import MPS, TruncationPolicy

_BRUTE_FORCE_LIMIT = 14
_CHECKPOINT_STRIDE = 32


def default_alpha_schedule(n: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """Two-phase plan: first half of the budget with alpha_1 = (n-1)/n, then 0."""
    return ((0.5, ((n - 1) / n,)), (0.5, ()))


@dataclass(frozen=True)
class CostConfig:
    """Truncation order, weights, and the policy used inside evaluation.

    alphas has length k (weights of the order-1..k flip terms).
    """

    k: int = 1
    alphas: tuple[float, ...] = ()
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("truncation order k must be >= 0")
        if len(self.alphas) != self.k:
            raise ValueError(f"need {self.k} weights, got {len(self.alphas)}")
        if any(not np.isfinite(a) or a < 0 for a in self.alphas):
            raise ValueError("weights must be finite and >= 0")


@dataclass(frozen=True)
class CostValue:
    """total = infidelity_term - sum_m alphas[m-1] * flip_terms[m-1]."""

    total: float
    infidelity_term: float
    flip_terms: tuple[float, ...] = ()


def _flip_string(n: int, flipped: tuple[int, ...]) -> str:
    bits = ["0"] * n
    for j in flipped:
        bits[j] = "1"
    return "".join(bits)


def _weight01_amplitudes(phi: MPS) -> tuple[complex, np.ndarray]:
    """Amplitudes of the all-zeros string and of all n single-flip strings.

    One left and one right pass of boundary vectors, O(n chi^2) total.
    """
    n = phi.n
    left = [np.ones(1, dtype=complex)]
    for t in phi.tensors:
        left.append(left[-1] @ t[:, 0, :])
    right = [np.ones(1, dtype=complex)] * (n + 1)
    for j in range(n - 1, -1, -1):
        right[j] = phi.tensors[j][:, 0, :] @ right[j + 1]
    a0 = complex(left[n][0])
    flips = np.array(
        [complex(left[j] @ phi.tensors[j][:, 1, :] @ right[j + 1]) for j in range(n)]
    )
    return a0, flips


def _evaluate(phi: MPS, k: int, alphas: tuple[float, ...]) -> CostValue:
    if k > phi.n:
        raise ValueError(f"truncation order {k} exceeds qubit count {phi.n}")
    if k == 0:
        a0 = mpslib.amplitude(phi, "0" * phi.n)
        return CostValue(1.0 - abs(a0) ** 2, 1.0 - abs(a0) ** 2)
    a0, flips = _weight01_amplitudes(phi)
    infidelity = 1.0 - abs(a0) ** 2
    flip_terms = [float(np.sum(np.abs(flips) ** 2))]
    for m in range(2, k + 1):
        term = 0.0
        for combo in itertools.combinations(range(phi.n), m):
            term += abs(mpslib.amplitude(phi, _flip_string(phi.n, combo))) ** 2
        flip_terms.append(term)
    total = infidelity
    for a, t in zip(alphas, flip_terms):
        total -= a * t
    return CostValue(total, infidelity, tuple(flip_terms))


def cost_global(a: Ansatz, theta: np.ndarray, target: MPS, policy: TruncationPolicy) -> CostValue:
    """1 - |<0...0| V^dag(theta) |target>|^2."""
    phi = apply_ansatz_adjoint(a, theta, target, policy)
    return _evaluate(phi, 0, ())


def cost_local_truncated(a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig) -> CostValue:
    """Truncated local cost of order cfg.k with weights cfg.alphas."""
    phi = apply_ansatz_adjoint(a, theta, target, cfg.policy)
    return _evaluate(phi, cfg.k, cfg.alphas)


def cost_full_local_bruteforce(
    a: Ansatz, theta: np.ndarray, target: MPS, policy: TruncationPolicy | None = None
) -> float:
    """Untruncated local cost by enumerating all 2^n strings with weights (n-|s|)/n."""
    n = a.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force enumeration is limited to {_BRUTE_FORCE_LIMIT} qubits, got {n}")
    from .statevector import mps_to_statevector

    if policy is None:
        policy = TruncationPolicy(cutoff=0.0)
    phi = apply_ansatz_adjoint(a, theta, target, policy)
    amps = mps_to_statevector(phi)
    weights = np.array([(n - bin(idx).count("1")) / n for idx in range(2**n)])
    return float(1.0 - np.sum(weights * np.abs(amps) ** 2))


# --- gradients ---------------------------------------------------------------


def gradient(
    a: Ansatz,
    theta: np.ndarray,
    target: MPS,
    cfg: CostConfig,
    method: str = "environments",
) -> np.ndarray:
    """Parameter-shift gradient of the truncated local cost.

    Both methods return (C(theta_j + pi/2) - C(theta_j - pi/2)) / 2 for every
    trainable angle; "environments" computes the same values from a
    checkpointed adjoint sweep, the checkpoint-segment rebuild and a forward
    bra sweep instead of 2P cost evaluations. The values are exact when no
    sweep truncates (policy chi_max and cutoff never bind).
    """
    if method == "environments":
        return _gradient_environments(a, theta, target, cfg)[0]
    if method == "reevaluation":
        return _gradient_reevaluation(a, theta, target, cfg)
    raise ValueError(f"unknown gradient method {method!r}")


def cost_and_gradient(
    a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig
) -> tuple[CostValue, np.ndarray]:
    """Cost and its parameter-shift gradient from one shared adjoint sweep."""
    grad, value = _gradient_environments(a, theta, target, cfg)
    return value, grad


def gradient_fd(
    a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences; verification oracle and fallback."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(theta.size)
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cp = cost_local_truncated(a, tp, target, cfg).total
        cm = cost_local_truncated(a, tm, target, cfg).total
        grad[j] = (cp - cm) / (2 * h)
    return grad


def _gradient_reevaluation(a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(theta.size)
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += np.pi / 2
        tm[j] -= np.pi / 2
        cp = cost_local_truncated(a, tp, target, cfg).total
        cm = cost_local_truncated(a, tm, target, cfg).total
        grad[j] = (cp - cm) / 2.0
    return grad


def _weighted_bra_state(phi: MPS, k: int, alphas: tuple[float, ...]) -> MPS:
    """MPS of sum_s w_s a_s |s> over flip strings of weight <= k.

    w is 1 for the zero string and alphas[m-1] for weight m. Bond dimension 2
    for k <= 1; higher orders build densely (size-guarded).
    """
    n = phi.n
    if k <= 1:
        a0, flips = _weight01_amplitudes(phi)
        c0 = a0  # weight-0 coefficient is 1 * a0
        cj = (alphas[0] * flips) if k == 1 else np.zeros(n, dtype=complex)
        if n == 1:
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = c0
            t[0, 1, 0] = cj[0]
            return MPS([t])
        tensors = []
        first = np.zeros((1, 2, 2), dtype=complex)
        first[0, 0, 0] = 1.0
        first[0, 1, 1] = cj[0]
        tensors.append(first)
        for i in range(1, n - 1):
            t = np.zeros((2, 2, 2), dtype=complex)
            t[0, 0, 0] = 1.0
            t[0, 1, 1] = cj[i]
            t[1, 0, 1] = 1.0
            tensors.append(t)
        last = np.zeros((2, 2, 1), dtype=complex)
        last[0, 0, 0] = c0
        last[0, 1, 0] = cj[n - 1]
        last[1, 0, 0] = 1.0
        tensors.append(last)
        return MPS(tensors)
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"gradient with k >= 2 is limited to {_BRUTE_FORCE_LIMIT} qubits")
    from .statevector import statevector_to_mps

    vec = np.zeros(2**n, dtype=complex)
    vec[0] = mpslib.amplitude(phi, "0" * n)
    for m in range(1, k + 1):
        for combo in itertools.combinations(range(n), m):
            bits = _flip_string(n, combo)
            vec[int(bits, 2)] = alphas[m - 1] * mpslib.amplitude(phi, bits)
    return statevector_to_mps(vec)


def _env_step_left(env: np.ndarray, tb: np.ndarray, tk: np.ndarray) -> np.ndarray:
    tmp = np.tensordot(env, tb.conj(), axes=([0], [0]))  # (q, s, a)
    return np.tensordot(tmp, tk, axes=([0, 1], [0, 1]))  # (a, b)


def _env_step_right(env: np.ndarray, tb: np.ndarray, tk: np.ndarray) -> np.ndarray:
    tmp = np.tensordot(tb.conj(), env, axes=([2], [0]))  # (p, s, b)
    return np.tensordot(tmp, tk, axes=([1, 2], [1, 2]))  # (p, q)


class _OverlapEnvironments:
    """Left and right environments of <bra|ket>, reused while tensors are unchanged.

    left[s] contracts the first s sites and right[r] the last r sites. Each
    absorbed site keeps the (bra, ket) tensor objects it was built from. MPS
    operations never mutate a tensor and share the ones they leave untouched,
    so an environment stays valid exactly as long as every tensor it absorbed
    is still in place. Holding the objects, not their ids, rules out id reuse.
    """

    def __init__(self) -> None:
        self._left = [np.ones((1, 1), dtype=complex)]
        self._left_keys: list[tuple[np.ndarray, np.ndarray]] = []
        self._right = [np.ones((1, 1), dtype=complex)]
        self._right_keys: list[tuple[np.ndarray, np.ndarray]] = []

    def left(self, bra: MPS, ket: MPS, site: int) -> np.ndarray:
        """Environment of sites < site, indexed (bra bond, ket bond)."""
        return _reuse_or_extend(self._left, self._left_keys, _env_step_left,
                                bra.tensors, ket.tensors, site)

    def right(self, bra: MPS, ket: MPS, site: int) -> np.ndarray:
        """Environment of sites > site, indexed (bra bond, ket bond)."""
        return _reuse_or_extend(self._right, self._right_keys, _env_step_right,
                                bra.tensors[::-1], ket.tensors[::-1], bra.n - 1 - site)


def _reuse_or_extend(envs, keys, step, bras, kets, count: int) -> np.ndarray:
    """envs[count], recontracted from the first site whose tensors changed."""
    s = 0
    while s < count and s < len(keys) and keys[s][0] is bras[s] and keys[s][1] is kets[s]:
        s += 1
    if s < count:
        del envs[s + 1:], keys[s:]
        for r in range(s, count):
            envs.append(step(envs[-1], bras[r], kets[r]))
            keys.append((bras[r], kets[r]))
    return envs[count]


def _local_operator(left: np.ndarray, right: np.ndarray, bra: MPS, ket: MPS, i: int) -> np.ndarray:
    """E[s, t] = <bra| (|s><t| on sites i, i + 1) |ket> given the outside environments.

    <bra| mat |ket> = sum(E * mat) for any operator mat on the pair.
    """
    x = np.tensordot(left, bra.tensors[i].conj(), axes=([0], [0]))  # (b, s, c)
    x = np.tensordot(x, ket.tensors[i], axes=([0], [0]))  # (s, c, t, d)
    y = np.tensordot(bra.tensors[i + 1].conj(), right, axes=([2], [0]))  # (c, s, e)
    y = np.tensordot(y, ket.tensors[i + 1], axes=([2], [2]))  # (c, s, d, t)
    e = np.tensordot(x, y, axes=([1, 3], [0, 2]))  # (s1, t1, s2, t2)
    return e.transpose(0, 2, 1, 3).reshape(4, 4)


# --- gradient-variance probe -------------------------------------------------


def probe_gradient_samples(
    n: int, k: int, samples: int, seed: int, component: int = 0, weights: str = "nested"
) -> np.ndarray:
    """Per-sample gradient of the order-k local cost for the product test case.

    The probed circuit is V(theta) = prod_j exp(-i theta_j X_j / 2) with target
    |0...0>, theta drawn uniformly from [0, 2pi)^n. The flip amplitudes
    factorize, |<s| V^dag |0>|^2 = prod_j p_j^{s_j} q_j^{1-s_j} with
    p_j = sin^2(theta_j / 2), so the gradient is evaluated in closed form.

    weights="nested": one qubit is marginalized per added truncation order (all
    2^k flip patterns on the last k qubits, unit weights), the form for which
    the gradient variance obeys Var = (1/8) (3/8)^(n-k-1) exactly. Then
    C = 1 - prod_{j < n-k} q_j.

    weights="lhs": the (n-m)/n pattern over all flip subsets of order <= k
    (the truncation of the full bit-flip expansion). This variant does not
    follow the geometric law; at k = n-1 its variance is 1/(8 n^2).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= component < n:
        raise ValueError(f"component {component} out of range")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, size=(samples, n))
    p = np.sin(theta / 2) ** 2
    q = 1.0 - p
    dsdt = np.sin(theta[:, component]) / 2.0

    if weights == "nested":
        if component >= n - k:
            raise ValueError("gradient component must not be marginalized")
        keep = [j for j in range(n - k) if j != component]
        return dsdt * np.prod(q[:, keep], axis=1) if keep else dsdt.copy()

    if weights != "lhs":
        raise ValueError(f"unknown weight scheme {weights!r}")
    others = [j for j in range(n) if j != component]
    # t[m] = weight-m symmetric flip sums over sites != component, per sample
    t = np.zeros((k + 1, samples))
    t[0] = 1.0
    for j in others:
        for m in range(min(k, len(others)), 0, -1):
            t[m] = t[m] * q[:, j] + t[m - 1] * p[:, j]
        t[0] = t[0] * q[:, j]
    alphas = np.array([(n - m) / n for m in range(k + 1)])  # alpha_0 = 1
    grad = np.zeros(samples)
    for m in range(k + 1):
        t_prev = t[m - 1] if m >= 1 else np.zeros(samples)
        grad += -alphas[m] * dsdt * (t_prev - t[m])
    return grad


def variance_probe(
    n: int, k: int, samples: int, seed: int, component: int = 0, weights: str = "nested"
) -> float:
    """Monte-Carlo estimate of Var[dC_k / dtheta_component] for the product case."""
    return float(np.var(probe_gradient_samples(n, k, samples, seed, component, weights)))


def _gradient_environments(
    a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig
) -> tuple[np.ndarray, CostValue]:
    """One adjoint sweep (checkpointed) + one forward bra sweep + local windows.

    dC/dtheta_j = -2 Re <W_m| dO_m^dag/dtheta_j |prefix_m> where prefix_m is
    the target propagated through the adjoint gates after op m and W_m is the
    amplitude-weighted flip-string state propagated through ops 1..m-1.
    Each slot's window contracts into one 4x4 local operator E, and every
    angle of the slot is then the sum of E times that angle's derivative matrix.
    Returns the gradient together with the cost value, which falls out of the
    same adjoint sweep.
    """
    policy = cfg.policy
    ops = ansatz_ops(a, theta)
    adj = adjoint_ops(ops)  # adj[i] is (O_{M-i})^dag
    m_total = len(ops)

    # backward pass: prefix_m for m = M..0, checkpointed every stride ops
    checkpoints: dict[int, MPS] = {m_total: target}
    state = target
    for m in range(m_total, 0, -1):
        state = mpslib.apply_ops(state, (adj[m_total - m],), policy)
        if (m - 1) % _CHECKPOINT_STRIDE == 0:
            checkpoints[m - 1] = state
    phi = mpslib.normalize(state)
    grad = np.zeros(theta.size)
    bra = _weighted_bra_state(phi, cfg.k, cfg.alphas)
    envs = _OverlapEnvironments()

    segment: dict[int, MPS] = {}
    for m in range(1, m_total + 1):
        op = ops[m - 1]
        if m not in segment:
            # rebuild prefix states for this checkpoint segment
            hi = min(((m - 1) // _CHECKPOINT_STRIDE + 1) * _CHECKPOINT_STRIDE, m_total)
            seg_state = checkpoints[hi]
            segment = {hi: seg_state}
            for mm in range(hi, m - 1, -1):
                seg_state = mpslib.apply_ops(seg_state, (adj[m_total - mm],), policy)
                segment[mm - 1] = seg_state
        prefix = segment[m] if m in segment else checkpoints[m]
        left = envs.left(bra, prefix, op.sites[0])
        right = envs.right(bra, prefix, op.sites[1])
        e = _local_operator(left, right, bra, prefix, op.sites[0])
        # <W| dM^dag |prefix> = sum_{s,t} E[s, t] conj(dM[t, s])
        vals = np.tensordot(op.dmatrices().conj(), e, axes=([1, 2], [1, 0]))
        grad[list(op.param_indices)] = -2.0 * vals.real
        bra = mpslib.apply_ops(bra, (op,), policy)
    return grad, _evaluate(phi, cfg.k, cfg.alphas)

"""Hilbert-Schmidt state-overlap costs over MPS amplitudes, and their gradients.

The global cost is 1 - |<0|V^dag(theta)|psi_t>|^2. The truncated local cost
subtracts alpha_m-weighted sums F_m = sum_{|s|=m} |<s| V^dag |psi_t>|^2 over
all bit-flip patterns s of weight m = 1..k; every term is an amplitude of the
single state |phi> = V^dag |psi_t>, so one adjoint circuit application feeds
the whole cost. That application is the backward sweep of
cost_local_truncated: it keeps the slot ops and every intermediate state on
the value it returns, and ends in the flip-count construct of phi, which
gives both the cost and the gradient's bra.

One flip-count construct serves every order 0 <= k <= n: the counter MPO of
Crosswhite & Bacon (arXiv:0708.1221) applied to phi, with one bond sector per
flip count c = 0..k. Sector 0 (all-zero prefix) and sector k (all-zero
suffix) take one channel each and sectors 1..k-1 carry phi's bond chi, so the
gradient's weighted bra sum_{|s|<=k} w_{|s|} a_s |s> has bond 1 at k=0, 2 at
k=1 and 2 + (k-1) chi above. The flip terms come from one sector-diagonal
pass over the same tensors: O(n) scalar products at k <= 1 after the
O(n chi^2) all-zero boundary vectors, O(n (k-1) chi^3) above.

Gradients use the parameter-shift rule: every trainable angle sits in a
rotation with generator eigenvalues +-1/2, so dC/dtheta_j equals
(C(theta_j + pi/2) - C(theta_j - pi/2)) / 2, term by term for each
modulus-squared amplitude. Instead of running the 2P shifted cost
evaluations, the gradient evaluates each derivative as one overlap
<W_m| dO_m^dag |prefix_m>, where O_m is one fused two-site slot of the
ansatz. Every gradient comes from a cost value: cost_and_gradient takes the
backward (adjoint) sweep that value kept and runs one forward sweep of the
weighted bra state, M two-site gates for M slots, plus per slot one window:
amortized O(chi^3) environment work (the overlap environments are reused
while the tensors they absorbed are unchanged), one O(chi^3) contraction
into a 4x4 operator E, and O(P) 4x4 products for the slot's P angles (12 to
18 plus trainable fields). The derivative matrices of all slots are built in
one batch (slot_derivatives). The gradient equals the shifted-cost
difference exactly only when no sweep truncates; under a binding bond cap
each sweep truncates differently, and the result is not the derivative of
the untruncated cost.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import mps as mpslib
from .ansatz import Ansatz, AnsatzOp, adjoint_ops, ansatz_ops, slot_derivatives
from .mps import MPS, TruncationPolicy, _env_step_left, _env_step_right


def default_alpha_schedule(n: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """Two-phase plan: first half of the budget with alpha_1 = (n-1)/n, then 0."""
    return ((0.5, ((n - 1) / n,)), (0.5, ()))


@dataclass(frozen=True)
class CostConfig:
    """Weights of the order-1..k flip terms, and the policy used inside evaluation."""

    alphas: tuple[float, ...] = ()
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    @property
    def k(self) -> int:
        """Truncation order: one weight per flip order."""
        return len(self.alphas)

    def __post_init__(self) -> None:
        if any(not np.isfinite(a) or a < 0 for a in self.alphas):
            raise ValueError("weights must be finite and >= 0")


@dataclass(frozen=True)
class CostValue:
    """total = infidelity_term - sum_m alphas[m-1] * flip_terms[m-1]."""

    total: float
    infidelity_term: float
    flip_terms: tuple[float, ...] = ()
    sweep: Sweep | None = field(default=None, compare=False, repr=False)  # for cost_and_gradient


def _sector(c: int, k: int, chi: int) -> slice:
    """Channels of flip-count sector c on a bond where phi has dimension chi.

    Sectors 0 and k (k >= 1) take one channel each, sectors 1..k-1 chi each.
    """
    start = 0 if c == 0 else 1 + (c - 1) * chi
    return slice(start, start + (chi if 0 < c < k else 1))


def _flip_count(phi: MPS, k: int, alphas: tuple[float, ...]) -> tuple[MPS, CostValue]:
    """Weighted bra state and cost value of phi from one flip-count construct.

    Each bond holds the sectors [0 | 1 .. k-1 | k] (see _sector). Sector 0
    stands for the all-zero prefix, whose amplitude row zero_left[j] enters
    every step out of it; sector k stands for the all-zero suffix, whose
    column zero_right[j + 1] enters every step into it. The last bond keeps
    one channel per flip count: weighted by (1, *alphas) it closes the bra,
    and its sector norms, accumulated block by block while the tensors are
    built, are the flip terms F_c.
    """
    n = phi.n
    if k > n:
        raise ValueError(f"truncation order {k} exceeds qubit count {n}")
    zero_left = [np.ones((1, 1))]  # zero_left[j]: sites < j all 0, shape (1, chi_j)
    for t in phi.tensors:
        zero_left.append(zero_left[-1].dot(t[:, 0, :]))
    zero_right = [np.ones((1, 1))]  # reversed below: sites >= j all 0, shape (chi_j, 1)
    for t in reversed(phi.tensors):
        zero_right.append(t[:, 0, :].dot(zero_right[-1]))
    zero_right.reverse()
    norms = [np.ones((1, 1))] + [np.zeros((1, 1))] * k  # bond 0 holds the empty prefix
    tensors = []
    for j, t in enumerate(phi.tensors):
        dl, dr = t.shape[0], t.shape[2]
        x = np.zeros((_sector(k, k, dl).stop, 2, _sector(k, k, dr).stop), dtype=complex)
        new = [0.0] * (k + 1)
        for c in range(k + 1):
            for p in range(min(2, k + 1 - c)):  # bit p moves sector c to c + p
                if p == 0 and (c == k > 0 or c == 0 and j < n - 1):
                    end = -1 if c else 0  # a one-channel sector continues; sector 0 closes at the end
                    x[end, 0, end] = 1.0
                    new[c] = new[c] + norms[c]
                    continue
                block = t[:, p, :]
                if c == 0:
                    block = zero_left[j].dot(block)
                if c + p == k:
                    block = block.dot(zero_right[j + 1])
                x[_sector(c, k, dl), p, _sector(c + p, k, dr)] = block
                new[c + p] = new[c + p] + block.conj().T.dot(norms[c]).dot(block)
        norms = new
        tensors.append(x)
    tensors[0] = tensors[0][:1]  # the chain starts in sector 0
    tensors[-1] = tensors[-1].dot(np.array([1.0, *alphas])[:, None])
    flip_terms = tuple(float(f[0, 0].real) for f in norms)
    total = infidelity = 1.0 - flip_terms[0]
    for a, f in zip(alphas, flip_terms[1:]):
        total -= a * f
    return MPS(tensors), CostValue(total, infidelity, flip_terms[1:])


@dataclass(frozen=True, eq=False)
class Sweep:
    """One backward sweep of V(theta)^dagger over the target, kept for the gradient.

    ops are the slot ops of ansatz_ops at theta, prefixes[i] is the target
    after the first i of their adjoint ops (i < M, the last state is phi), and
    bra is the flip-count bra of phi.
    """

    theta: np.ndarray
    policy: TruncationPolicy
    ops: list[AnsatzOp]
    prefixes: list[MPS]
    bra: MPS


def cost_local_truncated(a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig) -> CostValue:
    """Truncated local cost of order cfg.k with weights cfg.alphas.

    With no weights (k = 0) it is the global cost 1 - |<0...0| V^dag(theta) |target>|^2.
    The value keeps its backward sweep, which cost_and_gradient takes.
    """
    if target.n != a.n:
        raise ValueError(f"state has {target.n} sites, ansatz has {a.n}")
    theta = np.array(theta, dtype=float)  # a copy: the caller may reuse its array
    ops = ansatz_ops(a, theta)
    prefixes = [target, *mpslib.iter_ops(target, adjoint_ops(ops), cfg.policy)]
    phi = mpslib.normalize(prefixes.pop())
    bra, value = _flip_count(phi, cfg.k, cfg.alphas)
    return replace(value, sweep=Sweep(theta, cfg.policy, ops, prefixes, bra))


# --- gradients ---------------------------------------------------------------


def cost_and_gradient(value: CostValue) -> tuple[CostValue, np.ndarray]:
    """A cost value and its parameter-shift gradient, from the value's backward sweep.

    (C(theta_j + pi/2) - C(theta_j - pi/2)) / 2 for every trainable angle, at
    any order 0 <= k <= n, from the backward sweep of cost_local_truncated,
    which keeps every prefix state, and one forward sweep of the flip-count
    bra instead of 2P cost evaluations: dC/dtheta_j = -2 Re <W_m|
    dO_m^dag/dtheta_j |prefix_m> where prefix_m is the target propagated
    through the adjoint gates after op m and W_m is the amplitude-weighted
    flip-string state propagated through ops 1..m-1. The flip-count
    construct over phi that gave the value also gave that bra (bond 1, 2 or
    2 + (k-1) chi at k = 0, 1, >= 2). Each slot's window contracts into one
    4x4 local operator E, and every angle of the slot is then the sum of E
    times that angle's derivative matrix. The values are exact when no sweep
    truncates (policy chi_max and cutoff never bind).
    """
    sweep = value.sweep
    ops = sweep.ops
    grad = np.zeros(sweep.theta.size)
    bra = sweep.bra
    bras = mpslib.iter_ops(bra, ops, sweep.policy)
    envs = _OverlapEnvironments()

    # sweep.prefixes[-1 - m] is prefix_m, the target before the adjoint of op m
    for op, prefix, dmats in zip(ops, reversed(sweep.prefixes), slot_derivatives(ops)):
        left = envs.left(bra, prefix, op.sites[0])
        right = envs.right(bra, prefix, op.sites[1])
        e = _local_operator(left, right, bra, prefix, op.sites[0])
        # <W| dM^dag |prefix> = sum_{s,t} E[s, t] conj(dM[t, s])
        vals = dmats.reshape(len(dmats), 16).conj() @ e.T.ravel()
        grad[list(op.param_indices)] = -2.0 * vals.real
        bra = next(bras)
    return value, grad


def gradient_fd(
    a: Ansatz, theta: np.ndarray, target: MPS, cfg: CostConfig, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences; verification oracle."""
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
    bi, bj, ki, kj = bra.tensors[i], bra.tensors[i + 1], ket.tensors[i], ket.tensors[i + 1]
    c, d = bi.shape[2], ki.shape[2]
    x = (left.T @ bi.reshape(bi.shape[0], -1).conj()).T @ ki.reshape(ki.shape[0], -1)  # ((s1, c), (t1, d))
    y = (bj.reshape(-1, right.shape[0]).conj() @ right) @ kj.reshape(-1, right.shape[1]).T  # ((c, s2), (d, t2))
    x = x.reshape(2, c, 2, d).transpose(0, 2, 1, 3).reshape(4, c * d)  # ((s1, t1), (c, d))
    y = y.reshape(c, 2, d, 2).transpose(0, 2, 1, 3).reshape(c * d, 4)  # ((c, d), (s2, t2))
    return (x @ y).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)

"""The environment-cached gradient against a per-window rebuild oracle.

The oracle rebuilds every parametrized op's left and right environments
from both chain ends and re-contracts the window once per angle, with each
derivative matrix taken as a shift difference of ansatz_ops. It evaluates
the same truncated sweeps as the cached gradient, so the two agree to
rounding also under a binding bond cap, where the re-evaluation oracle
(2P shifted cost sweeps) does not.
"""
import numpy as np
import pytest

from aqctensor import cost, mps
from aqctensor.ansatz import (
    adjoint_ops,
    ansatz_ops,
    build_brickwork_ansatz,
    trotter_initialize,
)
from aqctensor.cost import CostConfig, cost_and_gradient, cost_local_truncated
from aqctensor.hamiltonian import random_xyz, tebd_evolve
from aqctensor.mps import TruncationPolicy, apply_ops, from_product_state, normalize

from conftest import EXACT
from oracles import apply_ansatz_adjoint, shift_derivatives


def _overlap_environments(bra, ket, lo, hi):
    """Left env up to site lo and right env down to site hi (exclusive window)."""
    left = np.ones((1, 1), dtype=complex)
    for s in range(lo):
        left = cost._env_step_left(left, bra.tensors[s], ket.tensors[s])
    right = np.ones((1, 1), dtype=complex)
    for s in range(bra.n - 1, hi, -1):
        right = cost._env_step_right(right, bra.tensors[s], ket.tensors[s])
    return left, right


def _window_value(bra, ket, op_sites, mat, left, right):
    """<bra| mat_on_sites |ket> given the outside environments."""
    if len(op_sites) == 1:
        (i,) = op_sites
        t1 = np.tensordot(left, bra.tensors[i].conj(), axes=([0], [0]))  # (b, s, c)
        t2 = np.tensordot(t1, mat, axes=([1], [0]))  # (b, c, t)
        t3 = np.tensordot(t2, ket.tensors[i], axes=([0, 2], [0, 1]))  # (c, d)
        return complex(np.sum(t3 * right))
    i = op_sites[0]
    tb = np.tensordot(bra.tensors[i], bra.tensors[i + 1], axes=([2], [0]))  # (a,s,t,c)
    tk = np.tensordot(ket.tensors[i], ket.tensors[i + 1], axes=([2], [0]))  # (b,u,v,d)
    m4 = mat.reshape(2, 2, 2, 2)
    t1 = np.tensordot(left, tb.conj(), axes=([0], [0]))  # (b, s, t, c)
    t2 = np.tensordot(t1, m4, axes=([1, 2], [0, 1]))  # (b, c, u, v)
    t3 = np.tensordot(t2, tk, axes=([0, 2, 3], [0, 1, 2]))  # (c, d)
    return complex(np.sum(t3 * right))


def rebuild_gradient(a, theta, target, cfg):
    """Gradient with each window's environments rebuilt from both chain ends."""
    ops = ansatz_ops(a, theta)
    prefixes = [target]  # prefixes[i] = target after the last i adjoint ops
    for op in adjoint_ops(ops):
        prefixes.append(apply_ops(prefixes[-1], (op,), cfg.policy))
    bra = cost._flip_count(normalize(prefixes[-1]), cfg.k, cfg.alphas)[0]
    grad = np.zeros(theta.size)
    derivatives = np.array(list(shift_derivatives(a, theta)))  # (angle, slot, 4, 4)
    for m, (op, dmats) in enumerate(zip(ops, derivatives.swapaxes(0, 1)), start=1):
        prefix = prefixes[len(ops) - m]
        left, right = _overlap_environments(bra, prefix, op.sites[0], op.sites[-1])
        for j in np.flatnonzero(dmats.any((1, 2))):  # the angles the slot reads
            grad[j] += -2.0 * _window_value(bra, prefix, op.sites, dmats[j].conj().T, left, right).real
        bra = apply_ops(bra, (op,), cfg.policy)
    return grad


def chain_instance(n, l, seed, chi_max, trainable_fields=False):
    ham = random_xyz(n, 0.375, 1.125, seed=seed)
    bits = ("10" * n)[:n]
    target = tebd_evolve(from_product_state(bits), ham, 0.3, 4, EXACT)
    a = build_brickwork_ansatz(ham, l, 0.3, trainable_fields=trainable_fields)
    theta = trotter_initialize(a, bits=bits)
    theta = theta + np.random.default_rng(seed).normal(0, 0.2, a.num_params)
    cfg = CostConfig(alphas=((n - 1) / n,), policy=TruncationPolicy(chi_max=chi_max))
    return a, theta, target, cfg


@pytest.mark.parametrize("n, trainable_fields", [(12, False), (12, True), (16, False)],
                         ids=["False", "True", "n16-False"])
def test_matches_rebuild_oracle_under_binding_chi_cap(n, trainable_fields):
    # n=16 gives 38 slots, the longest adjoint sweep of any gradient test
    a, theta, target, cfg = chain_instance(n, 2, 5, chi_max=4, trainable_fields=trainable_fields)
    # the cap must bind, or the re-evaluation oracle would already cover this case
    assert apply_ansatz_adjoint(a, theta, target, cfg.policy).discarded_weight > 1e-6
    _, grad = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
    np.testing.assert_allclose(grad, rebuild_gradient(a, theta, target, cfg), rtol=0, atol=1e-12)


def test_matches_rebuild_oracle_k0_exact():
    a, theta, target, _ = chain_instance(7, 2, 3, chi_max=None)
    cfg = CostConfig(alphas=(), policy=EXACT)
    _, grad = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
    np.testing.assert_allclose(grad, rebuild_gradient(a, theta, target, cfg), rtol=0, atol=1e-12)


def test_gradient_applies_two_gates_per_slot(monkeypatch):
    # one backward sweep (the cost value's) and one bra sweep that stops before the last
    # slot, whose output bra no window reads; no prefix state is rebuilt
    a, theta, target, cfg = chain_instance(8, 2, 2, chi_max=None)
    calls = [0]
    apply_two_site_gate = mps.apply_two_site_gate

    def counted(*args):
        calls[0] += 1
        return apply_two_site_gate(*args)

    monkeypatch.setattr(mps, "apply_two_site_gate", counted)
    cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
    assert calls[0] == 2 * len(ansatz_ops(a, theta)) - 1


def _env_steps(monkeypatch, n):
    calls = [0]

    def counted(step):
        def wrapper(*args):
            calls[0] += 1
            return step(*args)
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(cost, "_env_step_left", counted(cost._env_step_left))
        mp.setattr(cost, "_env_step_right", counted(cost._env_step_right))
        a, theta, target, cfg = chain_instance(n, 2, 1, chi_max=8)
        cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
    return calls[0]


def test_environment_work_grows_linearly_with_chain(monkeypatch):
    # the op count doubles from n=12 to n=24; a per-op rebuild from both chain
    # ends would multiply the environment steps by about 4.5
    small, large = _env_steps(monkeypatch, 12), _env_steps(monkeypatch, 24)
    assert large < 3 * small

import numpy as np
import pytest

from aqctensor.ansatz import apply_ansatz, build_brickwork_ansatz, trotter_initialize
from aqctensor.cost import (
    CostConfig,
    _flip_count,
    cost_and_gradient,
    cost_local_truncated,
    default_alpha_schedule,
    gradient_fd,
)
from aqctensor.hamiltonian import XYZHamiltonian, random_xyz, tebd_evolve
from aqctensor.mps import TruncationPolicy, fidelity, from_product_state, max_bond
from aqctensor.statevector import mps_to_statevector

from conftest import EXACT
from oracles import (
    apply_ansatz_adjoint,
    cost_full_local_bruteforce,
    probe_gradient_samples,
    random_mps,
    variance_probe,
)

GLOBAL = CostConfig(policy=EXACT)  # no weights: k = 0, the global cost


def make_instance(n, l, seed, dt=0.2, bits=None):
    rng = np.random.default_rng(seed)
    ham = random_xyz(n, 0.375, 1.125, seed=seed)
    a = build_brickwork_ansatz(ham, l, dt)
    bits = bits or ("10" * n)[:n]
    theta = trotter_initialize(a, bits=bits) + rng.normal(0, 0.15, 3 * n + 4 * a.num_blocks)
    return ham, a, theta


def gradient_reevaluation(a, theta, target, cfg):
    """Parameter-shift rule literally: 2P shifted cost evaluations."""
    grad = np.zeros(theta.size)
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += np.pi / 2
        tm[j] -= np.pi / 2
        cp = cost_local_truncated(a, tp, target, cfg).total
        cm = cost_local_truncated(a, tm, target, cfg).total
        grad[j] = (cp - cm) / 2.0
    return grad


def flip_reference(vec, k, alphas):
    """Dense sum_{|s|<=k} w_{|s|} a_s |s> and F_m = sum_{|s|=m} |a_s|^2 for m = 0..k."""
    n = int(np.log2(vec.size))
    idx = np.arange(vec.size)
    flips = sum((idx >> b) & 1 for b in range(n))
    weights = np.array([1.0, *alphas])
    bra = np.where(flips <= k, weights[np.minimum(flips, k)] * vec, 0.0)
    terms = [float(np.sum(np.abs(vec[flips == m]) ** 2)) for m in range(k + 1)]
    return bra, terms


def dense_amplitudes(psi):
    """Amplitude vector of an MPS (site 0 most significant), contracted half by half."""

    def contract(block, tensors):
        for t in tensors:
            block = np.tensordot(block, t, axes=(1, 0)).reshape(-1, t.shape[2])
        return block

    half = psi.n // 2
    left = contract(np.ones((1, 1)), psi.tensors[:half])
    right = contract(np.eye(left.shape[1]), psi.tensors[half:]).reshape(left.shape[1], -1)
    return (left @ right).reshape(-1)


class TestCostGlobal:
    def test_zero_at_own_output(self):
        ham, a, theta = make_instance(5, 1, seed=1)
        target = apply_ansatz(a, theta, from_product_state("0" * 5), EXACT)
        assert cost_local_truncated(a, theta, target, GLOBAL).total == pytest.approx(0.0, abs=1e-10)

    def test_one_for_orthogonal_target(self):
        ham, a, theta = make_instance(4, 1, seed=2)
        target = apply_ansatz(a, theta, from_product_state("1000"), EXACT)
        assert cost_local_truncated(a, theta, target, GLOBAL).total == pytest.approx(1.0, abs=1e-10)

    def test_equals_one_minus_fidelity(self):
        ham, a, theta = make_instance(6, 2, seed=3)
        target = random_mps(6, seed=30)
        produced = apply_ansatz(a, theta, from_product_state("0" * 6), EXACT)
        expected = 1.0 - fidelity(produced, target)
        assert cost_local_truncated(a, theta, target, GLOBAL).total == pytest.approx(expected, abs=1e-10)


class TestCostLocalTruncated:
    def test_alpha_zero_equals_global(self):
        ham, a, theta = make_instance(5, 1, seed=4)
        target = random_mps(5, seed=40)
        cfg = CostConfig(alphas=(0.0,), policy=EXACT)
        local = cost_local_truncated(a, theta, target, cfg)
        assert local.total == cost_local_truncated(a, theta, target, GLOBAL).total

    def test_zero_at_own_output(self):
        ham, a, theta = make_instance(4, 1, seed=5)
        target = apply_ansatz(a, theta, from_product_state("0000"), EXACT)
        cfg = CostConfig(alphas=(0.75,), policy=EXACT)
        value = cost_local_truncated(a, theta, target, cfg)
        assert value.total == pytest.approx(0.0, abs=1e-10)
        assert value.flip_terms[0] == pytest.approx(0.0, abs=1e-10)

    def test_full_order_matches_bruteforce(self):
        n = 6
        ham, a, theta = make_instance(n, 2, seed=6)
        target = random_mps(n, seed=60)
        alphas = tuple((n - m) / n for m in range(1, n + 1))
        cfg = CostConfig(alphas=alphas, policy=EXACT)
        truncated = cost_local_truncated(a, theta, target, cfg).total
        brute = cost_full_local_bruteforce(a, theta, target)
        assert truncated == pytest.approx(brute, abs=1e-12)

    def test_order_above_n_rejected(self):
        ham, a, theta = make_instance(3, 1, seed=7)
        cfg = CostConfig(alphas=(1, 1, 1, 1), policy=EXACT)
        with pytest.raises(ValueError):
            cost_local_truncated(a, theta, random_mps(3, seed=70), cfg)

    def test_truncation_order_monotonicity(self):
        n = 5
        ham, a, theta = make_instance(n, 1, seed=8)
        target = random_mps(n, seed=80)
        totals = []
        for k in range(n + 1):
            cfg = CostConfig(alphas=(0.5,) * k, policy=EXACT)
            totals.append(cost_local_truncated(a, theta, target, cfg).total)
        for higher, lower in zip(totals[1:], totals[:-1]):
            assert higher <= lower + 1e-12

    def test_global_phase_invariance(self):
        ham, a, theta = make_instance(4, 1, seed=9)
        target = random_mps(4, seed=90)
        cfg = CostConfig(alphas=(0.75,), policy=EXACT)
        base = cost_local_truncated(a, theta, target, cfg).total

        rotated = target.copy()
        rotated.tensors[1] = rotated.tensors[1] * np.exp(1.1j)
        assert cost_local_truncated(a, theta, rotated, cfg).total == pytest.approx(base, abs=1e-12)

        # shifting any angle by 2pi flips that gate's sign: a pure global phase
        shifted = theta.copy()
        shifted[7] += 2 * np.pi
        assert cost_local_truncated(a, shifted, target, cfg).total == pytest.approx(base, abs=1e-12)


class TestFlipCount:
    """The flip-count construct against the dense amplitudes of the same state."""

    @pytest.mark.parametrize("k", range(7))
    def test_bra_and_flip_terms_match_dense(self, k):
        n = 6
        phi = random_mps(n, seed=40, entangling_layers=4)
        alphas = tuple(0.9 - 0.1 * m for m in range(k))
        bra_ref, terms = flip_reference(mps_to_statevector(phi), k, alphas)
        bra, value = _flip_count(phi, k, alphas)
        np.testing.assert_allclose(mps_to_statevector(bra), bra_ref, atol=1e-12)
        assert value.infidelity_term == pytest.approx(1.0 - terms[0], abs=1e-12)
        np.testing.assert_allclose(value.flip_terms, terms[1:], atol=1e-12)
        expected = 1.0 - terms[0] - sum(w * f for w, f in zip(alphas, terms[1:]))
        assert value.total == pytest.approx(expected, abs=1e-12)
        assert max_bond(phi) == 8
        if k == 0:
            assert bra.bond_dims() == [1] * (n - 1)
        elif k == 1:
            assert bra.bond_dims() == [2] * (n - 1)
        else:
            assert max_bond(bra) <= 2 + (k - 1) * max_bond(phi)


class TestBruteForce:
    def test_perfect_match(self):
        ham, a, theta = make_instance(4, 1, seed=10)
        target = apply_ansatz(a, theta, from_product_state("0000"), EXACT)
        assert cost_full_local_bruteforce(a, theta, target) == pytest.approx(0.0, abs=1e-10)

    def test_single_qubit_reduces_to_global(self):
        ham = XYZHamiltonian.uniform(2, 0.75, 0.75, 0.75)
        a = build_brickwork_ansatz(ham, 1, 0.2)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, a.num_params)
        target = random_mps(2, seed=5)
        # weight (n-m)/n kills the full-flip term only at n=1; at n=2 compare to k=n
        cfg = CostConfig(alphas=(0.5, 0.0), policy=EXACT)
        assert cost_full_local_bruteforce(a, theta, target) == pytest.approx(
            cost_local_truncated(a, theta, target, cfg).total, abs=1e-12
        )

    def test_size_guard(self):
        ham = XYZHamiltonian.uniform(15, 1, 1, 1)
        a = build_brickwork_ansatz(ham, 1, 0.1)
        with pytest.raises(ValueError):
            cost_full_local_bruteforce(a, np.zeros(a.num_params), from_product_state("0" * 15))


class TestGradient:
    def test_zero_at_interior_minimum(self):
        ham, a, _ = make_instance(4, 1, seed=11)
        theta = trotter_initialize(a, bits="1010")
        target = apply_ansatz(a, theta, from_product_state("0000"), EXACT)
        cfg = CostConfig(alphas=(0.75,), policy=EXACT)
        g = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1]
        assert np.max(np.abs(g)) <= 1e-6

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_matches_finite_differences(self, seed):
        ham, a, theta = make_instance(4, 1, seed=seed)
        target = random_mps(4, seed=seed + 100)
        cfg = CostConfig(alphas=(0.75,), policy=EXACT)
        g = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1]
        g_fd = gradient_fd(a, theta, target, cfg)
        np.testing.assert_allclose(g, g_fd, atol=1e-6)

    def test_cost_and_gradient_consistent_with_separate_calls(self):
        ham, a, theta = make_instance(5, 1, seed=29)
        target = random_mps(5, seed=129)
        cfg = CostConfig(alphas=(0.8,), policy=EXACT)
        value, _ = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
        assert value.total == cost_local_truncated(a, theta, target, cfg).total

    def test_environment_and_reevaluation_agree(self):
        _, a, theta = make_instance(5, 2, seed=23)
        # fixed nonzero fields on every site: pending fields sum into a slot's c, trailing ones into d
        base = random_xyz(5, 0.375, 1.125, seed=24)
        fields = XYZHamiltonian(base.alpha, base.beta, base.delta, (0.7, -0.4, 0.55, -0.8, 0.3))
        b = build_brickwork_ansatz(fields, 2, 0.2, trainable_fields=False)
        phi = trotter_initialize(b, bits="10101")
        phi = phi + np.random.default_rng(24).normal(0, 0.15, b.num_params)
        target = random_mps(5, seed=123)
        cfg = CostConfig(alphas=(0.8,), policy=EXACT)
        for c, t in ((a, theta), (b, phi)):
            g_env = cost_and_gradient(cost_local_truncated(c, t, target, cfg))[1]
            np.testing.assert_allclose(g_env, gradient_reevaluation(c, t, target, cfg), atol=1e-12)

    def test_global_cost_gradient(self):
        ham, a, theta = make_instance(4, 1, seed=24)
        target = random_mps(4, seed=124)
        cfg = CostConfig(alphas=(), policy=EXACT)
        g = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1]
        np.testing.assert_allclose(g, gradient_fd(a, theta, target, cfg), atol=1e-6)

    def test_k2_gradient(self):
        ham, a, theta = make_instance(4, 1, seed=25)
        target = random_mps(4, seed=125)
        cfg = CostConfig(alphas=(0.75, 0.5), policy=EXACT)
        g = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1]
        np.testing.assert_allclose(g, gradient_fd(a, theta, target, cfg), atol=1e-6)

    def test_k2_gradient_at_n20(self):
        """k=2 beyond the dense limit: sampled central differences and the dense flip terms."""
        n, h = 20, 1e-5
        ham, a, theta = make_instance(n, 1, seed=30)
        target = tebd_evolve(from_product_state("10" * 10), ham, 0.2, 2, EXACT)
        cfg = CostConfig(alphas=(0.9, 0.6), policy=EXACT)
        value, grad = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
        for j in np.random.default_rng(30).choice(a.num_params, 8, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (cost_local_truncated(a, tp, target, cfg).total
                  - cost_local_truncated(a, tm, target, cfg).total) / (2 * h)
            assert abs(grad[j] - fd) < 1e-6
        phi = apply_ansatz_adjoint(a, theta, target, EXACT)
        _, terms = flip_reference(dense_amplitudes(phi), 2, cfg.alphas)
        assert value.infidelity_term == pytest.approx(1.0 - terms[0], abs=1e-12)
        np.testing.assert_allclose(value.flip_terms, terms[1:], atol=1e-12)
        assert value.total == pytest.approx(1.0 - terms[0] - 0.9 * terms[1] - 0.6 * terms[2], abs=1e-12)

    def test_length_covers_exactly_the_trainable_angles(self):
        ham, a, theta = make_instance(4, 1, seed=26)
        target = random_mps(4, seed=126)
        cfg = CostConfig(alphas=(0.5,), policy=EXACT)
        assert cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1].size == a.num_params

    def test_fd_richardson_consistency(self):
        ham, a, theta = make_instance(4, 1, seed=28)
        target = random_mps(4, seed=128)
        cfg = CostConfig(alphas=(0.75,), policy=EXACT)
        exact = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))[1]
        err_h = np.linalg.norm(gradient_fd(a, theta, target, cfg, h=2e-3) - exact)
        err_h2 = np.linalg.norm(gradient_fd(a, theta, target, cfg, h=1e-3) - exact)
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.4)


def hand_over_instance(n, policy, seed=5):
    """An l=2 random-xyz chain, its TEBD target and a theta near the Trotter point, at k=1."""
    ham = random_xyz(n, 0.375, 1.125, seed=seed)
    bits = ("10" * n)[:n]
    target = tebd_evolve(from_product_state(bits), ham, 0.3, 4, EXACT)
    a = build_brickwork_ansatz(ham, 2, 0.3)
    theta = trotter_initialize(a, bits=bits)
    theta = theta + np.random.default_rng(seed).normal(0, 0.2, a.num_params)
    return a, theta, target, CostConfig(alphas=((n - 1) / n,), policy=policy)


class TestSweepHandOver:
    @pytest.mark.parametrize("n, policy, binds", [(8, EXACT, False), (12, TruncationPolicy(chi_max=4), True)],
                             ids=["n8-exact", "n12-chi4"])
    def test_handed_over_sweep_gives_the_fresh_result(self, n, policy, binds):
        # a value holds nothing of the caller's theta: the caller may overwrite its array before the gradient
        a, theta, target, cfg = hand_over_instance(n, policy)
        assert (apply_ansatz_adjoint(a, theta, target, policy).discarded_weight > 1e-6) == binds
        reused = theta.copy()
        value = cost_local_truncated(a, reused, target, cfg)
        reused[:] = 0.0
        handed_value, handed_grad = cost_and_gradient(value)
        fresh_value, fresh_grad = cost_and_gradient(cost_local_truncated(a, theta, target, cfg))
        assert handed_value is value
        assert value == fresh_value
        assert [g.hex() for g in handed_grad] == [g.hex() for g in fresh_grad]
        assert value.sweep.theta is not reused
        np.testing.assert_array_equal(value.sweep.theta, theta)


class TestVarianceProbe:
    def test_determinism(self):
        assert variance_probe(6, 2, 1000, seed=5) == variance_probe(6, 2, 1000, seed=5)

    def test_nested_samples_match_enumeration_oracle(self):
        # brute-force the marginalized cost C = 1 - sum_{S subset of last k} |amp|^2
        n, k, seed = 6, 3, 7
        grads = probe_gradient_samples(n, k, 4, seed=seed)
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(0, 2 * np.pi, size=(4, n))

        def cost(theta):
            p = np.sin(theta / 2) ** 2
            q = 1 - p
            total = 0.0
            for s in range(2**k):
                bits = [int(b) for b in format(s, f"0{k}b")]
                amp = np.prod(q[: n - k])
                for j, b in enumerate(bits):
                    amp *= p[n - k + j] if b else q[n - k + j]
                total += amp
            return 1.0 - total

        for i in range(4):
            h = 1e-6
            tp, tm = thetas[i].copy(), thetas[i].copy()
            tp[0] += h
            tm[0] -= h
            fd = (cost(tp) - cost(tm)) / (2 * h)
            assert grads[i] == pytest.approx(fd, abs=1e-8)

    def test_baseline_is_one_eighth(self):
        v = variance_probe(8, 7, 200000, seed=9)
        assert v == pytest.approx(1 / 8, rel=0.05)

    def test_component_must_stay_unmarginalized(self):
        with pytest.raises(ValueError):
            probe_gradient_samples(6, 6, 10, seed=1)

    def test_default_schedule_shape(self):
        schedule = default_alpha_schedule(8)
        assert schedule == ((0.5, (7 / 8,)), (0.5, ()))

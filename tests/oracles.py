"""Reference computations that only the tests use.

cost_full_local_bruteforce enumerates all 2^n amplitudes of a small chain;
probe_gradient_samples and variance_probe give the gradient of the order-k
local cost in closed form for a product circuit, the case whose variance the
acceptance suite compares with its exact scaling.
"""
import numpy as np

from aqctensor.ansatz import Ansatz, apply_ansatz_adjoint
from aqctensor.mps import EXACT, MPS
from aqctensor.statevector import mps_to_statevector


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

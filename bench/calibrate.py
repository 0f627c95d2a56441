"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared host the speed of a core drifts by 10-30% over tens of seconds,
so the wall time of one workload call moves from run to run for reasons the
package has no part in. The benchmark runs a reference kernel for about half
as long as each call took, right after the call, and reports the call's wall
time in units of the kernel's step time around it (`wall_cal`); a slow phase
of the host slows both and cancels out.

The drift does not slow all kinds of work alike: on the same host, small
numpy operations issued from Python, mid-sized contractions on a chain that
fills the caches, and LAPACK on 256 x 256 matrices slowed at different times.
So the kernel imitates the work of each workload at its own sizes: a sweep,
back and forth, of two-site updates (contraction with a gate, QR and SVD of
the pair matrix, truncation to a fixed bond dimension) over a chain of
`n` random tensors of bond dimension `chi`. A workload names its `(n, chi)`.

The kernel is plain numpy and does not import the package, so no change to
the package can change it.
"""
from __future__ import annotations

import time

import numpy as np


class Chain:
    """n random tensors of shape (chi, 2, chi) and a cursor into the sweep."""

    def __init__(self, n: int, chi: int):
        rng = np.random.default_rng([n, chi])

        def complex_normal(*shape: int) -> np.ndarray:
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self.chi = chi
        self.tensors = [complex_normal(chi, 2, chi) / np.sqrt(2 * chi) for _ in range(n)]
        self.gate = np.linalg.qr(complex_normal(4, 4))[0].reshape(2, 2, 2, 2)
        self.order = list(range(n - 1)) + list(range(n - 2, 0, -1))
        self.cursor = 0

    def step(self) -> None:
        """The next two-site update of the sweep."""
        i = self.order[self.cursor]
        self.cursor = (self.cursor + 1) % len(self.order)
        chi = self.chi
        theta = np.tensordot(self.tensors[i], self.tensors[i + 1], axes=([2], [0]))
        theta = np.moveaxis(np.tensordot(self.gate, theta, axes=([2, 3], [1, 2])), 2, 0)
        mat = theta.reshape(2 * chi, 2 * chi)
        np.linalg.qr(mat)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        s = s[:chi] / np.linalg.norm(s[:chi])
        self.tensors[i] = u[:, :chi].reshape(chi, 2, chi)
        self.tensors[i + 1] = (s[:, None] * vh[:chi]).reshape(chi, 2, chi)


_CHAINS: dict[tuple[int, int], Chain] = {}


def kernel_seconds(n: int, chi: int, budget: float) -> float:
    """Mean wall seconds of one update step on the (n, chi) chain, over about `budget` seconds.

    There is always at least one step.
    """
    if (n, chi) not in _CHAINS:
        _CHAINS[n, chi] = Chain(n, chi)
    chain = _CHAINS[n, chi]
    steps = 0
    t0 = time.perf_counter()
    while True:
        chain.step()
        steps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / steps

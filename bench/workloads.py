"""The benchmark's workloads: inputs from a seed, the one timed call, output checks.

Each workload is one call into the public API. `--seed 0` gives a workload's
reference inputs: the random-xyz couplings drawn with the workload's default
seed. Seed s > 0 scales each of those couplings by its own factor, drawn
uniformly from [1 - JITTER, 1 + JITTER] with seed s. Fresh random-xyz draws
would change how fast entanglement grows, and with it the work of a call, by
10-20% from seed to seed, which would hide the run-to-run spread the
benchmark has to resolve; the jitter gives every seed different inputs of the
same difficulty. compile-n8-exact uses the uniform xxx chain, so its inputs
do not depend on the seed.

At the reference inputs the outputs are also compared with the values the
package produced when this benchmark was introduced (1 BLAS thread,
OpenBLAS 0.3.31), within the tolerances of the performance roadmap: 1e-10 on
compile-n8-exact and 1e-8 on the other two.
"""
from __future__ import annotations

import numpy as np

from aqctensor import hamiltonian
from aqctensor.hamiltonian import XYZHamiltonian, expectation_energy, random_xyz
from aqctensor.mps import TruncationPolicy, from_product_state, max_bond, norm
from aqctensor.pipeline import RunConfig, run_aqctensor

JITTER = 0.05


def couplings(n: int, default_seed: int, seed: int) -> XYZHamiltonian:
    """The workload's random-xyz chain for --seed `seed` (see the module docstring)."""
    ham = random_xyz(n, 0.375, 1.125, seed=default_seed)
    if seed == 0:
        return ham
    rng = np.random.default_rng([default_seed, seed])

    def jitter(values):
        return tuple(v * f for v, f in zip(values, rng.uniform(1 - JITTER, 1 + JITTER, len(values))))

    return XYZHamiltonian(jitter(ham.alpha), jitter(ham.beta), jitter(ham.delta), ham.h)


# report.fidelities, and report.append's fidelities, at the reference inputs
REFERENCE_N8 = {
    "a1_vs_gt": 0.9998429857343598,
    "t1_vs_gt": 0.999631961207663,
    "a1_vs_t1": 0.9993942642839341,
    "t1_double_vs_gt": 0.9999786875318573,
    "fidelity_final_vs_gt": 0.9997946601655828,
    "fidelity_trotter_matched_vs_gt": 0.9996496750463846,
}
REFERENCE_N32 = {
    "a1_vs_gt": 0.9999290903229435,
    "t1_vs_gt": 0.9998420795346162,
    "a1_vs_t1": 0.9998357001312903,
    "t1_double_vs_gt": 0.999990817763279,
}


class CompileWorkload:
    """`run_aqctensor` on a fixed-budget config."""

    def __init__(self, name: str, kernel: tuple[int, int], default_seed: int | None,
                 reference: dict | None, tolerance: float, **config):
        self.name = name
        self.kernel = kernel  # (n, chi) of the reference kernel's chain (see calibrate.py)
        self.default_seed = default_seed
        self.reference = reference
        self.tolerance = tolerance
        self.config = config

    def build(self, seed: int) -> dict:
        """The run config; run_aqctensor builds the state and Hamiltonian from it."""
        cfg = dict(self.config, out_dir="unused")
        if self.default_seed is not None:
            cfg["preset"] = None
            cfg["hamiltonian"] = couplings(cfg["n"], self.default_seed, seed).to_dict()
        at_reference = self.reference is not None and (self.default_seed is None or seed == 0)
        return {"cfg": RunConfig(**cfg), "reference": at_reference}

    def run(self, inputs: dict):
        return run_aqctensor(inputs["cfg"])

    def records(self, out) -> list:
        """The optimizer trace records the call returned."""
        return out[1].records

    def timings(self, out) -> dict[str, float]:
        """Stage seconds from the run report."""
        return out[0].timings

    def quality(self, inputs: dict, out) -> dict[str, float]:
        report, _ = out
        f = report.fidelities
        return {
            "infidelity": 1.0 - f["a1_vs_gt"],
            "trotter_gain": f["a1_vs_gt"] - f["t1_vs_gt"],
            "discarded_weight": report.discarded_weights["ground_truth"],
        }

    def check(self, inputs: dict, out) -> list[str]:
        """Problems with one call's output; empty when it is correct."""
        report, _ = out
        if report.status != "ok":
            return [f"status {report.status} in stage {report.failed_stage}: {report.error}"]
        problems = []
        if report.depths["ansatz"] != report.depths["trotter_l"]:
            problems.append(f"CNOT depth {report.depths['ansatz']} != Trotter "
                            f"{report.depths['trotter_l']}")
        f = report.fidelities
        if not f["a1_vs_gt"] > f["t1_vs_gt"]:
            problems.append(f"fidelity {f['a1_vs_gt']!r} not above Trotter {f['t1_vs_gt']!r}")
        if inputs["reference"]:
            got = {**f, **report.append}
            for key, want in self.reference.items():
                if not abs(got[key] - want) <= self.tolerance:
                    problems.append(f"{key} {got[key]!r} differs from reference {want!r} "
                                    f"by more than {self.tolerance:g}")
        return problems


class EvolveWorkload:
    """`tebd_evolve` of the Neel state under random-xyz couplings."""

    name = "evolve-n24-chi128"
    kernel = (24, 128)  # (n, chi) of the reference kernel's chain (see calibrate.py)
    n, t, steps, chi_max, default_seed = 24, 4.0, 8, 128, 7
    reference_drift, tolerance = 0.01726939801476135, 1e-8

    def build(self, seed: int) -> dict:
        ham = couplings(self.n, self.default_seed, seed)
        psi0 = from_product_state(("10" * self.n)[: self.n])
        policy = TruncationPolicy(chi_max=self.chi_max, cutoff=1e-12)
        return {"ham": ham, "psi0": psi0, "policy": policy, "reference": seed == 0}

    def run(self, inputs: dict):
        stats: dict = {}
        # through the module attribute, so that a traced run sees the call
        psi = hamiltonian.tebd_evolve(inputs["psi0"], inputs["ham"], self.t / self.steps,
                                      self.steps, inputs["policy"], stats=stats)
        return psi, stats

    def records(self, out) -> list:
        return []

    def timings(self, out) -> dict[str, float]:
        return {}

    def energy_drift(self, inputs: dict, psi) -> float:
        ham = inputs["ham"]
        return abs(expectation_energy(ham, psi) - expectation_energy(ham, inputs["psi0"]))

    def quality(self, inputs: dict, out) -> dict[str, float]:
        psi, stats = out
        return {"energy_drift": self.energy_drift(inputs, psi),
                "discarded_weight": stats["discarded_weight"]}

    def check(self, inputs: dict, out) -> list[str]:
        psi, stats = out
        problems = []
        if max(max_bond(psi), stats["max_bond"]) > self.chi_max:
            problems.append(f"bond dimension {stats['max_bond']} above cap {self.chi_max}")
        if not abs(norm(psi) - 1.0) <= 1e-10:
            problems.append(f"norm {norm(psi)!r} is not 1")
        if inputs["reference"]:
            drift = self.energy_drift(inputs, psi)
            if not abs(drift - self.reference_drift) <= self.tolerance:
                problems.append(f"energy drift {drift!r} differs from reference "
                                f"{self.reference_drift!r} by more than {self.tolerance:g}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        # criterion-11 shape at 3 iterations: chi stays <= 16, so time is per-call
        # overhead of tiny gates, gate-matrix building and line-search sweeps; runs append
        CompileWorkload("compile-n8-exact", (8, 16), None, REFERENCE_N8, 1e-10, n=8, t=2.0, layers=4,
                        preset="xxx", chi_max=None, cutoff=1e-12, max_iter=3, append_steps=2),
        # criterion-10 couplings on 32 sites, 2 layers, 1 iteration: environment
        # rebuilds and QR re-gauging grow with the chain length
        CompileWorkload("compile-n32-chi64", (32, 32), 2024, REFERENCE_N32, 1e-8, n=32, t=0.75,
                        layers=2, chi_max=64, cutoff=1e-12, max_iter=1),
        # the same two-site gate path at large chi: SVD and QR work, no optimizer
        EvolveWorkload(),
    )
}

"""Tests of the benchmark itself; run with `python3 -m pytest bench`.

They use small stand-ins for the workloads so that they take seconds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from aqctensor import hamiltonian, mps  # noqa: E402
from aqctensor.hamiltonian import build_trotter_schedule, random_xyz, tebd_evolve  # noqa: E402
from aqctensor.mps import TruncationPolicy, from_product_state  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

TINY = workloads.CompileWorkload("tiny", (4, 4), None, None, 0.0, n=4, t=0.5, layers=1, preset="xxx",
                                 chi_max=None, cutoff=1e-12, max_iter=3, append_steps=1)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_main(monkeypatch, capsys, trace: int, workload=TINY) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, "compile-n8-exact", workload)
    assert run.main(["--workload", "compile-n8-exact", "--seed", "0",
                     "--seconds", "0.001", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(monkeypatch, capsys, trace, section):
    result = run_main(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 + trace
    want = {m["name"]: m["unit"] for m in declared()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_declared_workloads_exist():
    assert [w["name"] for w in declared()["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_fidelity_below_trotter_is_a_failed_run(monkeypatch, capsys):
    class Perturbed(workloads.CompileWorkload):
        def run(self, inputs):
            report, trace = super().run(inputs)
            report.fidelities["a1_vs_gt"] = report.fidelities["t1_vs_gt"] - 1e-6
            return report, trace

    bad = Perturbed("tiny", (4, 4), None, None, 0.0, **TINY.config)
    result = run_main(monkeypatch, capsys, 0, bad)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_reference_values_are_checked():
    inputs = TINY.build(0)
    out = TINY.run(inputs)
    assert TINY.check(inputs, out) == []
    f = out[0].fidelities
    strict = workloads.CompileWorkload("tiny", (4, 4), None, {"a1_vs_gt": f["a1_vs_gt"] + 1e-9}, 1e-10,
                                       **TINY.config)
    assert len(strict.check(strict.build(0), out)) == 1


def test_seed_jitters_the_reference_couplings():
    ref = workloads.couplings(24, 7, 0)
    assert ref == random_xyz(24, 0.375, 1.125, seed=7)
    jittered = workloads.couplings(24, 7, 3)
    assert jittered == workloads.couplings(24, 7, 3)
    assert jittered != workloads.couplings(24, 7, 4)
    for a, b in ((ref.alpha, jittered.alpha), (ref.beta, jittered.beta), (ref.delta, jittered.delta)):
        ratios = [y / x for x, y in zip(a, b)]
        assert all(abs(r - 1) <= workloads.JITTER for r in ratios)
        assert any(r != 1 for r in ratios)


def test_evolve_checks_norm_and_bond_cap():
    wl = workloads.WORKLOADS["evolve-n24-chi128"]
    inputs = {"ham": random_xyz(4, 0.375, 1.125, seed=1), "psi0": from_product_state("1010"),
              "reference": False}
    psi = tebd_evolve(inputs["psi0"], inputs["ham"], 0.1, 1, TruncationPolicy())
    assert wl.check(inputs, (psi, {"max_bond": 4})) == []
    assert len(wl.check(inputs, (psi, {"max_bond": wl.chi_max + 1}))) == 1
    scaled = mps.MPS([2 * psi.tensors[0]] + psi.tensors[1:], psi.center)
    assert len(wl.check(inputs, (scaled, {"max_bond": 4}))) == 1


def test_traced_counts_equal_schedule_gate_counts():
    ham = random_xyz(4, 0.375, 1.125, seed=3)
    schedule = build_trotter_schedule(ham, 0.1, 1)
    two_site = sum(1 for g in schedule.flat_gates() if len(g.sites) == 2)
    single = sum(1 for g in schedule.flat_gates() if len(g.sites) == 1)
    original = mps.apply_two_site_gate
    tracer = Tracer()
    with tracer.install():
        assert mps.apply_two_site_gate is not original
        # looked up through the module, as callers inside the package do
        hamiltonian.tebd_evolve(from_product_state("1010"), ham, 0.1, 1, TruncationPolicy())
    assert mps.apply_two_site_gate is original
    layers = layer_metrics(tracer, [])
    assert (two_site, single) == (5, 8)
    assert layers["hamiltonian.tebd_calls"] == 1
    assert layers["mps.two_site_calls"] == two_site
    assert layers["mps.single_site_calls"] == single
    assert layers["mps.max_chi"] == 4

    evolve = workloads.WORKLOADS["evolve-n24-chi128"]
    tracer = Tracer()
    with tracer.install():
        evolve.run({"ham": ham, "psi0": from_product_state("1010"), "policy": TruncationPolicy()})
    assert layer_metrics(tracer, [])["hamiltonian.tebd_calls"] == 1


def test_traced_counts_repeat_exactly():
    inputs = TINY.build(0)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.install():
            out = TINY.run(inputs)
        layers = layer_metrics(tracer, TINY.records(out))
        counts.append({k: v for k, v in layers.items()
                       if k.endswith(("_calls", "_work")) or k.startswith("optimize.")
                       and not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["optimize.iterations"] >= 1
    assert counts[0]["cost.grad_calls"] == counts[0]["optimize.iterations"] + 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "compile-n8-exact",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_reference_kernel_does_not_use_the_package():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calibrate; "
            "assert calibrate.kernel_seconds(4, 4, 0.01) > 0; "
            "assert not any(m.split('.')[0] == 'aqctensor' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code, BENCH], check=True, timeout=60)

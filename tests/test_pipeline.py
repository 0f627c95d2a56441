import json
import os
import subprocess
import sys

import numpy as np
import pytest

import aqctensor
from aqctensor.ansatz import build_brickwork_ansatz, export_circuit_records
from aqctensor.hamiltonian import XYZHamiltonian, build_trotter_schedule
from aqctensor.mps import TruncationPolicy, fidelity, from_product_state, max_bond
from aqctensor.pipeline import (
    ConfigError,
    RunConfig,
    ground_truth,
    read_config_file,
    run_aqctensor,
    sweep,
    write_sweep_csv,
)
from aqctensor.statevector import basis_state, mps_to_statevector, sv_fidelity

from oracles import levelled_cnot_depth, parse_gate_line, schedule_cnot_depth, sv_exact_evolution


def tiny_config(**overrides):
    base = dict(n=4, t=0.8, layers=2, preset="xxx", chi_max=None, cutoff=1e-12,
                max_iter=6, out_dir="unused")
    base.update(overrides)
    return RunConfig(**base)


class TestConfig:
    def test_dt_policy(self):
        assert tiny_config(t=2.0, layers=4).dt == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"n": 4, "qubits": 8})

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(t=-1.0)
        with pytest.raises(ValueError):
            tiny_config(preset="bogus")
        with pytest.raises(ValueError):
            tiny_config(preset=None)

    def test_field_types(self):
        with pytest.raises(ConfigError):
            tiny_config(n="8")
        with pytest.raises(ConfigError):
            tiny_config(layers=True)
        with pytest.raises(ConfigError):
            tiny_config(max_iter=3.0)
        with pytest.raises(ConfigError):
            tiny_config(chi_max="64")
        with pytest.raises(ConfigError):
            tiny_config(cutoff=False)
        cfg = tiny_config(t=2, chi_max=None, append_dt=1, cutoff=0)
        assert cfg.dt == 1.0 and cfg.chi_max is None

    @pytest.mark.parametrize("append_dt", [0.0, -0.25])
    def test_append_dt_must_be_positive(self, append_dt):
        with pytest.raises(ConfigError):
            tiny_config(append_steps=1, append_dt=append_dt)

    def test_file_round_trip(self, tmp_path):
        import yaml

        cfg = tiny_config(preset="xxz", seed=7)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        assert RunConfig.from_dict(read_config_file(str(path))) == cfg

    def test_presets(self):
        xxx = tiny_config(preset="xxx").ham
        assert set(xxx.alpha) == {0.75} and set(xxx.delta) == {0.75}
        xxz = tiny_config(preset="xxz").ham
        assert set(xxz.alpha) == {0.75} and set(xxz.delta) == {1.5}
        rnd = tiny_config(preset="random-xyz", seed=3).ham
        assert rnd == tiny_config(preset="random-xyz", seed=3).ham
        assert min(rnd.alpha) >= 0.375 and max(rnd.alpha) <= 1.125

    def test_initial_bits(self):
        assert tiny_config(n=5).bits == "10101"
        assert tiny_config(initial_state="0011").bits == "0011"
        with pytest.raises(ValueError):
            tiny_config(initial_state="012x")

    def test_ground_truth_policy_dominates(self):
        cfg = tiny_config(chi_max=16)
        assert cfg.evolution_policy.chi_max == 16 and cfg.gt_policy.chi_max == 64

    def test_alpha_schedule_forms(self):
        assert tiny_config().alpha_phases == ((0.5, (0.75,)), (0.5, ()))
        assert tiny_config(alpha_schedule="global").alpha_phases == ((1.0, ()),)
        custom = tiny_config(alpha_schedule=[[0.3, [0.9]], [0.7, []]]).alpha_phases
        assert custom == ((0.3, (0.9,)), (0.7, ()))
        with pytest.raises(ValueError):
            tiny_config(alpha_schedule=[[0.3, [0.9]]])

    @pytest.mark.parametrize("overrides", [
        dict(initial_state="01"),
        dict(alpha_schedule=[[0.3, [0.9]]]),
        dict(preset=None, hamiltonian={"n": 4, "alpha": [1.0] * 3, "delta": [1.0] * 3, "h": [0.0] * 4}),
        dict(chi_max=0),
        dict(t_grid=[]),
        dict(t_grid=[0.3, "x"]),
        dict(t_grid=[0.3, True]),
        dict(t_grid=[0.3, float("inf")]),
    ], ids=["initial_state_short", "fractions_sum_0.3", "hamiltonian_without_beta", "chi_max_0",
            "t_grid_empty", "t_grid_string", "t_grid_bool", "t_grid_inf"])
    def test_config_that_cannot_run_is_rejected_when_made(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    def test_config_is_frozen(self):
        import dataclasses

        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.append_steps = 3
        assert dataclasses.replace(cfg, append_steps=3).append_steps == 3
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, initial_state="01")

    def test_nested_values_are_frozen(self):
        cfg = tiny_config(preset=None, alpha_schedule=[[1.0, [0.5]]], t_grid=[0.4, 0.8],
                          hamiltonian=XYZHamiltonian.uniform(4, 0.75, 0.75, 0.75).to_dict())
        with pytest.raises(TypeError):
            cfg.alpha_schedule[0][0] = 0.3
        with pytest.raises(TypeError):
            cfg.t_grid[0] = -1.0
        with pytest.raises(TypeError):
            cfg.hamiltonian["n"] = 5
        assert cfg.alpha_phases == ((1.0, (0.5,)),)

    def test_to_dict_gives_plain_lists_and_dicts(self):
        raw = dict(n=4, t=0.8, layers=2, preset=None, max_iter=6, out_dir="unused",
                   alpha_schedule=[[1.0, [0.5]]], t_grid=[0.4, 0.8],
                   hamiltonian=XYZHamiltonian.uniform(4, 0.75, 0.75, 0.75).to_dict())
        out = RunConfig(**raw).to_dict()
        assert {k: out[k] for k in raw} == raw
        assert type(out["hamiltonian"]) is dict and type(out["alpha_schedule"][0][1]) is list
        assert RunConfig.from_dict(out) == RunConfig(**raw)

    def test_pickle_and_deepcopy_round_trip(self):
        import copy
        import pickle

        cfg = tiny_config(preset=None, alpha_schedule=[[1.0, [0.5]]],
                          hamiltonian=XYZHamiltonian.uniform(4, 0.75, 0.75, 0.75).to_dict())
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert copy.deepcopy(cfg) == cfg

    def test_readme_example_lists_every_key(self):
        from pathlib import Path

        import yaml

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Config file example", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]
        raw = yaml.safe_load(block)
        assert set(raw) == set(RunConfig.__dataclass_fields__)
        RunConfig.from_dict(raw)


class TestGroundTruth:
    def test_zero_time_returns_input(self):
        ham = XYZHamiltonian.uniform(4, 0.75, 0.75, 0.75)
        psi0 = from_product_state("1010")
        assert ground_truth(ham, psi0, 0.0, 0.5, TruncationPolicy()) is psi0

    def test_ten_times_finer_steps(self):
        ham = XYZHamiltonian.uniform(4, 0.75, 0.75, 0.75)
        psi0 = from_product_state("1010")
        stats = {}
        gt = ground_truth(ham, psi0, 1.0, 0.25, TruncationPolicy(cutoff=0.0), stats=stats)
        assert stats["steps"] == 40  # 10x the 4 coarse steps covering t = 1
        exact = sv_exact_evolution(ham, basis_state("1010"), 1.0)
        assert sv_fidelity(mps_to_statevector(gt), exact) >= 1 - 1e-6

    def test_accuracy_n8(self):
        ham = XYZHamiltonian.uniform(8, 0.75, 0.75, 0.75)
        psi0 = from_product_state("10101010")
        gt = ground_truth(ham, psi0, 2.0, 0.5, TruncationPolicy(cutoff=1e-12))
        exact = sv_exact_evolution(ham, basis_state("10101010"), 2.0)
        assert sv_fidelity(mps_to_statevector(gt), exact) >= 1 - 1e-5


class TestRun:
    def test_run_path_imports_no_scipy_linalg(self):
        """Every factorization runs in numpy's LAPACK: a run, a TEBD evolution and the verify
        self-checks load no scipy module at all."""
        script = """
import sys
import aqctensor, aqctensor.cli
from aqctensor.hamiltonian import XYZHamiltonian, tebd_evolve
from aqctensor.mps import TruncationPolicy, from_product_state
from aqctensor.pipeline import RunConfig, run_aqctensor
report, _ = run_aqctensor(RunConfig(n=4, t=0.4, layers=1, max_iter=2, out_dir="unused"), raise_on_error=True)
assert report.status == "ok"
tebd_evolve(from_product_state("0101"), XYZHamiltonian.uniform(4, 1.0, 0.5, 0.25), 0.1, 2, TruncationPolicy())
assert all(passed for _, passed, _ in aqctensor.cli.run_self_checks(0))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        src = os.path.dirname(os.path.dirname(aqctensor.__file__))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_trivial_hamiltonian_prepares_initial_state(self):
        ham = XYZHamiltonian.uniform(4, 0.0, 0.0, 0.0)
        cfg = tiny_config(preset=None, hamiltonian=ham.to_dict(), layers=1, max_iter=2)
        report, _ = run_aqctensor(cfg, raise_on_error=True)
        assert report.status == "ok"
        assert report.fidelities["a1_vs_gt"] == pytest.approx(1.0, abs=1e-9)

    def test_improvement_over_trotter(self):
        cfg = tiny_config(n=6, t=1.5, layers=2, max_iter=10)
        report, trace = run_aqctensor(cfg, raise_on_error=True)
        assert report.fidelities["a1_vs_gt"] > report.fidelities["t1_vs_gt"]
        assert report.depths["ansatz"] == report.depths["trotter_l"]

    def test_report_schema_and_ranges(self):
        report, _ = run_aqctensor(tiny_config(), raise_on_error=True)
        data = json.loads(report.to_json())
        for key in ("config", "status", "hamiltonian", "fidelities", "depths",
                    "max_bond_dims", "optimization", "timings", "theta_opt", "conventions"):
            assert key in data
        for value in data["fidelities"].values():
            assert 0.0 <= value <= 1.0 + 1e-9
        assert data["config"]["n"] == 4

    def test_reproducibility(self):
        cfg = tiny_config(preset="random-xyz", seed=11)
        r1, t1 = run_aqctensor(cfg, raise_on_error=True)
        r2, t2 = run_aqctensor(cfg, raise_on_error=True)
        assert r1.fidelities == r2.fidelities
        assert r1.theta_opt == r2.theta_opt
        assert t1.costs() == t2.costs()

    def test_failure_produces_partial_report(self, monkeypatch):
        from aqctensor import pipeline

        def broken_evolve(*args, **kwargs):
            raise FloatingPointError("numerical fault")

        monkeypatch.setattr(pipeline, "tebd_evolve", broken_evolve)
        report, _ = run_aqctensor(tiny_config())
        assert report.status == "failed"
        assert report.failed_stage == "ground_truth"
        assert report.error == "FloatingPointError: numerical fault"
        assert report.hamiltonian and report.conventions["initial_state_bits"] == "1010"
        assert report.fidelities == {} and report.theta_opt == []

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_iteration_count_matches_budget(self, max_iter):
        # max_iter=1 runs only the first of the two default phases
        report, _ = run_aqctensor(tiny_config(max_iter=max_iter), raise_on_error=True)
        assert report.optimization["stop_reason"] == "max_iter"
        assert report.optimization["iterations"] == max_iter

    @pytest.mark.parametrize("max_iter", [2, 3, 4])
    def test_trace_numbers_iterations_by_step(self, max_iter):
        # a phase's start record repeats the iteration number the previous phase ended on
        report, trace = run_aqctensor(tiny_config(max_iter=max_iter), raise_on_error=True)
        numbers = [r.iteration for r in trace.records]
        assert max(numbers) == report.optimization["iterations"]
        assert all(a <= b for a, b in zip(numbers, numbers[1:]))

    @pytest.mark.parametrize("max_iter", [1, 4])
    def test_trace_explains_each_phase(self, max_iter):
        report, trace = run_aqctensor(tiny_config(max_iter=max_iter), raise_on_error=True)
        seconds = [r.seconds for r in trace.records]
        assert all(a <= b for a, b in zip(seconds, seconds[1:]))  # monotone across phases
        reasons = [p["stop_reason"] for p in report.optimization["phases"]]
        assert len(reasons) == 2
        assert reasons[0] in ("max_iter", "cost_tol", "grad_tol", "line_search_failed")
        # max_iter=1 leaves no budget for the second phase
        assert reasons[1] == (None if max_iter == 1 else report.optimization["stop_reason"])

    @pytest.mark.parametrize("max_iter", [1, 4])
    def test_terminal_costs_are_trace_values(self, max_iter):
        # the trace's infidelity at a theta is the k=0 cost sweep at that theta, bit for bit
        from aqctensor.ansatz import build_brickwork_ansatz, trotter_initialize
        from aqctensor.cost import CostConfig, cost_local_truncated

        cfg = tiny_config(preset="random-xyz", seed=5, max_iter=max_iter)
        report, trace = run_aqctensor(cfg, raise_on_error=True)
        opt = report.optimization
        ansatz = build_brickwork_ansatz(cfg.ham, cfg.layers, cfg.dt)
        theta0 = trotter_initialize(ansatz, bits=cfg.bits)
        gt_policy = cfg.gt_policy
        target = ground_truth(cfg.ham, from_product_state(cfg.bits), cfg.t, cfg.dt, gt_policy)
        infidelities = [r.infidelity.hex() for r in trace.records]
        assert opt["terminal_cost_theta0"].hex() == infidelities[0]
        assert opt["terminal_cost_final"].hex() in infidelities
        for value, theta in ((opt["terminal_cost_theta0"], theta0),
                             (opt["terminal_cost_final"], report.theta_opt)):
            swept = cost_local_truncated(ansatz, np.array(theta), target,
                                         CostConfig(policy=gt_policy)).total
            assert value.hex() == swept.hex()

    @pytest.mark.parametrize("max_iter", [1, 4])
    def test_final_terminal_cost_is_its_phases_last_record(self, max_iter):
        # minimize returns its last accepted theta, and its phase's last record was made there
        cfg = tiny_config(preset="random-xyz", seed=5, max_iter=max_iter)
        report, trace = run_aqctensor(cfg, raise_on_error=True)
        opt = report.optimization
        numbers = [r.iteration for r in trace.records]
        # a phase ends where the next one's start record repeats its iteration number
        ends = [i - 1 for i in range(1, len(numbers)) if numbers[i] == numbers[i - 1]]
        ends.append(len(numbers) - 1)
        assert len(ends) == sum(p["stop_reason"] is not None for p in opt["phases"])
        assert opt["best_candidate"] >= 1  # the optimizer improved on theta0
        last = trace.records[ends[opt["best_candidate"] - 1]]
        assert opt["terminal_cost_final"].hex() == last.infidelity.hex()

    def test_gradients_reuse_the_line_search_sweep(self, monkeypatch):
        # every backward sweep is a cost evaluation: no gradient builds slot ops for itself
        from aqctensor import cost, pipeline

        counts = {"ops": 0, "evaluations": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cost, "ansatz_ops", counted(cost.ansatz_ops, "ops"))
        monkeypatch.setattr(pipeline, "cost_local_truncated",
                            counted(pipeline.cost_local_truncated, "evaluations"))
        cfg = tiny_config(n=6, layers=2, preset="random-xyz", seed=3, max_iter=3)
        report, trace = run_aqctensor(cfg, raise_on_error=True)
        phases = sum(p["stop_reason"] is not None for p in report.optimization["phases"])
        assert phases == 2
        assert len(trace.records) - phases == report.optimization["iterations"] == 3
        assert counts["evaluations"] >= 3 + phases  # each phase's start, then the line searches
        assert counts["ops"] == counts["evaluations"]

    def test_trace_records_carry_their_phase_weight(self):
        # default schedule: alpha_1 = (n-1)/n, then 0; the second phase's start repeats the iteration
        cfg = tiny_config(n=6, layers=2, preset="random-xyz", seed=3, max_iter=4)
        _, trace = run_aqctensor(cfg, raise_on_error=True)
        iterations = [r.iteration for r in trace.records]
        boundary = next(i for i in range(1, len(iterations)) if iterations[i] == iterations[i - 1])
        assert iterations == list(range(boundary)) + list(range(boundary - 1, len(iterations) - 1))
        assert [r.alpha1 for r in trace.records] == [5 / 6] * boundary + [0.0] * (len(iterations) - boundary)

    def test_guaranteed_improvement_floor(self):
        # even with a tiny budget the returned parameters are never worse
        # than the Trotter start under the terminal cost
        cfg = tiny_config(n=6, t=1.8, layers=2, max_iter=2)
        report, _ = run_aqctensor(cfg, raise_on_error=True)
        assert report.fidelities["a1_vs_gt"] >= report.fidelities["t1_vs_gt"] - 1e-12

    def test_append_stage(self):
        cfg = tiny_config(n=6, t=1.0, layers=2, max_iter=6, append_steps=2)
        report, _ = run_aqctensor(cfg, raise_on_error=True)
        app = report.append
        assert app["k_app"] == 2
        assert app["t_total"] == pytest.approx(2.0)
        assert app["verified"] is True
        assert app["fidelity_final_vs_gt"] >= app["fidelity_trotter_matched_vs_gt"] - 1e-9
        assert app["depth_final"] == report.depths["ansatz"] + 3 * (2 * 2 + 1)


class TestReportedDepths:
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("layers", [1, 2, 5])
    def test_every_depth_equals_the_gate_by_gate_count(self, n, layers):
        # the ansatz from its exported cx gates, each Trotter circuit from its dense schedule
        cfg = tiny_config(n=n, t=0.1 * layers, layers=layers, preset="random-xyz", max_iter=1,
                          append_steps=2, append_dt=0.07)
        report, _ = run_aqctensor(cfg, raise_on_error=True)
        ham, dt, k = cfg.ham, cfg.dt, cfg.append_steps
        records = map(parse_gate_line, export_circuit_records(build_brickwork_ansatz(ham, layers, dt),
                                                              np.array(report.theta_opt)))
        ansatz = levelled_cnot_depth([qubits for name, qubits, _ in records if name == "cx"], n)

        def trotter(step, steps):
            return schedule_cnot_depth(build_trotter_schedule(ham, step, steps), n)

        assert report.depths == {"ansatz": ansatz, "trotter_l": trotter(dt, layers),
                                 "trotter_2l": trotter(dt / 2, 2 * layers)}
        assert report.append["depth_final"] == ansatz + trotter(cfg.dt_app, k)
        t_total, steps_ref = report.append["t_total"], layers + k
        assert report.append["depth_trotter_matched"] == trotter(t_total / steps_ref, steps_ref)


def rerun_reference(ham, psi0, t_total, dt, policy):
    """Oracle: the appended steps' reference evolved afresh from t=0."""
    return ground_truth(ham, psi0, t_total, dt, policy)


def run_recording_references(cfg, monkeypatch):
    """run_aqctensor, plus the states ground_truth returned: the target, then its continuation."""
    from aqctensor import pipeline

    states, evolve = [], pipeline.ground_truth

    def recorded(*args, **kwargs):
        states.append(evolve(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(pipeline, "ground_truth", recorded)
    report, _ = run_aqctensor(cfg, raise_on_error=True)
    return report, states


class TestAppendReference:
    @pytest.mark.parametrize("overrides", [
        dict(n=8, t=2.0, layers=4, preset="xxx", chi_max=None),
        dict(n=6, t=1.2, layers=2, preset="random-xyz", seed=4, chi_max=8),  # gt cap 32 > 2^3
    ])
    def test_continuation_matches_rerun_from_zero(self, overrides, monkeypatch):
        cfg = tiny_config(max_iter=1, append_steps=2, **overrides)
        report, (target, continued) = run_recording_references(cfg, monkeypatch)
        gt_policy = cfg.gt_policy
        psi0 = from_product_state(cfg.bits)
        oracle = rerun_reference(cfg.ham, psi0, report.append["t_total"], cfg.dt, gt_policy)
        assert fidelity(continued, oracle) == pytest.approx(1.0, abs=1e-12)
        if gt_policy.chi_max is not None:
            assert max_bond(oracle) < gt_policy.chi_max  # the cap does not bind
        assert report.append["ground_truth_dt"] == pytest.approx(cfg.dt / 10, rel=1e-14)

    def test_reports_the_fine_step_and_the_whole_history(self, monkeypatch):
        # dt = 0.5, dt_app = 0.3, k = 2: 12 fine steps of 0.05 continue the target;
        # the gt cap of 4 binds, so both stretches of the history discard weight
        cfg = tiny_config(n=6, t=1.0, layers=2, max_iter=1, chi_max=1, append_steps=2,
                          append_dt=0.3)
        report, (target, continued) = run_recording_references(cfg, monkeypatch)
        app = report.append
        k, dt_app = 2, 0.3
        assert app["ground_truth_dt"] == k * dt_app / round(10 * k * dt_app / cfg.dt)
        assert app["ground_truth_discarded_weight"] == continued.discarded_weight
        assert continued.discarded_weight > target.discarded_weight > 0
        assert report.discarded_weights["ground_truth"] == target.discarded_weight
        assert app["verified"] is (continued.discarded_weight <= cfg.discard_budget)
        assert "continues the target from t" in report.conventions["append_reference"]


class TestSweeps:
    def test_equal_depth_rows_and_gap(self, tmp_path):
        cfg = tiny_config(n=4, t=1.0, layers=1, max_iter=4, t_grid=[0.5, 1.0])
        report = sweep(cfg, "equal")
        assert len(report.sweep) == 2
        for row in report.sweep:
            assert row["depth_ansatz"] == row["depth_trotter"]
            assert row["f_a1_gt"] >= row["f_t1_gt"] - 1e-12
        path = tmp_path / "sweep.csv"
        write_sweep_csv(report, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "t,depth_ansatz,depth_trotter,f_a1_gt,f_t1_gt,f_t1double_gt,max_chi,iters,seconds"

    def test_half_depth_compares_double_trotter(self):
        cfg = tiny_config(n=4, t=1.0, layers=1, max_iter=4, t_grid=[1.0])
        report = sweep(cfg, "half")
        row = report.sweep[0]
        assert row["depth_trotter"] == 3 * (2 * 2 + 1)  # 2l-step circuit
        assert row["depth_ansatz"] == 3 * (2 * 1 + 1)

    def test_unknown_mode_is_rejected_before_any_run(self, monkeypatch):
        from aqctensor import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "run_aqctensor", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="sweep mode"):
            sweep(tiny_config(t_grid=[0.5]), "quarter")
        assert calls == []

    @pytest.mark.parametrize("t_grid", [[0.5, -1.0], [0.5, float("nan")]])
    def test_bad_grid_is_rejected_before_any_run(self, monkeypatch, t_grid):
        from aqctensor import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "run_aqctensor", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="t_grid"):
            sweep(tiny_config(t_grid=t_grid), "equal")
        assert calls == []

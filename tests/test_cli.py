import json

import numpy as np
import pytest

from aqctensor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


def run_cli(*argv):
    return main(list(argv))


class TestVerify:
    def test_clean_checkout_passes(self, capsys):
        assert run_cli("verify") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--seed", "-1")
        assert err.value.code == EXIT_USAGE
        assert "must be >= 0" in capsys.readouterr().err

    def test_out_is_not_a_verify_flag(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("verify", "--out", str(tmp_path / "out"))
        assert err.value.code == EXIT_USAGE
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_xxx_preset_smoke_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("run", "--preset", "xxx", "--n", "8", "--layers", "1",
                       "--time", "0.5", "--max-iter", "3", "--out", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["optimization"]["trace_file"] == "trace.csv"
        assert 0 <= report["fidelities"]["a1_vs_gt"] <= 1 + 1e-9
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iter,cost,infidelity,grad_norm,alpha1,seconds,note"
        assert len(trace_lines) >= 2
        assert (out / "circuit.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"report.json", "trace.csv", "circuit.txt"}

    def test_config_file_with_flag_override(self, tmp_path):
        import yaml

        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "preset": "xxz", "n": 4, "t": 0.6, "layers": 1, "max_iter": 2,
            "chi_max": None, "out_dir": str(tmp_path / "a"),
        }))
        out = tmp_path / "b"
        code = run_cli("run", "--config", str(cfg_path), "--out", str(out), "--max-iter", "1")
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["max_iter"] == 1  # CLI override wins
        assert report["config"]["preset"] == "xxz"

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("bogus_key: 1\n")
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == EXIT_USAGE

    def test_mistyped_config_value_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text('n: "8"\npreset: xxx\n')
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path)) == EXIT_USAGE

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "absent.yaml")) == EXIT_USAGE

    def test_config_file_that_is_not_a_mapping_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("- n: 4\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "compile", "run", "sweep"])
    def test_every_flag_sets_a_config_field(self, command):
        from aqctensor.cli import build_parser
        from aqctensor.pipeline import RunConfig

        sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
        dests = {a.dest for a in sub._actions} - {"help", "config", "mode"}
        assert dests <= set(RunConfig.__dataclass_fields__)
        assert {"out_dir", "preset", "n", "t", "alpha_schedule"} <= dests

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--frobnicate")
        assert err.value.code == 2


class TestDerivedConfigErrors:
    """Values resolved from the config are rejected before any stage runs."""

    @pytest.mark.parametrize("command", ["run", "compile"])
    def test_bad_initial_state_is_usage_error(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text('preset: xxx\nn: 4\ninitial_state: "01x1"\n')
        assert run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize("schedule", ["[[0.3, [0.9]]]", "fast", "[[0.5, [-1.0]], [0.5, []]]"])
    def test_bad_alpha_schedule_is_usage_error(self, tmp_path, schedule):
        code = run_cli("run", "--preset", "xxx", "--n", "4", "--layers", "1", "--time", "0.6",
                       "--alpha-schedule", schedule, "--out", str(tmp_path))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("schedule", ["[[1.5, [0.5]], [-0.5, []]]", "[[0.0, [0.5]], [1.0, []]]"])
    def test_alpha_fraction_outside_unit_interval_is_usage_error(self, tmp_path, schedule):
        out = tmp_path / "out"
        code = run_cli("compile", "--preset", "xxx", "--n", "4", "--layers", "1", "--time", "0.5",
                       "--max-iter", "4", "--alpha-schedule", schedule, "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_more_weights_than_qubits_is_usage_error(self, tmp_path, command):
        out = tmp_path / "out"
        code = run_cli(command, "--preset", "xxx", "--n", "4", "--layers", "1", "--time", "0.6",
                       "--alpha-schedule", "[[1.0, [0.5, 0.5, 0.5, 0.5, 0.5]]]", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        {"max_iter": 0}, {"max_iter": -3}, {"grad_tol": 0.0}, {"cost_tol": 0.0},
        {"t": float("nan")}, {"t": float("inf")}, {"append_steps": 1, "append_dt": float("nan")},
        {"grad_tol": float("nan")}, {"cost_tol": float("inf")}, {"discard_budget": float("nan")},
        {"discard_budget": -1.0},
    ], ids=["max_iter_0", "max_iter_neg3", "grad_tol_0", "cost_tol_0", "t_nan", "t_inf",
            "append_dt_nan", "grad_tol_nan", "cost_tol_inf", "discard_budget_nan",
            "discard_budget_neg1"])
    def test_bad_optimizer_setting_is_usage_error(self, tmp_path, setting):
        import yaml

        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({"preset": "xxx", "n": 4, "layers": 1, "t": 0.6, **setting}))
        out = tmp_path / "out"
        assert run_cli("compile", "--config", str(cfg_path), "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [("evolve", "--chi-max", "0"),
                                                      ("run", "--cutoff", "2")])
    def test_bad_truncation_is_usage_error(self, tmp_path, command, flag, value):
        code = run_cli(command, "--preset", "xxx", "--n", "4", "--layers", "1", "--time", "0.6",
                       flag, value, "--out", str(tmp_path))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["run", "evolve", "sweep"])
    @pytest.mark.parametrize("preset, n, seed", [("xxx", "1", "0"), ("xxx", "0", "0"),
                                                 ("random-xyz", "1", "0"),
                                                 ("random-xyz", "4", "-1")],
                             ids=["xxx_n1", "xxx_n0", "random_n1", "random_seed_neg1"])
    def test_bad_size_or_seed_is_usage_error(self, tmp_path, command, preset, n, seed):
        out = tmp_path / "out"
        code = run_cli(command, "--preset", preset, "--n", n, "--seed", seed, "--layers", "1",
                       "--time", "0.6", "--max-iter", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("t_grid", [[], [0.3, "x"]], ids=["empty", "non_number"])
    def test_bad_t_grid_is_usage_error(self, tmp_path, t_grid):
        import yaml

        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({"preset": "xxx", "n": 4, "layers": 1, "t": 0.6,
                                            "t_grid": t_grid}))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_hamiltonian_without_beta_is_usage_error(self, tmp_path):
        import yaml

        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "preset": None, "n": 3, "layers": 1,
            "hamiltonian": {"n": 3, "alpha": [1.0, 1.0], "delta": [1.0, 1.0], "h": [0.0] * 3},
        }))
        assert run_cli("evolve", "--config", str(cfg_path), "--out", str(tmp_path)) == EXIT_USAGE


class TestEvolve:
    def test_bad_initial_state_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text('preset: xxx\nn: 4\ninitial_state: "01x1"\n')
        assert run_cli("evolve", "--config", str(cfg_path), "--out", str(tmp_path)) == EXIT_USAGE

    def test_writes_state_and_summary(self, tmp_path):
        out = tmp_path / "evolve"
        code = run_cli("evolve", "--preset", "xxx", "--n", "6", "--layers", "4",
                       "--time", "1.0", "--out", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "evolve.json").read_text())
        assert summary["max_bond"] >= 2
        data = np.load(out / "state.npz")
        assert len(data.files) == 6

    def test_runtime_failure_leaves_no_output_directory(self, tmp_path, monkeypatch):
        from aqctensor import hamiltonian

        def broken_evolve(*args, **kwargs):
            raise ValueError("numerical fault")

        monkeypatch.setattr(hamiltonian, "tebd_evolve", broken_evolve)
        out = tmp_path / "evolve"
        code = run_cli("evolve", "--preset", "xxx", "--n", "4", "--layers", "1",
                       "--time", "0.5", "--out", str(out))
        assert code == EXIT_RUNTIME
        assert not out.exists()


class TestCompile:
    def test_ignores_append_steps(self, tmp_path):
        out = tmp_path / "compile"
        code = run_cli("compile", "--preset", "xxx", "--n", "4", "--layers", "1",
                       "--time", "0.6", "--max-iter", "2", "--append-steps", "3",
                       "--out", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["append"] == {}


class TestSweep:
    def test_equal_mode(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--preset", "xxx", "--n", "4", "--layers", "1",
                       "--time", "0.8", "--max-iter", "2", "--out", str(out))
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 6  # header + default 5-point grid
        assert lines[0].startswith("t,depth_ansatz,depth_trotter")

    def test_runtime_value_error_is_runtime_failure(self, tmp_path, monkeypatch):
        # the config is valid; a ValueError raised while running is not a config error
        from aqctensor import pipeline

        def broken_run(cfg, raise_on_error=False):
            raise ValueError("numerical fault")

        monkeypatch.setattr(pipeline, "run_aqctensor", broken_run)
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--preset", "xxx", "--n", "4", "--layers", "1",
                       "--time", "0.8", "--out", str(out))
        assert code == EXIT_RUNTIME
        assert not out.exists()


    def test_bad_grid_point_fails_before_any_run(self, tmp_path, monkeypatch):
        import yaml

        from aqctensor import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "run_aqctensor",
                            lambda cfg, raise_on_error=False: calls.append(cfg))
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({"preset": "xxx", "n": 4, "layers": 1,
                                            "t_grid": [0.5, -1.0]}))
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == EXIT_USAGE
        assert calls == []
        assert not (out / "sweep.csv").exists()


class TestExportCircuit:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "run"
        run_cli("run", "--preset", "xxz", "--n", "4", "--layers", "1",
                "--time", "0.6", "--max-iter", "2", "--out", str(out))
        export_dir = tmp_path / "export"
        code = run_cli("export-circuit", "--report", str(out / "report.json"),
                       "--out", str(export_dir))
        assert code == EXIT_OK

        from oracles import op_from_record, read_gate_list
        from aqctensor.statevector import basis_state, sv_apply_schedule, sv_fidelity

        records = read_gate_list(str(export_dir / "circuit.txt"))
        ops = [op_from_record(*rec) for rec in records]
        state = sv_apply_schedule(basis_state("0000"), ops)

        report = json.loads((out / "report.json").read_text())
        from aqctensor.ansatz import ansatz_ops, build_brickwork_ansatz
        from aqctensor.pipeline import RunConfig, resolve_hamiltonian

        cfg = RunConfig.from_dict(report["config"])
        ham = resolve_hamiltonian(cfg)
        ansatz = build_brickwork_ansatz(cfg.n, cfg.layers, ham, cfg.dt)
        direct = sv_apply_schedule(basis_state("0000"), ansatz_ops(ansatz, np.array(report["theta_opt"])))
        assert sv_fidelity(state, direct) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def export_with_appended_steps(tmp_path, config, theta):
        """circuit.txt of export-circuit on a report holding config and theta, as parsed records."""
        from oracles import read_gate_list

        report = tmp_path / "report.json"
        report.write_text(json.dumps({"config": config, "theta_opt": list(theta)}))
        out = tmp_path / "export"
        assert run_cli("export-circuit", "--report", str(report), "--out", str(out)) == EXIT_OK
        return read_gate_list(str(out / "circuit.txt"))

    def test_appended_steps_use_append_dt(self, tmp_path):
        from oracles import op_from_record
        from aqctensor.ansatz import build_brickwork_ansatz, export_circuit_records
        from aqctensor.hamiltonian import build_trotter_schedule
        from aqctensor.pipeline import RunConfig, resolve_hamiltonian
        from aqctensor.statevector import sv_apply_schedule, sv_fidelity

        config = {"preset": "xxz", "n": 4, "layers": 1, "t": 0.6, "append_steps": 1, "append_dt": 0.25}
        cfg = RunConfig.from_dict(config)
        ham = resolve_hamiltonian(cfg)
        ansatz = build_brickwork_ansatz(4, 1, ham, cfg.dt)
        theta = np.full(ansatz.num_params, 0.1)
        records = self.export_with_appended_steps(tmp_path, config, theta)
        appended = [op_from_record(*rec) for rec in records[len(export_circuit_records(ansatz, theta)):]]

        rng = np.random.default_rng(5)
        start = rng.normal(size=16) + 1j * rng.normal(size=16)
        start /= np.linalg.norm(start)
        state = sv_apply_schedule(start, appended)
        assert sv_fidelity(state, sv_apply_schedule(start, build_trotter_schedule(ham, 0.25, 1))) == \
            pytest.approx(1.0, abs=1e-12)
        assert sv_fidelity(state, sv_apply_schedule(start, build_trotter_schedule(ham, cfg.dt, 1))) < 1 - 1e-6

    def test_appended_block_is_three_cx_and_five_rotations_per_gate(self, tmp_path):
        from aqctensor.ansatz import build_brickwork_ansatz, export_circuit_records
        from aqctensor.hamiltonian import build_trotter_schedule, random_xyz
        from aqctensor.pipeline import RunConfig, resolve_hamiltonian

        h = (0.3, 0.0, -0.2, 0.0, 0.1)
        ham = random_xyz(5, 0.375, 1.125, seed=6).to_dict()
        config = {"preset": None, "hamiltonian": dict(ham, h=list(h)), "n": 5, "layers": 1, "t": 0.6,
                  "append_steps": 2, "append_dt": 0.2}
        cfg = RunConfig.from_dict(config)
        ansatz = build_brickwork_ansatz(5, 1, resolve_hamiltonian(cfg), cfg.dt)
        theta = np.where(np.arange(ansatz.num_params) % 3 == 0, 0.0, 0.1)  # some exact zeros
        records = self.export_with_appended_steps(tmp_path, config, theta)
        assert all(angles[0] != 0.0 for name, _, angles in records if name != "cx")

        appended = [name for name, _, _ in records[len(export_circuit_records(ansatz, theta)):]]
        schedule = build_trotter_schedule(resolve_hamiltonian(cfg), 0.2, 2)
        gates = sum(len(col.gates) for col in schedule.two_site_columns())
        fields = 2 * 2 * sum(x != 0.0 for x in h)  # two field columns per step
        assert appended.count("cx") == 3 * gates
        assert len(appended) - appended.count("cx") == 5 * gates + fields

    def test_missing_theta_is_usage_error(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"config": {"n": 4}, "theta_opt": []}))
        assert run_cli("export-circuit", "--report", str(bad)) == EXIT_USAGE

    @pytest.mark.parametrize("damage", ["one_short", "non_number", "nan"])
    def test_unusable_theta_is_usage_error(self, tmp_path, damage):
        from aqctensor.ansatz import build_brickwork_ansatz
        from aqctensor.pipeline import RunConfig, resolve_hamiltonian

        config = {"preset": "xxz", "n": 4, "layers": 1, "t": 0.6}
        cfg = RunConfig.from_dict(config)
        theta = [0.1] * build_brickwork_ansatz(4, 1, resolve_hamiltonian(cfg), cfg.dt).num_params
        theta[-1] = {"non_number": "x", "nan": float("nan")}.get(damage)
        if damage == "one_short":
            theta.pop()
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"config": config, "theta_opt": theta}))
        out = tmp_path / "export"
        assert run_cli("export-circuit", "--report", str(bad), "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

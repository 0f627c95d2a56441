"""Command-line front end: evolve | compile | run | sweep | verify | export-circuit.

Data goes to files under --out; logs and per-stage telemetry go to stderr.
Exit codes: 0 success, 2 usage or config error (bad flags, config file or
values, unreadable input report), 3 runtime failure (any other exception),
4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .pipeline import (PRESETS, ConfigError, RunConfig, make_policies, read_config_file,
                       resolve_hamiltonian, resolve_initial_bits, run_aqctensor, sweep, write_sweep_csv)

logger = logging.getLogger("aqctensor")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqctensor",
        description="Compress Trotterized spin-chain evolution into short-depth circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="YAML config file; flags override its values")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--preset", choices=PRESETS)
        p.add_argument("--n", type=int, help="qubit count")
        p.add_argument("--layers", type=int, help="ansatz layers / Trotter steps")
        p.add_argument("--time", type=float, dest="t", help="total evolution time")
        p.add_argument("--seed", type=int, help="coupling seed for random-xyz")
        p.add_argument("--chi-max", type=int, help="evolution bond-dimension cap")
        p.add_argument("--cutoff", type=float, help="relative singular-value cutoff")
        p.add_argument("--max-iter", type=int, help="optimizer iteration cap")
        p.add_argument("--alpha-schedule", help='"default", "global", or JSON [[frac,[alphas]],...]')
        p.add_argument("--append-steps", type=int, help="Trotter steps appended after optimization")

    for name, help_text in [
        ("evolve", "TEBD-evolve the initial state and report fidelity/bond statistics"),
        ("compile", "generate the target and optimize the circuit (no appended steps)"),
        ("run", "full pipeline: target, optimization, appended steps, report"),
        ("sweep", "equal-depth / half-depth comparison over a time grid (CSV)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "sweep":
            p.add_argument("--mode", choices=["equal", "half"], default="equal")

    p = sub.add_parser("verify", help="run the oracle-equivalence and gradient self-checks")
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = sub.add_parser("export-circuit", help="write the optimized circuit as a gate list")
    p.add_argument("--report", required=True, help="report.json from a previous run")
    p.add_argument("--out", help="output directory")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    """The --config file's values, overridden by every flag given whose dest is a RunConfig field.

    RunConfig checks the result whole, so bad input raises ConfigError before any work.
    """
    raw = read_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__ and v is not None}
    if "alpha_schedule" in flags:
        try:
            flags["alpha_schedule"] = json.loads(flags["alpha_schedule"])
        except json.JSONDecodeError:
            pass  # a schedule name such as "global"
    return RunConfig.from_dict({**raw, **flags} if isinstance(raw, dict) else raw)


def _write_manifest(out: Path, artifacts: list[str]) -> None:
    with open(out / "manifest.json", "w") as fh:
        json.dump({"artifacts": sorted(artifacts)}, fh, indent=2)


def _out_dir(cfg_out: str) -> Path:
    out = Path(cfg_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_evolve(args) -> int:
    from .hamiltonian import tebd_evolve
    from .mps import from_product_state, max_bond

    cfg = load_config(args)
    ham = resolve_hamiltonian(cfg)
    policy, _ = make_policies(cfg)
    psi0 = from_product_state(resolve_initial_bits(cfg))
    t0 = time.perf_counter()
    stats: dict = {}
    psi = tebd_evolve(psi0, ham, cfg.dt, cfg.layers, policy, stats=stats)
    seconds = time.perf_counter() - t0
    logger.info("evolved %d sites for t=%g in %.2fs, max chi %d", cfg.n, cfg.t, seconds, stats["max_bond"])

    out = _out_dir(cfg.out_dir)
    np.savez(out / "state.npz", **{f"tensor_{i}": t for i, t in enumerate(psi.tensors)})
    summary = {
        "config": cfg.to_dict(),
        "hamiltonian": ham.to_dict(),
        "max_bond": stats["max_bond"],
        "discarded_weight": stats["discarded_weight"],
        "final_bond_dims": psi.bond_dims(),
        "seconds": seconds,
    }
    with open(out / "evolve.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    _write_manifest(out, ["state.npz", "evolve.json"])
    return EXIT_OK


def _write_circuit(cfg, theta, out: Path) -> None:
    """circuit.txt: the ansatz at theta, then the config's appended Trotter steps.

    The appended steps are the ansatz of append_steps layers at dt_app, at its
    Trotter initialization: each two-site gate is three CNOTs and five
    rotations. Rotations at angle 0 (the initial ones, and the field where
    h = 0) are the identity and are left out.
    """
    from .ansatz import build_brickwork_ansatz, export_circuit_records, trotter_initialize
    from .gates import write_gate_list

    ham = resolve_hamiltonian(cfg)
    ansatz = build_brickwork_ansatz(cfg.n, cfg.layers, ham, cfg.dt,
                                    trainable_fields=cfg.trainable_fields)
    lines = export_circuit_records(ansatz, theta)
    if cfg.append_steps > 0:
        steps = build_brickwork_ansatz(cfg.n, cfg.append_steps, ham, cfg.dt_app)
        lines += export_circuit_records(steps, trotter_initialize(steps, ham, cfg.dt_app))
    write_gate_list(lines, str(_out_dir(out) / "circuit.txt"))  # made once theta is checked


def _run_pipeline(args, append_allowed: bool) -> int:
    cfg = load_config(args)
    if not append_allowed:
        cfg = replace(cfg, append_steps=0)
    report, trace = run_aqctensor(cfg)
    out = _out_dir(cfg.out_dir)
    artifacts = ["report.json"]
    if trace.records:
        trace.write_csv(str(out / "trace.csv"))
        report.optimization["trace_file"] = "trace.csv"
        artifacts.append("trace.csv")
    for stage, seconds in report.timings.items():
        logger.info("stage %-13s %7.2fs", stage, seconds)
    logger.info("max bond dimensions: %s", report.max_bond_dims)
    report.write(str(out / "report.json"))
    if report.status == "ok":
        _write_circuit(cfg, report.theta_opt, out)
        artifacts.append("circuit.txt")
    _write_manifest(out, artifacts)
    if report.status != "ok":
        logger.error("run failed at stage %s: %s", report.failed_stage, report.error)
        print(f"error: stage={report.failed_stage} {report.error}", file=sys.stderr)
        return EXIT_RUNTIME
    logger.info("fidelities: %s", report.fidelities)
    return EXIT_OK


def cmd_compile(args) -> int:
    return _run_pipeline(args, append_allowed=False)


def cmd_run(args) -> int:
    return _run_pipeline(args, append_allowed=True)


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    report = sweep(cfg, args.mode)
    out = _out_dir(cfg.out_dir)
    report.write(str(out / "sweep_report.json"))
    write_sweep_csv(report, str(out / "sweep.csv"))
    _write_manifest(out, ["sweep_report.json", "sweep.csv"])
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_self_checks(seed=args.seed)
    ok = all(passed for _, passed, _ in results)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_export_circuit(args) -> int:
    try:
        with open(args.report) as fh:
            report = json.load(fh)
        raw_config = report["config"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc!r}") from exc
    if not report.get("theta_opt"):
        print("error: report carries no optimized parameters", file=sys.stderr)
        return EXIT_USAGE
    cfg = RunConfig.from_dict(raw_config)
    out = Path(args.out or cfg.out_dir)
    try:
        _write_circuit(cfg, report["theta_opt"], out)
    except (TypeError, ValueError) as exc:  # a theta_opt of wrong length, non-numbers or NaN
        raise ConfigError(f"report {args.report} does not fit its config: {exc}") from exc
    _write_manifest(out, ["circuit.txt"])
    return EXIT_OK


def run_self_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Oracle-equivalence and gradient suites used by the verify subcommand."""
    from .ansatz import build_brickwork_ansatz, trotter_initialize
    from .cost import CostConfig, cost_and_gradient, cost_local_truncated, gradient_fd
    from .hamiltonian import random_xyz, tebd_evolve
    from .mps import EXACT, from_product_state
    from .statevector import mps_to_statevector, sv_fidelity

    from scipy.stats import unitary_group

    from .mps import apply_two_site_gate
    from .statevector import apply_gate, basis_state

    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for i in range(5):
        n = int(rng.integers(4, 9))
        bits = "".join(rng.choice(["0", "1"]) for _ in range(n))
        psi = from_product_state(bits)
        dense = basis_state(bits)
        for layer in range(3):
            for j in range(layer % 2, n - 1, 2):
                u = unitary_group.rvs(4, random_state=rng)
                psi = apply_two_site_gate(psi, u, j, EXACT)
                dense = apply_gate(dense, u, (j, j + 1))
        worst = max(worst, float(np.max(np.abs(mps_to_statevector(psi) - dense))))
    results.append(("oracle_amplitudes", worst < 1e-10, f"max amplitude deviation {worst:.2e}"))

    worst = 0.0
    for i in range(3):
        n = 6
        ham = random_xyz(n, 0.375, 1.125, seed=seed + i)
        psi0 = from_product_state("101010")
        evolved = tebd_evolve(psi0, ham, 0.1, 2, EXACT)
        from .hamiltonian import build_trotter_schedule
        from .statevector import sv_apply_schedule

        dense = sv_apply_schedule(basis_state("101010"), build_trotter_schedule(ham, 0.1, 2))
        dense /= np.linalg.norm(dense)
        worst = max(worst, 1.0 - sv_fidelity(mps_to_statevector(evolved), dense))
    results.append(("trotter_oracle_equivalence", worst < 1e-10, f"max infidelity {worst:.2e}"))

    n, l = 4, 1
    ham = random_xyz(n, 0.375, 1.125, seed=seed + 5)
    target = tebd_evolve(from_product_state("1010"), ham, 0.2, l, EXACT)
    ansatz = build_brickwork_ansatz(n, l, ham, 0.2)
    theta = trotter_initialize(ansatz, ham, 0.2, bits="1010")
    theta = theta + rng.normal(0, 0.1, theta.size)
    cfg = CostConfig(alphas=((n - 1) / n,), policy=EXACT)
    g = cost_and_gradient(cost_local_truncated(ansatz, theta, target, cfg))[1]
    g_fd = gradient_fd(ansatz, theta, target, cfg)
    dev = float(np.max(np.abs(g - g_fd)))
    results.append(("gradient_vs_fd", dev < 1e-6, f"max component deviation {dev:.2e}"))
    return results


_COMMANDS = {
    "evolve": cmd_evolve,
    "compile": cmd_compile,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "export-circuit": cmd_export_circuit,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

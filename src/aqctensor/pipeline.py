"""End-to-end runs: TEBD target, circuit optimization, appended Trotter steps.

A run does, in order:
  1. evolve the initial product state to an accurate target MPS (TEBD with a
     time step 10x smaller than the circuit's dt, under the ground-truth
     truncation policy);
  2. build the brickwork ansatz for l layers, Trotter-initialize it, and
     minimize the truncated local cost against the target, phase by phase of
     the alpha schedule;
  3. optionally append k further Trotter steps to the optimized circuit; their
     reference continues the target from t.

The l-step Trotter state itself is kept as the equal-depth baseline; the
optimizer starts exactly there, so the optimized circuit can only improve on
it under the terminal (alpha = 0) objective.

A RunConfig is frozen and checked whole when it is made: RunConfig(...) and
RunConfig.from_dict raise ConfigError for any value a run cannot use, the
Hamiltonian, initial state, alpha schedule, truncation policies and t_grid
included, so a config that exists can run. The run inputs parsed from its
fields are kept on it, read-only: ham, bits, alpha_phases, evolution_policy
and gt_policy.
"""
from __future__ import annotations

import json
import numbers
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np
import yaml

from .ansatz import (
    Ansatz,
    apply_ansatz,
    build_brickwork_ansatz,
    cnot_depth,
    trotter_initialize,
)
from .cost import CostConfig, cost_and_gradient, cost_local_truncated, default_alpha_schedule
from .hamiltonian import XYZHamiltonian, random_xyz, tebd_evolve, trotter_columns
from .mps import MPS, TruncationPolicy, fidelity, from_product_state, max_bond
from .optimize import OptimizationTrace, OptimizerConfig, minimize

PRESETS = ("random-xyz", "xxx", "xxz")


class ConfigError(ValueError):
    """Bad user input, caught before any work starts: a config value or input file."""


#: annotation term -> accepted types; bool is an int subclass and is kept apart. A checked
#: config holds its lists as tuples and its dict as a read-only mapping (see _frozen).
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str,
                "dict": Mapping, "list": (list, tuple), "list[float]": (list, tuple),
                "None": type(None)}


def _check_field_types(cfg) -> None:
    for f in cfg.__dataclass_fields__.values():
        value = getattr(cfg, f.name)
        allowed = f.type.split(" | ")
        if isinstance(value, bool):
            ok = "bool" in allowed
        else:
            ok = any(isinstance(value, _FIELD_TYPES[a]) for a in allowed)
        if not ok:
            raise ConfigError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")


def _frozen(value):
    """value with every list made a tuple and every dict a read-only mapping, at any depth."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _thawed(value):
    """The plain lists and dicts of a _frozen value."""
    if isinstance(value, Mapping):
        return {k: _thawed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thawed(v) for v in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; file- and CLI-friendly. Bad values raise ConfigError here."""

    n: int = 8
    t: float = 2.0
    layers: int = 4
    preset: str | None = "xxx"
    hamiltonian: dict | None = None  # explicit serialized XYZHamiltonian
    seed: int = 1234  # coupling seed for the random-xyz preset
    initial_state: str = "neel"
    append_steps: int = 0
    append_dt: float | None = None  # defaults to dt = t / layers

    chi_max: int | None = 64
    cutoff: float = 1e-12
    ground_truth_chi_factor: int = 4
    discard_budget: float = 1e-6  # mark appended-step fidelities unverified above this

    alpha_schedule: str | list = "default"  # "default" | "global" | [[frac, [alphas]], ...]
    trainable_fields: bool = False  # promote the fixed field rotations into theta

    max_iter: int = 30
    grad_tol: float = 1e-9
    cost_tol: float = 1e-14

    out_dir: str = "runs/out"
    t_grid: list[float] | None = None  # sweep drivers only

    def __post_init__(self) -> None:
        _check_field_types(self)
        for name in ("hamiltonian", "alpha_schedule", "t_grid"):  # frozen below the top level too
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("t", "append_dt", "discard_budget"):
            if getattr(self, name) is not None and not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.t <= 0:
            raise ConfigError("t must be positive")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.append_steps < 0:
            raise ConfigError("append_steps must be >= 0")
        if self.append_dt is not None and self.append_dt <= 0:
            raise ConfigError("append_dt must be positive")
        if self.discard_budget < 0:
            raise ConfigError("discard_budget must be >= 0")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.preset is None and self.hamiltonian is None:
            raise ConfigError("either preset or an explicit hamiltonian is required")
        if self.t_grid is not None and not (self.t_grid and all(
                isinstance(t, numbers.Real) and not isinstance(t, bool) and 0 < t < np.inf
                for t in self.t_grid)):
            raise ConfigError(f"t_grid must be a non-empty list of positive finite times: {self.t_grid!r}")
        bits = ("10" * self.n)[: self.n] if self.initial_state == "neel" else self.initial_state
        if len(bits) != self.n or any(ch not in "01" for ch in bits):
            raise ConfigError("initial_state must be 'neel' or a 0/1 string of length n")
        gt_chi = None if self.chi_max is None else self.chi_max * self.ground_truth_chi_factor
        try:
            OptimizerConfig(max_iter=self.max_iter, grad_tol=self.grad_tol, cost_tol=self.cost_tol)
            evolution_policy = TruncationPolicy(chi_max=self.chi_max, cutoff=self.cutoff)
            gt_policy = TruncationPolicy(chi_max=gt_chi, cutoff=self.cutoff)  # cost evaluation uses it too
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the parsed run inputs: attributes, not fields, so ==, to_dict, pickle and replace ignore them
        self.__dict__.update(ham=self._hamiltonian(), bits=bits, alpha_phases=self._alpha_phases(),
                             evolution_policy=evolution_policy, gt_policy=gt_policy)

    def _hamiltonian(self) -> XYZHamiltonian:
        if self.hamiltonian is not None:
            try:
                ham = XYZHamiltonian.from_dict(self.hamiltonian)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad explicit hamiltonian: {exc!r}") from exc
            if ham.n != self.n:
                raise ConfigError("explicit Hamiltonian size disagrees with n")
            return ham
        if self.preset == "xxx":
            return XYZHamiltonian.uniform(self.n, 0.75, 0.75, 0.75)
        if self.preset == "xxz":
            return XYZHamiltonian.uniform(self.n, 0.75, 0.75, 1.5)
        return random_xyz(self.n, 0.375, 1.125, seed=self.seed)

    def _alpha_phases(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        if self.alpha_schedule == "default":
            return default_alpha_schedule(self.n)
        if self.alpha_schedule == "global":
            return ((1.0, ()),)
        try:
            phases = [(float(frac), tuple(float(a) for a in alphas)) for frac, alphas in self.alpha_schedule]
            for _, alphas in phases:
                CostConfig(alphas=alphas)  # checks the weights
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad alpha schedule {self.alpha_schedule!r}: {exc}") from exc
        if any(not 0.0 < f <= 1.0 for f, _ in phases):
            raise ConfigError("alpha schedule fractions must be in (0, 1]")
        if not phases or abs(sum(f for f, _ in phases) - 1.0) > 1e-9:
            raise ConfigError("alpha schedule fractions must sum to 1")
        if any(len(alphas) > self.n for _, alphas in phases):
            raise ConfigError(f"an alpha schedule phase has more weights than the {self.n} qubits")
        return tuple(phases)

    @property
    def dt(self) -> float:
        return self.t / self.layers

    @property
    def dt_app(self) -> float:
        """Time step of the appended Trotter steps."""
        return self.append_dt if self.append_dt is not None else self.dt

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        """Plain values: lists and dicts where the config holds tuples and read-only mappings."""
        return {f.name: _thawed(getattr(self, f.name)) for f in fields(self)}

    def __reduce__(self):  # a read-only mapping cannot be pickled; the plain values can
        return RunConfig.from_dict, (self.to_dict(),)


def read_config_file(path: str) -> dict:
    """Raw key/value mapping of a YAML config file."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def ground_truth(
    ham: XYZHamiltonian,
    psi0: MPS,
    t: float,
    dt_coarse: float,
    policy: TruncationPolicy,
    stats: dict | None = None,
) -> MPS:
    """Reference state: TEBD at a time step 10x smaller than dt_coarse."""
    if t == 0:
        return psi0
    steps = max(1, round(10.0 * t / dt_coarse))
    out = tebd_evolve(psi0, ham, t / steps, steps, policy, stats=stats)
    if stats is not None:
        stats["steps"] = steps
    return out


@dataclass
class RunReport:
    """Results of one pipeline run, JSON-serializable."""

    config: dict
    status: str = "ok"
    failed_stage: str | None = None
    error: str | None = None
    hamiltonian: dict = field(default_factory=dict)
    conventions: dict = field(default_factory=dict)
    fidelities: dict = field(default_factory=dict)
    depths: dict = field(default_factory=dict)
    max_bond_dims: dict = field(default_factory=dict)
    discarded_weights: dict = field(default_factory=dict)
    optimization: dict = field(default_factory=dict)
    append: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    theta_opt: list = field(default_factory=list)
    sweep: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=_jsonify)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def run_aqctensor(cfg: RunConfig, raise_on_error: bool = False) -> tuple[RunReport, OptimizationTrace]:
    """Full pipeline; returns the report and the concatenated optimizer trace."""
    report = RunReport(config=cfg.to_dict())
    trace = OptimizationTrace()
    stage = "setup"
    try:
        t_start = time.perf_counter()
        report.hamiltonian = cfg.ham.to_dict()
        report.conventions = {
            "initial_state_bits": cfg.bits,
            "state_preparation": "folded into trainable initial rotations; circuit acts on |0...0>",
            "rng": "numpy PCG64 (default_rng)",
            "append_reference": "continues the target from t in fine steps of append.ground_truth_dt",
        }
        dt = cfg.dt
        psi0 = from_product_state(cfg.bits)

        stage = "ground_truth"
        gt_stats: dict = {}
        target = ground_truth(cfg.ham, psi0, cfg.t, dt, cfg.gt_policy, stats=gt_stats)
        report.max_bond_dims["ground_truth"] = gt_stats["max_bond"]
        report.discarded_weights["ground_truth"] = gt_stats["discarded_weight"]
        report.timings["ground_truth"] = time.perf_counter() - t_start

        stage = "tebd_target"
        t0 = time.perf_counter()
        t1_stats: dict = {}
        t1 = tebd_evolve(psi0, cfg.ham, dt, cfg.layers, cfg.evolution_policy, stats=t1_stats)
        report.max_bond_dims["trotter_l"] = t1_stats["max_bond"]
        report.discarded_weights["trotter_l"] = t1_stats["discarded_weight"]
        report.timings["tebd_target"] = time.perf_counter() - t0

        stage = "ansatz"
        ansatz = build_brickwork_ansatz(cfg.ham, cfg.layers, dt, trainable_fields=cfg.trainable_fields)
        theta0 = trotter_initialize(ansatz, bits=cfg.bits)
        report.depths["ansatz"] = cnot_depth(ansatz.columns)
        report.depths["trotter_l"] = cnot_depth(trotter_columns(cfg.n, cfg.layers))

        stage = "optimize"
        t0 = time.perf_counter()
        theta_opt, trace, opt_info = _optimize_phases(ansatz, theta0, target, cfg)
        report.optimization = opt_info
        report.timings["optimize"] = time.perf_counter() - t0
        report.theta_opt = list(theta_opt)

        stage = "fidelities"
        t0 = time.perf_counter()
        a1 = apply_ansatz(ansatz, theta_opt, from_product_state("0" * cfg.n), cfg.gt_policy)
        report.max_bond_dims["optimized_circuit"] = max_bond(a1)
        f_a1_gt = fidelity(a1, target)
        f_t1_gt = fidelity(t1, target)
        t1_double = tebd_evolve(psi0, cfg.ham, dt / 2, 2 * cfg.layers, cfg.evolution_policy)
        report.fidelities = {
            "a1_vs_gt": f_a1_gt,
            "t1_vs_gt": f_t1_gt,
            "a1_vs_t1": fidelity(a1, t1),
            "t1_double_vs_gt": fidelity(t1_double, target),
        }
        report.depths["trotter_2l"] = cnot_depth(trotter_columns(cfg.n, 2 * cfg.layers))
        report.timings["fidelities"] = time.perf_counter() - t0

        if cfg.append_steps > 0:
            stage = "append"
            t0 = time.perf_counter()
            report.append = _append_stage(cfg, psi0, target, a1, ansatz)
            report.timings["append"] = time.perf_counter() - t0

        report.timings["total"] = time.perf_counter() - t_start
    except Exception as exc:  # partial report with stage marker
        report.status = "failed"
        report.failed_stage = stage
        report.error = f"{type(exc).__name__}: {exc}"
        if raise_on_error:
            raise
    return report, trace


def _optimize_phases(
    ansatz: Ansatz, theta0: np.ndarray, target: MPS, cfg: RunConfig
) -> tuple[np.ndarray, OptimizationTrace, dict]:
    """Run the alpha-schedule phases; pick the best theta under the terminal cost.

    A candidate's terminal cost is an infidelity read from a phase's trace:
    the first phase's first record for theta0, and for a phase's result its
    last record, whose theta minimize returned and which costs least.
    """
    phases = cfg.alpha_phases
    full_trace = OptimizationTrace()
    runs: list[tuple[np.ndarray, OptimizationTrace]] = []
    theta = theta0
    remaining = cfg.max_iter
    for idx, (fraction, alphas) in enumerate(phases):
        budget = round(cfg.max_iter * fraction) if idx < len(phases) - 1 else remaining
        budget = max(1, min(budget, remaining))
        remaining -= budget
        phase_cfg = CostConfig(alphas=alphas, policy=cfg.gt_policy)
        opt_cfg = OptimizerConfig(max_iter=budget, grad_tol=cfg.grad_tol, cost_tol=cfg.cost_tol)

        def evaluate(t: np.ndarray, _cfg=phase_cfg):
            value = cost_local_truncated(ansatz, t, target, _cfg)
            return value.total, value.infidelity_term, value

        theta, phase_trace = minimize(evaluate, lambda value: cost_and_gradient(value)[1], theta, opt_cfg)
        done = len(full_trace.records) - len(runs)  # one start record per phase that ran
        elapsed = full_trace.records[-1].seconds if full_trace.records else 0.0
        full_trace.records.extend(
            replace(r, iteration=done + r.iteration, alpha1=alphas[0] if alphas else 0.0,
                    seconds=elapsed + r.seconds)
            for r in phase_trace.records)
        full_trace.stop_reason = phase_trace.stop_reason
        runs.append((theta, phase_trace))
        if remaining <= 0:
            break

    terminal = [runs[0][1].records[0].infidelity] + [t.records[-1].infidelity for _, t in runs]
    best_idx = int(np.argmin(terminal))
    info = {
        # stop_reason is None for a phase that did not run
        "phases": [{"fraction": f, "alphas": list(a),
                    "stop_reason": runs[i][1].stop_reason if i < len(runs) else None}
                   for i, (f, a) in enumerate(phases)],
        "iterations": len(full_trace.records) - len(runs),
        "stop_reason": full_trace.stop_reason,
        "terminal_cost_theta0": terminal[0],
        "terminal_cost_final": terminal[best_idx],
        "best_candidate": best_idx,  # 0 = Trotter initialization
    }
    return ([theta0] + [t for t, _ in runs])[best_idx], full_trace, info


def _append_stage(cfg, psi0, target, a1, ansatz) -> dict:
    """Append k Trotter steps to the optimized state; continue the target from t as their reference."""
    dt_app = cfg.dt_app
    k = cfg.append_steps
    t_total = cfg.t + k * dt_app

    final_state = tebd_evolve(a1, cfg.ham, dt_app, k, cfg.evolution_policy)
    gt2_stats: dict = {}
    gt2 = ground_truth(cfg.ham, target, k * dt_app, cfg.dt, cfg.gt_policy, stats=gt2_stats)
    verified = gt2.discarded_weight <= cfg.discard_budget  # the whole history from 0

    # matched-depth pure-Trotter reference: l + k equal steps covering t_total
    steps_ref = cfg.layers + k
    trotter_ref = tebd_evolve(psi0, cfg.ham, t_total / steps_ref, steps_ref, cfg.evolution_policy)

    return {
        "k_app": k,
        "dt_app": dt_app,
        "t_total": t_total,
        "fidelity_final_vs_gt": fidelity(final_state, gt2) if verified else None,
        "fidelity_trotter_matched_vs_gt": fidelity(trotter_ref, gt2) if verified else None,
        "verified": verified,
        "ground_truth_dt": k * dt_app / gt2_stats["steps"],
        "ground_truth_discarded_weight": gt2.discarded_weight,
        "depth_final": cnot_depth(ansatz.columns) + cnot_depth(trotter_columns(cfg.n, k)),
        "depth_trotter_matched": cnot_depth(trotter_columns(cfg.n, steps_ref)),
    }


# --- experiment drivers -------------------------------------------------------


def sweep(cfg: RunConfig, mode: str) -> RunReport:
    """l-layer ansatz vs a Trotter circuit over a time grid.

    mode "equal" compares with the l-step Trotter circuit at asserted-equal
    CNOT depth, mode "half" with the 2l-step one (twice the CNOT depth).
    """
    if mode not in ("equal", "half"):
        raise ValueError(f"unknown sweep mode {mode!r}; choose 'equal' or 'half'")
    grid = cfg.t_grid or [cfg.t * f for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
    # every grid point's config is checked before the first one runs
    subs = [replace(cfg, t=float(t), t_grid=None) for t in grid]
    report = RunReport(config=cfg.to_dict())
    report.conventions["mode"] = mode
    rows = []
    for sub in subs:
        t0 = time.perf_counter()
        sub_report, trace = run_aqctensor(sub, raise_on_error=True)
        depth_ansatz = sub_report.depths["ansatz"]
        depth_trotter = (
            sub_report.depths["trotter_l"] if mode == "equal" else sub_report.depths["trotter_2l"]
        )
        if mode == "equal" and depth_ansatz != depth_trotter:
            raise AssertionError(
                f"depth mismatch at t={sub.t}: ansatz {depth_ansatz} vs trotter {depth_trotter}"
            )
        rows.append({
            "t": sub.t,
            "depth_ansatz": depth_ansatz,
            "depth_trotter": depth_trotter,
            "f_a1_gt": sub_report.fidelities["a1_vs_gt"],
            "f_t1_gt": sub_report.fidelities["t1_vs_gt"],
            "f_t1double_gt": sub_report.fidelities["t1_double_vs_gt"],
            "max_chi": max(sub_report.max_bond_dims.values()),
            "iters": sub_report.optimization["iterations"],
            "seconds": time.perf_counter() - t0,
        })
    report.sweep = rows
    return report


def write_sweep_csv(report: RunReport, path: str) -> None:
    import csv

    columns = ["t", "depth_ansatz", "depth_trotter", "f_a1_gt", "f_t1_gt",
               "f_t1double_gt", "max_chi", "iters", "seconds"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in report.sweep:
            writer.writerow(row)

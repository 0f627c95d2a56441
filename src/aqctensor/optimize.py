"""Limited-memory quasi-Newton minimization with backtracking line search.

Deterministic throughout: identical inputs produce identical traces. Accepted
steps never increase the cost (Armijo sufficient decrease); when the line
search fails along the quasi-Newton direction it falls back to a backtracked
steepest-descent step and records the event in the trace.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class OptimizerConfig:
    max_iter: int = 30
    memory: int = 10
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 30
    max_expansions: int = 8  # doublings tried when the unit step passes trivially
    curvature_eps: float = 1e-10  # s.y acceptance threshold for memory pairs
    grad_tol: float = 1e-9  # infinity norm
    cost_tol: float = 1e-300  # minimum decrease per accepted step; default = exact stagnation

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grad_tol <= 0 or self.cost_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    cost: float
    infidelity: float
    grad_norm: float
    alpha1: float
    seconds: float
    note: str = ""


@dataclass
class OptimizationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    stop_reason: str = ""

    def costs(self) -> list[float]:
        return [r.cost for r in self.records]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "cost", "infidelity", "grad_norm", "alpha1", "seconds", "note"])
            for r in self.records:
                writer.writerow([r.iteration, f"{r.cost:.16e}", f"{r.infidelity:.16e}",
                                 f"{r.grad_norm:.16e}", f"{r.alpha1:.16g}", f"{r.seconds:.3f}",
                                 r.note])


def _two_loop(grad: np.ndarray, s_list: list[np.ndarray], y_list: list[np.ndarray]) -> np.ndarray:
    """Standard L-BFGS two-loop recursion for -H grad."""
    q = grad.copy()
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def minimize(
    cost_and_grad: Callable[[np.ndarray], tuple],
    theta0: np.ndarray,
    cfg: OptimizerConfig,
    cost_fn: Callable[[np.ndarray], float] | None = None,
    alpha1: float = 0.0,
    iteration_offset: int = 0,
) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize a smooth deterministic objective from theta0.

    cost_and_grad(theta) returns (cost, grad) or (cost, grad, extras) where
    extras may carry an "infidelity" entry for the trace. cost_fn, when given,
    is a cheaper cost-only evaluator used inside the line search. Returns the
    best theta seen and the per-iteration trace.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if cost_fn is None:
        cost_fn = lambda t: cost_and_grad(t)[0]

    t0 = time.perf_counter()

    def evaluate(t: np.ndarray) -> tuple[float, np.ndarray, float]:
        out = cost_and_grad(t)
        cost, grad = out[0], np.asarray(out[1], dtype=float)
        infid = out[2].get("infidelity", cost) if len(out) > 2 else cost
        return float(cost), grad, float(infid)

    cost, grad, infid = evaluate(theta)
    trace = OptimizationTrace()
    trace.records.append(TraceRecord(iteration_offset, cost, infid,
                                     float(np.max(np.abs(grad))), alpha1,
                                     time.perf_counter() - t0))
    best_theta, best_cost = theta.copy(), cost

    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    consecutive_skips = 0

    for it in range(1, cfg.max_iter + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= cfg.grad_tol:
            trace.stop_reason = "grad_tol"
            break

        direction = _two_loop(grad, s_list, y_list)
        note = ""
        if float(direction @ grad) >= 0.0:  # not a descent direction
            s_list.clear()
            y_list.clear()
            direction = -grad
            note = "direction_reset"

        step, new_cost = _backtrack(cost_fn, theta, cost, grad, direction, cfg)
        if step is None:
            # quasi-Newton direction failed; retry along steepest descent
            s_list.clear()
            y_list.clear()
            direction = -grad / max(1.0, gnorm)
            step, new_cost = _backtrack(cost_fn, theta, cost, grad, direction, cfg)
            note = "line_search_fallback"
            if step is None:
                trace.stop_reason = "line_search_failed"
                trace.records.append(TraceRecord(
                    iteration_offset + it, cost, infid, gnorm, alpha1,
                    time.perf_counter() - t0, "line_search_failed"))
                break

        new_theta = theta + step * direction
        new_cost_full, new_grad, new_infid = evaluate(new_theta)

        s = new_theta - theta
        y = new_grad - grad
        sy = float(s @ y)
        if sy > cfg.curvature_eps * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            consecutive_skips = 0
            if len(s_list) > cfg.memory:
                s_list.pop(0)
                y_list.pop(0)
        else:
            # repeated curvature failures mean the memory has gone stale
            consecutive_skips += 1
            if consecutive_skips >= 2:
                s_list.clear()
                y_list.clear()
                consecutive_skips = 0

        decrease = cost - new_cost_full
        theta, cost, grad, infid = new_theta, new_cost_full, new_grad, new_infid
        trace.records.append(TraceRecord(iteration_offset + it, cost, infid,
                                         float(np.max(np.abs(grad))), alpha1,
                                         time.perf_counter() - t0, note))
        if cost < best_cost:
            best_cost, best_theta = cost, theta.copy()
        if decrease < cfg.cost_tol:
            trace.stop_reason = "cost_tol"
            break
    else:
        trace.stop_reason = "max_iter"
    return best_theta, trace


def _backtrack(cost_fn, theta, cost, grad, direction, cfg) -> tuple[float | None, float | None]:
    """Armijo backtracking with expansion; returns (step, cost at step) or (None, None).

    When the unit step already satisfies sufficient decrease the step is
    doubled while it keeps satisfying it, which prevents stagnation on
    directions scaled far too short by a stale curvature estimate.
    """
    slope = float(grad @ direction)
    step = 1.0
    candidate = cost_fn(theta + step * direction)
    if candidate <= cost + cfg.armijo_c1 * step * slope:
        best = (step, candidate)
        for _ in range(cfg.max_expansions):
            step *= 2.0
            candidate = cost_fn(theta + step * direction)
            if candidate <= cost + cfg.armijo_c1 * step * slope:
                best = (step, candidate)
            else:
                break
        return best
    for _ in range(cfg.max_backtracks):
        step *= cfg.backtrack_factor
        candidate = cost_fn(theta + step * direction)
        if candidate <= cost + cfg.armijo_c1 * step * slope:
            return step, candidate
    return None, None

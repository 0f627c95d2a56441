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
from typing import Any, Callable

import numpy as np


MEMORY = 10  # (s, y) pairs kept
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30
MAX_EXPANSIONS = 8  # doublings tried when the unit step passes trivially
CURVATURE_EPS = 1e-10  # s.y acceptance threshold for memory pairs


@dataclass(frozen=True)
class OptimizerConfig:
    max_iter: int = 30
    grad_tol: float = 1e-9  # infinity norm
    cost_tol: float = 1e-300  # minimum decrease per accepted step; default = exact stagnation

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grad_tol <= 0 or self.cost_tol <= 0:
            raise ValueError("tolerances must be positive")


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
    cost_and_grad: Callable[..., tuple],
    theta0: np.ndarray,
    cfg: OptimizerConfig,
    cost_fn: Callable[[np.ndarray], tuple[float, Any]] | None = None,
    alpha1: float = 0.0,
    iteration_offset: int = 0,
) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize a smooth deterministic objective from theta0.

    cost_and_grad(theta) returns (cost, grad) or (cost, grad, extras) where
    extras may carry an "infidelity" entry for the trace. cost_fn, when given,
    is a cheaper cost-only evaluator used inside the line search: cost_fn(theta)
    returns (cost, sweep), where sweep is whatever part of that evaluation the
    gradient can reuse. The gradient at an accepted step is then
    cost_and_grad(theta, sweep) with the sweep cost_fn returned at that very
    theta; the gradient at theta0 is cost_and_grad(theta0). Without cost_fn
    every call is cost_and_grad(theta). Returns the best theta seen and the
    per-iteration trace.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if cost_fn is None:
        cost_fn = lambda t: (cost_and_grad(t)[0], None)

    t0 = time.perf_counter()

    def evaluate(t: np.ndarray, sweep: Any = None) -> tuple[float, np.ndarray, float]:
        out = cost_and_grad(t) if sweep is None else cost_and_grad(t, sweep)
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

        found = _backtrack(cost_fn, theta, cost, grad, direction)
        if found is None:
            # quasi-Newton direction failed; retry along steepest descent
            s_list.clear()
            y_list.clear()
            direction = -grad / max(1.0, gnorm)
            found = _backtrack(cost_fn, theta, cost, grad, direction)
            note = "line_search_fallback"
            if found is None:
                trace.stop_reason = "line_search_failed"
                trace.records.append(TraceRecord(
                    iteration_offset + it, cost, infid, gnorm, alpha1,
                    time.perf_counter() - t0, "line_search_failed"))
                break

        step, sweep = found
        new_theta = theta + step * direction
        new_cost_full, new_grad, new_infid = evaluate(new_theta, sweep)
        del found, sweep  # hold no sweep through the next line search

        s = new_theta - theta
        y = new_grad - grad
        sy = float(s @ y)
        if sy > CURVATURE_EPS * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            consecutive_skips = 0
            if len(s_list) > MEMORY:
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


def _backtrack(cost_fn, theta, cost, grad, direction) -> tuple[float, Any] | None:
    """Armijo backtracking with expansion; returns (accepted step, its sweep), or None.

    When the unit step already satisfies sufficient decrease the step is
    doubled while it keeps satisfying it, which prevents stagnation on
    directions scaled far too short by a stale curvature estimate. The sweep
    is what cost_fn returned with the accepted step's cost. A trial's sweep is
    dropped as soon as the trial fails or a longer step supersedes it, so at
    most two are alive: the accepted one so far and the one being evaluated.
    """
    slope = float(grad @ direction)

    def sufficient(step: float) -> tuple[bool, Any]:
        value, sweep = cost_fn(theta + step * direction)
        # "<=" fails on a NaN cost too
        if value <= cost + ARMIJO_C1 * step * slope:
            return True, sweep
        return False, None

    step = 1.0
    passed, sweep = sufficient(step)
    if passed:
        for _ in range(MAX_EXPANSIONS):
            passed, longer = sufficient(step * 2.0)
            if not passed:
                break
            step, sweep = step * 2.0, longer
        return step, sweep
    for _ in range(MAX_BACKTRACKS):
        step *= BACKTRACK_FACTOR
        passed, sweep = sufficient(step)
        if passed:
            return step, sweep
    return None

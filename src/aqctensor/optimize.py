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
        if not (0 < self.grad_tol < np.inf and 0 < self.cost_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")


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
    evaluate: Callable[[np.ndarray], tuple[float, float, Any]],
    gradient: Callable[[Any], np.ndarray],
    theta0: np.ndarray,
    cfg: OptimizerConfig,
) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize a smooth deterministic objective from theta0.

    evaluate(theta) returns (cost, infidelity, point) and is the only
    evaluator: it serves theta0 and every line-search trial. gradient(point)
    returns the gradient at the theta where evaluate made point; it is asked
    at theta0 and at each accepted step, and no point is held past that call.
    Returns the best theta seen and the per-iteration trace, which starts
    with a record of theta0 at iteration 0 and carries alpha1 = 0. A note left
    empty by a reset or fallback reads memory_reset when a second curvature
    skip in a row clears the L-BFGS memory.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    t0 = time.perf_counter()

    def record(it: int, note: str = "") -> TraceRecord:
        """Trace record of the current point."""
        return TraceRecord(it, float(cost), float(infid), float(np.max(np.abs(grad))), 0.0,
                           time.perf_counter() - t0, note)

    cost, infid, point = evaluate(theta)
    grad = np.asarray(gradient(point), dtype=float)
    del point  # hold no point through the line search
    trace = OptimizationTrace([record(0)])
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

        found = _backtrack(evaluate, theta, cost, grad, direction)
        if found is None:
            # quasi-Newton direction failed; retry along steepest descent
            s_list.clear()
            y_list.clear()
            direction = -grad / max(1.0, gnorm)
            found = _backtrack(evaluate, theta, cost, grad, direction)
            note = "line_search_fallback"
            if found is None:
                trace.stop_reason = "line_search_failed"
                trace.records.append(record(it, "line_search_failed"))
                break

        step, (new_cost, new_infid, point) = found
        new_theta = theta + step * direction
        new_grad = np.asarray(gradient(point), dtype=float)
        del found, point  # hold no point through the next line search

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
                note = note or "memory_reset"

        decrease = cost - new_cost
        theta, cost, grad, infid = new_theta, new_cost, new_grad, new_infid
        trace.records.append(record(it, note))
        if cost < best_cost:
            best_cost, best_theta = cost, theta.copy()
        if decrease < cfg.cost_tol:
            trace.stop_reason = "cost_tol"
            break
    else:
        trace.stop_reason = "max_iter"
    return best_theta, trace


def _backtrack(evaluate, theta, cost, grad, direction) -> tuple[float, tuple] | None:
    """Armijo backtracking with expansion; returns (accepted step, evaluate's output there), or None.

    When the unit step already satisfies sufficient decrease the step is
    doubled while it keeps satisfying it, which prevents stagnation on
    directions scaled far too short by a stale curvature estimate. A trial's
    output is dropped as soon as the trial fails or a longer step supersedes
    it, so at most two points are alive: the accepted one so far and the one
    being evaluated.
    """
    slope = float(grad @ direction)

    def sufficient(step: float) -> tuple | None:
        out = evaluate(theta + step * direction)
        # "<=" fails on a NaN cost too
        return out if out[0] <= cost + ARMIJO_C1 * step * slope else None

    step = 1.0
    out = sufficient(step)
    if out is not None:
        for _ in range(MAX_EXPANSIONS):
            longer = sufficient(step * 2.0)
            if longer is None:
                break
            step, out = step * 2.0, longer
        return step, out
    for _ in range(MAX_BACKTRACKS):
        step *= BACKTRACK_FACTOR
        out = sufficient(step)
        if out is not None:
            return step, out
    return None

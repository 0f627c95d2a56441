import weakref

import numpy as np
import pytest

from aqctensor import optimize
from aqctensor.optimize import OptimizerConfig, _backtrack, minimize


def quadratic(dim, seed):
    """0.5 (x - x*)^T A (x - x*): positive definite with minimum value 0."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    a = m @ m.T + dim * np.eye(dim)
    x_star = rng.normal(size=dim)

    def f(x):
        d = x - x_star
        return 0.5 * float(d @ a @ d), a @ d

    return f, x_star


def split(f):
    """(evaluate, gradient) of an objective f(x) -> (value, grad); the point is x itself."""
    return (lambda x: (f(x)[0], f(x)[0], x.copy())), (lambda x: f(x)[1])


class TestConvergence:
    def test_quadratic_ten_variables(self):
        f, x_star = quadratic(10, seed=1)
        theta, trace = minimize(*split(f), np.zeros(10), OptimizerConfig(max_iter=30))
        assert np.max(np.abs(f(theta)[1])) <= 1e-8
        np.testing.assert_allclose(theta, x_star, atol=1e-6)

    def test_terminates_immediately_at_optimum(self):
        f, x_star = quadratic(6, seed=2)
        theta, trace = minimize(*split(f), x_star, OptimizerConfig(max_iter=30))
        assert trace.stop_reason == "grad_tol"
        assert len(trace.records) == 1
        np.testing.assert_allclose(theta, x_star, atol=1e-12)

    def test_rosenbrock_monotone_accepted_steps(self):
        def rosen(x):
            val = 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            grad = np.array([
                -400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                200 * (x[1] - x[0] ** 2),
            ])
            return val, grad

        theta, trace = minimize(*split(rosen), np.array([-1.2, 1.0]), OptimizerConfig(max_iter=100))
        costs = trace.costs()
        assert all(c2 <= c1 + 1e-15 for c1, c2 in zip(costs, costs[1:]))
        assert costs[-1] < 1e-8


class TestContracts:
    def test_determinism(self):
        f, _ = quadratic(8, seed=3)
        theta1, trace1 = minimize(*split(f), np.ones(8), OptimizerConfig(max_iter=20))
        theta2, trace2 = minimize(*split(f), np.ones(8), OptimizerConfig(max_iter=20))
        np.testing.assert_array_equal(theta1, theta2)
        assert trace1.costs() == trace2.costs()
        assert [r.grad_norm for r in trace1.records] == [r.grad_norm for r in trace2.records]

    def test_returns_best_seen_never_worse_than_start(self):
        f, _ = quadratic(5, seed=4)
        x0 = np.full(5, 2.0)
        theta, _ = minimize(*split(f), x0, OptimizerConfig(max_iter=3))
        assert f(theta)[0] <= f(x0)[0]

    def test_returns_the_last_accepted_point(self):
        f, _ = quadratic(5, seed=4)
        points = []

        def gradient(x):
            points.append(x)  # the start and every accepted step
            return f(x)[1]

        theta, trace = minimize(split(f)[0], gradient, np.full(5, 2.0), OptimizerConfig(max_iter=4))
        assert len(points) == len(trace.records) == 5
        np.testing.assert_array_equal(theta, points[-1])
        assert f(theta)[0] == trace.records[-1].cost == min(trace.costs())

    def test_line_search_failure_recorded(self):
        # gradient deliberately points uphill: no descent possible anywhere
        def lying(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([1.0, -1.0])
        theta, trace = minimize(*split(lying), x0, OptimizerConfig(max_iter=10))
        assert trace.stop_reason == "line_search_failed"
        assert any(r.note == "line_search_failed" for r in trace.records)
        np.testing.assert_array_equal(theta, x0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iter=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=float("nan"))
        with pytest.raises(ValueError):
            OptimizerConfig(cost_tol=float("inf"))

    def test_infidelity_feeds_the_trace(self):
        def evaluate(x):
            return float(x @ x), float(x @ x) / 2, x.copy()

        _, trace = minimize(evaluate, lambda x: 2 * x, np.array([1.0]), OptimizerConfig(max_iter=5))
        assert trace.records[0].infidelity == pytest.approx(0.5)
        assert all(r.infidelity == pytest.approx(r.cost / 2) for r in trace.records)
        assert [r.iteration for r in trace.records] == list(range(len(trace.records)))
        assert all(r.alpha1 == 0.0 for r in trace.records)  # the caller sets its phase's weight

    def test_csv_columns(self, tmp_path):
        f, _ = quadratic(3, seed=5)
        _, trace = minimize(*split(f), np.ones(3), OptimizerConfig(max_iter=5))
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        header = path.read_text().splitlines()[0]
        assert header == "iter,cost,infidelity,grad_norm,alpha1,seconds,note"

    def test_csv_carries_notes(self, tmp_path):
        def lying(x):
            return float(x @ x), -2.0 * x

        _, trace = minimize(*split(lying), np.array([1.0, -1.0]), OptimizerConfig(max_iter=10))
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        rows = path.read_text().splitlines()
        assert rows[1].endswith(",")  # the start record has no note
        assert rows[-1].endswith(",line_search_failed")


class TestMemoryReset:
    """On a linear objective every y = g(new) - g(old) is 0, so every curvature pair is skipped."""

    @staticmethod
    def linear(x):
        return float(np.sum(x)), np.ones_like(x)

    def test_second_skip_in_a_row_is_noted(self):
        _, trace = minimize(*split(self.linear), np.zeros(3), OptimizerConfig(max_iter=4))
        assert [r.note for r in trace.records] == ["", "", "memory_reset", "", "memory_reset"]

    def test_a_fallback_keeps_its_own_note(self, monkeypatch):
        # the quasi-Newton search of iteration 2 fails, so its steepest-descent retry runs
        calls = []

        def failing_second(*args, _search=optimize._backtrack):
            calls.append(len(calls))
            return None if len(calls) == 2 else _search(*args)

        monkeypatch.setattr(optimize, "_backtrack", failing_second)
        _, trace = minimize(*split(self.linear), np.zeros(3), OptimizerConfig(max_iter=4))
        assert [r.note for r in trace.records] == ["", "", "line_search_fallback", "", "memory_reset"]


class TestMemory:
    @staticmethod
    def ill_conditioned(dim, seed):
        """A quadratic with eigenvalues 1 .. 100, which L-BFGS takes many steps to solve."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = q @ np.diag(np.logspace(0, 2, dim)) @ q.T
        x_star = rng.normal(size=dim)

        def f(x):
            d = x - x_star
            return 0.5 * float(d @ a @ d), a @ d

        return f

    def test_holds_the_latest_pairs_up_to_memory(self, monkeypatch):
        f = self.ill_conditioned(20, seed=11)
        thetas, grads, held = [], [], []

        def gradient(x):
            thetas.append(x)
            grads.append(f(x)[1])
            return grads[-1]

        def recording(grad, memory, _two_loop=optimize._two_loop):
            held.append(list(memory))
            return _two_loop(grad, memory)

        monkeypatch.setattr(optimize, "_two_loop", recording)
        _, trace = minimize(split(f)[0], gradient, np.zeros(20), OptimizerConfig(max_iter=25))
        # no reset or fallback: every step is accepted and keeps its (s, y) pair
        assert [r.note for r in trace.records] == [""] * len(trace.records)
        assert len(held) > optimize.MEMORY + 2
        pairs = [(b - a, gb - ga) for a, b, ga, gb in zip(thetas, thetas[1:], grads, grads[1:])]
        for k, memory in enumerate(held):  # the direction of step k + 1 reads the k pairs before it
            latest = pairs[max(0, k - optimize.MEMORY):k]
            assert len(memory) == len(latest) <= optimize.MEMORY
            for (s, y), (s_k, y_k) in zip(memory, latest):
                np.testing.assert_array_equal(s, s_k)
                np.testing.assert_array_equal(y, y_k)


class TestDirectionReset:
    def test_an_ascent_direction_is_replaced_by_steepest_descent(self, monkeypatch):
        # the third direction is turned uphill: minimize clears the memory and steps along -grad
        f = TestMemory.ill_conditioned(6, seed=3)
        thetas, grads, held = [], [], []

        def gradient(x):
            thetas.append(x)
            grads.append(f(x)[1])
            return grads[-1]

        def ascent_third(grad, memory, _two_loop=optimize._two_loop):
            held.append(list(memory))
            direction = _two_loop(grad, memory)
            return -direction if len(held) == 3 else direction

        monkeypatch.setattr(optimize, "_two_loop", ascent_third)
        _, trace = minimize(split(f)[0], gradient, np.zeros(6), OptimizerConfig(max_iter=5))
        assert [r.note for r in trace.records] == ["", "", "", "direction_reset", "", ""]
        assert len(held[2]) == 2  # the pairs of steps 1 and 2, cleared by the reset
        # the next direction reads only the reset step's own pair: a step along -grad
        (s, y), = held[3]
        np.testing.assert_array_equal(s, thetas[3] - thetas[2])
        np.testing.assert_array_equal(y, grads[3] - grads[2])
        np.testing.assert_allclose(s / np.linalg.norm(s), -grads[2] / np.linalg.norm(grads[2]), rtol=1e-12)
        costs = trace.costs()
        assert all(b <= a for a, b in zip(costs, costs[1:]))


class TestCostTol:
    def test_a_step_gaining_less_than_cost_tol_stops_the_run(self):
        # f(x) = x^2 from 1e-8: |grad| = 2e-8 is above grad_tol, but the accepted step gains only 1e-16
        def f(x):
            return float(x @ x), 2.0 * x

        theta, trace = minimize(*split(f), np.array([1e-8]), OptimizerConfig(cost_tol=1e-14))
        assert trace.stop_reason == "cost_tol"
        assert len(trace.records) == 2  # the start and the one accepted step
        assert trace.records[0].cost - trace.records[1].cost == pytest.approx(1e-16, rel=1e-12)
        assert theta.tolist() == [0.0]


class Tag:
    """A stand-in for a cost sweep: remembers the theta it was made at."""

    def __init__(self, theta):
        self.theta = theta.copy()


def tagging_evaluate(f):
    """evaluate returning (cost, cost, Tag); .alive counts the tags still referenced at each call."""
    live = weakref.WeakSet()

    def evaluate(theta):
        evaluate.alive.append(len(live))
        tag = Tag(theta)
        live.add(tag)
        return f(theta), f(theta), tag

    evaluate.alive = []
    return evaluate


class TestSweepHandOver:
    @pytest.mark.parametrize("direction, step, alive", [
        (-1.0, 1.0, [0, 1]),  # the unit step lands on the minimum, step 2 fails
        (-0.5, 2.0, [0, 1, 1]),  # step 2 lands on the minimum, step 4 fails
        (-3.0, 0.5, [0, 0]),  # step 1 overshoots, the first backtrack passes
    ], ids=["unit_after_failed_doubling", "doubled", "backtracked"])
    def test_backtrack_returns_the_accepted_steps_sweep(self, direction, step, alive):
        # f(x) = x^2 from x = 1: the accepted step is not always the last one evaluated
        evaluate = tagging_evaluate(lambda x: float(x @ x))
        theta, d = np.array([1.0]), np.array([direction])
        got_step, (cost, infidelity, point) = _backtrack(evaluate, theta, 1.0, 2.0 * theta, d)
        assert got_step == step
        np.testing.assert_array_equal(point.theta, theta + step * d)
        assert cost == infidelity == float(point.theta @ point.theta)
        # a rejected or superseded trial's point is gone before the next trial starts
        assert evaluate.alive == alive

    def test_failed_search_returns_none(self):
        evaluate = tagging_evaluate(lambda x: float(x @ x))
        theta = np.array([1.0])
        assert _backtrack(evaluate, theta, 1.0, -2.0 * theta, np.array([1.0])) is None
        assert max(evaluate.alive) == 0

    def test_gradient_gets_only_a_sweep_made_at_its_theta(self):
        f, _ = quadratic(6, seed=7)
        evaluate = tagging_evaluate(lambda x: f(x)[0])
        points, first_trials = [], []

        def gradient(point):
            points.append(point.theta)
            first_trials.append(len(evaluate.alive))  # index of the next line search's first trial
            return f(point.theta)[1]

        x0 = np.ones(6)
        _, trace = minimize(evaluate, gradient, x0, OptimizerConfig(max_iter=8))
        # one gradient per record, the start's included, each at the point evaluate made there
        assert len(points) == len(trace.records) > 2
        np.testing.assert_array_equal(points[0], x0)
        assert [f(t)[0] for t in points] == trace.costs()
        # no point is held from one line search into the next
        assert all(evaluate.alive[i] == 0 for i in first_trials if i < len(evaluate.alive))

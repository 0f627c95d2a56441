import numpy as np
import pytest

from aqctensor.optimize import OptimizerConfig, minimize


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


class TestConvergence:
    def test_quadratic_ten_variables(self):
        f, x_star = quadratic(10, seed=1)
        theta, trace = minimize(f, np.zeros(10), OptimizerConfig(max_iter=30))
        assert np.max(np.abs(f(theta)[1])) <= 1e-8
        np.testing.assert_allclose(theta, x_star, atol=1e-6)

    def test_terminates_immediately_at_optimum(self):
        f, x_star = quadratic(6, seed=2)
        theta, trace = minimize(f, x_star, OptimizerConfig(max_iter=30))
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

        theta, trace = minimize(rosen, np.array([-1.2, 1.0]), OptimizerConfig(max_iter=100))
        costs = trace.costs()
        assert all(c2 <= c1 + 1e-15 for c1, c2 in zip(costs, costs[1:]))
        assert costs[-1] < 1e-8


class TestContracts:
    def test_determinism(self):
        f, _ = quadratic(8, seed=3)
        theta1, trace1 = minimize(f, np.ones(8), OptimizerConfig(max_iter=20))
        theta2, trace2 = minimize(f, np.ones(8), OptimizerConfig(max_iter=20))
        np.testing.assert_array_equal(theta1, theta2)
        assert trace1.costs() == trace2.costs()
        assert [r.grad_norm for r in trace1.records] == [r.grad_norm for r in trace2.records]

    def test_returns_best_seen_never_worse_than_start(self):
        f, _ = quadratic(5, seed=4)
        x0 = np.full(5, 2.0)
        theta, _ = minimize(f, x0, OptimizerConfig(max_iter=3))
        assert f(theta)[0] <= f(x0)[0]

    def test_line_search_failure_recorded(self):
        # gradient deliberately points uphill: no descent possible anywhere
        def lying(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([1.0, -1.0])
        theta, trace = minimize(lying, x0, OptimizerConfig(max_iter=10))
        assert trace.stop_reason == "line_search_failed"
        assert any(r.note == "line_search_failed" for r in trace.records)
        np.testing.assert_array_equal(theta, x0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iter=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(backtrack_factor=1.5)

    def test_extras_feed_the_trace(self):
        def f(x):
            return float(x @ x), 2 * x, {"infidelity": float(x @ x) / 2}

        _, trace = minimize(f, np.array([1.0]), OptimizerConfig(max_iter=5), alpha1=0.25)
        assert trace.records[0].infidelity == pytest.approx(0.5)
        assert all(r.alpha1 == 0.25 for r in trace.records)

    def test_csv_columns(self, tmp_path):
        f, _ = quadratic(3, seed=5)
        _, trace = minimize(f, np.ones(3), OptimizerConfig(max_iter=5))
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        header = path.read_text().splitlines()[0]
        assert header == "iter,cost,infidelity,grad_norm,alpha1,seconds,note"

    def test_csv_carries_notes(self, tmp_path):
        def lying(x):
            return float(x @ x), -2.0 * x

        _, trace = minimize(lying, np.array([1.0, -1.0]), OptimizerConfig(max_iter=10))
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        rows = path.read_text().splitlines()
        assert rows[1].endswith(",")  # the start record has no note
        assert rows[-1].endswith(",line_search_failed")

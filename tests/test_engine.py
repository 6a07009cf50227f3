import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastiter import engine as eng


class ZeroOracle:
    def value(self, x):
        return 0.0

    def subgradient(self, x, t):
        return np.zeros_like(np.atleast_1d(x))


class LinearOracle:
    """f(x) = x in 1D, constant subgradient 1."""

    def value(self, x):
        return float(np.asarray(x).reshape(-1)[0])

    def subgradient(self, x, t):
        return np.array([1.0])


class CoinOracle:
    """Stochastic +/-1 oracle used to pin down determinism under reset."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)

    def value(self, x):
        return 0.0

    def subgradient(self, x, t):
        return np.array([1.0 if self._rng.random() < 0.5 else -1.0])


# ---------------------------------------------------------------- schedules

def test_schedule_exact_values():
    assert eng.StepSchedule("inv_t").eval(4) == 0.25
    assert eng.StepSchedule("inv_sqrt_horizon", horizon=16).eval(7) == 0.25
    assert eng.StepSchedule("inv_sqrt_t").eval(9) == 1.0 / 3.0
    assert eng.StepSchedule("constant", value=0.5).eval(123456) == 0.5
    # the engine evaluates a run's step sizes once, as an array; it must
    # match eval(t) bit for bit for every kind
    T = 5000
    for s in (eng.StepSchedule("inv_t"), eng.StepSchedule("inv_sqrt_t"),
              eng.StepSchedule("inv_sqrt_horizon", horizon=T),
              eng.StepSchedule("constant", value=0.3)):
        sizes = s._sizes(np.arange(1, T + 1))
        assert sizes.tolist() == [s.eval(t) for t in range(1, T + 1)], s.kind


def test_schedule_range_and_validation():
    s = eng.StepSchedule("inv_t", horizon=10)
    with pytest.raises(ValueError):
        s.eval(0)
    with pytest.raises(ValueError):
        s.eval(11)
    with pytest.raises(ValueError):
        eng.StepSchedule("inv_sqrt_horizon")
    with pytest.raises(ValueError):
        eng.StepSchedule("constant", value=0.0)
    with pytest.raises(ValueError):
        eng.StepSchedule("bogus")


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_schedule_positive(t):
    for s in (eng.StepSchedule("inv_t"), eng.StepSchedule("inv_sqrt_t"),
              eng.StepSchedule("inv_sqrt_horizon", horizon=10 ** 6)):
        assert s.eval(t) > 0


# --------------------------------------------------------------- projection

def test_project_ball_inside_and_scaling():
    ball = eng.Ball(1.0, 2)
    np.testing.assert_array_equal(ball.project([0.3, 0.4]), [0.3, 0.4])
    np.testing.assert_allclose(ball.project([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)


def test_project_interval_clamp():
    iv = eng.Interval(0.0, 1.0)
    assert iv.project(np.array([-0.2]))[0] == 0.0
    assert iv.project(np.array([1.7]))[0] == 1.0
    assert iv.project(np.array([0.4]))[0] == 0.4


def test_projection_is_nearest_point():
    # 1000 random (x, y in set) pairs: ||x - Px|| <= ||x - y|| + 1e-12
    rng = np.random.default_rng(0)
    ball = eng.Ball(1.3, 5)
    for _ in range(1000):
        x = rng.normal(scale=2.0, size=5)
        y = rng.normal(size=5)
        y *= rng.random() ** (1 / 5) * ball.radius / np.linalg.norm(y)
        px = ball.project(x)
        assert np.linalg.norm(x - px) <= np.linalg.norm(x - y) + 1e-12
        assert np.linalg.norm(px) <= ball.radius * (1 + 1e-15)


@settings(max_examples=50)
@given(st.floats(-100, 100), st.floats(-5, 5), st.floats(0.1, 5))
def test_interval_projection_idempotent(x, lo, width):
    iv = eng.Interval(lo, lo + width)
    p = iv.project(np.array([x]))
    np.testing.assert_array_equal(iv.project(p), p)
    assert iv.contains(p)


# ------------------------------------------------------------------- engine

def test_zero_oracle_fixed_point():
    tr = eng.run_sgd(ZeroOracle(), eng.Ball(1.0, 3), eng.StepSchedule("inv_t"),
                     np.zeros(3), T=10)
    assert tr.iterates.shape == (11, 3)
    assert np.all(tr.iterates == 0.0)
    assert np.all(tr.gradients == 0.0)


def test_projection_clamps_linear_descent():
    # f(x) = x on [-1, 1], g = 1, eta = 0.5: iterates 0, -0.5, -1, -1
    tr = eng.run_sgd(LinearOracle(), eng.Interval(-1.0, 1.0),
                     eng.StepSchedule("constant", value=0.5),
                     np.array([0.0]), T=3)
    np.testing.assert_array_equal(tr.iterates[:, 0], [0.0, -0.5, -1.0, -1.0])
    np.testing.assert_array_equal(tr.values, [0.0, -0.5, -1.0, -1.0])


def test_run_sgd_argument_errors():
    with pytest.raises(ValueError):
        eng.run_sgd(ZeroOracle(), eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                    np.zeros(3), T=5)
    with pytest.raises(ValueError):
        eng.run_sgd(ZeroOracle(), eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                    np.array([2.0, 0.0]), T=5)
    with pytest.raises(ValueError):  # run_sgd records one path only
        eng.run_sgd(ZeroOracle(), eng.Interval(-1.0, 1.0), eng.StepSchedule("inv_t"),
                    np.zeros((3, 1)), T=5)
    with pytest.raises(ValueError):  # Ball projects single points only
        list(eng.sgd_steps(ZeroOracle(), eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                           np.zeros((3, 2)), T=5))

    class NanOracle(ZeroOracle):
        def subgradient(self, x, t):
            return np.array([np.nan, 0.0])

    with pytest.raises(ValueError):
        eng.run_sgd(NanOracle(), eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                    np.zeros(2), T=5)


def test_stochastic_runs_are_seed_deterministic():
    kw = dict(feasible=eng.Interval(-1.0, 1.0),
              schedule=eng.StepSchedule("constant", value=0.1),
              x1=np.array([0.0]), T=200)
    a = eng.run_sgd(CoinOracle(), seed=7, **kw)
    b = eng.run_sgd(CoinOracle(), seed=7, **kw)
    c = eng.run_sgd(CoinOracle(), seed=8, **kw)
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.gradients, b.gradients)
    assert not np.array_equal(a.iterates, c.iterates)


def test_feasibility_under_forced_projections():
    class OutwardOracle(ZeroOracle):
        def subgradient(self, x, t):
            return -np.ones(2)  # pushes outward from the origin

    ball = eng.Ball(0.5, 2)
    tr = eng.run_sgd(OutwardOracle(), ball, eng.StepSchedule("constant", value=0.3),
                     np.zeros(2), T=20)
    norms = np.linalg.norm(tr.iterates, axis=1)
    assert np.all(norms <= ball.radius * (1 + 1e-15))


# ------------------------------------------------------- averages and CSV

def test_running_average_constant_and_simple():
    tr = eng.run_sgd(ZeroOracle(), eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                     np.array([0.1, 0.2]), T=4)
    np.testing.assert_allclose(eng.running_average(tr), [0.1, 0.2], rtol=0, atol=0)

    tr.iterates = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(eng.running_average(tr), [1 / 3, 1 / 3])


def test_trace_csv_format(tmp_path):
    tr = eng.run_sgd(LinearOracle(), eng.Interval(-1.0, 1.0),
                     eng.StepSchedule("constant", value=0.5),
                     np.array([0.0]), T=3)
    path = tmp_path / "trace.csv"
    eng.trace_to_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_1,g_1,f_value"
    assert len(lines) == 1 + 4  # header + T+1 rows
    # final row has an empty gradient cell
    last = lines[-1].split(",")
    assert last[0] == "4" and last[2] == ""
    # 17 significant digits round-trip binary64
    val = float(lines[2].split(",")[1])
    assert val == tr.iterates[1, 0]

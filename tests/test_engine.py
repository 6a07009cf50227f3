import io
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastiter import engine as eng


class ZeroOracle:
    def value(self, X):
        return np.zeros(len(X))

    def subgradient(self, x, t):
        return np.zeros_like(np.atleast_1d(x))


class LinearOracle:
    """f(x) = x in 1D, constant subgradient 1."""

    def value(self, X):
        return np.asarray(X)[:, 0].copy()

    def subgradient(self, x, t):
        return np.array([1.0])


class CoinOracle:
    """Stochastic +/-1 oracle used to pin down determinism under reset."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)

    def value(self, X):
        return np.zeros(len(X))

    def subgradient(self, x, t):
        return np.array([1.0 if self._rng.random() < 0.5 else -1.0])


# ---------------------------------------------------------------- schedules

def test_schedule_exact_values():
    assert eng.StepSchedule("inv_t").sizes(4)[3] == 0.25
    assert eng.StepSchedule("inv_sqrt_horizon", horizon=16).sizes(7)[6] == 0.25
    assert eng.StepSchedule("inv_sqrt_t").sizes(9)[8] == 1.0 / 3.0
    assert eng.StepSchedule("constant", value=0.5).sizes(123456)[-1] == 0.5
    # the engine evaluates a run's step sizes once, as an array; it must
    # match the scalar formula at each step bit for bit for every kind
    T = 5000
    for s, eta in ((eng.StepSchedule("inv_t"), lambda t: 1.0 / t),
                   (eng.StepSchedule("inv_sqrt_t"), lambda t: 1.0 / math.sqrt(t)),
                   (eng.StepSchedule("inv_sqrt_horizon", horizon=T),
                    lambda t: 1.0 / math.sqrt(T)),
                   (eng.StepSchedule("constant", value=0.3), lambda t: 0.3)):
        assert s.sizes(T).tolist() == [eta(t) for t in range(1, T + 1)], s.kind


def test_schedule_range_and_validation():
    s = eng.StepSchedule("inv_t", horizon=10)
    assert s.sizes(10).shape == (10,)
    with pytest.raises(ValueError):
        s.sizes(0)
    with pytest.raises(ValueError):
        s.sizes(11)
    with pytest.raises(ValueError):
        eng.StepSchedule("inv_sqrt_horizon")
    with pytest.raises(ValueError):
        eng.StepSchedule("constant", value=0.0)
    with pytest.raises(ValueError):
        eng.StepSchedule("bogus")


def test_schedule_positive():
    # every step size of a run of 10^6 steps
    for s in (eng.StepSchedule("inv_t"), eng.StepSchedule("inv_sqrt_t"),
              eng.StepSchedule("inv_sqrt_horizon", horizon=10 ** 6)):
        assert np.all(s.sizes(10 ** 6) > 0)


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


def _same_bits(a, b):
    return (type(a) is type(b) and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=300, deadline=None)
@given(bounds=st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0),
                               (-0.5, 0.5), (-3.25, -1.5)]),
       xs=st.lists(st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0, 0.5, -0.5]),
                             st.floats(-10, 10), st.just(np.inf), st.just(-np.inf),
                             st.just(np.nan)), min_size=1, max_size=40))
def test_interval_projection_equals_clip(bounds, xs):
    # the projection must reproduce np.clip bit for bit, signed zeros and the
    # endpoints included, on float, int and list inputs and on 0-d arrays
    lo, hi = bounds
    iv = eng.Interval(lo, hi)
    x = np.array(xs)
    cases = [x, xs, x.reshape(-1, 1), np.asarray(x[0]), np.array([lo, hi, -lo, -hi])]
    if np.isfinite(x).all():
        cases.append(np.rint(x).astype(np.int64))
    for c in cases:
        assert _same_bits(iv.project(c), np.clip(np.asarray(c, dtype=float), lo, hi))


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

    class ScalarOracle(LinearOracle):  # a plain float answers a d = 1 query
        def subgradient(self, x, t):
            return 1.0

    sc = eng.run_sgd(ScalarOracle(), eng.Interval(-1.0, 1.0),
                     eng.StepSchedule("constant", value=0.5),
                     np.array([0.0]), T=3)
    np.testing.assert_array_equal(sc.iterates, tr.iterates)
    np.testing.assert_array_equal(sc.gradients, tr.gradients)


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

    class FixedOracle(ZeroOracle):
        def __init__(self, answer):
            self.answer = answer

        def subgradient(self, x, t):
            return self.answer

    # non-finite answers, a scalar or a wrong shape where two coordinates are due
    for answer in (np.array([np.nan, 0.0]), np.array([0.0, np.inf]),
                   np.array([-np.inf, 0.0]), 1.0, np.zeros(1), np.zeros(3),
                   np.zeros((1, 2))):
        with pytest.raises(ValueError):
            eng.run_sgd(FixedOracle(answer), eng.Ball(1.0, 2),
                        eng.StepSchedule("inv_t"), np.zeros(2), T=5)


def test_run_sgd_rejects_one_point_values():
    # an oracle written for one point per value call would broadcast its one
    # float over the whole block; run_sgd must refuse its answer instead
    class OnePointOracle(LinearOracle):
        def value(self, x):
            return float(np.asarray(x).reshape(-1)[0])

    with pytest.raises(ValueError, match="oracle.value returned shape"):
        eng.run_sgd(OnePointOracle(), eng.Interval(-1.0, 1.0),
                    eng.StepSchedule("constant", value=0.5), np.array([0.0]), T=3)

    class TallOracle(LinearOracle):  # (k, 1) in place of (k,)
        def value(self, X):
            return np.asarray(X).copy()

    with pytest.raises(ValueError, match="oracle.value returned shape"):
        eng.run_sgd(TallOracle(), eng.Interval(-1.0, 1.0),
                    eng.StepSchedule("constant", value=0.5), np.array([0.0]), T=3)


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


# ------------------------------------------------------------ pass-through
# A step whose answer is all +0.0 at a point the ball projection passed
# through yields the same array again.  The reference is the plain step
# project(x - eta*g) on a copy, compared on raw bits.

def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class ScriptOracle(ZeroOracle):
    """Answers the t-th entry of a script (zeros past its end) and logs
    every call."""

    def __init__(self, script, d):
        self.script, self.d, self.calls = script, d, []

    def subgradient(self, x, t):
        self.calls.append(t)
        return np.array(self.script[t - 1] if t <= len(self.script) else np.zeros(self.d),
                        dtype=float)


def _reference_steps(script, ball, schedule, x1, T):
    etas = schedule.sizes(T)
    x, out = np.array(x1, dtype=float), []
    for t in range(1, T + 1):
        g = np.array(script[t - 1] if t <= len(script) else np.zeros(ball.dim), dtype=float)
        x = np.asarray(ball.project((x - etas[t - 1] * g).copy()), dtype=float).copy()
        out.append(x)
    return out


def test_pass_through_yields_the_same_array_at_a_fixed_point():
    oracle = ScriptOracle([], 3)
    steps = list(eng.sgd_steps(oracle, eng.Ball(1.0, 3), eng.StepSchedule("inv_t"),
                               np.array([0.25, -0.0, 0.5]), T=6))
    xs = [x for _, _, x in steps]
    assert xs[1] is not xs[0]       # step 1 always projects
    assert all(x is xs[1] for x in xs[2:])
    assert oracle.calls == [1, 2, 3, 4, 5, 6]
    for x in xs:
        assert np.array_equal(_bits(x), _bits([0.25, -0.0, 0.5]))


def test_pass_through_matches_the_plain_step_signed_zeros_included():
    # -0.0 coordinates survive +0.0 answers; a -0.0 answer is not a
    # pass-through (x - eta*(-0.0) turns -0.0 into +0.0); moves in between
    ball, sched, T = eng.Ball(1.0, 3), eng.StepSchedule("inv_sqrt_t"), 12
    z, m = [0.0, 0.0, 0.0], [0.0, -0.0, 0.0]
    script = [z, z, [0.5, 0.0, -0.25], z, z, m, z, [-0.0, -0.0, -0.0], z, [0.0, 3.0, 0.0], z]
    x1 = np.array([-0.0, -0.0, 0.125])
    got = [x.copy() for _, _, x in eng.sgd_steps(ScriptOracle(script, 3), ball, sched, x1, T)]
    want = [x1] + _reference_steps(script, ball, sched, x1, T)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))
    assert np.signbit(got[2][:2]).all()           # -0.0 kept by +0.0 answers
    assert got[5][1] == 0.0 and np.signbit(got[5][1])
    assert got[6][1] == 0.0 and not np.signbit(got[6][1])   # after the -0.0 answer


def test_x1_inside_only_by_the_slack_is_projected_at_step_1():
    ball = eng.Ball(1.0, 2)
    x1 = np.array([1.0 + 5e-13, 0.0])
    assert ball.contains(x1) and eng.euclidean_norm(x1) > 1.0
    xs = [x for _, _, x in eng.sgd_steps(ScriptOracle([], 2), ball,
                                          eng.StepSchedule("inv_t"), x1, T=3)]
    assert np.array_equal(_bits(xs[1]), _bits(x1 * (1.0 / eng.euclidean_norm(x1))))
    assert eng.euclidean_norm(xs[1]) <= 1.0
    # a scaled point is a new array, so the next step computes once more
    assert np.array_equal(_bits(xs[2]), _bits(xs[1])) and xs[3] is xs[2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_answer_after_zeros_raises_at_its_step(bad):
    script = [[0.0, 0.0]] * 4 + [[0.0, bad]]
    oracle = ScriptOracle(script, 2)
    steps = eng.sgd_steps(oracle, eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                          np.zeros(2), T=8)
    assert [t for t, _, _ in itertools.islice(steps, 5)] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="non-finite subgradient at step 5"):
        next(steps)
    assert oracle.calls == [1, 2, 3, 4, 5]


def test_one_oracle_call_per_step_with_pass_through():
    oracle = ScriptOracle([[0.0, 0.0]] * 3 + [[0.1, 0.0]], 2)
    tr = eng.run_sgd(oracle, eng.Ball(1.0, 2), eng.StepSchedule("inv_t"),
                     np.array([0.0, -0.0]), T=9)
    assert oracle.calls == list(range(1, 10))
    assert np.array_equal(_bits(tr.gradients[3]), _bits([0.1, 0.0]))


# ------------------------------------------------------------ float form
# One point of shape (1,) on an Interval steps in Python floats; a (1, 1)
# batch takes the array step.  Both must give the same bits, above all where
# x - eta*g lands on a signed zero at a zero bound: np.maximum(lo, y) and
# np.minimum(hi, y) return y on a tie, not the bound.

class ShapedScript:
    """Answers the t-th float of a script, shaped like the point asked."""

    def __init__(self, script):
        self.script = script

    def subgradient(self, x, t):
        return np.full(x.shape, self.script[t - 1])


_ZERO_BOUNDS = [(-0.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-1.0, -0.0)]
_ANSWERS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 4.0, -4.0, 5e-324, -5e-324]


def _float_and_array_runs(oracle, interval, schedule, x1, T):
    """Bytes of (g, x) at every step of a (1,) run and of a (1, 1) batch."""
    return [[(None if g is None else g.tobytes(), x.tobytes())
             for _, g, x in eng.sgd_steps(oracle, interval, schedule, np.full(shape, x1), T)]
            for shape in ((1,), (1, 1))]


@pytest.mark.parametrize("bounds", _ZERO_BOUNDS)
def test_float_form_matches_the_array_step_on_raw_bits(bounds):
    lo, hi = bounds
    iv = eng.Interval(lo, hi)
    rng = np.random.default_rng(0)
    schedules = [eng.StepSchedule("constant", value=0.5), eng.StepSchedule("inv_t")]
    for x1 in (lo, hi, -lo, -hi, 0.5 * (lo + hi)):
        if not iv.contains(x1):
            continue
        for sched in schedules:
            for answer in _ANSWERS:     # T = 1 from each start, bounds included
                single, batch = _float_and_array_runs(ShapedScript([answer]), iv, sched, x1, 1)
                assert single == batch, (x1, answer)
            for _ in range(20):
                script = rng.choice(_ANSWERS, 30).tolist()
                single, batch = _float_and_array_runs(ShapedScript(script), iv, sched, x1, 30)
                assert single == batch, (x1, script)


def test_float_form_steps_from_x_as_the_oracle_left_it():
    class Nudging(ShapedScript):
        def subgradient(self, x, t):
            x[...] = 0.25 * t           # an oracle that writes into its query
            return super().subgradient(x, t)

    single, batch = _float_and_array_runs(Nudging([0.5, -0.5, 1.0]), eng.Interval(-1.0, 1.0),
                                          eng.StepSchedule("inv_t"), 0.0, 3)
    assert single == batch
    assert single[1][1] == np.array([0.25 - 0.5]).tobytes()


def test_float_form_keeps_a_signed_zero_on_a_zero_bound():
    half = eng.StepSchedule("constant", value=0.5)

    def last(lo, hi, x1, script):
        *_, (_, _, x) = eng.sgd_steps(ShapedScript(script), eng.Interval(lo, hi), half,
                                      np.array([x1]), len(script))
        return x

    # 0.5 - 0.5*1 is +0.0, which ties lo = -0.0: +0.0 stays
    x = last(-0.0, 1.0, 0.5, [1.0])
    assert x[0] == 0.0 and not np.signbit(x[0])
    # from x1 = lo = -0.0, -0.0 - 0.5*(-0.0) is +0.0: +0.0 stays
    x = last(-0.0, 1.0, -0.0, [-0.0])
    assert x[0] == 0.0 and not np.signbit(x[0])
    # from x1 = -0.0 on hi = +0.0, -0.0 - 0.5*0.0 is -0.0: -0.0 stays
    x = last(-1.0, 0.0, -0.0, [0.0])
    assert x[0] == 0.0 and np.signbit(x[0])
    # past a bound the bound itself comes back
    assert _bits(last(-0.0, 1.0, 0.5, [2.0])) == _bits([-0.0])
    assert _bits(last(-1.0, 0.0, -0.5, [-2.0])) == _bits([0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_form_rejects_a_non_finite_answer_like_the_array_step(bad):
    for shape in ((1,), (1, 1)):
        steps = eng.sgd_steps(ShapedScript([0.5, -0.5, bad, 0.0]), eng.Interval(-1.0, 1.0),
                              eng.StepSchedule("inv_t"), np.zeros(shape), T=4)
        assert [t for t, _, _ in itertools.islice(steps, 3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="^oracle returned a non-finite subgradient "
                                             "at step 3$"):
            next(steps)


def test_float_form_rejects_a_wrong_shape_like_the_array_step():
    class Wide:
        def subgradient(self, x, t):
            return np.zeros(3)

    for shape in ((1,), (1, 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"oracle returned shape (3,), expected {shape}")):
            list(eng.sgd_steps(Wide(), eng.Interval(-1.0, 1.0), eng.StepSchedule("inv_t"),
                               np.zeros(shape), T=2))


def test_ball_project_returns_an_inside_point_itself():
    ball = eng.Ball(0.5, 4)
    x = np.array([0.25, -0.0, -0.25, 0.0])
    bits = _bits(x).copy()
    assert ball.project(x) is x
    assert np.array_equal(_bits(x), bits)
    edge = np.array([0.5, 0.0, -0.0, 0.0])           # on the sphere: inside
    assert ball.project(edge) is edge
    outside = np.array([0.5, 1e-6, 0.0, 0.0])
    px = ball.project(outside)
    assert px is not outside and eng.euclidean_norm(px) <= 0.5
    listed = ball.project([0.25, -0.0, 0.0, 0.0])   # a list becomes a new float array
    assert np.array_equal(_bits(listed), _bits([0.25, -0.0, 0.0, 0.0]))
    # an Interval projection never returns its input
    iv, y = eng.Interval(-1.0, 1.0), np.array([0.5])
    assert iv.project(y) is not y


# ---------------------------------------------------------------------- CSV

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


# ----------------------------------------------------------- package surface

def test_star_import_exports_no_modules():
    import types

    import lastiter

    namespace = {}
    exec("from lastiter import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(lastiter.__all__)
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]

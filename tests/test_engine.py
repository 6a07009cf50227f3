import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastiter import engine as eng
from lastiter import nearly_linear as nl
from lastiter import walk as wk


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
        return 1.0


class CoinOracle:
    """Stochastic +/-1 oracle used to pin down determinism under reset."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)

    def value(self, X):
        return np.zeros(len(X))

    def subgradient(self, x, t):
        return 1.0 if self._rng.random() < 0.5 else -1.0


# ---------------------------------------------------------------- schedules

def test_schedule_exact_values():
    assert eng.StepSchedule("inv_t").sizes(4)[3] == 0.25
    assert eng.StepSchedule("inv_sqrt_t").sizes(9)[8] == 1.0 / 3.0
    assert eng.StepSchedule("constant", value=0.5).sizes(123456)[-1] == 0.5
    # the engine evaluates a run's step sizes once, as an array; it must
    # match the scalar formula at each step bit for bit for every kind
    T = 5000
    for s, eta in ((eng.StepSchedule("inv_t"), lambda t: 1.0 / t),
                   (eng.StepSchedule("inv_sqrt_t"), lambda t: 1.0 / math.sqrt(t)),
                   (eng.StepSchedule("constant", value=0.3), lambda t: 0.3)):
        assert s.sizes(T).tolist() == [eta(t) for t in range(1, T + 1)], s.kind
        # a window eta_first..eta_T is the tail of the full array, bit for bit
        for first in (1, 2, T):
            got, want = s.sizes(T, first), s.sizes(T)[first - 1:]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (s.kind, first)
        # and a window eta_first..eta_last is its slice
        for first, last in ((1, 1), (2, T - 1), (T, T), (7, 4102)):
            got, want = s.sizes(T, first, last), s.sizes(T)[first - 1:last]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (s.kind, first, last)
        # at the largest T with exact step indices a few sizes need no T floats
        big = 2 ** 53 - 1
        tracemalloc.start()
        try:
            tail = s.sizes(big, big - 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tail.tolist() == [eta(t) for t in range(big - 2, big + 1)], s.kind
        assert peak < 1 << 16, (s.kind, peak)


def test_schedule_range_and_validation():
    s = eng.StepSchedule("inv_t")
    assert s.sizes(10).shape == (10,)
    with pytest.raises(ValueError):
        s.sizes(0)
    for first in (0, 11):
        with pytest.raises(ValueError, match="need 1 <= first <= T"):
            s.sizes(10, first)
    for last in (4, 11):
        with pytest.raises(ValueError, match="need first <= last <= T"):
            s.sizes(10, 5, last)
    for value in (None, 0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite positive value"):
            eng.StepSchedule("constant", value=value)
    with pytest.raises(ValueError):
        eng.StepSchedule("bogus")


@pytest.mark.parametrize("block", [1, 7, 4096, 10 ** 6])
def test_step_sizes_in_blocks_are_the_schedule(block, monkeypatch):
    # a run's sizes come STEP_BLOCK at a time as Python floats; chained,
    # they are sizes(T) bit for bit, whatever the block and a ragged last one
    monkeypatch.setattr(eng, "STEP_BLOCK", block)
    T = 10_007
    for s in (eng.StepSchedule("inv_t"), eng.StepSchedule("inv_sqrt_t"),
              eng.StepSchedule("constant", value=0.3)):
        got = list(eng._step_sizes(s, T))
        assert all(type(eta) is float for eta in got)
        assert np.array_equal(np.array(got).view(np.uint64), s.sizes(T).view(np.uint64))


def test_run_needs_at_least_one_step():
    for steps in (lambda: eng.run_sgd(LinearOracle(), eng.Interval(-1.0, 1.0),
                                      eng.StepSchedule("inv_t"), [0.0], 0),
                  lambda: next(eng.sgd_steps(LinearOracle(), eng.Ball(1.0, 1),
                                             eng.StepSchedule("inv_t"), [0.0], 0))):
        with pytest.raises(ValueError, match="need T >= 1, got T=0"):
            steps()


def test_schedule_positive():
    # every step size of a run of 10^6 steps
    for s in (eng.StepSchedule("inv_t"), eng.StepSchedule("inv_sqrt_t"),
              eng.StepSchedule("constant", value=1.0 / math.sqrt(10 ** 6))):
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

    # on an Interval subclass the array step takes a plain float at d = 1
    sc = eng.run_sgd(LinearOracle(), Subinterval(-1.0, 1.0),
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
# run_sgd records a path on a plain Interval in Python floats, asking its
# oracle for a float at a float; sgd_steps takes the array step for a (1,)
# point and for a (1, 1) batch, and so does run_sgd on an Interval subclass.
# All must give the same bits, above all where x - eta*g lands on a signed
# zero at a zero bound: np.maximum(lo, y) and np.minimum(hi, y) return y on
# a tie, not the bound.

class Subinterval(eng.Interval):
    """An Interval subclass, whose projection may differ: run_sgd takes the
    array step on it."""


class ShapedScript:
    """Answers the t-th float of a script, as a float at a float and as an
    array shaped like any other point asked, and records the steps of each
    kind apart."""

    def __init__(self, script):
        self.script = script
        self.reset(0)

    def reset(self, seed):
        self.calls = []
        self.float_calls = []

    def subgradient(self, x, t):
        if type(x) is float:
            self.float_calls.append(t)
            return self.script[t - 1]
        self.calls.append(t)
        return np.full(x.shape, self.script[t - 1])

    def value(self, X):
        return np.zeros(len(X))


_ZERO_BOUNDS = [(-0.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-1.0, -0.0)]
_ANSWERS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 4.0, -4.0, 5e-324, -5e-324]


def _float_and_array_runs(oracle, interval, schedule, x1, T):
    """Bytes of (g, x) at every step of three runs: the array step of
    sgd_steps from a (1,) point and from a (1, 1) batch, and the rows run_sgd
    records from the (1,) point, in its float form on a plain Interval
    (checked: the oracle is asked only floats), else by the array step."""
    runs = [[(None if g is None else g.tobytes(), x.tobytes())
             for _, g, x in eng.sgd_steps(oracle, interval, schedule, np.full(shape, x1), T)]
            for shape in ((1,), (1, 1))]
    tr = eng.run_sgd(oracle, interval, schedule, np.full((1,), x1), T)
    steps = list(range(1, T + 1))
    if type(interval) is eng.Interval:
        assert oracle.float_calls == steps and oracle.calls == []
    else:
        assert oracle.calls == steps and oracle.float_calls == []
    runs.append([(None, tr.iterates[0].tobytes())]
                + [(g.tobytes(), x.tobytes()) for g, x in zip(tr.gradients, tr.iterates[1:])])
    return runs


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
                single, batch, recorded = _float_and_array_runs(ShapedScript([answer]), iv,
                                                                sched, x1, 1)
                assert single == batch == recorded, (x1, answer)
            for _ in range(20):
                script = rng.choice(_ANSWERS, 30).tolist()
                single, batch, recorded = _float_and_array_runs(ShapedScript(script), iv,
                                                                sched, x1, 30)
                assert single == batch == recorded, (x1, script)


def test_float_capable_oracle_takes_the_array_step_off_a_plain_interval():
    # an Interval subclass may project otherwise, and a (1, 1) batch streams
    # through sgd_steps: both take the array step, with the float form's bits
    sched, script = eng.StepSchedule("inv_t"), [0.5, -2.0, 5e-324, -0.0, 4.0, 0.25]
    T = len(script)
    plain = eng.run_sgd(ShapedScript(script), eng.Interval(-1.0, 1.0), sched, np.zeros(1), T)
    oracle = ShapedScript(script)
    sub = eng.run_sgd(oracle, Subinterval(-1.0, 1.0), sched, np.zeros(1), T)
    assert oracle.calls == list(range(1, T + 1)) and oracle.float_calls == []
    assert sub.iterates.tobytes() == plain.iterates.tobytes()
    assert sub.gradients.tobytes() == plain.gradients.tobytes()
    batch = [x.tobytes() for _, _, x in eng.sgd_steps(oracle, eng.Interval(-1.0, 1.0), sched,
                                                       np.zeros((1, 1)), T)]
    assert oracle.calls == list(range(1, T + 1)) and oracle.float_calls == []
    assert batch == [x.tobytes() for x in plain.iterates]


def test_run_sgd_array_step_on_an_interval_steps_from_x_as_the_oracle_left_it():
    class Nudging(ShapedScript):
        def subgradient(self, x, t):
            x[...] = 0.25 * t           # an oracle that writes into its query
            return super().subgradient(x, t)

    single, batch, recorded = _float_and_array_runs(
        Nudging([0.5, -0.5, 1.0]), Subinterval(-1.0, 1.0), eng.StepSchedule("inv_t"), 0.0, 3)
    assert single == batch == recorded
    assert single[1][1] == np.array([0.25 - 0.5]).tobytes()


@pytest.mark.parametrize("answer", [lambda x: x, lambda x: x[...]], ids=["itself", "view"])
def test_run_sgd_array_step_on_an_interval_keeps_an_answer_that_is_the_query(answer):
    # an answer that shares the point it was asked about is recorded as it
    # was given, not as the point moves on
    class Echo(ShapedScript):
        def subgradient(self, x, t):
            self.calls.append(t)
            return answer(x)

    single, batch, recorded = _float_and_array_runs(
        Echo([]), Subinterval(-1.0, 1.0), eng.StepSchedule("inv_t"), 0.75, 5)
    assert single == batch == recorded
    assert all(g == x for (_, x), (g, _) in zip(single, single[1:]))   # g_t = x_t


def test_float_form_keeps_a_signed_zero_on_a_zero_bound():
    half = eng.StepSchedule("constant", value=0.5)

    def last(lo, hi, x1, script):
        # the array step of sgd_steps and the float form of run_sgd agree
        iv, x1 = eng.Interval(lo, hi), np.array([x1])
        *_, (_, _, x) = eng.sgd_steps(ShapedScript(script), iv, half, x1, len(script))
        recorded = eng.run_sgd(ShapedScript(script), iv, half, x1, len(script)).iterates[-1]
        assert np.array_equal(_bits(recorded), _bits(x))
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
    # run_sgd's float form meets the float answer at the same step, and asks
    # nothing after it
    oracle = ShapedScript([0.5, -0.5, bad, 0.0])
    with pytest.raises(ValueError, match="^oracle returned a non-finite subgradient at step 3$"):
        eng.run_sgd(oracle, eng.Interval(-1.0, 1.0), eng.StepSchedule("inv_t"), np.zeros(1), T=4)
    assert oracle.float_calls == [1, 2, 3] and oracle.calls == []


def test_run_sgd_array_step_on_an_interval_rejects_a_wrong_shape():
    class Wide:
        def subgradient(self, x, t):
            return np.zeros(3)

    for shape in ((1,), (1, 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"oracle returned shape (3,), expected {shape}")):
            list(eng.sgd_steps(Wide(), eng.Interval(-1.0, 1.0), eng.StepSchedule("inv_t"),
                               np.zeros(shape), T=2))
    with pytest.raises(ValueError, match=re.escape("oracle returned shape (3,), expected (1,)")):
        eng.run_sgd(Wide(), Subinterval(-1.0, 1.0), eng.StepSchedule("inv_t"), np.zeros(1), T=2)


def test_run_sgd_array_step_on_an_interval_takes_a_0d_answer():
    class Scalar(ShapedScript):
        def subgradient(self, x, t):
            return np.float64(super().subgradient(x, t)[0])

    iv, sched, script = eng.Interval(-1.0, 1.0), eng.StepSchedule("inv_t"), [0.5, -2.0, 0.25]
    tr = eng.run_sgd(Scalar(script), Subinterval(-1.0, 1.0), sched, np.zeros(1), T=3)
    streamed = [x.tobytes() for _, _, x in eng.sgd_steps(Scalar(script), iv, sched,
                                                          np.zeros(1), T=3)]
    assert [x.tobytes() for x in tr.iterates] == streamed
    assert tr.gradients.ravel().tolist() == script


class Forwarding:
    """Forwards ``reset``, ``value`` and ``subgradient`` to an oracle, as a
    timing proxy does, and records the type of every point asked."""

    def __init__(self, oracle):
        self._oracle, self.asked = oracle, set()

    def reset(self, seed):
        self._oracle.reset(seed)

    def value(self, X):
        return self._oracle.value(X)

    def subgradient(self, x, t):
        self.asked.add(type(x))
        return self._oracle.subgradient(x, t)


def _grid_sign_run():
    chain = wk.make_chain(np.linspace(0.5, 1.0, 41))
    return (lambda: wk.GridSignOracle(chain, abs), eng.Interval(0.0, 1.0),
            eng.StepSchedule("constant", value=1.0 / 40), 1.0)


def _nearly_linear_run():
    inst = nl.build_nearly_linear("asym_abs", 2.0, 1.0, 0.5, band_ratio=0.5)
    return (lambda: nl.NearlyLinearOracle(inst, trial=3), eng.Interval(inst.lo, inst.hi),
            eng.StepSchedule("constant", value=0.05), 0.5)


@pytest.mark.parametrize("run", [_grid_sign_run, _nearly_linear_run],
                         ids=["grid_sign", "nearly_linear"])
def test_a_forwarding_oracle_runs_the_float_form_of_the_bare_oracle(run):
    # a wrapper with only the protocol's methods is asked Python floats on a
    # plain Interval and records the bare oracle's trace bit for bit, across
    # tile edges of the two-point oracle's uniforms
    make, iv, sched, x1 = run()
    T = 2 * nl.TILE + 1
    bare = eng.run_sgd(make(), iv, sched, np.array([x1]), T, seed=5)
    proxy = Forwarding(make())
    wrapped = eng.run_sgd(proxy, iv, sched, np.array([x1]), T, seed=5)
    assert proxy.asked == {float}
    for name in ("iterates", "gradients", "values"):
        assert getattr(wrapped, name).tobytes() == getattr(bare, name).tobytes(), name
    assert set(bare.gradients[:, 0].tolist()) == {-1.0, 1.0}


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

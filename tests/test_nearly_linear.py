import math

import numpy as np
import pytest

from lastiter import nearly_linear as nl
from lastiter import walk as wk


def abs_instance(epsilon=0.5):
    return nl.build_nearly_linear("abs", 1.0, 1.0, epsilon)


# ------------------------------------------------------------------ building

def test_abs_instance_values_and_means():
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.1)
    assert float(inst.f(0.3)) == pytest.approx(0.03, abs=1e-15)
    assert float(inst.mean_grad(0.3)) == 0.1
    assert float(inst.mean_grad(-0.3)) == -0.1
    # right-derivative convention at the minimum
    assert float(inst.mean_grad(0.0)) == 0.1
    assert float(inst.f(0.0)) == 0.0


def test_asym_abs_slopes():
    inst = nl.build_nearly_linear("asym_abs", 1.0, 1.0, 0.2, band_ratio=0.5)
    np.testing.assert_array_equal(inst.slopes, [-0.1, 0.2])
    assert float(inst.f(-0.5)) == pytest.approx(0.05)
    assert float(inst.f(0.5)) == pytest.approx(0.1)


def test_piecewise_shape_and_band_validation():
    inst = nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                                  knots=[-0.5, 0.5], slopes=[-0.4, -0.2, 0.2, 0.4])
    assert float(inst.f(0.0)) == 0.0
    assert float(inst.mean_grad(0.7)) == 0.4
    # reference lookup: last knot <= x, clamped to the segments; knots exactly
    # and points beyond both ends included
    xs = np.concatenate([np.linspace(-1.5, 1.5, 301), inst.knots])
    idx = np.clip(np.searchsorted(inst.knots, xs, side="right") - 1,
                  0, inst.slopes.shape[0] - 1)
    assert np.array_equal(inst.mean_grad(xs), inst.slopes[idx])

    with pytest.raises(ValueError):  # slope above eps*G
        nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                               knots=[0.5], slopes=[-0.4, 0.2, 0.5])
    with pytest.raises(ValueError):  # slope magnitude below the band floor
        nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                               knots=[0.5], slopes=[-0.4, 0.1, 0.4])
    with pytest.raises(ValueError):  # decreasing slopes: not convex
        nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                               knots=[0.5], slopes=[-0.2, 0.4, 0.3])
    with pytest.raises(ValueError):  # positive slope left of the minimum
        nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                               knots=[-0.5], slopes=[0.2, 0.3, 0.4])


def test_build_parameter_validation():
    with pytest.raises(ValueError):
        nl.build_nearly_linear("abs", 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        nl.build_nearly_linear("abs", 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        nl.build_nearly_linear("abs", -1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        nl.build_nearly_linear("bogus", 1.0, 1.0, 0.5)


# ------------------------------------------------------------------ good set

def test_good_set_covers_domain_for_shallow_slopes():
    # threshold 0.1 with slope 0.1: the sublevel set is the whole domain
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.1)
    gs = nl.good_set(inst, 100)
    assert gs.left == inst.lo and gs.right == inst.hi


def test_good_set_interval_for_steep_slopes():
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 1.0)
    gs = nl.good_set(inst, 100)
    assert gs.left == pytest.approx(-0.1, abs=1e-9)
    assert gs.right == pytest.approx(0.1, abs=1e-9)


def test_good_set_shrinks_with_horizon():
    inst = abs_instance()
    widths = [nl.good_set(inst, T).right - nl.good_set(inst, T).left
              for T in (100, 400, 1600, 6400)]
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


# ------------------------------------------------------------------- oracle

def test_oracle_draws_are_bounded_and_unbiased():
    inst = abs_instance()
    x = 0.4
    rng = nl.trial_stream(0, 0)
    draws = np.where(rng.random(100_000) < float(inst.plus_prob(x)), 1.0, -1.0)
    assert np.all(np.abs(draws) <= inst.grad_bound)  # exactly bounded
    mean = draws.mean()
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    sub = float(inst.mean_grad(x))
    assert abs(mean - sub) <= 4 * se
    band = (inst.band_ratio * inst.epsilon * inst.grad_bound,
            inst.epsilon * inst.grad_bound)
    assert band[0] - 4 * se <= abs(mean) <= band[1] + 4 * se


# --------------------------------------------------------------- simulation

def test_paths_are_reproducible_and_chunk_independent():
    inst = abs_instance()
    a = nl.simulate_paths(inst, 100, 64, 0.5, seed=1, chunk=7)
    b = nl.simulate_paths(inst, 100, 64, 0.5, seed=1, chunk=64)
    c = nl.simulate_paths(inst, 100, 64, 0.5, seed=2, chunk=64)
    assert np.array_equal(a.final_x, b.final_x)
    assert np.array_equal(a.last_visit, b.last_visit)
    assert not np.array_equal(a.final_x, c.final_x)


def test_single_vectorized_path_equals_engine_path():
    inst = abs_instance()
    stats = nl.simulate_paths(inst, 250, 10, 0.5, seed=3, chunk=4)
    for trial in (0, 6, 9):
        trace = nl.path_via_engine(inst, 250, 0.5, seed=3, trial=trial)
        assert trace.final[0] == stats.final_x[trial]


def test_batched_paths_cross_tiles_like_engine_paths():
    # a horizon spanning several tiles of uniforms, batches of 7 trials; each
    # path answers step t with the t-th uniform of its own (seed, trial) stream
    inst = abs_instance()
    T = 2 * nl.TILE + 37
    stats = nl.simulate_paths(inst, T, 20, 0.5, seed=5, chunk=7)
    for trial in (0, 6, 7, 13, 19):
        trace = nl.path_via_engine(inst, T, 0.5, seed=5, trial=trial)
        xs = trace.iterates[:, 0]
        u = nl.trial_stream(5, trial).random(T)
        assert np.array_equal(trace.gradients[:, 0],
                              np.where(u < inst.plus_prob(xs[:-1]), 1.0, -1.0))
        hits = np.flatnonzero(inst.f(xs) <= stats.threshold)
        assert xs[-1] == stats.final_x[trial]
        assert (hits[-1] if hits.size else -1) == stats.last_visit[trial]


def test_start_at_minimum_hits_good_set_immediately():
    inst = abs_instance()
    stats = nl.simulate_paths(inst, 50, 500, 0.0, seed=0)
    assert stats.never_hit_count == 0
    assert np.all(stats.last_visit >= 0)


def test_simulate_validates_arguments():
    inst = abs_instance()
    with pytest.raises(ValueError):
        nl.simulate_paths(inst, 50, 0, 0.0)
    with pytest.raises(ValueError):
        nl.simulate_paths(inst, 50, 10, 7.0)


# --------------------------------------------------------------- statistics

def test_expected_suboptimality_all_paths_at_minimum():
    stats = nl.PathStats(T=10, trials=200, x0=0.0, seed=0, step=0.1,
                         threshold=0.1, final_x=np.zeros(200),
                         final_subopt=np.zeros(200),
                         last_visit=np.zeros(200, dtype=np.int64))
    assert nl.expected_suboptimality(stats) == (0.0, 0.0)


def test_expected_suboptimality_needs_trials():
    stats = nl.simulate_paths(abs_instance(), 50, 50, 0.25, seed=0)
    with pytest.raises(ValueError):
        nl.expected_suboptimality(stats)


def test_tail_estimate_rows_and_rate():
    stats = nl.simulate_paths(abs_instance(), 400, 20_000, 0.5, seed=0)
    tail = nl.tail_estimate(stats)
    rows = tail.to_rows()
    assert rows[0][0] == 0 and rows[0][1] <= 1.0
    probs = [p for _, p in rows]
    assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))  # tail is monotone
    assert tail.rate < -0.1


def test_tail_estimate_insufficient_trials():
    stats = nl.simulate_paths(abs_instance(), 400, 20, 0.5, seed=0)
    with pytest.raises(ValueError):
        nl.tail_estimate(stats)


def test_scaling_and_never_hit_in_stochastic_regime():
    # at epsilon = 1/2 the walk is genuinely random, the good set contains a
    # lattice point at every horizon, and the O(1/sqrt(T)) scaling shows up
    inst = abs_instance(0.5)
    ratios = []
    fractions = []
    for T in (100, 400, 1600):
        stats = nl.simulate_paths(inst, T, 2000, 0.5, seed=0)
        mean, _ = nl.expected_suboptimality(stats)
        ratios.append(mean * math.sqrt(T))
        fractions.append(stats.never_hit_fraction)
    assert max(ratios) / min(ratios) <= 2.0
    assert all(f2 <= f1 for f1, f2 in zip(fractions, fractions[1:]))
    assert fractions[-1] == 0.0


def test_deterministic_start_inside_target_set():
    # epsilon = 1 from the minimum: the oracle is deterministic and the path
    # bounces between 0 and -eta, so the large-deviation bins stay empty
    inst = abs_instance(1.0)
    stats = nl.simulate_paths(inst, 400, 200, 0.0, seed=0)
    assert float(np.mean(stats.final_subopt >= 3 * stats.threshold)) < 0.05
    assert stats.never_hit_count == 0


def test_degenerate_oracle_at_epsilon_one():
    # epsilon = 1: |s(x)| = G everywhere, so the oracle is deterministic and
    # every trial from x0 = D/2 follows the same zigzag
    inst = abs_instance(1.0)
    probs = inst.plus_prob(np.linspace(inst.lo, inst.hi, 1001))
    assert set(np.unique(probs).tolist()) == {0.0, 1.0}
    for T in (100, 400, 1600, 6400):
        stats = nl.simulate_paths(inst, T, 200, 0.5, seed=0)
        assert np.all(stats.final_x == stats.final_x[0])
    # at T = 400 the iterates stay on the lattice {+/-0.1, +/-0.3, +/-0.5};
    # S has half-width D/(epsilon sqrt(T)) and holds +/-0.1 only if epsilon <= 1/2
    for epsilon in (1.0, 0.6):
        stats = nl.simulate_paths(abs_instance(epsilon), 400, 200, 0.5, seed=0)
        assert stats.never_hit_count == stats.trials


def test_cross_check_against_stationary_walk():
    # restricted-oracle dynamics on the [0, 1] grid: the Monte Carlo long-run
    # mean must land on the product-form stationary value
    n = 20
    f, df = wk.profile("linear", slope=0.5)
    chain = wk.chain_from_function(f, n, subgradient=df)
    trace = wk.simulate_chain_sgd(chain, f, steps=50 * n * n, seed=0, start=1.0)
    emp = wk.long_run_suboptimality(trace, burn_in=n * n)
    stat = wk.stationary_suboptimality(chain, f)
    assert abs(emp - stat) <= 0.01

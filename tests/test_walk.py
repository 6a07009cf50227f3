import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastiter import walk as wk
from reference_routes import matrix


def monotone_profiles(n):
    return st.lists(st.floats(0.5, 1.0), min_size=n + 1, max_size=n + 1).map(sorted)


# ------------------------------------------------------------- construction

def test_transition_matrix_pattern_and_row_sums():
    ch = wk.make_chain([0.75, 0.75, 0.75])
    expected = np.array([[0.75, 0.25, 0.0],
                         [0.75, 0.0, 0.25],
                         [0.0, 0.75, 0.25]])
    np.testing.assert_array_equal(matrix(ch), expected)
    # 1 - a is exact for a in [1/2, 1], so the row sums are exactly 1
    np.testing.assert_array_equal(matrix(ch).sum(axis=1), np.ones(3))


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_tridiagonal_step_matches_dense_product(n):
    rng = np.random.default_rng(n)
    profiles = [np.sort(rng.uniform(0.5, 1.0, n + 1)),
                np.concatenate((np.sort(rng.uniform(0.5, 1.0, n)), [1.0]))]
    for a in profiles:
        ch = wk.make_chain(a)
        p = rng.dirichlet(np.ones(n + 1))
        q = wk._step(p, *wk._diagonals(ch.left_probs))
        np.testing.assert_allclose(q, p @ matrix(ch), rtol=0, atol=1e-15)


def test_make_chain_validation():
    with pytest.raises(ValueError):
        wk.make_chain([0.75, 0.6, 0.8])       # not monotone
    with pytest.raises(ValueError):
        wk.make_chain([0.3, 0.6, 0.8])        # below 1/2
    with pytest.raises(ValueError):
        wk.make_chain([0.6, 0.8, 1.2])        # above 1
    with pytest.raises(ValueError):
        wk.make_chain([0.6])                  # single point
    for a in ([math.nan, 0.7, 0.8], [0.6, math.nan, 0.8], [0.6, 0.7, math.nan]):
        with pytest.raises(ValueError):
            wk.make_chain(a)


def test_chain_from_function_examples():
    f, df = wk.profile("linear", slope=0.5)
    ch = wk.chain_from_function(f, 10, subgradient=df)
    np.testing.assert_array_equal(ch.left_probs, np.full(11, 0.75))

    f, df = wk.profile("linear", slope=1.0)
    ch = wk.chain_from_function(f, 10, subgradient=df)
    np.testing.assert_array_equal(ch.left_probs, np.ones(11))

    f, df = wk.profile("quadratic")
    ch = wk.chain_from_function(f, 10, subgradient=df)
    np.testing.assert_allclose(ch.left_probs, (1 + np.arange(11) / 10) / 2,
                               rtol=0, atol=1e-16)


def test_chain_from_function_numeric_fallback():
    f, df = wk.profile("quadratic")
    exact = wk.chain_from_function(f, 10, subgradient=df)
    approx = wk.chain_from_function(f, 10)
    np.testing.assert_allclose(approx.left_probs, exact.left_probs, atol=1e-6)


def test_chain_from_function_rejects_invalid_f():
    with pytest.raises(ValueError):
        wk.chain_from_function(lambda x: -x, 10, subgradient=lambda x: -1.0)
    with pytest.raises(ValueError):
        # concave: slopes decrease
        wk.chain_from_function(np.sqrt, 10, subgradient=lambda x: 1.0 - 0.5 * x)
    with pytest.raises(ValueError):
        wk.chain_from_function(lambda x: 0.5 * x, 4, subgradient=lambda x: math.nan)
    with pytest.raises(ValueError):
        # NaN from f reaches the difference quotients
        wk.chain_from_function(lambda x: np.where(x > 0.5, math.nan, x), 4)


# ----------------------------------------------------------- stationary law

def test_uniform_profile_gives_uniform_stationary():
    ch = wk.make_chain(np.full(11, 0.5))
    res = wk.stationary_closed_form(ch)
    np.testing.assert_allclose(res.p, np.full(11, 1 / 11), rtol=0, atol=1e-15)
    assert res.residual <= 1e-15


def test_always_left_concentrates_at_zero():
    ch = wk.make_chain(np.ones(11))
    res = wk.stationary_closed_form(ch)
    expected = np.zeros(11)
    expected[0] = 1.0
    np.testing.assert_array_equal(res.p, expected)


def test_three_state_chain_hand_solution():
    ch = wk.make_chain([0.75, 0.75, 0.75])
    res = wk.stationary_closed_form(ch)
    np.testing.assert_allclose(res.p, np.array([9, 3, 1]) / 13, rtol=0, atol=1e-15)

    # independent oracle: eigenvector of P^T for eigenvalue 1
    w, v = np.linalg.eig(matrix(ch).T)
    k = int(np.argmin(np.abs(w - 1.0)))
    p_eig = np.real(v[:, k])
    p_eig /= p_eig.sum()
    np.testing.assert_allclose(res.p, p_eig, atol=1e-12)


def test_solvers_agree_with_closed_form():
    ch = wk.make_chain([0.6, 0.7, 0.8, 0.9, 0.95])
    cf = wk.stationary_closed_form(ch)
    ls = wk.stationary_solve(ch, "linear_solve")
    pi = wk.stationary_solve(ch, "power_iteration")
    assert np.max(np.abs(cf.p - ls.p)) <= 1e-10
    assert np.max(np.abs(cf.p - pi.p)) <= 1e-10
    assert ls.residual <= 1e-10 and pi.residual <= 1e-10


def _dense_stationary(ch):
    # reference: A = P^T - I from the dense matrix, with sum(p) = 1 in place
    # of the last equation, by LAPACK's pivoted LU
    A = matrix(ch).T - np.eye(ch.n + 1)
    A[-1, :] = 1.0
    rhs = np.zeros(ch.n + 1)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_banded_solve_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    k = n // 2   # a_k = 1 from here on: interior unless n = 1, where a_0 = 1
    profiles = [np.sort(rng.uniform(0.5, 1.0, n + 1)) for _ in range(5)]
    profiles += [np.full(n + 1, 0.5),
                 np.concatenate((np.sort(rng.uniform(0.5, 1.0, k)), np.ones(n + 1 - k))),
                 np.concatenate((np.sort(rng.uniform(0.5, 1.0, n)), [1.0]))]
    for a in profiles:
        ch = wk.make_chain(a)
        ls = wk.stationary_solve(ch, "linear_solve")
        np.testing.assert_allclose(ls.p, _dense_stationary(ch), rtol=0, atol=1e-12)
        assert ls.residual <= 1e-12


@pytest.mark.parametrize("name", ["exp", "piecewise"])
def test_banded_solve_at_n_1e5(name):
    f, df = wk.profile(name)
    ch = wk.chain_from_function(f, 10 ** 5, subgradient=df)
    ls = wk.stationary_solve(ch, "linear_solve")
    cf = wk.stationary_closed_form(ch)
    assert np.max(np.abs(ls.p - cf.p)) <= 1e-10
    assert ls.residual <= 1e-12


def test_power_iteration_budget_error():
    ch = wk.make_chain([0.6, 0.7, 0.8, 0.9, 0.95])
    with pytest.raises(RuntimeError):
        wk.stationary_solve(ch, "power_iteration", max_iters=2)
    with pytest.raises(ValueError):
        wk.stationary_solve(ch, "bogus")


@settings(max_examples=30, deadline=None)
@given(monotone_profiles(12))
def test_random_profiles_closed_vs_solve(a):
    ch = wk.make_chain(a)
    cf = wk.stationary_closed_form(ch)
    ls = wk.stationary_solve(ch, "linear_solve")
    assert np.all(cf.p >= 0.0)
    assert abs(cf.p.sum() - 1.0) <= 1e-12
    assert cf.residual <= 1e-12
    assert np.max(np.abs(cf.p - ls.p)) <= 1e-10


def test_monotone_mass_decay():
    rng = np.random.default_rng(5)
    a = np.sort(rng.uniform(0.5, 0.999, 30))
    ch = wk.make_chain(a)
    p = wk.stationary_closed_form(ch).p
    ratios = p[1:] / p[:-1]
    np.testing.assert_allclose(ratios, (1 - a[:-1]) / a[1:], rtol=1e-12)
    assert np.all(ratios <= 1.0 + 1e-12)


# -------------------------------------------------------------- suboptimality

def test_suboptimality_absorbing_case():
    f, df = wk.profile("linear", slope=1.0)
    ch = wk.chain_from_function(f, 50, subgradient=df)
    assert wk.stationary_suboptimality(ch, f) == 0.0


def test_suboptimality_matches_geometric_series():
    # constant slope: p is geometric with ratio r = (1-a)/a; compare against
    # a direct finite-sum evaluation of sum_i p_i * slope * i/n
    slope, n = 0.5, 100
    f, df = wk.profile("linear", slope=slope)
    ch = wk.chain_from_function(f, n, subgradient=df)
    a = (1 + slope) / 2
    r = (1 - a) / a
    weights = r ** np.arange(n + 1)
    direct = float((weights / weights.sum()) @ (slope * np.arange(n + 1) / n))
    assert abs(wk.stationary_suboptimality(ch, f) - direct) <= 1e-12


def test_bound_sweep_small_corpus():
    for name in ("linear", "quadratic", "piecewise", "exp"):
        f, df = wk.profile(name)
        for n in (10, 100):
            ch = wk.chain_from_function(f, n, subgradient=df)
            sub = wk.stationary_suboptimality(ch, f)
            assert sub <= wk.suboptimality_bound(n), (name, n, sub)


def test_profile_registry():
    with pytest.raises(ValueError):
        wk.profile("nope")
    with pytest.raises(ValueError):
        wk.linear_profile(0.0)


# ----------------------------------------------------------------- sampling

def test_occupation_frequencies_match_stationary():
    # 50 n^2 steps, n^2 burn-in: total variation against the product form
    n = 50
    f, df = wk.profile("linear", slope=0.5)
    ch = wk.chain_from_function(f, n, subgradient=df)
    trace = wk.simulate_chain_sgd(ch, f, steps=50 * n * n, seed=0, start=1.0)
    idx = np.rint(trace.iterates[n * n:, 0] * n).astype(int)
    freq = np.bincount(idx, minlength=n + 1) / idx.shape[0]
    p = wk.stationary_closed_form(ch).p
    tv = 0.5 * float(np.abs(freq - p).sum())
    assert tv <= 0.01, tv


def test_simulated_walk_stays_on_grid_and_is_deterministic():
    n = 20
    f, df = wk.profile("quadratic")
    ch = wk.chain_from_function(f, n, subgradient=df)
    t1 = wk.simulate_chain_sgd(ch, f, steps=500, seed=3, start=1.0)
    t2 = wk.simulate_chain_sgd(ch, f, steps=500, seed=3, start=1.0)
    assert np.array_equal(t1.iterates, t2.iterates)
    idx = t1.iterates[:, 0] * n
    np.testing.assert_allclose(idx, np.rint(idx), atol=1e-9)


def test_grid_oracle_reads_a_i_at_every_grid_point():
    # the oracle counts the midpoints (k + 1/2)/n <= x, which is round(x * n)
    # at every grid point i/n and at the floats next to it; the a_i differ
    for n in (1, 7, 100, 4000):
        ch = wk.make_chain(np.linspace(0.5, 1.0, n + 1))
        oracle = wk.GridSignOracle(ch, abs)
        grid = np.arange(n + 1) / n
        for x in np.concatenate([grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0)]):
            assert oracle.plus_prob(np.array([x])) == ch.left_probs[round(x * n)]


def test_simulated_walk_is_the_clipped_sign_loop():
    # the engine run equals x <- clip(x - g/n, 0, 1) with g = +1 when the
    # step's uniform from default_rng(seed) is below a_i, else -1, bit for bit
    n, steps, seed = 100, 20_000, 1
    f, df = wk.profile("linear", slope=0.5)
    ch = wk.chain_from_function(f, n, subgradient=df)
    trace = wk.simulate_chain_sgd(ch, f, steps=steps, seed=seed, start=1.0)

    rng = np.random.default_rng(seed)
    eta = 1.0 / n
    xs, gs = [1.0], []
    for _ in range(steps):
        x = xs[-1]
        g = 1.0 if rng.random() < ch.left_probs[round(x * n)] else -1.0
        gs.append(g)
        xs.append(float(np.clip(x - eta * g, 0.0, 1.0)))
    assert np.array_equal(trace.iterates[:, 0], xs)
    assert np.array_equal(trace.gradients[:, 0], gs)
    assert np.array_equal(trace.values, [f(x) for x in xs])


def test_long_run_suboptimality_near_stationary_small_n():
    n = 20
    f, df = wk.profile("linear", slope=0.5)
    ch = wk.chain_from_function(f, n, subgradient=df)
    trace = wk.simulate_chain_sgd(ch, f, steps=50 * n * n, seed=0, start=1.0)
    emp = wk.long_run_suboptimality(trace, burn_in=n * n)
    stat = wk.stationary_suboptimality(ch, f)
    assert abs(emp - stat) <= 0.01


@pytest.mark.parametrize("burn_in", [-5, -1, 11, 12])
def test_long_run_suboptimality_rejects_a_burn_in_it_cannot_serve(burn_in):
    f, _ = wk.profile("linear")
    trace = wk.simulate_chain_sgd(wk.chain_from_function(f, 5), f, steps=10)
    assert wk.long_run_suboptimality(trace, burn_in=10) == trace.values[10]
    with pytest.raises(ValueError, match=rf"^need 0 <= burn_in < 11, the number of recorded "
                                         rf"values, got burn_in={burn_in}$"):
        wk.long_run_suboptimality(trace, burn_in=burn_in)

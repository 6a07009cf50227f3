import math
import time
import tracemalloc

import numpy as np
import pytest

from lastiter import nearly_linear as nl
from lastiter.engine import Interval, StepSchedule, sgd_steps
from lastiter import walk as wk
from reference_routes import BatchTwoPointOracle, mean_grad


def abs_instance(epsilon=0.5):
    return nl.build_nearly_linear("abs", 1.0, 1.0, epsilon)


def asym_abs_instance():
    return nl.build_nearly_linear("asym_abs", 1.0, 1.0, 0.5, band_ratio=0.5)


def multi_knot_instance():
    # five interior knots (0 included), six segments on [-1, 1]
    return nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                                  knots=[-0.6, -0.2, 0.3, 0.7],
                                  slopes=[-0.4, -0.3, -0.2, 0.2, 0.3, 0.4])


def many_knot_instance():
    # 23 interior knots (0 included), 24 segments on [-1, 1]: a path of a
    # few thousand steps meets more than _COMPARE_LEVELS values of P[+G]
    slopes = [*np.linspace(-0.4, -0.2, 12), *np.linspace(0.2, 0.4, 12)]
    knots = [*np.linspace(-0.96, 0.0, 13)[1:], *np.linspace(0.0, 0.96, 13)[1:-1]]
    return nl.build_nearly_linear("piecewise", 2.0, 1.0, 0.4, band_ratio=0.5,
                                  knots=knots, slopes=slopes)


def searchsorted_probs(inst, x):
    """P[+G] at x, from the searchsorted index over the interior knots."""
    return inst.segment_probs[np.searchsorted(inst.knots[1:-1], x, side="right")]


# ------------------------------------------------------------------ building

def test_abs_instance_values_and_means():
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.1)
    assert float(inst.f(0.3)) == pytest.approx(0.03, abs=1e-15)
    assert float(mean_grad(inst, 0.3)) == 0.1
    assert float(mean_grad(inst, -0.3)) == -0.1
    # right-derivative convention at the minimum
    assert float(mean_grad(inst, 0.0)) == 0.1
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
    assert float(mean_grad(inst, 0.7)) == 0.4
    # reference lookup: last knot <= x, clamped to the segments; knots exactly
    # and points beyond both ends included
    xs = np.concatenate([np.linspace(-1.5, 1.5, 301), inst.knots])
    idx = np.clip(np.searchsorted(inst.knots, xs, side="right") - 1,
                  0, inst.slopes.shape[0] - 1)
    assert np.array_equal(mean_grad(inst, xs), inst.slopes[idx])
    # plus_prob, on a column and on (1,) points, picks the P[+G] of the
    # searchsorted index over the interior knots: at every knot (the domain
    # ends among them) and its neighbouring floats, at +/-0.0 and beyond
    # both ends (the step's own bisect lookup is checked against the same
    # index in test_float_answers_are_the_array_answers_step_for_step)
    for case in (abs_instance(), asym_abs_instance(), inst, multi_knot_instance()):
        ks = case.knots
        xs = np.concatenate([ks, np.nextafter(ks, -np.inf), np.nextafter(ks, np.inf),
                             [0.0, -0.0, case.lo - 1.0, case.hi + 1.0, -np.inf, np.inf],
                             np.linspace(case.lo - 0.5, case.hi + 0.5, 101)])
        ref = searchsorted_probs(case, xs)
        oracle = nl.NearlyLinearOracle(case)
        assert np.array_equal(oracle.plus_prob(xs.reshape(-1, 1)), ref.reshape(-1, 1))
        assert [oracle.plus_prob(np.array([x])) for x in xs] == ref.tolist()

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
    for diameter, grad_bound in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                 (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            nl.build_nearly_linear("abs", diameter, grad_bound, 0.5)
    with pytest.raises(ValueError):
        nl.build_nearly_linear("bogus", 1.0, 1.0, 0.5)


# ------------------------------------------------------------------ good set

def test_good_set_covers_domain_for_shallow_slopes():
    # threshold 0.1 with slope 0.1: the sublevel set is the whole domain
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.1)
    gs = nl.good_set(inst, 100)
    xs = np.concatenate([np.linspace(inst.lo, inst.hi, 1001), [inst.lo, inst.hi, 0.0, -0.0]])
    assert gs.contains(xs).all()


def test_good_set_interval_for_steep_slopes():
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 1.0)
    gs = nl.good_set(inst, 100)
    assert gs.contains(np.array([-0.1 + 1e-9, 0.1 - 1e-9])).all()
    assert not gs.contains(np.array([-0.1 - 1e-9, 0.1 + 1e-9])).any()


GOOD_SET_HORIZONS = list(range(1, 3000)) + [10 ** e for e in range(4, 31, 2)]


def test_good_set_membership_is_f_at_most_threshold():
    # the threshold is G D / sqrt(T), and contains() is the test
    # f(x) <= threshold at the points where either could change value:
    # knots, +/-0.0 and the domain ends, each with its neighbouring floats
    for inst in (abs_instance(0.1), abs_instance(0.5), abs_instance(1.0),
                 nl.build_nearly_linear("asym_abs", 1.0, 1.0, 0.5, band_ratio=0.5),
                 multi_knot_instance(), nl.build_nearly_linear("abs", 2.0, 3.0, 0.5)):
        sets = [nl.good_set(inst, T) for T in GOOD_SET_HORIZONS]
        theta = np.array([gs.threshold for gs in sets])[:, None]
        assert np.array_equal(theta[:, 0], [inst.grad_bound * inst.diameter / math.sqrt(T)
                                            for T in GOOD_SET_HORIZONS]), inst.shape
        xs = np.concatenate([inst.knots, [0.0, -0.0, inst.lo, inst.hi]])
        xs = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)])
        inside = (xs >= inst.lo) & (xs <= inst.hi)
        contains = np.array([gs.contains(xs) for gs in sets])
        bad = np.flatnonzero(np.any(inside & (contains != (inst.f(xs) <= theta)), axis=1))
        assert not bad.size, (inst.shape, [GOOD_SET_HORIZONS[i] for i in bad[:5]])


def test_good_set_shrinks_with_horizon():
    inst = abs_instance()
    xs = np.linspace(inst.lo, inst.hi, 1001)
    counts = [np.count_nonzero(nl.good_set(inst, T).contains(xs))
              for T in (100, 400, 1600, 6400)]
    assert all(c2 < c1 for c1, c2 in zip(counts, counts[1:]))


# ------------------------------------------------------------------- oracle

def test_oracle_draws_are_bounded_and_unbiased():
    inst = abs_instance()
    x = 0.4
    rng = nl.trial_stream(0, 0)
    p = nl.NearlyLinearOracle(inst).plus_prob(np.array([x]))
    draws = np.where(rng.random(100_000) < p, 1.0, -1.0)
    assert np.all(np.abs(draws) <= inst.grad_bound)  # exactly bounded
    mean = draws.mean()
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    sub = float(mean_grad(inst, x))
    assert abs(mean - sub) <= 4 * se
    band = (inst.band_ratio * inst.epsilon * inst.grad_bound,
            inst.epsilon * inst.grad_bound)
    assert band[0] - 4 * se <= abs(mean) <= band[1] + 4 * se
    # the engine oracle answers one point at a time; batches step through
    # simulate_paths' table
    with pytest.raises(ValueError, match="one point"):
        nl.NearlyLinearOracle(inst).subgradient(np.full((4, 1), x), 1)


def _grid_sign_oracle(n=7):
    """A grid walk's oracle, its cuts, P[+G] table, G, uniform stream and ends."""
    chain = wk.make_chain(np.linspace(0.5, 1.0, n + 1))
    return ((lambda: wk.GridSignOracle(chain, abs)), (np.arange(n) + 0.5) / n,
            chain.left_probs, 1.0, np.random.default_rng, 0.0, 1.0)


def _instance_oracle(make, trial=3):
    """An instance's oracle for one trial, as :func:`_grid_sign_oracle`."""
    inst = make()
    return ((lambda: nl.NearlyLinearOracle(inst, trial=trial)), inst.knots[1:-1],
            inst.segment_probs, inst.grad_bound, lambda seed: nl.trial_stream(seed, trial),
            inst.lo, inst.hi)


@pytest.mark.parametrize("oracles", [_grid_sign_oracle, lambda: _instance_oracle(abs_instance),
                                     lambda: _instance_oracle(asym_abs_instance),
                                     lambda: _instance_oracle(many_knot_instance)],
                         ids=["grid_sign", "abs", "asym_abs", "many_knot"])
@pytest.mark.parametrize("T", [nl.TILE - 1, nl.TILE, nl.TILE + 1, 2 * nl.TILE + 1])
def test_float_answers_are_the_array_answers_step_for_step(oracles, T):
    # one oracle answers floats, one arrays and one alternates, from the same
    # seed, at every cut, its neighbouring floats, both zeros and both ends;
    # all three answer +G exactly when the step's uniform is below the P[+G]
    # of the searchsorted index, across tile edges and a second reset
    make, cuts, probs, G, stream, lo, hi = oracles()
    points = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
                             [0.0, -0.0, lo, hi]])
    floats, arrays, mixed = make(), make(), make()
    for seed in (11, 12):
        for oracle in (floats, arrays, mixed):
            oracle.reset(seed)
        xs = points[np.arange(1, T + 1) % points.size]
        want = np.where(stream(seed).random(T) < probs[np.searchsorted(cuts, xs, side="right")],
                        G, -G)
        got = []
        for t, x in enumerate(xs.tolist(), start=1):
            g = floats.float_subgradient(x, t)
            a = arrays.subgradient(np.array([x]), t)
            m = (mixed.float_subgradient(x, t) if t % 2 else
                 mixed.subgradient(np.array([x]), t).item(0))
            assert type(g) is float
            assert np.array([g]).tobytes() == a.tobytes() == np.array([m]).tobytes(), (seed, t)
            got.append(g)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert set(got) == {G, -G}


# --------------------------------------------------------------- simulation

def test_trial_stream_is_the_keyed_philox_stream():
    # the documented stream: Philox with key (seed, trial) at counter 0
    for seed, trial in ((0, 0), (5, 13), (7, 2 ** 40), (2 ** 63, 32767),
                        (2 ** 64 - 1, 2 ** 64 - 1)):
        ref = np.random.Generator(np.random.Philox(
            key=np.array([seed, trial], dtype=np.uint64)))
        draws = nl.trial_stream(seed, trial).random(2 * nl.TILE + 3)
        assert np.array_equal(draws, ref.random(2 * nl.TILE + 3))


@pytest.mark.parametrize("seed, trial, message", [
    (-1, 0, "seed must lie in [0, 2^64), got -1"),
    (2 ** 64, 0, f"seed must lie in [0, 2^64), got {2 ** 64}"),
    (0, -1, "trial must lie in [0, 2^64), got -1"),
    (0, 2 ** 64, f"trial must lie in [0, 2^64), got {2 ** 64}"),
], ids=["seed-negative", "seed-2^64", "trial-negative", "trial-2^64"])
def test_trial_stream_key_outside_64_bits_is_a_value_error(seed, trial, message):
    # numpy would raise OverflowError making the uint64 key
    with pytest.raises(ValueError) as exc:
        nl.trial_stream(seed, trial)
    assert str(exc.value) == message


def test_rekeyed_stream_is_a_fresh_trial_stream():
    # a stream left partway through a buffered word (an odd number of
    # doubles, then a uint32 that leaves the other half buffered) and
    # re-keyed draws as a fresh trial_stream of the new key
    pairs = ((0, 0), (5, 13), (7, 2 ** 40), (2 ** 63, 32767), (2 ** 64 - 1, 2 ** 64 - 1))
    for (seed, trial), used in zip(pairs, pairs[1:] + pairs[:1]):
        stream = nl.trial_stream(*used)
        stream.random(2 * nl.TILE + 3)
        stream.integers(0, 10, dtype=np.uint32)
        assert stream.bit_generator.state["has_uint32"] == 1
        nl._rekey(stream, seed, trial)
        fresh = nl.trial_stream(seed, trial)
        assert np.array_equal(stream.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                              fresh.integers(0, 2 ** 32, size=3, dtype=np.uint32))
        assert np.array_equal(stream.random(2 * nl.TILE + 3), fresh.random(2 * nl.TILE + 3))


def test_one_pool_of_streams_per_call(monkeypatch):
    # each call builds at most min(chunk, trials) streams and re-keys them
    # for the later chunks, the last of which may use only part of the pool
    made = []
    trial_stream = nl.trial_stream

    def counted(seed, trial):
        made.append(trial)
        return trial_stream(seed, trial)

    monkeypatch.setattr(nl, "trial_stream", counted)
    inst = abs_instance()
    for trials, chunk in ((75, 40), (75, 75), (30, 40), (129, 32)):
        made.clear()
        stats = nl.simulate_paths(inst, 50, trials, 0.5, seed=2, chunk=chunk)
        assert len(made) <= min(chunk, trials), (trials, chunk)
        final_x, last_visit = reference_paths(inst, 50, trials, 0.5, seed=2, chunk=chunk)
        assert np.array_equal(stats.final_x, final_x), (trials, chunk)
        assert np.array_equal(stats.last_visit, last_visit), (trials, chunk)


@pytest.mark.parametrize("epsilon, T, x0", [
    *((0.5, T, x0) for T in (63, 64, 65, 565) for x0 in (0.5, 0.0)),
    (0.7, 400, 0.0), (0.7, 400, 0.4)])
def test_visit_folds_equal_engine_batches(epsilon, T, x0):
    # last visits at horizons around 64 steps and one past 500; a
    # start inside S, where last_visit begins at 0; 75 trials in chunks of
    # 40, so the last chunk re-keys only part of the pool.  At epsilon 0.7,
    # T = 400 a path that reaches the clipped end D/2 keeps off the lattice
    # points of S for good: from 0 some last visits stay 0, and from 0.4
    # some paths never reach S
    inst = abs_instance(epsilon)
    stats = nl.simulate_paths(inst, T, 75, x0, seed=5, chunk=40)
    final_x, last_visit = reference_paths(inst, T, 75, x0, seed=5, chunk=40)
    assert stats.final_x.tobytes() == final_x.tobytes()
    assert stats.last_visit.tobytes() == last_visit.tobytes()
    if x0 == 0.0:
        assert np.all(stats.last_visit >= 0)
    if epsilon == 0.7:
        assert (0 in stats.last_visit) == (x0 == 0.0)
        assert (0 < stats.never_hit_count < 75) == (x0 == 0.4)


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
        assert trace.iterates[-1, 0] == stats.final_x[trial]


def test_batched_paths_cross_tiles_like_engine_paths():
    # horizons ending just before, at and just after a tile of the one-path
    # oracle's uniforms, and one spanning several; 75 trials in chunks of 40
    # fill each block of codes in groups of 32 streams and a partial one.
    # Each path answers step t with the t-th uniform of its own (seed,
    # trial) stream, on one interior knot and on five, and the batch agrees
    # with the f-membership loop
    trials, chunk = 75, 40
    assert trials % nl._FILL_STREAMS and trials % chunk and chunk % nl._FILL_STREAMS
    for T in (nl.TILE - 1, nl.TILE, nl.TILE + 1, 2 * nl.TILE + 37):
        for inst in (abs_instance(), multi_knot_instance()):
            G = inst.grad_bound
            stats = nl.simulate_paths(inst, T, trials, 0.5, seed=5, chunk=chunk)
            final_x, last_visit = reference_paths(inst, T, trials, 0.5, seed=5, chunk=chunk)
            assert np.array_equal(stats.final_x, final_x)
            assert np.array_equal(stats.last_visit, last_visit)
            for trial in (0, 31, 32, 39, 40, 71, 72, 74):
                trace = nl.path_via_engine(inst, T, 0.5, seed=5, trial=trial)
                xs = trace.iterates[:, 0]
                u = nl.trial_stream(5, trial).random(T)
                assert np.array_equal(trace.gradients[:, 0],
                                      np.where(u < searchsorted_probs(inst, xs[:-1]), G, -G))
                hits = np.flatnonzero(inst.f(xs) <= stats.threshold)
                assert xs[-1] == stats.final_x[trial]
                assert (hits[-1] if hits.size else -1) == stats.last_visit[trial]
            # the last path alone visits every segment of the instance
            segments = np.searchsorted(inst.knots[1:-1], xs, side="right")
            assert set(segments.tolist()) == set(range(inst.slopes.size))


def reference_paths(inst, T, trials, x0, seed, chunk):
    """Batched paths through the engine's array step, with the reference
    batch oracle and membership tested as f(x) <= theta."""
    theta = inst.grad_bound * inst.diameter / math.sqrt(T)
    eta = 4.0 * inst.diameter / (inst.grad_bound * math.sqrt(T))
    schedule = StepSchedule("constant", value=eta)
    final_x = np.empty(trials)
    last_visit = np.full(trials, -1, dtype=np.int64)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        oracle = BatchTwoPointOracle(inst, range(start, stop))
        for t, _, x in sgd_steps(oracle, Interval(inst.lo, inst.hi), schedule,
                                 np.full((stop - start, 1), float(x0)), T, seed):
            last_visit[start:stop][inst.f(x[:, 0]) <= theta] = t
        final_x[start:stop] = x[:, 0]
    return final_x, last_visit


def lookahead(inst, T, x0):
    """The transition table of (inst, T, x0), its levels and one-step
    successors by code, and the steps per lookup simulate_paths takes."""
    table = nl.transition_table(inst, T, x0)
    levels, step = nl._step_by_code(table)
    return table, levels, step, nl._lookahead(*step.shape, T)


class GivenUniforms:
    """A stand-in stream whose ``random(out=row)`` hands out given uniforms
    in order."""

    def __init__(self, uniforms):
        self._u, self._at = np.asarray(uniforms, dtype=float), 0

    def random(self, out):
        out[:] = self._u[self._at:self._at + out.size]
        self._at += out.size


def given_codes(levels, u):
    """The level codes _draw_codes gives the uniforms u, one step each."""
    codes = np.empty((len(u), 1), dtype=np.uint16)
    nl._draw_codes([GivenUniforms(u)], nl._level_codes(levels, len(u)), levels.size + 1, 1,
                   codes, np.empty((1, len(u))))
    return codes[:, 0]


#: forces counting by comparisons, or through the bins of [0, 1)
COUNTS = pytest.mark.parametrize("compare_levels", [10 ** 6, 0], ids=["compare", "bins"])


@COUNTS
@pytest.mark.parametrize("make, T, x0", [
    (abs_instance, 400, 0.5), (asym_abs_instance, 400, 0.5), (multi_knot_instance, 400, 0.7),
    (many_knot_instance, 2500, 0.7), (lambda: abs_instance(1.0), 400, 0.0)],
    ids=["abs", "asym_abs", "piecewise", "many", "eps1"])
def test_level_codes_answer_like_uniforms(make, T, x0, compare_levels, monkeypatch):
    # at each level itself, at its float neighbours, at the bin edges and at
    # 0.0 and 1 - 2^-53, the code _draw_codes gives a uniform leads every
    # state where the answer +G on u < P[+G] leads it, with no tolerance: a
    # uniform equal to a level answers -G.  At epsilon 1 the levels are 0
    # and 1, and every uniform has code 1
    monkeypatch.setattr(nl, "_COMPARE_LEVELS", compare_levels)
    table, levels, step, _ = lookahead(make(), T, x0)
    assert np.array_equal(levels, np.unique(table.plus_probs))
    edges = np.arange(1, nl._CODE_BINS) / nl._CODE_BINS
    u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], levels, np.nextafter(levels, 0.0),
                        np.nextafter(levels, 1.0), edges, np.nextafter(edges, 0.0)])
    u = u[u < 1.0]
    codes = given_codes(levels, u)
    assert np.array_equal(codes, [np.count_nonzero(levels <= v) for v in u])
    answers = (u[:, None] < table.plus_probs).astype(np.intp)
    assert np.array_equal(step[:, codes].T,
                          table.successors[np.arange(table.values.size), answers])
    if levels.tolist() == [0.0, 1.0]:
        assert set(codes.tolist()) == {1}


@COUNTS
def test_level_codes_of_crowded_levels(compare_levels, monkeypatch):
    # five levels inside one bin, a level on a bin edge and one just below
    # it, 0 and 1 among 40 levels: the codes count the levels at or below u
    # wherever u falls
    monkeypatch.setattr(nl, "_COMPARE_LEVELS", compare_levels)
    rng = np.random.default_rng(3)
    edge = 3.0 / nl._CODE_BINS
    levels = np.unique(np.concatenate([
        [0.0, 1.0, edge, np.nextafter(edge, 0.0)], 0.5 + 2.0 ** -45 * np.arange(5),
        rng.random(31)]))
    assert levels.size == 40
    u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], levels[:-1], np.nextafter(levels, 0.0)[1:],
                        np.nextafter(levels, 1.0)[:-1], rng.random(10000)])
    assert np.array_equal(given_codes(levels, u), np.searchsorted(levels, u, side="right"))


@pytest.mark.parametrize("make, T, x0, L", [
    (abs_instance, 400, 0.5, 8), (asym_abs_instance, 400, 0.5, 8),
    (multi_knot_instance, 400, 0.7, 4), (many_knot_instance, 2500, 0.7, 2)],
    ids=["abs", "asym_abs", "piecewise", "many"])
def test_composed_tables_equal_single_steps(make, T, x0, L):
    # every state and every sequence of codes, for each number of steps up
    # to L: the composed tables give the state that single steps through the
    # table's successors reach, each answering +G when the least uniform of
    # its code lies below P[+G], and the offset of the last good-set state
    # on the way.  Six levels on the piecewise instance make L drop to 4,
    # twenty-five on the many-knot one to 2
    table, levels, step, lookahead_steps = lookahead(make(), T, x0)
    assert lookahead_steps == L
    n, C = step.shape
    least = np.concatenate([[0.0], levels])     # the least uniform of each code
    for steps in range(1, L + 1):
        nxt, off = nl._compose(step, table.good, steps, C ** L)
        entry = np.arange(n * C ** steps)
        s = entry // C ** steps
        last = np.full(entry.size, nl._NO_VISIT, dtype=np.int64)
        for i in range(1, steps + 1):
            code = entry // C ** (steps - i) % C
            s = table.successors[s, (least[code] < table.plus_probs[s]).astype(np.intp)]
            last[s < table.good] = i
        assert np.array_equal(nxt, s * C ** L), steps
        assert np.array_equal(off, last), steps


_DRAW = nl._DRAW_STEPS


@pytest.mark.parametrize("make, T, x0, L", [
    (abs_instance, 9, 0.5, 9), (abs_instance, 10, 0.5, 10), (abs_instance, 11, 0.5, 10),
    *((abs_instance, _DRAW // 7 * 7 + dT, 0.5, 7) for dT in (-1, 0, 1)),
    (abs_instance, 2000, 0.5, 7),
    *((multi_knot_instance, _DRAW // 4 * 4 + dT, 0.7, 4) for dT in (-1, 0, 1)),
    (multi_knot_instance, 2001, 0.7, 4),
    (many_knot_instance, 2501, 0.7, 2)])
def test_lookahead_paths_equal_engine_batches(make, T, x0, L):
    # horizons of 9 and 10 steps, each one lookup of all T steps, and of 11,
    # where the table budget stops L at 10 and a tail of one step follows;
    # horizons ending just before, at and just after the first draw of
    # _DRAW_STEPS // L * L uniforms; and ones spanning two draws that end
    # in a tail, the last with codes read through the bins.  75 trials in
    # chunks of 40, compared as bytes
    inst = make()
    assert lookahead(inst, T, x0)[3] == L
    draw = _DRAW // L * L
    if T > 11:
        assert abs(T - draw) <= 1 or (draw < T < 2 * draw and T % L)
    stats = nl.simulate_paths(inst, T, 75, x0, seed=5, chunk=40)
    final_x, last_visit = reference_paths(inst, T, 75, x0, seed=5, chunk=40)
    assert stats.final_x.tobytes() == final_x.tobytes()
    assert stats.last_visit.tobytes() == last_visit.tobytes()
    assert stats.final_subopt.tobytes() == inst.f(final_x).tobytes()


@pytest.mark.parametrize("make, x0", [(abs_instance, 0.5), (many_knot_instance, 0.7)],
                         ids=["abs", "many"])
def test_single_step_lookups_equal_engine_batches(make, x0, monkeypatch):
    # a table budget of one entry leaves L = 1, as a large or many-level
    # table does: one step per lookup over two draws, compared as bytes
    monkeypatch.setattr(nl, "_TABLE_ENTRIES", 1)
    inst, T = make(), _DRAW + 1
    assert lookahead(inst, T, x0)[3] == 1
    stats = nl.simulate_paths(inst, T, 75, x0, seed=5, chunk=40)
    final_x, last_visit = reference_paths(inst, T, 75, x0, seed=5, chunk=40)
    assert stats.final_x.tobytes() == final_x.tobytes()
    assert stats.last_visit.tobytes() == last_visit.tobytes()


def test_batch_memory_is_under_half_a_float_tile():
    # a chunk of 2048 trials holds one block of combined codes, not a
    # (500, 2048) tile of float uniforms (8 MB): the tracemalloc peak of the
    # whole call, table, tables and stream pool included, stays under 4 MB
    inst = abs_instance()
    nl.simulate_paths(inst, 50, 2, 0.5)     # types and caches made on first use
    tracemalloc.start()
    try:
        nl.simulate_paths(inst, 2560, 2048, 0.5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * 2048 * 8 / 2, peak


@pytest.mark.parametrize("make", [abs_instance, asym_abs_instance, multi_knot_instance,
                                  lambda: abs_instance(1.0)],
                         ids=["abs", "asym_abs", "piecewise", "eps1"])
def test_table_paths_equal_engine_batches_bit_for_bit(make):
    # starts at -0.0, at each domain end and off the lattice, for one step
    # and for 256, in chunks that split the trials; compared as bytes, since
    # np.array_equal does not tell -0.0 from +0.0.  At epsilon 1 the levels
    # are 0 and 1 and every uniform has the one code 1
    inst = make()
    trials, chunk = 500, 200
    for x0 in (-0.0, inst.lo, inst.hi, 0.1234567 * inst.diameter):
        for T in (1, 256):
            stats = nl.simulate_paths(inst, T, trials, x0, seed=9, chunk=chunk)
            final_x, last_visit = reference_paths(inst, T, trials, x0, seed=9, chunk=chunk)
            assert stats.final_x.tobytes() == final_x.tobytes(), (x0, T)
            assert stats.last_visit.tobytes() == last_visit.tobytes(), (x0, T)
            assert stats.final_subopt.tobytes() == inst.f(final_x).tobytes(), (x0, T)
    # from -0.0 the engine's x - eta*g comes back to 0 as +0.0: a table that
    # merged the two zeros would end these paths at -0.0
    zeros = nl.simulate_paths(inst, 256, trials, -0.0, seed=9).final_x
    zeros = zeros[zeros == 0.0]
    assert zeros.size and not np.signbit(zeros).any()


@pytest.mark.parametrize("inst, T, x0, chunk", [
    (abs_instance(0.5), 400, 0.5, 2048), (multi_knot_instance(), 2500, 0.7, 300)],
    ids=["abs-boundary", "piecewise-split-chunk"])
def test_paths_match_membership_by_f(inst, T, x0, chunk):
    # at abs eps 1/2, T = 400 the lattice points +/-0.1 lie on the boundary
    # f = theta, where rounding in x - eta*g decides membership; on the
    # piecewise instance theta = 0.04 is the knot value f(-0.2), and the
    # chunk of 300 splits the 1000 trials
    final_x, last_visit = reference_paths(inst, T, 1000, x0, seed=4, chunk=chunk)
    stats = nl.simulate_paths(inst, T, 1000, x0, seed=4, chunk=chunk)
    assert np.array_equal(stats.final_x, final_x)
    assert np.array_equal(stats.last_visit, last_visit)
    # some paths end within 1e-12 of the boundary f = theta
    theta = nl.good_set(inst, T).threshold
    assert np.any(np.abs(inst.f(final_x) - theta) / np.abs(mean_grad(inst, final_x)) < 1e-12)


def exact_law(table, T):
    """Law of x_T over the table's states: the point mass at x0 pushed T
    steps through the successors."""
    n = table.values.size
    law = np.zeros(n)
    law[table.start] = 1.0
    p = table.plus_probs
    for _ in range(T):
        law = (np.bincount(table.successors[:, 1], law * p, n)
               + np.bincount(table.successors[:, 0], law * (1.0 - p), n))
    return law


@pytest.mark.parametrize("inst, T, x0, want", [
    (abs_instance(0.5), 400, 0.5, (1.769231, 0.3600)),
    (abs_instance(0.5), 1600, 0.5, None),
    (multi_knot_instance(), 400, 0.7, None)], ids=["abs-400", "abs-1600", "piecewise-400"])
def test_monte_carlo_matches_exact_law_of_float_process(inst, T, x0, want):
    # the law of the float process, boundary rounding included: at abs eps
    # 1/2, T = 400 the lattice points +/-0.1 sit on the good set's boundary
    # and only some of their float copies count as inside
    table = nl.transition_table(inst, T, x0)
    start = time.perf_counter()
    law = exact_law(table, T)
    assert time.perf_counter() - start < 1.0
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    fx = inst.f(table.values)
    inside = (np.arange(table.values.size) < table.good).astype(float)
    mean_f, p_inside = float(law @ fx), float(law @ inside)
    if want is not None:
        assert mean_f * math.sqrt(T) == pytest.approx(want[0], abs=5e-7)
        assert p_inside == pytest.approx(want[1], abs=5e-5)
    trials = 20_000
    stats = nl.simulate_paths(inst, T, trials, x0, seed=0)
    for values, mean, sample in ((fx, mean_f, stats.final_subopt),
                                 (inside, p_inside, stats.last_visit == T)):
        sd = math.sqrt(law @ values ** 2 - mean ** 2)
        z = (sample.mean() - mean) / (sd / math.sqrt(trials))
        assert abs(z) <= 4, (T, z)


@pytest.mark.parametrize("make", [abs_instance, multi_knot_instance], ids=["abs", "piecewise"])
def test_transition_table_is_small_and_consistent(make):
    # a clipped +/-eta*G walk visits O(sqrt(T)) floats: sqrt(T)/4 lattice
    # points, each in a few float copies (at most 6.7 per point measured)
    inst = make()
    for T in (1, 400, 25_600, 10 ** 6, 10 ** 8):
        gs = nl.good_set(inst, T)
        for x0 in (inst.hi, 0.0, 0.1234567 * inst.diameter):
            seconds = math.inf
            for _ in range(3):    # the best of three, against a busy host
                start = time.perf_counter()
                table = nl.transition_table(inst, T, x0)
                seconds = min(seconds, time.perf_counter() - start)
            n = table.values.size
            assert n <= 16 * (math.sqrt(T) / 4 + 1), (T, x0, n)
            assert seconds < 0.1, (T, x0, seconds)
            assert table.values[table.start] == x0
            assert np.unique(table.values.view(np.int64)).size == n
            assert table.successors.shape == (n, 2)
            assert 0 <= table.successors.min() and table.successors.max() < n
            inside = gs.contains(table.values)
            assert inside[:table.good].all() and not inside[table.good:].any()
            assert np.array_equal(table.plus_probs, searchsorted_probs(inst, table.values))


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
    rows = tail.rows
    assert rows[0][0] == 0 and rows[0][1] <= 1.0
    probs = [p for _, p in rows]
    assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))  # tail is monotone
    assert tail.rate < -0.1
    # a fit needs two bins with k >= 1: k_max = 2 fits these trials, and a
    # smaller k_max is an error of its own, not a shortage of trials
    assert nl.tail_estimate(stats, k_max=2).rate < 0
    for k_max in (1, 0, -3):
        with pytest.raises(ValueError, match="kmax must be >= 2"):
            nl.tail_estimate(stats, k_max=k_max)


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
        fractions.append(stats.never_hit_count / stats.trials)
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
    xs = np.linspace(inst.lo, inst.hi, 1001)
    probs = nl.NearlyLinearOracle(inst).plus_prob(xs[:, None])
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

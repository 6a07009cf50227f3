"""The one-buffer staircase kernel, the dot-product norms, the in-place
certificate sampling, the block-wise recorded values of ``run_sgd``, its
history with the all-+0.0 rows left unwritten, the block-wise worst-case
checks and the walk's array profiles against the straightforward formulas
they replaced.

The references below are those formulas, kept here only.  Every comparison
but the exp profile's (within one ulp of ``math.exp``) is on raw bits
(``view(np.uint64)``), so a flipped sign of zero or a NaN in a different
place fails as loudly as any other difference."""

import math

import numpy as np
import pytest

import lastiter.constructions as cons
import lastiter.nearly_linear as nl
import lastiter.walk as wk
from lastiter import cli, engine
from lastiter.engine import Ball
from reference_routes import active_set, piece_grads, recorded_run, subgradient_at

DIMS = [1, 2, 8, 257]


def ref_piece_values(inst, x):
    x = np.asarray(x, dtype=float)
    zero = np.zeros_like(x[..., :1])
    S = np.cumsum(np.concatenate((zero, inst.shared_slopes * x), axis=-1), axis=-1)
    vals = np.concatenate((zero, S[..., :-1] - inst.depths * x, S[..., -1:]), axis=-1)
    if inst.quadratic:
        vals += 0.5 * np.sum(x * x, axis=-1, keepdims=True)
    return vals


def ref_piece_grad(inst, i, x):
    j, i = np.arange(1, inst.d + 1), np.asarray(i)[..., None]
    g = np.where(j < i, inst.shared_slopes, np.where(j == i, -inst.depths, 0.0))
    return g + x if inst.quadratic else g


def ref_sample_ball(rng, count, dim, radius=1.0):
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(count) ** (1.0 / dim)
    return radius * g * r[:, None]


def ref_project(ball, x):
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if nrm <= ball.radius:
        return x.copy()
    return x * (ball.radius / nrm)


def ref_lipschitz(inst, L, samples, seed, slack_tol=1e-12):
    """(worst, worst_ratio, passed, witness) of the sampled Lipschitz check."""
    rng = np.random.default_rng(seed)
    X = ref_sample_ball(rng, samples, inst.d)
    Y = ref_sample_ball(rng, samples, inst.d)
    vx, vy = ref_piece_values(inst, X), ref_piece_values(inst, Y)
    fx, fy = vx.max(axis=1), vy.max(axis=1)
    dist = np.linalg.norm(X - Y, axis=1)
    gap = np.abs(fx - fy) - L * dist
    k = int(np.argmax(gap))
    nz = dist > 0
    ratio = float(np.max(np.abs(fx - fy)[nz] / (L * dist[nz]))) if nz.any() else 0.0
    act = vx >= fx[:, None] - cons.ACTIVE_TOL
    c = np.cumsum(np.concatenate(([0.0], inst.shared_slopes ** 2)))
    row_sq = np.concatenate(([0.0], c[:-1] + inst.depths ** 2, c[-1:]))
    norms_sq = row_sq + 2.0 * vx if inst.quadratic else row_sq
    gnorm = float(np.sqrt(np.max(np.where(act, norms_sq, 0.0))))
    passed = gap[k] <= slack_tol and gnorm <= L + slack_tol
    return max(float(gap[k]), gnorm - L), ratio, passed, None if passed else (X[k], Y[k])


def ref_strong_convexity(inst, alpha, samples, seed, slack_tol=1e-12):
    """(worst, worst_ratio, passed, witness) of the sampled strong-convexity check."""
    rng = np.random.default_rng(seed)
    X = ref_sample_ball(rng, samples, inst.d)
    Y = ref_sample_ball(rng, samples, inst.d)
    vx = ref_piece_values(inst, X)
    fx, fy = vx.max(axis=1), ref_piece_values(inst, Y).max(axis=1)
    G = ref_piece_grad(inst, np.argmax(vx >= fx[:, None] - cons.ACTIVE_TOL, axis=1), X)
    diff = Y - X
    slack = fy - fx - np.sum(G * diff, axis=1) - 0.5 * alpha * np.sum(diff * diff, axis=1)
    k = int(np.argmin(slack))
    passed = slack[k] >= -slack_tol
    return float(slack[k]), float("nan"), passed, None if passed else (X[k], Y[k])


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def points(d, seed):
    """Single points and rows of a batch: samples, the origin as +0.0 and
    -0.0, a sample with -0.0 at random coordinates, and a boundary point."""
    rng = np.random.default_rng(seed)
    X = cons.sample_ball(rng, 40, d)
    mixed = np.where(rng.random(d) < 0.5, -0.0, X[0])
    edge = np.where(rng.random(d) < 0.5, -0.0, X[1] / np.linalg.norm(X[1]))
    return np.vstack([X, np.zeros(d), np.full(d, -0.0), mixed, edge])


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_piece_values_and_f_match_reference(family, d):
    inst = cons.build_instance(family, d, 2 * d)
    X = points(d, d)
    assert_bits(cons.piece_values(inst, X), ref_piece_values(inst, X))
    assert_bits(cons.piece_values(inst, X[-4:]), ref_piece_values(inst, X[-4:]))
    for x in X:
        want = ref_piece_values(inst, x)
        assert_bits(cons.piece_values(inst, x), want)
        assert_bits(cons.eval_f(inst, x), float(np.max(want)))
    # the -0.0 points stay distinguishable: the check sees signs of zero
    assert np.signbit(X[-3]).all() and not np.signbit(X[-4]).any()


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_kicked_rows_match_reference(family, d):
    inst = cons.build_instance(family, d, 2 * d)
    for x in points(d, d + 1)[-4:]:
        for i in sorted({0, 1, d, d + 1}):
            assert_bits(cons._piece_grad(inst, i, x), ref_piece_grad(inst, i, x))
        assert_bits(subgradient_at(inst, x),
                    ref_piece_grad(inst, int(active_set(inst, x)[0]), x))
    assert_bits(piece_grads(inst), ref_piece_grad(inst, np.arange(d + 2), 0.0))


@pytest.mark.parametrize("radius", [1.0, 0.7])
@pytest.mark.parametrize("d", DIMS)
def test_sample_ball_matches_reference(d, radius):
    got = cons.sample_ball(np.random.default_rng(d), 300, d, radius)
    assert_bits(got, ref_sample_ball(np.random.default_rng(d), 300, d, radius))


def test_ball_matches_norm_reference():
    rng = np.random.default_rng(3)
    for d in DIMS:
        ball = Ball(radius=0.7, dim=d)
        X = np.vstack([points(d, d)[-4:], 3.0 * cons.sample_ball(rng, 40, d)])
        for x in X:
            assert_bits(ball.project(x), ref_project(ball, x))
            assert ball.contains(x) == (float(np.linalg.norm(x)) <= 0.7 + 1e-12)
        # strided views and a (B, d) batch go through the same flattening
        strided = np.repeat(X, 2, axis=1)[:, ::2]
        for x in strided:
            assert_bits(ball.project(x), ref_project(ball, x))
        assert ball.contains(X[:4]) == (float(np.linalg.norm(X[:4])) <= 0.7 + 1e-12)


def assert_report(rep, ref):
    worst, ratio, passed, witness = ref
    assert_bits(rep.worst, worst)
    assert_bits(rep.worst_ratio, ratio)   # NaN for strong convexity: bits compare
    assert rep.passed == passed
    if witness is None:
        assert rep.witness is None
    else:
        for got, want in zip(rep.witness, witness, strict=True):
            assert_bits(got, want)


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_certificate_reports_match_reference(family):
    inst = cons.build_instance(family, 64, 256)
    # at 3 samples few pieces are active, so the gradient-norm bound, which
    # sets worst at L = 0.1, sees only some of the pieces
    for L, seed, n in ((inst.lipschitz_constant, 0, 2000), (0.1, 1, 2000), (0.1, 2, 3)):
        assert_report(cons.check_lipschitz(inst, L=L, samples=n, seed=seed),
                      ref_lipschitz(inst, L, n, seed))
    if inst.quadratic:
        for alpha, seed in ((1.0, 0), (3.0, 1)):
            rep = cons.check_strong_convexity(inst, alpha=alpha, samples=2000, seed=seed)
            assert_report(rep, ref_strong_convexity(inst, alpha, 2000, seed))


# ------------------------------------------- recorded values, block by block
# run_sgd once called oracle.value at every iterate, one point at a time;
# these references are those per-step formulas.  Each run is repeated with
# blocks of 7 rows, so every horizon below spans many blocks and ends in a
# ragged one; at d = 1024 the real blocks (32 rows) do so too.

@pytest.fixture(params=[None, 7], ids=["VALUE_BLOCK", "7-rows"])
def block_rows(request, monkeypatch):
    """Set run_sgd's value block to ``rows`` rows of a d-dimensional point."""
    def set_rows(d):
        if request.param is not None:
            monkeypatch.setattr(engine, "VALUE_BLOCK", request.param * d)
    return set_rows


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", [1, 8, 1024])
def test_run_sgd_values_match_per_step_eval_f(family, d, block_rows):
    block_rows(d)
    T = max(2 * d, 1000)
    inst = cons.build_instance(family, d, T)
    trace = engine.run_sgd(cons.AdversarialOracle(inst), inst.feasible(),
                           inst.schedule(), np.zeros(d), T)
    assert_bits(trace.values, np.array([cons.eval_f(inst, x) for x in trace.iterates]))


@pytest.mark.parametrize("shape", ["abs", "asym_abs", "piecewise"])
def test_path_values_match_per_step_f(shape, block_rows):
    block_rows(1)
    kw = {"knots": [-0.3, 0.2], "slopes": [-0.4, -0.3, 0.25, 0.4]} if shape == "piecewise" else {}
    inst = nl.build_nearly_linear(shape, 2.0, 1.0, 0.4, band_ratio=0.5, **kw)
    trace = nl.path_via_engine(inst, 5000, x0=0.7, seed=5, trial=2)
    want = [float(inst.f(float(x))) for x in trace.iterates[:, 0]]
    assert_bits(trace.values, np.array(want))


@pytest.mark.parametrize("name", ["linear", "piecewise", "exp"])
def test_simulated_walk_values_match_per_step_f(name, block_rows):
    block_rows(1)
    f, df = wk.profile(name)
    ch = wk.chain_from_function(f, 100, subgradient=df)
    trace = wk.simulate_chain_sgd(ch, f, steps=5000, seed=4)
    assert_bits(trace.values, np.array([f(float(x)) for x in trace.iterates[:, 0]]))


# ------------------------------------------- recorded history, quiet rows unwritten
# run_sgd once wrote every row of its history into np.empty; it now starts
# from np.zeros and leaves a row whose bits are all +0.0 unwritten when the
# step yielded the same array again.  recorded_run writes every row.

def assert_same_trace(got, want):
    assert_bits(got.iterates, want.iterates)
    assert_bits(got.gradients, want.gradients)
    assert_bits(got.values, want.values)


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", [1, 8, 1024])
def test_recorded_worst_case_runs_match_every_row_written(family, d, monkeypatch):
    inst = cons.build_instance(family, d, max(2 * d, 1000))
    got = cons.run_on_instance(inst)
    monkeypatch.setattr(cons, "run_sgd", recorded_run)
    want = cons.run_on_instance(inst)
    assert_same_trace(got, want)
    assert cons.verify_trajectory(inst, got) == cons.verify_trajectory(inst, want)


def test_recorded_paths_of_the_walk_and_the_nearly_linear_instance(monkeypatch):
    f, _ = wk.profile("linear")
    ch = wk.chain_from_function(f, 50)
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.5)
    runs = (lambda: wk.simulate_chain_sgd(ch, f, steps=3000, seed=2),
            lambda: wk.simulate_chain_sgd(ch, f, steps=3000, seed=2, start=0.0),
            lambda: nl.path_via_engine(inst, 3000, x0=0.0, seed=3, trial=1),
            lambda: nl.path_via_engine(inst, 3000, x0=-0.0, seed=3, trial=1))
    got = [run() for run in runs]
    monkeypatch.setattr(wk, "run_sgd", recorded_run)
    monkeypatch.setattr(nl, "run_sgd", recorded_run)
    for trace, run in zip(got, runs, strict=True):
        assert_same_trace(trace, run())


class Scripted:
    """Answers the t-th row of a script (+0.0 past its end); before it
    answers step t it writes ``writes[t]`` into the point it is asked about.
    f is the squared norm."""

    def __init__(self, script, d, writes=None):
        self.script, self.d, self.writes = script, d, writes or {}

    def value(self, X):
        return np.einsum("ij,ij->i", X, X)

    def subgradient(self, x, t):
        if t in self.writes:
            x[...] = self.writes[t]
        return np.array(self.script[t - 1] if t <= len(self.script) else np.zeros(self.d),
                        dtype=float)


class BufferBall(Ball):
    """A ball whose projection writes into one buffer of its own and returns
    it, so every step after the first yields the same array."""

    def project(self, x):
        if not hasattr(self, "_buf"):
            object.__setattr__(self, "_buf", np.empty(self.dim))
        self._buf[...] = super().project(x)
        return self._buf


_Z, _N = [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]
SCRIPTED = {
    # +0.0 answers at a nonzero interior point pass through there
    "plus-zero-inside": ([_Z, _Z, [0.5, 0.0, -0.25], _Z, _Z], None, [0.25, -0.5, 0.125]),
    # -0.0 answers and -0.0 coordinates are nonzero bits, at the origin too
    "minus-zero": ([_N, _Z, [0.0, -0.0, 0.0], _N, _Z, _Z, _N], None, [-0.0, 0.0, -0.0]),
    "minus-zero-at-origin": ([_Z, _N, _Z, _Z, _N], None, _Z),
    # an oracle that writes into x while it passes through: a nonzero point,
    # a NaN, +0.0 again and -0.0
    "writes-into-x": ([], {3: [0.0, 0.5, 0.0], 5: [np.nan, 0.0, 0.0], 7: _Z, 9: _N}, _Z),
}


@pytest.mark.parametrize("feasible", [Ball(1.0, 3), BufferBall(1.0, 3)],
                         ids=["ball", "one-buffer"])
@pytest.mark.parametrize("case", sorted(SCRIPTED))
def test_recorded_stub_runs_match_every_row_written(case, feasible):
    script, writes, x1 = SCRIPTED[case]
    sched, T = engine.StepSchedule("inv_sqrt_t"), 12
    runs = [route(Scripted(script, 3, writes), feasible, sched, np.array(x1), T)
            for route in (engine.run_sgd, recorded_run)]
    assert_same_trace(*runs)
    history = np.concatenate([runs[0].iterates, runs[0].gradients])
    assert np.signbit(history).any() or case == "plus-zero-inside"


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_one_buffer_projection_records_a_worst_case_run(family):
    # every step yields the buffer, so each quiet row is tested on its bits
    inst = cons.build_instance(family, 8, 64)
    ball = BufferBall(inst.feasible().radius, inst.d)
    runs = [route(cons.AdversarialOracle(inst), ball, inst.schedule(), np.zeros(inst.d), inst.T)
            for route in (engine.run_sgd, recorded_run)]
    assert_same_trace(*runs)
    assert_same_trace(runs[0], cons.run_on_instance(inst))


def test_dump_trace_csv_is_the_every_row_written_csv(tmp_path, monkeypatch):
    argv = ["verify", "--family", "lip-fixed", "--d", "16", "--T", "256", "--out",
            str(tmp_path / "rep.json"), "--dump-trace"]
    assert cli.main(argv + [str(tmp_path / "got.csv")]) == 0
    monkeypatch.setattr(cons, "run_sgd", recorded_run)
    assert cli.main(argv + [str(tmp_path / "want.csv")]) == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ------------------------------------------- walk profiles as array maps
# each profile and subgradient once took one float; these are those
# formulas, and the per-point difference-quotient loop of chain_from_function

SCALAR_PROFILES = {
    "linear": (lambda x: 0.5 * x, lambda x: 0.5),
    "quadratic": (lambda x: 0.5 * x * x, lambda x: x),
    "piecewise": (lambda x: max(0.5 * x, x - 0.25), lambda x: 0.5 if x < 0.5 else 1.0),
}


def grid_and_neighbours(n):
    grid = np.arange(n + 1) / n
    return np.concatenate([grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0)])


def ref_difference_quotients(f, n, h=1e-6):
    grid = np.arange(n + 1) / n
    b = np.empty(n + 1)
    for k, x in enumerate(grid):
        if x + h <= 1.0:
            b[k] = (f(x + h) - f(x)) / h
        else:
            b[k] = (f(x) - f(x - h)) / h
    return b


@pytest.mark.parametrize("name", sorted(SCALAR_PROFILES))
@pytest.mark.parametrize("n", [1, 7, 100, 4000])
def test_array_profiles_equal_the_scalar_formulas(name, n):
    f, df = wk.profile(name)
    ref_f, ref_df = SCALAR_PROFILES[name]
    x = grid_and_neighbours(n)
    assert_bits(f(x), np.array([ref_f(float(v)) for v in x]))
    assert_bits(np.broadcast_to(df(x), x.shape), np.array([ref_df(float(v)) for v in x]))


@pytest.mark.parametrize("n", [1, 7, 100, 4000])
def test_exp_profile_within_one_ulp_of_math_exp(n):
    # e^x - 1 is exact for x in [0, 1], so a one-ulp change of e^x moves
    # f by at most that ulp
    f, df = wk.profile("exp")
    x = grid_and_neighbours(n)
    ex = np.array([math.exp(v) for v in x])
    assert np.all(np.abs(f(x) - (ex - 1.0) / math.e) <= np.spacing(ex))
    ex1 = np.array([math.exp(v - 1.0) for v in x])
    assert np.all(np.abs(df(x) - ex1) <= np.spacing(ex1))


@pytest.mark.parametrize("name", ["linear", "quadratic", "piecewise", "exp"])
@pytest.mark.parametrize("n", [1, 7, 100, 4000])
def test_difference_quotients_equal_the_per_point_loop(name, n):
    f, _ = wk.profile(name)
    want = (1.0 + np.clip(ref_difference_quotients(f, n), 0.0, 1.0)) / 2.0
    assert_bits(wk.chain_from_function(f, n).left_probs, want)


def test_walk_calls_f_once_per_grid_and_value_block(monkeypatch):
    f, df = wk.profile("quadratic")
    shapes = []

    def counted(g):
        def call(x):
            shapes.append(np.shape(x))
            return g(x)
        return call

    ch = wk.chain_from_function(f, 20, subgradient=counted(df))
    assert shapes == [(21,)]
    shapes.clear()
    wk.chain_from_function(counted(f), 20)
    assert shapes == [(42,)]
    shapes.clear()
    wk.stationary_suboptimality(ch, counted(f))
    assert shapes == [(21,)]
    shapes.clear()
    monkeypatch.setattr(engine, "VALUE_BLOCK", 7)
    wk.simulate_chain_sgd(ch, counted(f), steps=20, seed=1)
    assert shapes == [(7,), (7,), (7,)]


# --------------------------------------- worst-case checks, block by block
# the closed-form comparison, the ball sampling and both certificates once
# worked one row, or all n rows, at a time; they now run over blocks of
# engine.VALUE_BLOCK floats, which block_rows shrinks to 7 rows.

def ref_closed_form_rows(inst, ts):
    """The per-row closed form z_t for each t in ts: the Lipschitz families
    sum the schedule's step sizes over the kicked window k = q+1..T."""
    q = inst.quiet_steps
    eta = inst.schedule().sizes(inst.T)[q:]
    W = np.concatenate(([0.0], np.cumsum(eta)))
    for t in ts:
        z = np.zeros(inst.d)
        m = t - q - 1
        if m > 0:
            j, a, b = np.arange(1.0, m + 1), inst.shared_slopes[:m], inst.depths[:m]
            if inst.family == cons.STRONGLY_CONVEX:
                z[:m] = (1.0 - (t - q - j - 1.0) * a) / (t - 1.0)
            else:
                z[:m] = b * eta[:m] - a * (W[t - 1 - q] - W[1:m + 1])
        yield z


def ref_per_family_rows(inst, ts):
    """The per-row closed form z_t with one formula per family, each written
    for its own schedule: an independent reference for the window form."""
    q = inst.quiet_steps
    if inst.family == cons.LIPSCHITZ_DECREASING:
        prefix = np.concatenate(([0.0], np.cumsum(1.0 / np.sqrt(np.arange(1, inst.T + 1)))))
    for t in ts:
        z = np.zeros(inst.d)
        m = t - q - 1
        if m > 0:
            j, a, b = np.arange(1.0, m + 1), inst.shared_slopes[:m], inst.depths[:m]
            if inst.family == cons.STRONGLY_CONVEX:
                z[:m] = (1.0 - (t - q - j - 1.0) * a) / (t - 1.0)
            elif inst.family == cons.LIPSCHITZ_FIXED:
                z[:m] = (b - a * (t - j - q - 1.0)) / np.sqrt(inst.T)
            else:
                z[:m] = b / np.sqrt(j + q) - a * (prefix[t - 1] - prefix[q + 1:q + m + 1])
        yield z


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 8, 257, 1024])
def test_closed_form_blocks_match_per_row_reference(family, d, block_rows):
    block_rows(d)
    T = 2 * d + 3
    inst = cons.build_instance(family, d, T)
    want = np.array(list(ref_closed_form_rows(inst, range(1, T + 2))))
    rows = max(1, engine.VALUE_BLOCK // d)
    window = cons._kicked_window(inst)
    got = [cons._closed_form_block(inst, s, min(s + rows, T + 2), window)
           for s in range(1, T + 2, rows)]
    assert_bits(np.vstack(got), want)
    assert_bits(cons._closed_form_block(inst, 1, T + 2, window), want)
    for t in (1, inst.quiet_steps + 1, inst.quiet_steps + 2, T + 1):
        assert_bits(cons.closed_form_iterate(inst, t), want[t - 1])


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d, T", [(d, 2 * d + 3) for d in (1, 2, 8, 257, 1024)]
                         + [(d, 2 * d + 40) for d in (1, 8, 257)])
def test_window_rows_match_the_per_family_formulas(family, d, T):
    # the grids of the block test above and of the deviation test below;
    # sc has one formula in both, the Lipschitz rows differ by rounding
    inst = cons.build_instance(family, d, T)
    got = np.array(list(ref_closed_form_rows(inst, range(1, T + 2))))
    want = np.array(list(ref_per_family_rows(inst, range(1, T + 2))))
    if inst.quadratic:
        assert_bits(got, want)
    assert np.array_equal(got != 0, want != 0)
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", [1, 8, 257])
def test_deviation_and_first_mismatch_in_a_later_block(family, d, block_rows):
    block_rows(d)
    T = 2 * d + 40
    inst = cons.build_instance(family, d, T)
    trace = cons.run_on_instance(inst)
    # step T-1 and the final iterate lie in a later block with 7-row blocks,
    # and at d = 257 with the real 127-row blocks too
    bad = T - 1
    trace.iterates[bad - 1, -1] += 1e-6
    trace.iterates[bad + 1, 0] -= 1e-6
    ref = ref_closed_form_rows(inst, range(1, T + 2))
    dev = np.array([np.abs(x - z).max() for x, z in zip(trace.iterates, ref, strict=True)])
    rep = cons.verify_trajectory(inst, trace, tol=1e-9)
    assert rep.first_mismatch == bad and not rep.passed
    assert_bits(rep.max_deviation, float(dev.max()))
    assert_bits(rep.final_value, cons.eval_f(inst, trace.iterates[-1]))


def _worst_index(X, witness):
    return int(np.flatnonzero((X == witness[0]).all(axis=1))[0])


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_certificates_with_the_worst_pair_in_a_later_block(family, block_rows):
    d = 257                           # 127 rows per real block, 16 blocks
    block_rows(d)
    inst = cons.build_instance(family, d, 2 * d)
    rows = max(1, engine.VALUE_BLOCK // d)
    n = 2000
    X = ref_sample_ball(np.random.default_rng(3), n, d)
    ref = ref_lipschitz(inst, 0.1, n, 3)
    assert _worst_index(X, ref[3]) >= rows
    assert_report(cons.check_lipschitz(inst, L=0.1, samples=n, seed=3), ref)
    assert_report(cons.check_lipschitz(inst, samples=n, seed=3),
                  ref_lipschitz(inst, inst.lipschitz_constant, n, 3))
    if inst.quadratic:
        ref = ref_strong_convexity(inst, 3.0, n, 3)
        assert _worst_index(X, ref[3]) >= rows
        assert_report(cons.check_strong_convexity(inst, alpha=3.0, samples=n, seed=3), ref)


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_certificate_tie_across_blocks_keeps_the_first(family, block_rows, monkeypatch):
    # rows 3 and 17 (blocks 0 and 2 at 7 rows) are the same pair up to the
    # sign of a zero coordinate, so their slacks tie exactly and only the
    # witness tells which one was reported: argmax/argmin keep the first
    d, n = 8, 20
    block_rows(d)
    inst = cons.build_instance(family, d, 2 * d)
    rng = np.random.default_rng(5)
    X = 0.5 * ref_sample_ball(rng, n, d)
    X[3] = X[17] = 0.0
    X[3, 1] = X[17, 1] = 0.5
    X[17, 0] = -0.0
    Y = X.copy()                      # every other pair has slack 0
    Y[3] = Y[17] = 0.0
    checks = [lambda: cons.check_lipschitz(inst, L=1e-3, samples=n)]
    if inst.quadratic:
        checks.append(lambda: cons.check_strong_convexity(inst, alpha=3.0, samples=n))
    for check in checks:
        draws = iter((X, Y))
        monkeypatch.setattr(cons, "sample_ball", lambda rng, count, dim: next(draws))
        rep = check()
        assert not rep.passed
        assert_bits(rep.witness[0], X[3])
        assert not np.signbit(rep.witness[0][0])

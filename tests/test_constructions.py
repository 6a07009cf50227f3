import dataclasses
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lastiter.constructions as cons
from lastiter import engine
from lastiter.engine import run_sgd
from reference_routes import active_set, piece_grads, subgradient_at

GRID = [(d, T) for d in (1, 2, 4, 8, 16) for T in (d, 2 * d, 64) if d <= T]


def brute_f(inst, x):
    """Independent evaluation: explicit loop over pieces, no shared code path."""
    x = np.asarray(x, dtype=float)
    best, h = -np.inf, piece_grads(inst)
    for i in range(inst.d + 2):
        v = float(np.dot(h[i], x))
        if inst.quadratic:
            v += 0.5 * float(np.dot(x, x))
        best = max(best, v)
    return best


# ------------------------------------------------------------------ builders

def test_build_sc_d2_t4_tables():
    inst = cons.build_instance("sc", 2, 4)
    np.testing.assert_array_equal(inst.shared_slopes, [0.25, 0.5])
    h = piece_grads(inst)
    np.testing.assert_array_equal(h[0], [0.0, 0.0])
    np.testing.assert_array_equal(h[1], [-1.0, 0.0])
    np.testing.assert_array_equal(h[2], [0.25, -1.0])
    np.testing.assert_array_equal(h[3], [0.25, 0.5])
    assert inst.quiet_steps == 2 and inst.quadratic


def test_build_lip_fixed_d1_t1_tables():
    inst = cons.build_instance("lip-fixed", 1, 1)
    np.testing.assert_array_equal(inst.shared_slopes, [0.125])
    np.testing.assert_array_equal(inst.depths, [0.5])
    np.testing.assert_array_equal(piece_grads(inst)[1], [-0.5])
    np.testing.assert_array_equal(piece_grads(inst)[2], [0.125])


def test_build_lip_dec_depths():
    inst = cons.build_instance("lip-dec", 2, 4)
    np.testing.assert_allclose(inst.depths, [math.sqrt(3) / 4.0, 0.5], rtol=0, atol=1e-16)
    assert inst.schedule().kind == "inv_sqrt_t"


def test_lip_fixed_schedule_is_one_over_sqrt_T():
    for T in (1, 2, 3, 64, 1000, 4097, 10 ** 5):
        sizes = cons.build_instance("lip-fixed", 1, T).schedule().sizes(T)
        assert sizes.tolist() == [1.0 / math.sqrt(T)] * T, T


def test_build_validation():
    with pytest.raises(ValueError):
        cons.build_instance("sc", 0, 4)
    with pytest.raises(ValueError):
        cons.build_instance("sc", 5, 4)
    with pytest.raises(ValueError):
        cons.build_instance("nope", 2, 4)
    # past 2**53 the step indices are no longer exact floats
    with pytest.raises(ValueError, match=f"T={2 ** 53}$"):
        cons.build_instance("lip-dec", 2, 2 ** 53)
    assert cons.build_instance("lip-dec", 2, 2 ** 53 - 1).T == 2 ** 53 - 1


def test_piece_grads_are_locked():
    inst = cons.build_instance("sc", 2, 4)
    for table in (piece_grads(inst), inst.shared_slopes, inst.depths):
        with pytest.raises(ValueError):
            table[0, ...] = 1.0


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 5, 64])
def test_structured_pieces_match_dense_table(family, d):
    # a loop-built dense table is the reference for the O(d) staircase routes
    inst = cons.build_instance(family, d, max(2 * d, 16))
    h = np.zeros((d + 2, d))
    for i in range(1, d + 1):
        h[i, :i - 1] = inst.shared_slopes[:i - 1]
        h[i, i - 1] = -inst.depths[i - 1]
    h[d + 1] = inst.shared_slopes
    np.testing.assert_array_equal(piece_grads(inst), h)
    X = np.vstack([cons.sample_ball(np.random.default_rng(d), 200, d)]
                  + [cons.closed_form_iterate(inst, t) for t in range(1, inst.T + 2)])
    dense = X @ h.T
    if inst.quadratic:
        dense += 0.5 * np.sum(X * X, axis=1)[:, None]
    np.testing.assert_allclose(cons.piece_values(inst, X), dense, rtol=0, atol=1e-15)
    for x, row in zip(X, dense):
        np.testing.assert_allclose(cons.piece_values(inst, x), row, rtol=0, atol=1e-15)
        g = h[np.argmax(row >= row.max() - cons.ACTIVE_TOL)] + (x if inst.quadratic else 0.0)
        np.testing.assert_array_equal(subgradient_at(inst, x), g)


# ------------------------------------------------------------------- eval_f

def test_eval_f_at_origin_is_zero():
    for fam in cons.FAMILIES:
        inst = cons.build_instance(fam, 3, 8)
        assert cons.eval_f(inst, np.zeros(3)) == 0.0


def test_eval_f_hand_value_sc():
    # H_3 at (3/16, 1/4) is 3/64 + 1/8 + (9/256 + 1/16)/2 = 113/512 and is the max
    inst = cons.build_instance("sc", 2, 4)
    x = np.array([3 / 16, 1 / 4])
    assert cons.eval_f(inst, x) == 113 / 512
    assert brute_f(inst, x) == 113 / 512


def test_eval_f_hand_value_lip_fixed():
    # max(0, -1/4, 1/16) at x = 1/2
    inst = cons.build_instance("lip-fixed", 1, 1)
    assert cons.eval_f(inst, np.array([0.5])) == 1 / 16


def test_eval_f_outside_ball():
    inst = cons.build_instance("sc", 2, 4)
    with pytest.raises(ValueError):
        cons.eval_f(inst, np.array([1.0, 1.0]))


def test_oracle_value_rejects_a_block_with_one_row_outside_ball():
    inst = cons.build_instance("sc", 2, 4)
    orc = cons.AdversarialOracle(inst)
    X = np.array([[0.0, 0.0], [3 / 16, 1 / 4], [0.6, 0.8]])
    np.testing.assert_array_equal(orc.value(X), [0.0, 113 / 512, cons.eval_f(inst, X[2])])
    for row in range(3):
        Y = X.copy()
        Y[row] = [1.0, 1.0]
        with pytest.raises(ValueError, match="x lies outside the unit ball"):
            orc.value(Y)
    # the slack of eval_f: 1 + 1e-9 passes, a hair beyond it does not
    orc.value(np.array([[0.0, 1.0 + 0.5e-9]]))
    with pytest.raises(ValueError, match="x lies outside the unit ball"):
        orc.value(np.array([[0.0, 1.0 + 2e-9]]))


# --------------------------------------------------------------- active set

def test_active_set_examples():
    inst = cons.build_instance("sc", 2, 4)
    np.testing.assert_array_equal(active_set(inst, np.zeros(2)), [0, 1, 2, 3])
    np.testing.assert_array_equal(active_set(inst, np.array([1 / 3, 0.0])), [2, 3])
    np.testing.assert_array_equal(active_set(inst, np.array([3 / 16, 1 / 4])), [3])


# ------------------------------------------------------------------- oracle

def test_oracle_quiet_then_kick():
    inst = cons.build_instance("sc", 2, 4)
    orc = cons.AdversarialOracle(inst)
    np.testing.assert_array_equal(orc.subgradient(np.zeros(2), 1), [0.0, 0.0])
    np.testing.assert_array_equal(orc.subgradient(np.zeros(2), 2), [0.0, 0.0])
    # first kick at x = 0 picks piece 1
    np.testing.assert_array_equal(orc.subgradient(np.zeros(2), 3), [-1.0, 0.0])
    # second kick at z_4 = (1/3, 0) picks piece 2 and adds x
    g = orc.subgradient(np.array([1 / 3, 0.0]), 4)
    np.testing.assert_allclose(g, [0.25 + 1 / 3, -1.0], rtol=0, atol=1e-16)
    assert orc.divergences == []


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_quiet_steps_share_one_read_only_zero(family):
    inst = cons.build_instance(family, 3, 10)
    orc = cons.AdversarialOracle(inst)
    quiet = [orc.subgradient(np.zeros(3), t) for t in range(1, inst.quiet_steps + 1)]
    assert all(g is quiet[0] for g in quiet) and not quiet[0].flags.writeable
    assert not np.signbit(quiet[0]).any() and not quiet[0].any()
    # recorded quiet gradients are +0.0 bit for bit
    trace = cons.run_on_instance(inst)
    assert not trace.gradients[:inst.quiet_steps].view(np.uint64).any()


# ------------------------------------------------ support-truncated pieces
# The oracle evaluates pieces only up to the last nonzero column of its
# input; the reference computes every piece at full width.  All comparisons
# are on raw bits.

def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class FullWidthOracle(cons.AdversarialOracle):
    """The adversarial oracle with all d+2 pieces computed at every query."""

    def value(self, X):
        return cons.piece_values(self.inst, np.asarray(X, dtype=float)).max(axis=-1)

    def subgradient(self, x, t):
        inst = self.inst
        if t <= inst.quiet_steps:
            return self._zero
        x = np.asarray(x, dtype=float)
        vals = cons.piece_values(inst, x)
        active = vals[1:] >= vals.max() - cons.ACTIVE_TOL
        i = int(active.argmax()) + 1
        if not active[i - 1]:
            raise RuntimeError("no active piece above the base one")
        if i != t - inst.quiet_steps:
            self.divergences.append((t, t - inst.quiet_steps, i))
        return cons._piece_grad(inst, i, x)


def _trailing_zero_points(d, seed):
    """Ball points whose columns past a support width w are +0.0, -0.0 or a
    mix, for w = 0, 1, d//2, d-1 and d, with a -0.0 inside the support too."""
    rng = np.random.default_rng(seed)
    base = cons.sample_ball(rng, 1, d)[0]
    out = []
    for w in sorted({0, 1, d // 2, d - 1, d}):
        for tail in (0.0, -0.0, None):
            x = base.copy()
            x[w:] = np.where(rng.random(d - w) < 0.5, 0.0, -0.0) if tail is None else tail
            if w >= 3:
                x[w // 2] = -0.0
            out.append(x)
    return np.array(out)


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 8, 257])
def test_truncated_value_and_kick_match_full_width(family, d):
    inst = cons.build_instance(family, d, 2 * d)
    X = _trailing_zero_points(d, d)
    got, ref = cons.AdversarialOracle(inst), FullWidthOracle(inst)
    assert np.array_equal(_bits(got.value(X)), _bits(ref.value(X)))
    for k in range(len(X)):
        assert np.array_equal(_bits(got.value(X[k:k + 3])), _bits(ref.value(X[k:k + 3])))
    for t in range(inst.quiet_steps + 1, inst.T + 1, max(1, d // 4)):
        for x in X:
            try:
                want = ref.subgradient(x, t)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    got.subgradient(x, t)
                continue
            assert np.array_equal(_bits(got.subgradient(x, t)), _bits(want))
    assert got.divergences == ref.divergences and got.divergences


@pytest.mark.parametrize("family", cons.FAMILIES)
@pytest.mark.parametrize("d, T", [(1, 1), (1, 5), (4, 4), (8, 8), (8, 40), (257, 300)])
def test_truncated_runs_match_full_width(family, d, T):
    # d = T has no quiet step and T = 1 a single one; the second start leaves
    # the intended trajectory, so the oracle logs divergences
    inst = cons.build_instance(family, d, T)
    x1 = np.zeros(d)
    x1[: (d + 1) // 2] = 0.5 / np.sqrt(d)
    x1[(d + 1) // 2:] = -0.0
    for start in (np.zeros(d), x1):
        got, ref = cons.AdversarialOracle(inst), FullWidthOracle(inst)
        a = run_sgd(got, inst.feasible(), inst.schedule(), start, T)
        b = run_sgd(ref, inst.feasible(), inst.schedule(), start, T)
        for name in ("iterates", "gradients", "values"):
            assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name))), name
        assert got.divergences == ref.divergences
    assert got.divergences            # logged on the second start
    rep = cons.verify_instance(inst)
    assert rep.passed and rep.divergences == []


def test_oracle_step_index_range():
    inst = cons.build_instance("sc", 2, 4)
    orc = cons.AdversarialOracle(inst)
    with pytest.raises(ValueError):
        orc.subgradient(np.zeros(2), 0)
    with pytest.raises(ValueError):
        orc.subgradient(np.zeros(2), 5)


def test_oracle_rejects_points_with_only_base_piece_active():
    # hand-crafted tables where both upper pieces sit strictly below the base
    inst = cons.AdversarialInstance(family="lip-fixed", d=1, T=1,
                                    shared_slopes=[-1.0], depths=[1.0])
    np.testing.assert_array_equal(piece_grads(inst), [[0.0], [-1.0], [-1.0]])
    orc = cons.AdversarialOracle(inst)
    with pytest.raises(RuntimeError):
        orc.subgradient(np.array([0.4]), 1)


# -------------------------------------------------------------- closed form

def test_closed_form_zero_until_first_kick():
    for fam in cons.FAMILIES:
        inst = cons.build_instance(fam, 3, 10)
        for t in range(1, inst.quiet_steps + 2):
            assert np.all(cons.closed_form_iterate(inst, t) == 0.0)


def test_closed_form_hand_values():
    inst = cons.build_instance("sc", 2, 4)
    np.testing.assert_array_equal(cons.closed_form_iterate(inst, 4), [1 / 3, 0.0])
    np.testing.assert_array_equal(cons.closed_form_iterate(inst, 5), [3 / 16, 1 / 4])

    # single gradient step: z_2 = b_1 / sqrt(T) = 1/2
    inst = cons.build_instance("lip-fixed", 1, 1)
    np.testing.assert_array_equal(cons.closed_form_iterate(inst, 2), [0.5])

    # hand-unrolled two kick steps of the decreasing-step family
    inst = cons.build_instance("lip-dec", 2, 4)
    np.testing.assert_allclose(cons.closed_form_iterate(inst, 4), [0.25, 0.0],
                               rtol=0, atol=1e-16)
    np.testing.assert_allclose(cons.closed_form_iterate(inst, 5), [7 / 32, 0.25],
                               rtol=0, atol=1e-16)


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_closed_form_iterate_is_trajectory_row(family):
    # one block over all T+1 steps (the kicked window's step sizes and
    # their prefix sums passed in) equals per-t calls
    for d, T in GRID:
        inst = cons.build_instance(family, d, T)
        block = cons._closed_form_block(inst, 1, T + 2, cons._kicked_window(inst))
        assert block.shape == (T + 1, d)
        for t, row in enumerate(block, start=1):
            assert np.array_equal(cons.closed_form_iterate(inst, t), row)


def test_closed_form_range():
    inst = cons.build_instance("sc", 2, 4)
    with pytest.raises(ValueError):
        cons.closed_form_iterate(inst, 0)
    with pytest.raises(ValueError):
        cons.closed_form_iterate(inst, 6)


# ------------------------------------------------------------------- bounds

def test_lower_bound_values():
    assert cons.lower_bound_value("sc", 2, 4) == math.log(2) / 20
    assert cons.lower_bound_value("sc", 1, 77) == 1 / (4 * 77)
    assert cons.lower_bound_value("lip-fixed", 4, 16) == math.log(4) / 128
    assert cons.lower_bound_value("lip-dec", 1, 16) == 1 / 128
    with pytest.raises(ValueError):
        cons.lower_bound_value("sc", 5, 4)


# ---------------------------------------------------------------- verifier

def test_verify_trajectory_pass_and_tamper():
    inst = cons.build_instance("sc", 2, 4)
    trace = cons.run_on_instance(inst)
    rep = cons.verify_trajectory(inst, trace, tol=1e-12)
    assert rep.passed and rep.max_deviation <= 1e-12 and rep.first_mismatch is None

    trace.iterates[4, 0] += 1e-3
    bad = cons.verify_trajectory(inst, trace, tol=1e-9)
    assert not bad.passed and bad.first_mismatch == 5
    # a NaN row earlier in the same block is the maximum and the first
    # mismatch: NaN is not within any tol
    trace.iterates[1, 1] = math.nan
    bad = cons.verify_trajectory(inst, trace, tol=1e-9)
    assert not bad.passed and bad.first_mismatch == 2 and math.isnan(bad.max_deviation)
    # a NaN alone fails the run
    trace = cons.run_on_instance(inst)
    trace.iterates[1, 1] = math.nan
    bad = cons.verify_trajectory(inst, trace, tol=1e-9)
    assert not bad.passed and bad.first_mismatch == 2 and math.isnan(bad.max_deviation)


def test_quiet_deviations_and_repeated_rows():
    # quiet rows (z = +0.0) are compared as max|x|; a block that is the same
    # object as the one before reuses its deviations only in the quiet prefix
    inst = cons.build_instance("lip-fixed", 8, 40)
    q, T = inst.quiet_steps, inst.T
    trace = cons.run_on_instance(inst)
    X = trace.iterates
    X[2, 5] = -2e-6                   # x_3
    X[19, 7] = -0.0                   # x_20
    X[q, 0] = -3e-6                   # x_{q+1}, the last quiet row
    X[q + 3] = X[q + 2]               # x_{q+4} repeats x_{q+3}
    dev = np.array([np.abs(x - cons.closed_form_iterate(inst, t)).max()
                    for t, x in enumerate(X, start=1)])
    zero = np.zeros((1, inst.d))
    blocks = [zero if t in range(3, q) and t != 19 else X[t:t + 1] for t in range(T + 1)]
    blocks[q + 3] = blocks[q + 2]     # the same object, in the kicked part
    for rep in (cons.verify_trajectory(inst, trace), cons._compare(inst, blocks, 1e-9)):
        assert rep.first_mismatch == 3 and not rep.passed
        assert _bits(rep.max_deviation) == _bits(dev.max())
    rep = cons._compare(inst, blocks, 1.0)
    assert rep.passed and _bits(rep.max_deviation) == _bits(dev.max())
    assert dev[q + 3] > 1e-3          # so a reused deviation would show


def test_verify_trajectory_length_mismatch():
    inst = cons.build_instance("sc", 2, 4)
    trace = cons.run_on_instance(inst)
    trace.iterates = trace.iterates[:-1]
    with pytest.raises(ValueError):
        cons.verify_trajectory(inst, trace)


def test_verify_rejects_nan_tolerance():
    # no deviation compares above NaN or +inf, so such a tolerance would pass
    # any run, and -inf is no tolerance either; a negative finite one still
    # fails at the first iterate
    inst = cons.build_instance("sc", 2, 4)
    trace = cons.run_on_instance(inst)
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN"):
            cons.verify_trajectory(inst, trace, tol=tol)
        with pytest.raises(ValueError, match="NaN"):
            cons.verify_instance(inst, tol=tol)
    for rep in (cons.verify_trajectory(inst, trace, tol=-1.0),
                cons.verify_instance(inst, tol=-1.0)):
        assert not rep.passed and rep.first_mismatch == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(cons.FAMILIES), st.integers(1, 12), st.integers(0, 36))
@example("sc", 1, 0)
@example("lip-dec", 1, 0)
@example("lip-fixed", 1, 0)
@example("sc", 5, 0)
@example("lip-dec", 5, 0)
@example("lip-fixed", 5, 0)
def test_engine_matches_closed_form(family, d, extra):
    inst = cons.build_instance(family, d, d + extra)
    rep = cons.verify_trajectory(inst, cons.run_on_instance(inst), tol=1e-9)
    assert rep.passed, (family, d, d + extra, rep.max_deviation)
    # the streaming route reports the same fields, bit for bit, plus the drift log
    live = dataclasses.asdict(cons.verify_instance(inst, tol=1e-9))
    recorded = dataclasses.asdict(rep)
    assert recorded.pop("divergences") is None and live.pop("divergences") == []
    assert live == recorded


def test_verify_report_cuts_divergences_to_three():
    drift = [(t, t - 10, t - 9) for t in range(11, 16)]
    rep = cons.VerifyReport(family="sc", d=8, T=16, max_deviation=0.0,
                            first_mismatch=None, final_value=0.1, bound=0.05,
                            tol=1e-9, passed=True, divergences=drift)
    assert rep.to_dict()["divergences"] == {
        "count": 5, "first": [[11, 1, 2], [12, 2, 3], [13, 3, 4]]}
    inst = cons.build_instance("sc", 2, 4)
    recorded = cons.verify_trajectory(inst, cons.run_on_instance(inst))
    assert recorded.to_dict()["divergences"] is None


def test_verify_instance_memory_is_o_of_d():
    # no (T+1, d) history: the peak stays under a tenth of one such array
    inst = cons.build_instance("lip-dec", 500, 10_000)
    one_history = (inst.T + 1) * inst.d * 8
    tracemalloc.start()
    try:
        rep = cons.verify_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.divergences == []
    assert peak < one_history / 10, peak


def test_verify_instance_keeps_no_per_step_deviation():
    # the comparison keeps a running maximum and a first index, not T+1 row
    # deviations: the peak stays under one float a step
    inst = cons.build_instance("lip-dec", 2, 50_000)
    tracemalloc.start()
    try:
        rep = cons.verify_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 8 * inst.T, peak / inst.T


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_recorded_quiet_prefix_commits_no_memory():
    # lip-fixed at d = 1024, T = 4096 waits T - d = 3072 steps at the origin,
    # so of its 64 MiB of iterates and gradients only the d kicked rows of
    # each (16 MiB) are nonzero.  run_sgd takes both arrays from np.zeros,
    # that is from calloc, and leaves the all-+0.0 rows unwritten.  glibc
    # serves a calloc block of 32 MiB or more (the ceiling of its adaptive
    # mmap threshold) with a fresh mapping, whose pages stay uncommitted
    # until written; a smaller block may come from the heap, which calloc
    # clears by writing.  So both arrays must be at least 32 MiB.
    inst = cons.build_instance("lip-fixed", 1024, 4096)

    def resident():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    before = resident()
    trace = cons.run_on_instance(inst)
    grown = resident() - before
    assert min(trace.iterates.nbytes, trace.gradients.nbytes) >= 32 << 20
    assert grown < 32 << 20, grown / 2 ** 20


def test_verify_instance_holds_one_block_of_step_sizes(monkeypatch):
    # the engine builds its step sizes engine.STEP_BLOCK at a time: at
    # T = 10^5 (25 blocks) the peak stays under 1 MB, where all T sizes with
    # their int64 arange and sqrt temporaries took 2.4 MB; the report is the
    # one a run with every size in one block gives
    inst = cons.build_instance("lip-dec", 2, 100_000)
    tracemalloc.start()
    try:
        rep = cons.verify_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    monkeypatch.setattr(engine, "STEP_BLOCK", inst.T)
    want = cons.verify_instance(inst)
    assert rep.passed and rep.to_dict() == want.to_dict()
    assert rep.final_value.hex() == want.final_value.hex()


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_piece_values_batch_memory_is_one_buffer(family):
    # the (n, d+2) output plus one (n, d) temporary at a time; building the
    # prefix sums and the values in separate arrays would take 3 outputs
    inst = cons.build_instance(family, 256, 256)
    X = cons.sample_ball(np.random.default_rng(0), 10_000, inst.d)
    tracemalloc.start()
    try:
        vals = cons.piece_values(inst, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * vals.nbytes, peak / vals.nbytes


# ------------------------------------------------------------- certificates

def test_certificates_pass_at_stated_constants():
    sc = cons.build_instance("sc", 4, 16)
    assert cons.check_lipschitz(sc, L=3.0, samples=4000, seed=0).passed
    assert cons.check_strong_convexity(sc, alpha=1.0, samples=4000, seed=0).passed
    for fam in ("lip-dec", "lip-fixed"):
        inst = cons.build_instance(fam, 4, 16)
        assert cons.check_lipschitz(inst, L=1.0, samples=4000, seed=0).passed


def test_certificates_fail_at_wrong_constants():
    sc = cons.build_instance("sc", 4, 16)
    rep = cons.check_lipschitz(sc, L=0.1, samples=4000, seed=0)
    assert not rep.passed and rep.witness is not None
    assert not cons.check_strong_convexity(sc, alpha=3.0, samples=4000, seed=0).passed
    with pytest.raises(ValueError):
        cons.check_strong_convexity(cons.build_instance("lip-dec", 4, 16))


@pytest.mark.parametrize("check", [cons.check_lipschitz, cons.check_strong_convexity])
def test_certificate_memory_is_the_samples_plus_blocks(check):
    # X and Y are the only (n, d) arrays; values, distances and subgradients
    # are formed one block at a time, not as about five more (n, d) arrays
    inst = cons.build_instance("sc", 256, 256)
    samples = 4000
    xy_bytes = 2 * samples * inst.d * 8
    tracemalloc.start()
    try:
        assert check(inst, samples=samples, seed=0).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < xy_bytes + 4 * 2**20, (peak - xy_bytes) / 2**20


def test_strong_convexity_degenerate_pair():
    # x = y: the inequality reduces to 0 >= 0
    inst = cons.build_instance("sc", 3, 9)
    x = np.array([0.2, -0.1, 0.05])
    g = subgradient_at(inst, x)
    slack = cons.eval_f(inst, x) - cons.eval_f(inst, x) - g @ (x - x) - 0.5 * 0.0
    assert slack == 0.0


# --------------------------------------------------------------- invariants

@pytest.mark.parametrize("family", cons.FAMILIES)
def test_trajectory_invariants_over_grid(family):
    for d, T in GRID:
        inst = cons.build_instance(family, d, T)
        h = piece_grads(inst)
        q = inst.quiet_steps
        for t in range(q + 2, T + 2):
            row = cons.closed_form_iterate(inst, t)
            m = t - q
            support, off = row[:m - 1], row[m - 1:]
            assert np.all(off == 0.0)
            if family == "sc":
                assert np.all(support >= 1.0 / (2.0 * (t - 1)) - 1e-15)
                assert row @ row <= 1.0 / (t - 1) + 1e-12
            else:
                assert np.all(support >= 1.0 / (4.0 * math.sqrt(T)) - 1e-15)
                assert np.all(support <= 1.0 / (2.0 * math.sqrt(T)) + 1e-15)
            assert np.linalg.norm(row) <= 1.0 + 1e-12

            # lowest non-base active piece marches with the step index
            act = active_set(inst, row)
            act = act[act > 0]
            assert act[0] == m

            # current piece strictly dominates the previously active ones
            for i in range(1, m):
                gap = row @ (h[m] - h[i])
                assert gap > 0.0


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_minimum_value_zero_at_origin(family):
    inst = cons.build_instance(family, 6, 20)
    assert cons.eval_f(inst, np.zeros(6)) == 0.0
    rng = np.random.default_rng(3)
    for x in cons.sample_ball(rng, 200, 6):
        assert cons.eval_f(inst, x) >= 0.0


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_piece_gradient_norm_caps(family):
    inst = cons.build_instance(family, 16, 64)
    norms = np.linalg.norm(piece_grads(inst), axis=1)
    cap = 2.0 if family == "sc" else 1.0
    assert np.all(norms <= cap)


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_on_trajectory_subgradients_are_valid(family):
    # every oracle output g at x_t satisfies f(y) >= f(x_t) + g.(y - x_t)
    inst = cons.build_instance(family, 8, 24)
    trace = cons.run_on_instance(inst)
    rng = np.random.default_rng(11)
    Y = cons.sample_ball(rng, 1000, 8)
    fY = np.max(cons.piece_values(inst, Y), axis=1)
    for t in range(inst.quiet_steps + 1, inst.T + 1):
        x = trace.iterates[t - 1]
        g = trace.gradients[t - 1]
        fx = cons.eval_f(inst, x)
        assert np.all(fY - fx - (Y - x) @ g >= -1e-12)


@pytest.mark.parametrize("family", cons.FAMILIES)
def test_projection_never_activates_on_trajectory(family):
    # pre-projection points stay inside the unit ball
    inst = cons.build_instance(family, 8, 24)
    trace = cons.run_on_instance(inst)
    etas = inst.schedule().sizes(inst.T)
    for t in range(1, inst.T + 1):
        y = trace.iterates[t - 1] - etas[t - 1] * trace.gradients[t - 1]
        assert np.linalg.norm(y) <= 1.0 + 1e-12
        np.testing.assert_array_equal(trace.iterates[t], y)


def test_engine_example_matches_lower_bound_module():
    # the generic engine reproduces the hand-unrolled iterate list exactly
    inst = cons.build_instance("sc", 2, 4)
    trace = run_sgd(cons.AdversarialOracle(inst), inst.feasible(),
                    inst.schedule(), np.zeros(2), inst.T)
    expected = np.array([[0, 0], [0, 0], [0, 0], [1 / 3, 0], [3 / 16, 1 / 4]])
    np.testing.assert_allclose(trace.iterates, expected, rtol=0, atol=1e-16)

"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  `pytest tests/test_acceptance.py -v -s`  to see every line.

Status note.  Criteria 9, 10 and 11 check the one-dimensional claim, which
is about a stochastic oracle, so they run the abs instance at epsilon = 1/2:
the value the CLI, scripts/mc_scaling_study.py and the stochastic-regime
tests in test_nearly_linear.py use.  At epsilon = 1 the two-point oracle is
deterministic: |s(x)| = G everywhere (x = 0 included, by the
right-derivative convention), so P[+G] = (1 + s(x)/G)/2 is 0 or 1, and every
trial follows one zigzag.  There (9) mean * sqrt(T) is not stable, since at
T = 6400 the zigzag parks x_T on the minimizer, (10) the final value is a
single atom and no tail slope can be fitted, and (11) from x0 = D/2 at
T = 400 the iterates stay on the lattice {+/-0.1, +/-0.3, +/-0.5} (pitch
4D/sqrt(T) = 0.2) and miss the target set S, so every path never hits it.
S has half-width D/(epsilon sqrt(T)), so it holds the lattice points +/-0.1
only if epsilon <= 1/2; at epsilon = 0.6 every path misses as well.
test_nearly_linear.py::test_degenerate_oracle_at_epsilon_one records these
properties.

At epsilon = 1/2 the points +/-0.1 lie exactly on the boundary of S, and the
membership test GoodSet.contains, the closed-set test f(x) <= theta that
simulate_paths applies once per reachable float, decides their membership
after rounding: an iterate that lands on 0.09999999999999998 is inside, one
that lands on -0.10000000000000003 is outside.
"""

import math
import time

import numpy as np
import pytest

import lastiter.constructions as cons
from lastiter import nearly_linear as nl
from lastiter import walk as wk

DIMS = (1, 2, 4, 8, 16, 32, 64)


def grid_points():
    return [(d, T) for d in DIMS for T in (max(d, 64), 1024, 4096)]


def report(num, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag}  {desc}  {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def traces():
    """Engine runs and verify reports for the full grid, per family."""
    out = {}
    for family in cons.FAMILIES:
        t0 = time.perf_counter()
        runs = {}
        for d, T in grid_points():
            inst = cons.build_instance(family, d, T)
            trace = cons.run_on_instance(inst)
            runs[(d, T)] = (inst, trace, cons.verify_trajectory(inst, trace, tol=1e-9))
        out[family] = (runs, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def mc_eps_half():
    """abs instance with epsilon = 1/2: 10^4 trials from x0 = D/2 per horizon."""
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.5)
    t0 = time.perf_counter()
    stats = {T: nl.simulate_paths(inst, T, 10_000, 0.5, seed=0)
             for T in (100, 400, 1600, 6400)}
    return inst, stats, time.perf_counter() - t0


def test_criterion_01_trajectory_identity_sc(traces):
    runs, elapsed = traces["sc"]
    worst = max(rep.max_deviation for _, _, rep in runs.values())
    ok = all(rep.passed for _, _, rep in runs.values()) and elapsed < 10.0
    assert report(1, ok, "sc trajectories match the closed form at 1e-9",
                  f"(worst dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_trajectory_identity_lipschitz(traces):
    ok = True
    worst = 0.0
    for family in ("lip-dec", "lip-fixed"):
        runs, _ = traces[family]
        worst = max(worst, max(rep.max_deviation for _, _, rep in runs.values()))
        ok = ok and all(rep.passed for _, _, rep in runs.values())
    assert report(2, ok, "lip-dec/lip-fixed trajectories match at 1e-9",
                  f"(worst dev {worst:.2e})")


def test_criterion_03_lower_bound_sc(traces):
    runs, _ = traces["sc"]
    ok = True
    for (d, T), (_, trace, _) in runs.items():
        final = trace.values[-1]
        bound = cons.lower_bound_value("sc", d, T)
        ok = ok and (final > bound if d >= 2 else final >= bound)
    assert report(3, ok, "sc final value beats log(d)/(5T), 1/(4T) fallback at d=1")


def test_criterion_04_lower_bound_lipschitz(traces):
    ok = True
    for family in ("lip-dec", "lip-fixed"):
        runs, _ = traces[family]
        for (d, T), (_, trace, _) in runs.items():
            if d < 2:
                continue
            ok = ok and trace.values[-1] > cons.lower_bound_value(family, d, T)
    assert report(4, ok, "Lipschitz final values beat log(d)/(32 sqrt(T)) for d >= 2")


def test_criterion_05_certificates():
    ok = True
    worst = []
    for d, T in ((2, 64), (8, 64), (64, 4096)):
        sc = cons.build_instance("sc", d, T)
        lip_rep = cons.check_lipschitz(sc, L=3.0, samples=10_000, seed=0)
        strong_rep = cons.check_strong_convexity(sc, alpha=1.0, samples=10_000, seed=0)
        ok = ok and lip_rep.passed and strong_rep.passed
        worst.append(strong_rep.worst)
        for family in ("lip-dec", "lip-fixed"):
            inst = cons.build_instance(family, d, T)
            ok = ok and cons.check_lipschitz(inst, L=1.0, samples=10_000, seed=0).passed
    assert report(5, ok, "Lipschitz(3)/strong-convexity(1) and Lipschitz(1) certificates",
                  f"(worst sc slack {min(worst):.1e})")


def test_criterion_06_log_growth(traces):
    runs, _ = traces["sc"]
    ds = (2, 4, 8, 16, 32, 64)
    finals = [runs[(d, 4096)][1].values[-1] for d in ds]
    grows = all(b > a for a, b in zip(finals, finals[1:]))
    slope = float(np.polyfit(np.log(ds), np.array(finals) * 5 * 4096, 1)[0])
    ok = grows and 0.8 <= slope <= 2.0
    assert report(6, ok, "final value grows with d; 5T-scaled slope vs ln d in [0.8, 2]",
                  f"(slope {slope:.3f})")


def test_criterion_07_stationary_equivalence():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_diff = 0.0
    worst_res = 0.0
    for n in (10, 100, 1000):
        for _ in range(200):
            chain = wk.make_chain(np.sort(rng.uniform(0.5, 1.0, n + 1)))
            closed = wk.stationary_closed_form(chain)
            solved = wk.stationary_solve(chain, "linear_solve")
            worst_diff = max(worst_diff, float(np.max(np.abs(closed.p - solved.p))))
            worst_res = max(worst_res, closed.residual)
    elapsed = time.perf_counter() - t0
    ok = worst_diff <= 1e-10 and worst_res <= 1e-12 and elapsed < 30.0
    assert report(7, ok, "closed form vs linear solve on 600 random profiles",
                  f"(diff {worst_diff:.1e}, resid {worst_res:.1e}, {elapsed:.1f}s)")


def test_criterion_08_stationary_bound():
    ok = True
    for name in ("linear", "quadratic", "piecewise", "exp"):
        f, df = wk.profile(name)
        for n in (10, 50, 100, 500, 1000):
            chain = wk.chain_from_function(f, n, subgradient=df)
            sub = wk.stationary_suboptimality(chain, f)
            ok = ok and sub <= wk.suboptimality_bound(n)
    assert report(8, ok, "stationary suboptimality <= (2 + 24e)/n over the corpus")


def test_criterion_09_monte_carlo_scaling(mc_eps_half):
    _, stats, elapsed = mc_eps_half
    scaled = [nl.expected_suboptimality(stats[T])[0] * math.sqrt(T)
              for T in (100, 400, 1600, 6400)]
    ratio = max(scaled) / min(scaled) if min(scaled) > 0 else math.inf
    ok = ratio <= 2.0 and elapsed < 120.0
    assert report(9, ok, "abs eps=1/2: mean x sqrt(T) stable within factor 2",
                  f"(scaled means {[f'{v:.3g}' for v in scaled]}, ratio {ratio:.3g})")


def test_criterion_10_tail_decay():
    inst = nl.build_nearly_linear("abs", 1.0, 1.0, 0.5)
    stats = nl.simulate_paths(inst, 400, 100_000, 0.5, seed=0)
    try:
        rate = nl.tail_estimate(stats).rate
        ok = rate < 0.0
        detail = f"(rate {rate:.4f})"
    except ValueError as exc:
        ok, detail = False, f"(no fit: {exc})"
    assert report(10, ok, "abs eps=1/2, T=400, 1e5 trials: fitted tail slope < 0", detail)


def test_criterion_11_never_hit_rarity(mc_eps_half):
    _, stats, _ = mc_eps_half
    never_400 = stats[400].never_hit_count
    fracs = [stats[T].never_hit_count / stats[T].trials for T in (100, 400, 1600)]
    ok = never_400 < 10 and all(b <= a for a, b in zip(fracs, fracs[1:]))
    assert report(11, ok, "x0=D/2: <10 paths never reach the target set; fraction nonincreasing",
                  f"(never at T=400: {never_400}, fractions {fracs})")


def test_criterion_12_cross_implementation():
    n = 100
    f, df = wk.profile("linear", slope=0.5)
    chain = wk.chain_from_function(f, n, subgradient=df)
    trace = wk.simulate_chain_sgd(chain, f, steps=50 * n * n, seed=0, start=1.0)
    emp = wk.long_run_suboptimality(trace, burn_in=n * n)
    stat = wk.stationary_suboptimality(chain, f)
    ok = abs(emp - stat) <= 0.01
    assert report(12, ok, "engine-simulated walk matches the stationary value at n=100",
                  f"(|{emp:.5f} - {stat:.5f}| = {abs(emp - stat):.1e})")

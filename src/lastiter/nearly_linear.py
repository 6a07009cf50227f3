"""Monte Carlo study of fixed-step SGD on nearly linear 1D instances.

An instance is a convex piecewise-linear f on X = [-D/2, D/2] with unique
minimum f(0) = 0, together with a two-point stochastic oracle: it answers
+G or -G with P[+G] = (1 + s(x)/G)/2, where s(x) is the subgradient of f at
x under the right-derivative convention.  The answers are bounded by G and
unbiased, and outside the good set

    S = { x : f(x) - f* <= G D / sqrt(T) }

the mean magnitude |s(x)| stays inside the band [c eps G, eps G], which is
what "nearly linear" means here.  Paths use the fixed step eta = 4D/(G sqrt(T)).

Simulation is vectorized across trials.  Every trial owns a counter-based
Philox stream keyed by (seed, trial index), so results are independent of
batch size and trial order; one path pushed through the generic engine with
the same stream reproduces the vectorized path bit for bit (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Interval, SgdTrace, StepSchedule, run_sgd

_BAND_TOL = 1e-12

SHAPES = ("abs", "asym_abs", "piecewise")


@dataclass(frozen=True)
class NearlyLinearInstance:
    """Piecewise-linear convex instance with its two-point oracle parameters."""

    shape: str
    diameter: float      # domain is [-diameter/2, diameter/2]
    grad_bound: float    # oracle answers are +/- grad_bound
    epsilon: float       # slope scale; |slopes| <= epsilon * grad_bound
    band_ratio: float    # band floor fraction c; |slopes| >= c * epsilon * grad_bound
    knots: np.ndarray    # (m+1,) breakpoints, endpoints included, 0 among them
    knot_values: np.ndarray  # (m+1,) f at the knots, f(0) = 0
    slopes: np.ndarray   # (m,) slope on each segment, nondecreasing

    @property
    def lo(self) -> float:
        return -self.diameter / 2.0

    @property
    def hi(self) -> float:
        return self.diameter / 2.0

    def f(self, x):
        """Objective value(s); exact for piecewise-linear f via interpolation."""
        return np.interp(np.asarray(x, dtype=float), self.knots, self.knot_values)

    def mean_grad(self, x):
        """Conditional mean of the oracle at x: the right-derivative slope
        (left derivative at the right endpoint)."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.knots, x, side="right") - 1
        idx = np.clip(idx, 0, self.slopes.shape[0] - 1)
        return self.slopes[idx]

    def plus_prob(self, x):
        """P[oracle answers +G] at x."""
        return 0.5 * (1.0 + self.mean_grad(x) / self.grad_bound)


def build_nearly_linear(shape: str, diameter: float, grad_bound: float,
                        epsilon: float, band_ratio: float = 1.0,
                        knots=None, slopes=None) -> NearlyLinearInstance:
    """Construct an instance of one of the three shapes.

    abs:        f(x) = eps*G*|x|
    asym_abs:   slope -c*eps*G left of 0 and +eps*G right of it
    piecewise:  user-provided interior ``knots`` and per-segment ``slopes``
                (0 is inserted as a knot if missing)

    Raises if some segment slope leaves the band [c eps G, eps G] in
    magnitude, is ordered non-convexly, or points the wrong way around the
    minimum at 0.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    if not diameter > 0 or not grad_bound > 0:
        raise ValueError("diameter and grad_bound must be positive")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 0.0 < band_ratio <= 1.0:
        raise ValueError("band_ratio must lie in (0, 1]")

    lo, hi = -diameter / 2.0, diameter / 2.0
    top = epsilon * grad_bound
    if shape == "abs":
        ks = np.array([lo, 0.0, hi])
        ss = np.array([-top, top])
    elif shape == "asym_abs":
        ks = np.array([lo, 0.0, hi])
        ss = np.array([-band_ratio * top, top])
    else:
        if knots is None or slopes is None:
            raise ValueError("piecewise shape needs knots and slopes")
        interior = sorted(set(float(k) for k in knots) | {0.0})
        if interior and (interior[0] <= lo or interior[-1] >= hi):
            raise ValueError("interior knots must lie strictly inside the domain")
        ks = np.array([lo] + interior + [hi])
        ss = np.asarray(slopes, dtype=float)
        if ss.shape[0] != ks.shape[0] - 1:
            raise ValueError(
                f"need {ks.shape[0] - 1} slopes for {ks.shape[0]} knots, got {ss.shape[0]}")

    if np.any(np.diff(ss) < -_BAND_TOL):
        raise ValueError("slopes must be nondecreasing (convexity)")
    mags = np.abs(ss)
    if np.any(mags > top + _BAND_TOL) or np.any(mags < band_ratio * top - _BAND_TOL):
        raise ValueError(
            f"segment slopes must have magnitude in [{band_ratio * top}, {top}]")
    zero_idx = int(np.searchsorted(ks, 0.0))
    if np.any(ss[:zero_idx] >= 0) or np.any(ss[zero_idx:] <= 0):
        raise ValueError("slopes must be negative left of 0 and positive right of it")

    # integrate slopes outward from the minimum so f(0) = 0 exactly
    vals = np.empty_like(ks)
    vals[zero_idx] = 0.0
    for k in range(zero_idx + 1, ks.shape[0]):
        vals[k] = vals[k - 1] + ss[k - 1] * (ks[k] - ks[k - 1])
    for k in range(zero_idx - 1, -1, -1):
        vals[k] = vals[k + 1] - ss[k] * (ks[k + 1] - ks[k])
    for arr in (ks, vals, ss):
        arr.setflags(write=False)
    return NearlyLinearInstance(
        shape=shape, diameter=diameter, grad_bound=grad_bound,
        epsilon=epsilon, band_ratio=band_ratio,
        knots=ks, knot_values=vals, slopes=ss)


@dataclass(frozen=True)
class GoodSet:
    """Endpoints of { x : f(x) <= threshold }, an interval by convexity."""

    left: float
    right: float
    threshold: float


def good_set(inst: NearlyLinearInstance, T: int) -> GoodSet:
    """Sublevel interval at threshold G D / sqrt(T), endpoints by bisection."""
    if T < 1:
        raise ValueError("T must be >= 1")
    theta = inst.grad_bound * inst.diameter / math.sqrt(T)

    def cross(inside: float, outside: float) -> float:
        # f(inside) <= theta < f(outside); bisect to 1e-12, keeping the f <= theta end
        for _ in range(200):
            if abs(outside - inside) <= 1e-12:
                break
            mid = 0.5 * (inside + outside)
            if float(inst.f(mid)) <= theta:
                inside = mid
            else:
                outside = mid
        return inside

    right = inst.hi if float(inst.f(inst.hi)) <= theta else cross(0.0, inst.hi)
    left = inst.lo if float(inst.f(inst.lo)) <= theta else cross(0.0, inst.lo)
    return GoodSet(left=left, right=right, threshold=theta)


@dataclass
class PathStats:
    """Per-trial outcomes of a batch of fixed-step SGD paths."""

    T: int
    trials: int
    x0: float
    seed: int
    step: float          # eta = 4D/(G sqrt(T))
    threshold: float     # good-set level G D / sqrt(T)
    final_x: np.ndarray        # (trials,)
    final_subopt: np.ndarray   # (trials,) f(x_T) - f*
    last_visit: np.ndarray     # (trials,) last t in 0..T with x_t in S, -1 if never

    @property
    def never_hit_count(self) -> int:
        return int(np.sum(self.last_visit < 0))

    @property
    def never_hit_fraction(self) -> float:
        return self.never_hit_count / self.trials


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial, keyed by (seed, trial)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_paths(inst: NearlyLinearInstance, T: int, trials: int, x0: float,
                   seed: int = 0, chunk: int = 2048) -> PathStats:
    """Run ``trials`` independent paths of T steps from x0 and collect
    final suboptimalities and last good-set visit times.

    Equivalent to running the engine per path (each trial consumes its own
    Philox stream, one uniform per step); vectorized across trials for speed.
    """
    if T < 1 or trials < 1:
        raise ValueError("T and trials must be >= 1")
    if not inst.lo <= x0 <= inst.hi:
        raise ValueError("x0 outside the domain")
    G, D = inst.grad_bound, inst.diameter
    eta = 4.0 * D / (G * math.sqrt(T))
    theta = G * D / math.sqrt(T)

    final_x = np.empty(trials)
    last_visit = np.full(trials, -1, dtype=np.int64)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        B = stop - start
        U = np.empty((B, T))
        for r in range(B):
            U[r] = trial_stream(seed, start + r).random(T)
        x = np.full(B, float(x0))
        last = np.full(B, 0 if float(inst.f(x0)) <= theta else -1, dtype=np.int64)
        for t in range(1, T + 1):
            g = np.where(U[:, t - 1] < inst.plus_prob(x), G, -G)
            x = np.clip(x - eta * g, inst.lo, inst.hi)
            in_s = inst.f(x) <= theta
            last[in_s] = t
        final_x[start:stop] = x
        last_visit[start:stop] = last

    return PathStats(
        T=T, trials=trials, x0=float(x0), seed=seed, step=eta, threshold=theta,
        final_x=final_x, final_subopt=np.asarray(inst.f(final_x)),
        last_visit=last_visit)


class NearlyLinearOracle:
    """Engine-compatible view of the two-point oracle for a single trial.

    Draws one uniform per query from the same (seed, trial) Philox stream the
    vectorized simulator uses, so a single engine run reproduces the
    corresponding vectorized path exactly.
    """

    def __init__(self, inst: NearlyLinearInstance, trial: int = 0):
        self.inst = inst
        self.trial = trial
        self._rng = trial_stream(0, trial)

    def reset(self, seed: int) -> None:
        self._rng = trial_stream(seed, self.trial)

    def value(self, x) -> float:
        return float(self.inst.f(float(np.asarray(x).reshape(-1)[0])))

    def subgradient(self, x, t: int) -> np.ndarray:
        p = float(self.inst.plus_prob(float(np.asarray(x).reshape(-1)[0])))
        g = self.inst.grad_bound if self._rng.random() < p else -self.inst.grad_bound
        return np.array([g])


def path_via_engine(inst: NearlyLinearInstance, T: int, x0: float,
                    seed: int = 0, trial: int = 0) -> SgdTrace:
    """One trial's path pushed through the generic engine (fixed step)."""
    eta = 4.0 * inst.diameter / (inst.grad_bound * math.sqrt(T))
    oracle = NearlyLinearOracle(inst, trial=trial)
    return run_sgd(oracle, Interval(inst.lo, inst.hi),
                   StepSchedule("constant", value=eta),
                   np.array([float(x0)]), T, seed=seed)


@dataclass
class TailEstimate:
    """Empirical tail table Pr[f(x_T) - f* >= k * threshold] and fitted decay."""

    rows: list              # (k, probability) for k = 0..k_max
    counts: np.ndarray      # raw counts per k
    rate: float             # least-squares slope of log(count) against k

    def to_rows(self):
        return [(int(k), float(p)) for k, p in self.rows]


def tail_estimate(stats: PathStats, k_max: int = 20,
                  min_count: int = 10) -> TailEstimate:
    """Tail probabilities at multiples of the good-set threshold, plus the
    exponential decay rate fitted on bins with at least ``min_count`` hits.

    Raises ValueError when fewer than two bins qualify (not enough trials to
    see the decay).
    """
    ks = np.arange(k_max + 1)
    thresholds = ks * stats.threshold
    counts = np.array([int(np.sum(stats.final_subopt >= thr)) for thr in thresholds])
    probs = counts / stats.trials
    rows = list(zip(ks.tolist(), probs.tolist()))

    fit_ks = [k for k in range(1, k_max + 1) if counts[k] >= min_count]
    if len(fit_ks) < 2 or counts[1:4].max(initial=0) == 0:
        raise ValueError(
            "insufficient trials for a tail fit: need nonzero counts at small k "
            "and at least two bins with >= {} hits".format(min_count))
    slope = float(np.polyfit(fit_ks, np.log(counts[fit_ks]), 1)[0])
    return TailEstimate(rows=rows, counts=counts, rate=slope)


def expected_suboptimality(stats: PathStats) -> tuple[float, float]:
    """Sample mean of f(x_T) - f* with its standard error."""
    if stats.trials < 100:
        raise ValueError("need at least 100 trials for a stable mean")
    mean = float(stats.final_subopt.mean())
    se = float(stats.final_subopt.std(ddof=1) / math.sqrt(stats.trials))
    return mean, se

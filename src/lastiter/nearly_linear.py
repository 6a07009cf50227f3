"""Monte Carlo study of fixed-step SGD on nearly linear 1D instances.

An instance is a convex piecewise-linear f on X = [-D/2, D/2] with unique
minimum f(0) = 0, together with a two-point stochastic oracle: it answers
+G or -G with P[+G] = (1 + s(x)/G)/2, where s(x) is the subgradient of f at
x under the right-derivative convention.  The answers are bounded by G and
unbiased, and outside the good set

    S = { x : f(x) - f* <= G D / sqrt(T) }

the mean magnitude |s(x)| stays inside the band [c eps G, eps G], which is
what "nearly linear" means here.  Paths use the fixed step eta = 4D/(G sqrt(T)).

Paths run through the engine's one SGD kernel, :func:`engine.sgd_steps`,
a chunk of trials at a time as one batch.  Every trial owns a counter-based
Philox stream keyed by (seed, trial index), drawn ``TILE`` steps at a time,
so results are independent of batch size and trial order, memory is
O(chunk x TILE) whatever the horizon, and one path recorded by ``run_sgd``
reproduces the batched path bit for bit (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Interval, SgdTrace, StepSchedule, run_sgd, sgd_steps

_BAND_TOL = 1e-12

#: steps of uniforms drawn from each trial's stream at a time.  Not a power
#: of two: a step reads one column of the (B, TILE) tile, and a power-of-two
#: row stride (512 doubles = 4096 bytes) maps every row of that column to the
#: same few cache sets (about 5 us more per step at B = 2048 on a 2-vCPU
#: x86_64 machine).
TILE = 500

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
        # the count of interior knots <= x is the index of x's segment; points
        # at or beyond either end of the domain fall in the end segments
        return self.slopes[np.searchsorted(self.knots[1:-1], x, side="right")]

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

    Each chunk of trials is one batch through :func:`engine.sgd_steps` with
    a batched :class:`NearlyLinearOracle`; only the current iterates, the
    last visit times and one tile of uniforms per trial are held, so memory
    is O(chunk x TILE).  Trial r gives the same path as
    ``path_via_engine(inst, T, x0, seed, trial=r)``.
    """
    if T < 1 or trials < 1:
        raise ValueError("T and trials must be >= 1")
    if not inst.lo <= x0 <= inst.hi:
        raise ValueError("x0 outside the domain")
    schedule = _fixed_step(inst, T)
    theta = inst.grad_bound * inst.diameter / math.sqrt(T)

    final_x = np.empty(trials)
    last_visit = np.full(trials, -1, dtype=np.int64)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        oracle = NearlyLinearOracle(inst, trial=np.arange(start, stop))
        last = last_visit[start:stop]  # a view: the loop fills last_visit
        for t, _, x in sgd_steps(oracle, Interval(inst.lo, inst.hi), schedule,
                                 np.full((stop - start, 1), float(x0)), T, seed):
            last[inst.f(x[:, 0]) <= theta] = t
        final_x[start:stop] = x[:, 0]

    return PathStats(
        T=T, trials=trials, x0=float(x0), seed=seed, step=schedule.value,
        threshold=theta, final_x=final_x, final_subopt=np.asarray(inst.f(final_x)),
        last_visit=last_visit)


class NearlyLinearOracle:
    """Engine-compatible two-point oracle for one trial or a batch of trials.

    ``trial`` is an int (points of shape (1,)) or an index array (batches of
    shape (B, 1), row r belonging to trial ``trial[r]``).  Every subgradient
    query draws one uniform per trial from that trial's (seed, trial) Philox
    stream, so a trial's answers do not depend on the batch it runs in.  The
    streams are created at the first query after ``reset`` and refill a
    (B, TILE) buffer of uniforms in place, one row each, every TILE queries.
    """

    def __init__(self, inst: NearlyLinearInstance, trial=0):
        self.inst = inst
        self.trial = trial
        self._seed = 0
        self._streams = None

    def reset(self, seed: int) -> None:
        self._seed = seed
        self._streams = None

    def value(self, x) -> float:
        return float(self.inst.f(float(np.asarray(x).reshape(-1)[0])))

    def subgradient(self, x, t: int) -> np.ndarray:
        if self._streams is None:
            self._streams = [trial_stream(self._seed, int(r))
                             for r in np.atleast_1d(self.trial)]
            self._tile = np.empty((len(self._streams), TILE))
            self._col = TILE
        if self._col == TILE:
            for stream, row in zip(self._streams, self._tile):
                stream.random(out=row)
            self._col = 0
        u = self._tile[:, self._col].reshape(np.shape(x))
        self._col += 1
        G = self.inst.grad_bound
        return np.where(u < self.inst.plus_prob(x), G, -G)


def _fixed_step(inst: NearlyLinearInstance, T: int) -> StepSchedule:
    """The fixed step eta = 4D/(G sqrt(T)) of every path."""
    eta = 4.0 * inst.diameter / (inst.grad_bound * math.sqrt(T))
    return StepSchedule("constant", value=eta)


def path_via_engine(inst: NearlyLinearInstance, T: int, x0: float,
                    seed: int = 0, trial: int = 0) -> SgdTrace:
    """One trial's path pushed through the generic engine (fixed step)."""
    oracle = NearlyLinearOracle(inst, trial=trial)
    return run_sgd(oracle, Interval(inst.lo, inst.hi), _fixed_step(inst, T),
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

"""Projected (stochastic) subgradient descent.

The engine is deliberately small: a feasible set with an exact projection,
a step-size schedule evaluated once per run, and a first-order oracle
queried exactly once per step with the current point (or batch of points)
and the 1-based step index.  Everything downstream (worst-case
constructions, grid random walks, Monte Carlo studies) runs through the one
kernel :func:`sgd_steps`; only :func:`run_sgd` keeps a history.

An oracle is any object with

    value(x) -> float            objective value at x (used by run_sgd only)
    subgradient(x, t) -> array   subgradient estimate at x for step t, shaped
                                 like x (one row per point of a batch)
    reset(seed)                  optional; reseed internal randomness

``reset`` is called at the start of every run, so identical arguments
produce bit-identical traces even for stochastic oracles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("inv_t", "inv_sqrt_t", "inv_sqrt_horizon", "constant")


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes eta_t for t = 1..T.

    kind:
        "inv_t"             eta_t = 1/t
        "inv_sqrt_t"        eta_t = 1/sqrt(t)
        "inv_sqrt_horizon"  eta_t = 1/sqrt(T) for all t; needs ``horizon``
        "constant"          eta_t = value; needs ``value``
    """

    kind: str
    horizon: int | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "inv_sqrt_horizon":
            if self.horizon is None or self.horizon < 1:
                raise ValueError("inv_sqrt_horizon needs a positive horizon")
        if self.kind == "constant":
            if self.value is None or not self.value > 0:
                raise ValueError("constant schedule needs a positive value")

    def eval(self, t: int) -> float:
        """Step size at 1-based step t, computed exactly (no caching)."""
        if t < 1:
            raise ValueError(f"step index {t} out of range (must be >= 1)")
        if self.horizon is not None and t > self.horizon:
            raise ValueError(f"step index {t} exceeds horizon {self.horizon}")
        return float(self._sizes(np.array([t]))[0])

    def _sizes(self, t: np.ndarray) -> np.ndarray:
        """Step sizes at an array of valid 1-based step indices."""
        if self.kind == "inv_t":
            return 1.0 / t
        if self.kind == "inv_sqrt_t":
            return 1.0 / np.sqrt(t)
        if self.kind == "inv_sqrt_horizon":
            return np.full(t.shape, 1.0 / np.sqrt(self.horizon))
        return np.full(t.shape, float(self.value))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of a given radius centered at the origin."""

    radius: float
    dim: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the ball: x * min(1, radius/||x||).  Single
        points only; a (B, d) batch raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"Ball projects single points, got shape {x.shape}")
        nrm = float(np.linalg.norm(x))
        if nrm <= self.radius:
            return x.copy()
        return x * (self.radius / nrm)

    def contains(self, x, tol: float = 1e-12) -> bool:
        return float(np.linalg.norm(x)) <= self.radius + tol


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] as a one-dimensional feasible set."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    @property
    def dim(self) -> int:
        return 1

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def contains(self, x, tol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass
class SgdTrace:
    """Full history of one run: iterates x_1..x_{T+1}, oracle outputs g_1..g_T,
    objective values f(x_1)..f(x_{T+1}), and the schedule that produced them."""

    iterates: np.ndarray   # (T+1, d)
    gradients: np.ndarray  # (T, d)
    values: np.ndarray     # (T+1,)
    schedule: StepSchedule

    @property
    def T(self) -> int:
        return self.gradients.shape[0]

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def sgd_steps(oracle, feasible, schedule: StepSchedule, x1, T: int,
              seed: int = 0):
    """Yield ``(0, None, x_1)``, then ``(t, g_t, x_{t+1})`` for t = 1..T, where
    x_{t+1} = project(x_t - eta_t * g_t).

    ``x1`` is one point (d,) or a batch (B, d) whose rows share the step
    sizes.  Arguments are checked and ``oracle.reset(seed)`` called (when
    the oracle has one) as the first item is requested.  The step counter
    passed to the oracle is 1-based, so oracles whose behavior depends on
    the step index (e.g. ones that sleep and then kick) need no hidden state.
    """
    x = np.atleast_1d(np.asarray(x1, dtype=float)).copy()
    if x.ndim not in (1, 2) or x.shape[-1] != feasible.dim:
        raise ValueError(f"x1 has dimension {x.shape}, feasible set wants {feasible.dim}")
    if not feasible.contains(x):
        raise ValueError("x1 lies outside the feasible set")
    if T < 1:
        raise ValueError("T must be >= 1")
    if schedule.horizon is not None and T > schedule.horizon:
        raise ValueError(f"T = {T} exceeds the schedule horizon {schedule.horizon}")
    etas = schedule._sizes(np.arange(1, T + 1))
    if hasattr(oracle, "reset"):
        oracle.reset(seed)

    yield 0, None, x
    for t, eta in enumerate(etas, start=1):
        g = np.atleast_1d(np.asarray(oracle.subgradient(x, t), dtype=float))
        if g.shape != x.shape:
            raise ValueError(f"oracle returned shape {g.shape}, expected {x.shape}")
        if not np.isfinite(g).all():
            raise ValueError(f"oracle returned a non-finite subgradient at step {t}")
        x = feasible.project(x - eta * g)
        yield t, g, x


def run_sgd(oracle, feasible, schedule: StepSchedule, x1, T: int,
            seed: int = 0) -> SgdTrace:
    """Run one path of :func:`sgd_steps` and record everything.

    ``x1`` must be a single point; ``seed`` is forwarded to ``oracle.reset``
    when the oracle has one, and deterministic oracles ignore it.
    """
    if np.ndim(x1) > 1:
        raise ValueError(f"run_sgd records a single path; x1 has shape {np.shape(x1)}")
    steps = sgd_steps(oracle, feasible, schedule, x1, T, seed)
    _, _, x = next(steps)
    iterates = np.empty((T + 1, x.shape[0]))
    gradients = np.empty((T, x.shape[0]))
    values = np.empty(T + 1)
    iterates[0] = x
    values[0] = oracle.value(x)
    for t, g, x in steps:
        gradients[t - 1] = g
        iterates[t] = x
        values[t] = oracle.value(x)
    return SgdTrace(iterates, gradients, values, schedule)


def running_average(trace: SgdTrace) -> np.ndarray:
    """Arithmetic mean of x_1..x_{T+1}; the classical averaged output."""
    if trace.iterates.size == 0:
        raise ValueError("empty trace")
    return trace.iterates.mean(axis=0)


def trace_to_csv(trace: SgdTrace, path) -> None:
    """Write the trace as CSV: t, x_1..x_d, g_1..g_d, f_value per row.

    One row per iterate (T+1 rows).  The final row has no oracle output, so
    its g columns are left empty.  Floats use 17 significant digits so the
    file round-trips binary64 exactly.
    """
    d = trace.dim
    header = (["t"] + [f"x_{j}" for j in range(1, d + 1)]
              + [f"g_{j}" for j in range(1, d + 1)] + ["f_value"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for t in range(trace.T + 1):
            xs = [f"{v:.17g}" for v in trace.iterates[t]]
            if t < trace.T:
                gs = [f"{v:.17g}" for v in trace.gradients[t]]
            else:
                gs = [""] * d
            w.writerow([t + 1] + xs + gs + [f"{trace.values[t]:.17g}"])

"""Projected (stochastic) subgradient descent.

The engine is deliberately small: a feasible set with an exact projection,
a step-size schedule evaluated once per run, and a first-order oracle
queried exactly once per step with the current point (or batch of points)
and the 1-based step index.  Everything downstream (worst-case
constructions, grid random walks, Monte Carlo studies) runs through the one
kernel :func:`sgd_steps`; only :func:`run_sgd` keeps a history.  A step
whose answer is all +0.0 at a point the ball projection passed through
does no arithmetic: the same array is yielded again (see :func:`sgd_steps`),
so the long quiet prefix of a worst-case run costs one scan of each answer.
One point of shape (1,) on an :class:`Interval` (a walk or a nearly linear
path) steps in Python floats, bit for bit the array step, without the
numpy call overhead of one-element arrays.

An oracle is any object with

    value(X) -> (k,) array       objective values at the k rows of a (k, d)
                                 block of points (used by run_sgd only)
    subgradient(x, t) -> array   subgradient estimate at x for step t, shaped
                                 like x (one row per point of a batch)
    reset(seed)                  optional; reseed internal randomness

``reset`` is called at the start of every run, so identical arguments
produce bit-identical traces even for stochastic oracles.  ``value`` is
never called during a run: :func:`run_sgd` evaluates the recorded iterates
afterwards, a bounded block of rows per call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("inv_t", "inv_sqrt_t", "inv_sqrt_horizon", "constant")

#: floats per ``oracle.value`` block in :func:`run_sgd` (32 rows at d = 1024),
#: so that the oracle's temporaries stay small beside the recorded history;
#: blocks of 2^16 floats made the worst-case oracle's values about 1.6x slower
#: (T = 4096, d = 1024, on a 2-vCPU x86_64 VM)
VALUE_BLOCK = 1 << 15

#: slack of the feasibility test of a start point, for rounding on the boundary
_CONTAINS_TOL = 1e-12


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

    def sizes(self, T: int) -> np.ndarray:
        """Step sizes eta_1..eta_T of a run of T steps, computed exactly."""
        if T < 1:
            raise ValueError("T must be >= 1")
        if self.horizon is not None and T > self.horizon:
            raise ValueError(f"T = {T} exceeds the schedule horizon {self.horizon}")
        t = np.arange(1, T + 1)
        if self.kind == "inv_t":
            return 1.0 / t
        if self.kind == "inv_sqrt_t":
            return 1.0 / np.sqrt(t)
        if self.kind == "inv_sqrt_horizon":
            return np.full(T, 1.0 / np.sqrt(self.horizon))
        return np.full(T, float(self.value))


def block_rows(d: int) -> int:
    """Rows of d floats per block of at most ``VALUE_BLOCK`` floats, read at call time."""
    return max(1, VALUE_BLOCK // d)


def euclidean_norm(x) -> float:
    """float(np.linalg.norm(x)) for real x, bit for bit (the square root of
    the dot product of the flattened array), without norm's Python wrapper."""
    x = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


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
        points only; a (B, d) batch raises ValueError.  A point inside the
        ball comes back as the input array itself (after ``np.asarray``),
        not a copy, so the caller can tell that nothing moved."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"Ball projects single points, got shape {x.shape}")
        nrm = euclidean_norm(x)
        if nrm <= self.radius:
            return x
        return x * (self.radius / nrm)

    def contains(self, x) -> bool:
        return euclidean_norm(x) <= self.radius + _CONTAINS_TOL


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] as a one-dimensional feasible set.  Its
    projection always returns a new array."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    @property
    def dim(self) -> int:
        return 1

    def project(self, x: np.ndarray) -> np.ndarray:
        """Same result as ``np.clip(x, lo, hi)``, signed zeros included
        (the bound goes first, so a tie keeps x), without np.clip's costly
        Python wrapper."""
        return np.minimum(self.hi, np.maximum(self.lo, np.asarray(x, dtype=float)))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - _CONTAINS_TOL)
                    and np.all(x <= self.hi + _CONTAINS_TOL))


@dataclass
class SgdTrace:
    """Full history of one run: iterates x_1..x_{T+1}, oracle outputs g_1..g_T
    and objective values f(x_1)..f(x_{T+1})."""

    iterates: np.ndarray   # (T+1, d)
    gradients: np.ndarray  # (T, d)
    values: np.ndarray     # (T+1,)

    @property
    def T(self) -> int:
        return self.gradients.shape[0]

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]


def sgd_steps(oracle, feasible, schedule: StepSchedule, x1, T: int,
              seed: int = 0):
    """Yield ``(0, None, x_1)``, then ``(t, g_t, x_{t+1})`` for t = 1..T, where
    x_{t+1} = project(x_t - eta_t * g_t).

    ``x1`` is one point (d,) or a batch (B, d) whose rows share the step
    sizes.  Arguments are checked and ``oracle.reset(seed)`` called (when
    the oracle has one) as the first item is requested.  The step counter
    passed to the oracle is 1-based, so oracles whose behavior depends on
    the step index (e.g. ones that sleep and then kick) need no hidden state.

    Pass-through: when the last projection returned its input itself (a
    point inside a :class:`Ball`) and the oracle answers all +0.0, then
    x - eta*g and its projection are x, bit for bit, so the same array is
    yielded again with no arithmetic.  The bit test that detects the zero
    answer also rules out a non-finite one.  -0.0 entries do not qualify
    (x - eta*(-0.0) turns a -0.0 coordinate into +0.0), x_1 is always
    projected at step 1, and an :class:`Interval` projection never returns
    its input, so an Interval batch never makes the test.

    Float form: one point of shape (1,) on an :class:`Interval` (not a
    subclass, whose projection may differ) steps in Python floats: the
    answer's one float, a ``math.isfinite`` test, ``x - eta*g`` and a
    clip, and each step yields a new (1,) array.  The floats go through
    the same IEEE operations as the array step, so the bits are the same.
    x is read after the oracle call, as the array step reads it, so an
    in-place write to x reaches the step in both forms.  The clip copies
    ``np.minimum(hi, np.maximum(lo, y))``, which returns y, not the bound,
    on a tie: a -0.0 y on a bound of +0.0 stays -0.0, and +0.0 on -0.0
    stays +0.0.  Batches and other feasible sets take the array step; the
    checks on an answer and their errors are the same in both forms.
    """
    x = np.atleast_1d(np.asarray(x1, dtype=float)).copy()
    if x.ndim not in (1, 2) or x.shape[-1] != feasible.dim:
        raise ValueError(f"x1 has dimension {x.shape}, feasible set wants {feasible.dim}")
    if not feasible.contains(x):
        raise ValueError("x1 lies outside the feasible set")
    etas = schedule.sizes(T)
    if hasattr(oracle, "reset"):
        oracle.reset(seed)

    yield 0, None, x
    if x.shape == (1,) and type(feasible) is Interval:
        # the float form: the array step's two operations and clip on floats
        lo, hi = float(feasible.lo), float(feasible.hi)
        for t, eta in enumerate(map(float, etas), start=1):
            g = np.asarray(oracle.subgradient(x, t), dtype=float)
            if g.ndim == 0:
                g = g.reshape(1)
            if g.shape != (1,):
                raise ValueError(f"oracle returned shape {g.shape}, expected {x.shape}")
            gv = g.item(0)
            if not math.isfinite(gv):
                raise ValueError(f"oracle returned a non-finite subgradient at step {t}")
            y = x.item(0) - eta * gv
            if y < lo:      # np.maximum(lo, y) and np.minimum(hi, .) keep y
                y = lo      # on a tie, so a signed zero y survives a zero bound
            elif y > hi:
                y = hi
            x = np.empty(1)
            x[0] = y
            yield t, g, x
        return
    y = None    # the last projection's input: x is y when it passed through
    for t, eta in enumerate(etas, start=1):
        g = np.asarray(oracle.subgradient(x, t), dtype=float)
        if g.ndim == 0:
            g = g.reshape(1)
        if g.shape != x.shape:
            raise ValueError(f"oracle returned shape {g.shape}, expected {x.shape}")
        if x is y and not np.count_nonzero(g.view(np.uint64)):
            yield t, g, x                               # all +0.0: x stays put
            continue
        if np.count_nonzero(np.isfinite(g)) != g.size:  # skips ndarray.all's Python wrapper
            raise ValueError(f"oracle returned a non-finite subgradient at step {t}")
        y = x - eta * g
        x = feasible.project(y)
        yield t, g, x


def run_sgd(oracle, feasible, schedule: StepSchedule, x1, T: int,
            seed: int = 0) -> SgdTrace:
    """Run one path of :func:`sgd_steps` and record everything.

    ``x1`` must be a single point; ``seed`` is forwarded to ``oracle.reset``
    when the oracle has one, and deterministic oracles ignore it.  The
    values f(x_1)..f(x_{T+1}) are computed after the run, by one
    ``oracle.value`` call per block of at most ``VALUE_BLOCK`` floats of
    iterates (k rows of d); each call must return shape (k,), else
    ValueError.
    """
    if np.ndim(x1) > 1:
        raise ValueError(f"run_sgd records a single path; x1 has shape {np.shape(x1)}")
    steps = sgd_steps(oracle, feasible, schedule, x1, T, seed)
    _, _, x = next(steps)
    iterates = np.empty((T + 1, x.shape[0]))
    gradients = np.empty((T, x.shape[0]))
    values = np.empty(T + 1)
    iterates[0] = x
    for t, g, x in steps:
        gradients[t - 1] = g
        iterates[t] = x
    rows = block_rows(x.shape[0])
    for s in range(0, T + 1, rows):
        block = iterates[s:s + rows]
        v = np.asarray(oracle.value(block), dtype=float)
        if v.shape != block.shape[:1]:
            raise ValueError(f"oracle.value returned shape {v.shape} for a block "
                             f"of {block.shape[0]} points, expected {block.shape[:1]}")
        values[s:s + rows] = v
    return SgdTrace(iterates, gradients, values)


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

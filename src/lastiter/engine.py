"""Projected (stochastic) subgradient descent.

The engine is deliberately small: a feasible set with an exact projection,
a step-size schedule evaluated a block of ``STEP_BLOCK`` sizes at a time,
and a first-order oracle queried exactly once per step with the current
point (or batch of points) and the 1-based step index.  There are two step
loops.  :func:`sgd_steps` is the array loop: it streams a point or a batch
with no history, and :func:`run_sgd` records every other path from the same
loop.  A step whose answer is all +0.0 at a point the ball projection passed
through does no arithmetic: the same array is yielded again (see
:func:`sgd_steps`), so the long quiet prefix of a worst-case run, at the
origin, costs one scan of each answer, and a recorded history, which starts
as zeros, writes none of its rows.  The other loop is the float form of
:func:`run_sgd`: a path on an :class:`Interval` whose oracle answers floats
(a walk or a nearly linear path) steps in Python floats, bit for bit the
array step, without the numpy call overhead of one-element arrays or a row
store per step.

An oracle is any object with

    value(X) -> (k,) array       objective values at the k rows of a (k, d)
                                 block of points (used by run_sgd only)
    subgradient(x, t) -> array   subgradient estimate at x for step t, shaped
                                 like x (one row per point of a batch)
    float_subgradient(x, t)      optional; the same estimate as a float, at
      -> float                   a one-dimensional point given as a float
                                 (the float form of run_sgd asks only this)
    reset(seed)                  optional; reseed internal randomness

``reset`` is called at the start of every run, so identical arguments
produce bit-identical traces even for stochastic oracles.  ``value`` is
never called during a run: :func:`run_sgd` evaluates the recorded iterates
afterwards, a bounded block of rows per call.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

SCHEDULE_KINDS = ("inv_t", "inv_sqrt_t", "constant")

#: floats per ``oracle.value`` block in :func:`run_sgd` (32 rows at d = 1024),
#: so that the oracle's temporaries stay small beside the recorded history;
#: blocks of 2^16 floats made the worst-case oracle's values about 1.6x slower
#: (T = 4096, d = 1024, on a 2-vCPU x86_64 VM)
VALUE_BLOCK = 1 << 15

#: step sizes per block of a run's schedule; as Python floats a block takes
#: about 32 bytes a size, so 2^12 keeps it near 128 KiB whatever T is
STEP_BLOCK = 1 << 12

#: slack of the feasibility test of a start point, for rounding on the boundary
_CONTAINS_TOL = 1e-12


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes eta_t for t = 1..T.

    kind:
        "inv_t"       eta_t = 1/t
        "inv_sqrt_t"  eta_t = 1/sqrt(t)
        "constant"    eta_t = value, a finite positive float (lip-fixed's
                      fixed step is ``value=1.0 / np.sqrt(T)``)
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant":
            if self.value is None or not 0 < self.value < math.inf:
                raise ValueError("constant schedule needs a finite positive value")

    def sizes(self, T: int, first: int = 1, last: int | None = None) -> np.ndarray:
        """Step sizes eta_first..eta_last of a run of T steps (``last``
        defaults to T), computed exactly: only that window is built, and it
        is ``sizes(T)[first - 1:last]`` bit for bit."""
        last = T if last is None else last
        if not 1 <= first <= T:
            raise ValueError(f"need 1 <= first <= T, got first={first}, T={T}")
        if not first <= last <= T:
            raise ValueError(f"need first <= last <= T, got first={first}, last={last}, T={T}")
        if self.kind == "constant":
            return np.full(last - first + 1, float(self.value))
        t = np.arange(first, last + 1)
        return 1.0 / t if self.kind == "inv_t" else 1.0 / np.sqrt(t)


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
    and objective values f(x_1)..f(x_{T+1}).  The first two start as zeros,
    and :func:`run_sgd` leaves the rows of a quiet prefix at the origin
    unwritten, so their pages need not be committed."""

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
    its input, so an Interval path never makes the test.
    """
    x, etas = _start(oracle, feasible, schedule, x1, T, seed)
    yield 0, None, x
    yield from _array_steps(oracle, feasible, etas, x)


def _start(oracle, feasible, schedule: StepSchedule, x1, T: int, seed: int):
    """The checked start point, as a new array, and the step sizes of a run
    (:func:`_step_sizes`); resets the oracle when it has ``reset``."""
    x = np.atleast_1d(np.asarray(x1, dtype=float)).copy()
    if x.ndim not in (1, 2) or x.shape[-1] != feasible.dim:
        raise ValueError(f"x1 has dimension {x.shape}, feasible set wants {feasible.dim}")
    if not feasible.contains(x):
        raise ValueError("x1 lies outside the feasible set")
    if T < 1:
        raise ValueError(f"need T >= 1, got T={T}")
    if hasattr(oracle, "reset"):
        oracle.reset(seed)
    return x, _step_sizes(schedule, T)


def _step_sizes(schedule: StepSchedule, T: int):
    """eta_1..eta_T as Python floats, built ``STEP_BLOCK`` at a time and
    chained in C, so a run holds one block of sizes, not T, and its step
    loop gains no Python frame per step."""
    return itertools.chain.from_iterable(
        schedule.sizes(T, s, min(s + STEP_BLOCK - 1, T)).tolist()
        for s in range(1, T + 1, STEP_BLOCK))


def _array_steps(oracle, feasible, etas, x: np.ndarray):
    """The array step: yield ``(t, g_t, x_{t+1})`` for t = 1..T, with the
    pass-through of :func:`sgd_steps`."""
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
    """Run one path, stepped as :func:`sgd_steps` steps it, and record everything.

    ``x1`` must be a single point; ``seed`` is forwarded to ``oracle.reset``
    when the oracle has one, and deterministic oracles ignore it.  The
    values f(x_1)..f(x_{T+1}) are computed after the run, by one
    ``oracle.value`` call per block of at most ``VALUE_BLOCK`` floats of
    iterates (k rows of d); each call must return shape (k,), else
    ValueError.

    Float form: on an :class:`Interval` (not a subclass, whose projection
    may differ), an oracle with ``float_subgradient`` is asked for a float
    at a float, and the path steps in Python floats, stored straight into
    the history.  A step is the array step's operations on floats, with the
    same finiteness check and error: a ``math.isfinite`` test of the answer,
    ``x - eta*g`` and the clip.  The clip copies
    ``np.minimum(hi, np.maximum(lo, y))``, which returns y, not the bound,
    on a tie: a -0.0 y on a bound of +0.0 stays -0.0, and +0.0 on -0.0
    stays +0.0.  So the bits are those of the array step, given answers of
    the same bits.  Other oracles and feasible sets take the array step of
    :func:`sgd_steps`.

    History: ``iterates`` and ``gradients`` start as zeros.  The array step
    writes a row unless the step yielded the same array as the step before
    (a pass-through, or a projection that returns one buffer of its own)
    and the row's bits are all +0.0, so the quiet prefix of a worst-case
    run at the origin writes nothing.  A -0.0 entry, a NaN or any nonzero
    entry is written, as is every row of an array the step has not
    yielded before; the float form writes every row.
    """
    if np.ndim(x1) > 1:
        raise ValueError(f"run_sgd records a single path; x1 has shape {np.shape(x1)}")
    x, etas = _start(oracle, feasible, schedule, x1, T, seed)
    iterates = np.zeros((T + 1, x.shape[0]))
    gradients = np.zeros((T, x.shape[0]))
    values = np.empty(T + 1)
    if np.count_nonzero(x.view(np.uint64)):     # x_1 = +0.0 leaves row 0 unwritten too
        iterates[0] = x
    if type(feasible) is Interval and hasattr(oracle, "float_subgradient"):
        answer = oracle.float_subgradient
        lo, hi = float(feasible.lo), float(feasible.hi)
        xs, gs = iterates.reshape(-1), gradients.reshape(-1)    # views, one float a row
        xf = x.item(0)
        for t, eta in enumerate(etas, start=1):
            g = gs[t - 1] = answer(xf, t)
            if not math.isfinite(g):
                raise ValueError(f"oracle returned a non-finite subgradient at step {t}")
            y = xf - eta * g
            if y < lo:      # np.maximum(lo, y) and np.minimum(hi, .) keep y
                y = lo      # on a tie, so a signed zero y survives a zero bound
            elif y > hi:
                y = hi
            xs[t] = xf = y
    else:
        prev = None
        for t, g, x in _array_steps(oracle, feasible, etas, x):
            # a repeated x whose row is all +0.0 bits leaves both rows unwritten
            if x is not prev or np.count_nonzero(g.view(np.uint64)):
                gradients[t - 1] = g
            if x is not prev or np.count_nonzero(x.view(np.uint64)):
                iterates[t] = x
            prev = x
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

"""Monte Carlo study of fixed-step SGD on nearly linear 1D instances.

An instance is a convex piecewise-linear f on X = [-D/2, D/2] with unique
minimum f(0) = 0, together with a two-point stochastic oracle: it answers
+G or -G with P[+G] = (1 + s(x)/G)/2, where s(x) is the subgradient of f at
x under the right-derivative convention.  The answers are bounded by G and
unbiased, and outside the good set

    S = { x : f(x) - f* <= G D / sqrt(T) }

the mean magnitude |s(x)| stays inside the band [c eps G, eps G], which is
what "nearly linear" means here.  Paths use the fixed step eta = 4D/(G sqrt(T)).
:func:`good_set` returns S, and :meth:`GoodSet.contains` is the one
membership rule, the definition itself: ``f(x) <= threshold``.  It is
decided once per reachable float, when :func:`transition_table` lists them.

An instance holds one table of P[+G] per segment, ``segment_probs``, which
:class:`NearlyLinearOracle` hands with the interior knots to
:class:`TwoPointOracle`, the one oracle of both 1D studies (the grid walk's
``walk.GridSignOracle`` is the other caller).  It answers a float for a
float (``float_subgradient``), so one path through ``engine.run_sgd``
steps in Python floats end to end.

A clipped +/-eta*G walk visits only O(sqrt(T)) distinct floats, so paths
do not run through the engine: :func:`transition_table` lists the floats a
path from x0 can reach in T steps, each with its two successors (computed by
the engine's own ``Interval.project(x - eta*g)``), its P[+G] and its
good-set membership, and :func:`simulate_paths` steps a chunk of trials at
a time as integer state indices through tables composed from it, several
steps per lookup.  A uniform u enters only through its level code, the
number of distinct P[+G] values at or below u: ``u < P[+G](s)`` exactly
when that code is at most the rank of P[+G](s) among those values, so L
steps are one lookup of the state and the L codes combined.  Every trial
owns a counter-based Philox stream keyed by (seed, trial index), drawn
``_DRAW_STEPS`` steps at a time, so results are independent of batch size and
trial order, and memory is O(chunk) plus the tables whatever the horizon.
A call builds one pool of streams and re-keys it for each chunk
(:func:`_rekey`, beside :func:`trial_stream`).  One path pushed through the
engine by :func:`path_via_engine` reproduces the batched path bit for bit
(see tests).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .engine import Interval, SgdTrace, StepSchedule, run_sgd

_BAND_TOL = 1e-12

#: hits a tail bin needs to enter the decay fit
_FIT_MIN_HITS = 10

#: uniforms the one-path oracle (:class:`TwoPointOracle`) draws from its
#: stream at a time: one ``random()`` call per TILE steps
TILE = 500

#: most entries n C^L of a composed step table, for n states and C level
#: codes per step (see :func:`_lookahead`): its next states and its
#: last-visit offsets (both 8 bytes) then take at most 2 MB
_TABLE_ENTRIES = 2 ** 17

#: last-visit offset of a table entry whose steps visit no good-set state:
#: so negative that t + _NO_VISIT stays below every last visit time
_NO_VISIT = -2 ** 62

#: most distinct P[+G] values whose level codes are counted with one
#: comparison per level (about 0.26 ns per level and uniform); the codes of
#: more are read through _CODE_BINS bins of [0, 1), at about 2.6 ns per
#: uniform however many levels there are (see :func:`_level_codes`).
#: End to end, ``simulate_paths`` ran faster with comparisons at 12 levels
#: and with the bins at 16
_COMPARE_LEVELS = 12

#: bins of [0, 1) that give the level codes of many levels
_CODE_BINS = 2 ** 12

#: steps per refill, rounded down to a multiple of L: each stream draws
#: that many uniforms at a time, no more than the steps left, and a batch
#: holds their combined codes as one (_DRAW_STEPS // L, B) block,
#: lookup-major.  Calls of 1536 doubles draw at about 5.4 ns per double,
#: 256 at 8.2 ns
_DRAW_STEPS = 1536

#: streams drawn into the scratch block at a time when a batch refills its
#: block of codes; their codes are combined there and copied in transposed
_FILL_STREAMS = 32

#: fewest trials for a stable mean; callers check it before simulating
MIN_TRIALS = 100

#: shapes built from the band alone; "piecewise" also needs knots and slopes
SHAPES = ("abs", "asym_abs")


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
    #: (m,) P[oracle answers +G] on each segment, (1 + slope/G)/2
    segment_probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = 0.5 * (1.0 + self.slopes / self.grad_bound)
        probs.setflags(write=False)
        object.__setattr__(self, "segment_probs", probs)

    @property
    def lo(self) -> float:
        return -self.diameter / 2.0

    @property
    def hi(self) -> float:
        return self.diameter / 2.0

    def f(self, x):
        """Objective value(s); exact for piecewise-linear f via interpolation."""
        return np.interp(np.asarray(x, dtype=float), self.knots, self.knot_values)


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
    if shape not in (*SHAPES, "piecewise"):
        raise ValueError(f"unknown shape {shape!r}")
    if not (0 < diameter < math.inf and 0 < grad_bound < math.inf):
        raise ValueError("diameter and grad_bound must be finite and positive")
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
    """The good set S = {x : f(x) <= threshold} of an instance at a horizon
    (see :func:`good_set`)."""

    inst: NearlyLinearInstance = field(repr=False, compare=False)
    threshold: float

    def contains(self, x):
        """Membership of x in the good set, elementwise: the one membership
        rule, ``inst.f(x) <= threshold``."""
        return self.inst.f(x) <= self.threshold


def good_set(inst: NearlyLinearInstance, T: int) -> GoodSet:
    """The good set of ``inst`` at horizon T: threshold G D / sqrt(T)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return GoodSet(inst=inst, threshold=inst.grad_bound * inst.diameter / math.sqrt(T))


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


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial: Philox keyed by (seed, trial),
    counter 0.  ValueError when seed or trial lies outside [0, 2^64)."""
    for name, word in (("seed", seed), ("trial", trial)):
        if not 0 <= word < 2 ** 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {word}")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


_ZEROS = (0, 0, 0, 0)


def _rekey(stream: np.random.Generator, seed: int, trial: int) -> None:
    """Put a :func:`trial_stream` in the state of a fresh
    ``trial_stream(seed, trial)``, however far it was drawn: key (seed,
    trial), counter 0, no buffered words and no buffered uint32.  Setting
    the state makes no new Generator or Philox, so it is much cheaper than
    building a stream."""
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed, trial)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


@functools.cache
def _philox_key_type():
    """Seed-sequence type whose instances hand Philox a given key, once.

    ``Philox(PhiloxKey(key))`` asks it for two uint64 words, which become
    the key, and starts at counter 0: the state of ``Philox(key=key)``,
    without the SeedSequence that ``Philox(key=key)`` first builds from OS
    entropy and then discards.  Every stream keeps its seed sequence alive,
    so the key is dropped once handed over, to hold no array per stream.
    The type is made on first use because its base class lives in
    ``numpy.random``, which ``import numpy`` leaves unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("_key",)

        def __init__(self, key: np.ndarray):
            self._key = key

        def generate_state(self, n_words, dtype=np.uint32):
            key, self._key = self._key, None
            return key

    return PhiloxKey


@dataclass(frozen=True)
class TransitionTable:
    """The floats a fixed-step path from x0 can reach in T steps, as states:
    from state s a path steps to ``successors[s, 1]`` on a +G answer, with
    probability ``plus_probs[s]``, else to ``successors[s, 0]``.  A state
    first reached at step T is never left; its successors are state 0."""

    values: np.ndarray       # (n,) the floats, good-set states first
    plus_probs: np.ndarray   # (n,) P[+G] at each state
    successors: np.ndarray   # (n, 2) next state on the answers -G and +G
    good: int                # states 0..good-1 lie in the good set: one `<`
    start: int               # the state of x0
    step: float              # eta = 4D/(G sqrt(T))
    threshold: float         # good-set level G D / sqrt(T)


def transition_table(inst: NearlyLinearInstance, T: int, x0: float) -> TransitionTable:
    """The states of fixed-step paths of T steps from x0, found level by
    level: level L holds the floats first reached at step L, and the search
    stops after T levels or at a level that adds nothing.

    Successors are the engine's ``Interval.project(x - eta*g)`` for
    g = -G and +G, so they carry its rounding and its signed zeros (x0 =
    -0.0 and +0.0 are two states); states are keyed by their bits, not by
    float equality.  P[+G] comes from :meth:`TwoPointOracle.plus_prob` and
    membership from ``good_set(inst, T).contains``, ``f(x) <= threshold``,
    with one call of f for all states.  A clipped walk with
    step eta*G visits O(sqrt(T)) floats: the tests bound them by
    16 (sqrt(T)/4 + 1) up to T = 10^8."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not inst.lo <= x0 <= inst.hi:
        raise ValueError("x0 outside the domain")
    eta = _fixed_step(inst, T).value
    gs = good_set(inst, T)
    feasible = Interval(inst.lo, inst.hi)
    answers = np.array([-inst.grad_bound, inst.grad_bound])
    first = np.array([float(x0)])
    index = {first.view(np.int64).item(): 0}
    values = first.tolist()
    successors = []     # two per state, for the states of levels 0..L-1
    for _ in range(T):
        level = np.array(values[len(successors) // 2:])
        if not level.size:
            break
        nxt = feasible.project(level[:, None] - eta * answers)
        for key, x in zip(nxt.view(np.int64).ravel().tolist(), nxt.ravel().tolist()):
            s = index.setdefault(key, len(values))
            if s == len(values):
                values.append(x)
            successors.append(s)
    n = len(values)
    successors += [0] * (2 * n - len(successors))
    x = np.array(values)
    inside = gs.contains(x)
    order = np.argsort(~inside, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    x = x[order]
    return TransitionTable(
        values=x, plus_probs=NearlyLinearOracle(inst).plus_prob(x[:, None])[:, 0],
        successors=rank[np.array(successors, dtype=np.intp).reshape(n, 2)[order]],
        good=int(np.count_nonzero(inside)), start=int(rank[0]), step=eta,
        threshold=gs.threshold)


def simulate_paths(inst: NearlyLinearInstance, T: int, trials: int, x0: float,
                   seed: int = 0, chunk: int = 2048) -> PathStats:
    """Run ``trials`` independent paths of T steps from x0 and collect
    final suboptimalities and last good-set visit times.

    Each chunk of trials steps as one batch of state ids through tables
    composed from the :func:`transition_table` of (inst, T, x0), L steps
    per lookup (:func:`_lookahead`; the last T mod L steps use a table of
    their own).  A lookup is one add of the L steps' combined level codes
    to the state ids and two ``take`` calls, one for the states L steps on
    and one for the offset of the last good-set state among them, which
    one add of the step number and one ``maximum`` turn into last visit
    times.  Uniforms are drawn about ``_DRAW_STEPS`` steps at a time from
    each stream, turned into level codes (:func:`_level_codes`) and
    combined L at a time as they land (:func:`_draw_codes`), so only the
    combined codes are held, one per lookup and trial.  One pool of at
    most ``min(chunk, trials)`` streams is built per call, and each later
    chunk re-keys it in place (:func:`_rekey`).  Only the state ids, the
    last visit times, the composed tables of at most ``_TABLE_ENTRIES``
    entries (more only when a single step's table is larger) and a
    (``_DRAW_STEPS // L``, chunk) block of combined codes are held, so
    memory is O(chunk) plus the tables whatever the horizon.
    Trial r gives the same path, bit for bit, as ``path_via_engine(inst, T,
    x0, seed, trial=r)``.  A visit is a state with ``f(x) <= threshold``,
    decided once per state by ``good_set(inst, T).contains``.
    """
    if T < 1 or trials < 1:
        raise ValueError("T and trials must be >= 1")
    table = transition_table(inst, T, x0)
    levels, step = _step_by_code(table)
    n, C = step.shape
    L = _lookahead(n, C, T)
    # state s is held as the id s * C**L; adding the combined code of the
    # next L steps gives its entry in the composed tables, which hold the
    # ids L steps on
    span = C ** L
    nxt, off = _compose(step, table.good, L, span)
    tail = T % L
    tail_nxt, tail_off = _compose(step, table.good, tail, span)

    width, steps = min(chunk, trials), min(_DRAW_STEPS // L * L, T)
    block = np.empty((-(-steps // L), width), dtype=np.min_scalar_type(span - 1))
    scratch = np.empty((min(width, _FILL_STREAMS), steps))
    count = _level_codes(levels, scratch.size)
    ids, slots = np.empty(width, dtype=np.intp), np.empty(width, dtype=np.intp)
    visits = np.empty(width, dtype=np.int64)
    final_x = np.empty(trials)
    last_visit = np.full(trials, -1, dtype=np.int64)
    streams = [trial_stream(seed, r) for r in range(width)]
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        b = stop - start
        if start:
            for stream, r in zip(streams, range(start, stop)):
                _rekey(stream, seed, r)
        k = ids[:b]
        k.fill(table.start * span)
        bufs = k, slots[:b], visits[:b]
        last = last_visit[start:stop]  # a view: the loop fills last_visit
        if table.start < table.good:
            last.fill(0)
        for t0 in range(0, T, steps):
            drawn = min(steps, T - t0)
            rows = block[:-(-drawn // L), :b]
            _draw_codes(streams[:b], count, C, L, rows, scratch[:, :drawn])
            for t, row in zip(range(t0, T, L), rows[:drawn // L]):
                _advance(row, nxt, off, t, last, *bufs)
        if tail:    # the last row of the last draw combines tail codes
            k //= C ** (L - tail)
            _advance(rows[-1], tail_nxt, tail_off, T - tail, last, *bufs)
        final_x[start:stop] = table.values.take(k // span)
    del streams     # the pool is not held while f is evaluated

    return PathStats(
        T=T, trials=trials, x0=float(x0), seed=seed, step=table.step,
        threshold=table.threshold, final_x=final_x,
        final_subopt=np.asarray(inst.f(final_x)), last_visit=last_visit)


def _advance(codes, nxt, off, t, last, ids, slots, visits) -> None:
    """One lookup from step t: move the state ids to the entries ``nxt``
    gives for their combined ``codes`` and raise ``last`` to t plus the
    entry's ``off``, which is ``_NO_VISIT`` when its steps visit no
    good-set state."""
    np.add(ids, codes, out=slots)
    nxt.take(slots, out=ids, mode="clip")
    off.take(slots, out=visits, mode="clip")
    visits += t
    np.maximum(last, visits, out=last)


def _step_by_code(table: TransitionTable) -> tuple[np.ndarray, np.ndarray]:
    """The distinct P[+G] values q_0 < ... < q_{m-1} of a table, and its
    (n, m + 1) successors by level code.

    The code of a uniform u is c(u) = #{j : q_j <= u}.  For a state whose
    P[+G] is q_i, ``u < q_i`` holds exactly when c(u) <= i, with no
    tolerance, so code c leads from state s to ``successors[s, c <= i]``;
    a uniform equal to q_i answers -G, as ``u < q_i`` does."""
    levels = np.unique(table.plus_probs)
    rank = np.searchsorted(levels, table.plus_probs)
    up = np.arange(levels.size + 1) <= rank[:, None]
    return levels, np.where(up, table.successors[:, 1:], table.successors[:, :1])


def _lookahead(n: int, C: int, T: int) -> int:
    """Steps L per lookup for n states, C level codes per step and T steps:
    the most, up to T, whose composed table of n C^L entries fits
    ``_TABLE_ENTRIES``, and 1 when none does."""
    L = 1
    while L < T and n * C ** (L + 1) <= _TABLE_ENTRIES:
        L += 1
    return L


def _level_codes(levels: np.ndarray, size: int):
    """A function ``count(u, out)`` that writes the level code c(u) = #{j :
    q_j <= u} of each uniform u in [0, 1) to ``out``, for the distinct
    P[+G] values q_0 < ... < q_{m-1} and arrays u of at most ``size``
    uniforms.

    Up to ``_COMPARE_LEVELS`` levels are counted with one comparison each.
    More are read through K = ``_CODE_BINS`` bins: u lies in bin b =
    floor(u K), exactly, since K is a power of two; ``below[b]`` counts the
    levels under b / K, and column b of ``inside`` holds the levels in
    [b / K, (b + 1) / K), padded with 2.0, so c(u) is ``below[b]`` plus the
    entries of that column at or below u.  A level 1.0 is below no u.
    The bins and the levels read for them go to buffers held by ``count``:
    arrays of this size allocated anew on every call cost more than the
    count itself."""
    if levels.size <= _COMPARE_LEVELS:
        def count(u, out):
            np.greater_equal(u, levels[0], out=out)
            for q in levels[1:]:
                out += u >= q
        return count

    K = _CODE_BINS
    below = np.searchsorted(levels, np.arange(K) / K)
    at = (levels * K).astype(np.intp)       # bin of each level, K for 1.0
    depth = np.arange(levels.size) - np.searchsorted(at, at)
    inside = np.full((depth.max() + 1, K + 1), 2.0)
    inside[depth, at] = levels
    bins, level = np.empty(size, dtype=np.intp), np.empty(size)

    def count(u, out):
        b = bins[:u.size].reshape(u.shape)
        q = level[:u.size].reshape(u.shape)
        np.multiply(u, K, out=b, casting="unsafe")
        below.take(b, out=out, mode="clip")
        for row in inside[:, :K]:
            row.take(b, out=q, mode="clip")
            out += u >= q
    return count


def _compose(step: np.ndarray, good: int, steps: int, scale: int):
    """Tables of ``steps`` steps at once from the (n, C) one-step table of
    :func:`_step_by_code`, flat, entry s * C**steps + K for the codes c_1 ..
    c_steps of the steps in order, K = sum c_i C**(steps - i): the state
    reached, times ``scale``, and the last i whose state lies in the good
    set (below ``good``), or ``_NO_VISIT`` if none does."""
    n, C = step.shape
    nxt = np.arange(n)[:, None]
    off = np.full((n, 1), _NO_VISIT, dtype=np.int64)
    for i in range(1, steps + 1):
        nxt = step[nxt]         # (n, C**(i-1), C): code c_i last
        off = np.where(nxt < good, i, off[:, :, None]).reshape(n, -1)
        nxt = nxt.reshape(n, -1)
    nxt *= scale
    return nxt.ravel(), off.ravel()


def _draw_codes(streams, count, C: int, L: int, block: np.ndarray,
                scratch: np.ndarray) -> None:
    """The next ``scratch.shape[1]`` uniforms of stream j, as combined
    level codes, into column j of the block: row i holds sum c_l C**(L-1-l)
    over the codes c_0 .. c_{L-1} of steps iL .. iL+L-1, and a last row of
    fewer than L steps combines those.

    ``_FILL_STREAMS`` streams at a time are drawn into rows of the scratch
    block; their codes (``count``, from :func:`_level_codes`) are counted
    there and combined L at a time in exact integer arithmetic, and only
    the combined codes are copied in transposed, so a lookup's codes are
    one contiguous row.  A stream's sequence does not depend on how its
    draws are split."""
    steps = scratch.shape[1]
    lookups = steps // L
    for s in range(0, len(streams), _FILL_STREAMS):
        group = streams[s:s + _FILL_STREAMS]
        fill = scratch[:len(group)]
        for stream, row in zip(group, fill):
            stream.random(out=row)
        code = np.empty(fill.shape, dtype=block.dtype)
        count(fill, code)
        combined = np.empty((len(group), len(block)), dtype=block.dtype)
        _combine(code[:, :lookups * L].reshape(len(group), lookups, L), C,
                 combined[:, :lookups])
        if lookups < len(block):
            _combine(code[:, None, lookups * L:], C, combined[:, lookups:])
        block[:, s:s + len(group)] = combined.T


def _combine(digits: np.ndarray, base: int, out: np.ndarray) -> None:
    """``out[..., j] = sum_i digits[..., j, i] * base**(d-1-i)`` over the d
    digits of the last axis, by Horner's rule in out's integer type."""
    np.copyto(out, digits[..., 0])
    for i in range(1, digits.shape[-1]):
        out *= base
        out += digits[..., i]


class TwoPointOracle:
    """Engine oracle for one point: +G when the step's uniform is below
    ``probs[i]``, where i counts the ``cuts`` <= x, and -G otherwise.

    ``stream(seed)`` makes the uniform stream at the first query after
    ``reset``; ``f`` maps a (k,) array of points to their values.  A query
    is decided in Python floats, by one private draw-and-compare step that
    both forms share: a ``bisect_right`` over the cuts and a list of TILE
    uniforms, the doubles of one ``random()`` call per TILE steps.
    :meth:`float_subgradient` answers a float for a float, which is what the
    engine's float form asks; :meth:`subgradient` answers a point of shape
    (1,) with a read-only (1,) array of the same bits and refuses a batch.
    :meth:`plus_prob` answers an array of points, with one ``searchsorted``
    by the same rule (:func:`transition_table` reads it)."""

    def __init__(self, cuts, probs, grad_bound: float, stream, f):
        self._cuts = np.asarray(cuts, dtype=float).tolist()
        self._probs = np.asarray(probs, dtype=float)
        self._prob_list = self._probs.tolist()
        answers = np.array([-grad_bound, grad_bound])
        self._float_down, self._float_up = answers.tolist()
        answers.setflags(write=False)
        self._down, self._up = answers[:1], answers[1:]
        self._make_stream = stream
        self._f = f
        self.reset(0)

    def reset(self, seed: int) -> None:
        self._seed = seed
        self._stream = None
        self._col = TILE

    def value(self, X) -> np.ndarray:
        """f at each row of a (k, 1) block."""
        return self._f(np.asarray(X)[:, 0])

    def plus_prob(self, x):
        """P[+G] at each point of an array x, shaped like x."""
        return self._probs.take(np.searchsorted(self._cuts, x, side="right"))

    def _plus(self, x: float) -> bool:
        """Whether this step answers +G at x: its uniform, the next of the
        stream, is below P[+G] at x."""
        if self._col == TILE:  # the stream's next TILE uniforms
            if self._stream is None:
                self._stream = self._make_stream(self._seed)
            self._uniforms = self._stream.random(TILE).tolist()
            self._col = 0
        col = self._col
        self._col = col + 1
        return self._uniforms[col] < self._prob_list[bisect_right(self._cuts, x)]

    def float_subgradient(self, x: float, t: int) -> float:
        return self._float_up if self._plus(x) else self._float_down

    def subgradient(self, x, t: int) -> np.ndarray:
        if x.ndim != 1:
            raise ValueError(f"TwoPointOracle answers one point of shape (1,), "
                             f"got shape {x.shape}")
        return self._up if self._plus(x.item(0)) else self._down


class NearlyLinearOracle(TwoPointOracle):
    """The two-point oracle of an instance for one trial: it draws from the
    (seed, ``trial``) Philox stream, as row ``trial`` of
    :func:`simulate_paths` does."""

    def __init__(self, inst: NearlyLinearInstance, trial: int = 0):
        trial = int(trial)
        super().__init__(inst.knots[1:-1], inst.segment_probs, inst.grad_bound,
                         lambda seed: trial_stream(seed, trial), inst.f)


def _fixed_step(inst: NearlyLinearInstance, T: int) -> StepSchedule:
    """The fixed step eta = 4D/(G sqrt(T)) of every path; ValueError when
    it is no finite positive float (it overflows or underflows)."""
    try:
        eta = 4.0 * inst.diameter / (inst.grad_bound * math.sqrt(T))
    except OverflowError:   # sqrt(T) of an int beyond the floats
        eta = 0.0
    if not 0.0 < eta < math.inf:
        raise ValueError(f"the fixed step 4D/(G sqrt(T)) is {eta!r}, not a finite positive "
                         f"float, for diameter={inst.diameter!r}, "
                         f"grad_bound={inst.grad_bound!r}, T={T}")
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


def tail_estimate(stats: PathStats, k_max: int = 20) -> TailEstimate:
    """Tail probabilities at multiples of the good-set threshold, plus the
    exponential decay rate fitted on bins with at least ``_FIT_MIN_HITS`` hits.

    Raises ValueError when ``k_max < 2`` (a fit needs two bins with k >= 1)
    or when fewer than two bins qualify (not enough trials to see the decay).
    """
    if k_max < 2:
        raise ValueError(f"kmax must be >= 2 for a tail fit, got {k_max}")
    ks = np.arange(k_max + 1)
    thresholds = ks * stats.threshold
    counts = np.array([int(np.sum(stats.final_subopt >= thr)) for thr in thresholds])
    probs = counts / stats.trials
    rows = list(zip(ks.tolist(), probs.tolist()))

    fit_ks = [k for k in range(1, k_max + 1) if counts[k] >= _FIT_MIN_HITS]
    if len(fit_ks) < 2 or counts[1:4].max(initial=0) == 0:
        raise ValueError(
            "insufficient trials for a tail fit: need nonzero counts at small k "
            "and at least two bins with >= {} hits".format(_FIT_MIN_HITS))
    slope = float(np.polyfit(fit_ks, np.log(counts[fit_ks]), 1)[0])
    return TailEstimate(rows=rows, counts=counts, rate=slope)


def expected_suboptimality(stats: PathStats) -> tuple[float, float]:
    """Sample mean of f(x_T) - f* with its standard error."""
    if stats.trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a stable mean")
    mean = float(stats.final_subopt.mean())
    se = float(stats.final_subopt.std(ddof=1) / math.sqrt(stats.trials))
    return mean, se

"""Worst-case instances for the final iterate of projected subgradient descent.

Each instance is a max of d+2 pieces on the Euclidean unit ball,

    f(x) = max_{0 <= i <= d+1} H_i(x),    H_i(x) = h_i . x  (+ ||x||^2 / 2),

with the quadratic term present only in the strongly convex family.  The
piece gradients follow a staircase pattern: piece i >= 1 puts a shared
positive slope a_j on every coordinate j < i, a negative entry on its own
coordinate i, and zero beyond; piece 0 is identically the base piece and
piece d+1 carries the shared slopes on all coordinates.

Paired with a subgradient oracle that answers zero for the first T-d steps
and then always selects the lowest active piece above the base one, the
whole trajectory from x_1 = 0 has a closed form: the iterate sleeps at the
origin, then coordinate k is "kicked" up at step T-d+k and decays under the
shared slopes afterwards.  The final iterate therefore ends up with all d
coordinates positive and a function value with a harmonic-sum (~ log d)
lower bound, while the true minimum stays 0 at the origin.  All three
families share one closed form, for any step sizes that keep the oracle on
its intended pieces, that reads only the d step sizes of the kicked window
(``_closed_form_block``), so a row of it costs O(d) memory whatever T is.

Three families are provided, differing in slope scale, kick depth and step
schedule:

    "sc"        strongly convex, eta_t = 1/t, bound log(d)/(5T)
    "lip-dec"   1-Lipschitz, eta_t = 1/sqrt(t), bound log(d)/(32 sqrt(T))
    "lip-fixed" 1-Lipschitz, eta_t = 1/sqrt(T), bound log(d)/(32 sqrt(T))

For d = 1 the harmonic sum degenerates and the fallback bounds are 1/(4T)
and 1/(32 sqrt(T)) respectively.

Verification compares the engine's iterates with closed-form row blocks:
each streamed iterate as a one-row block (``verify_instance``, memory
O(d) beside one block of the engine's step sizes), or a recorded trace in
blocks of ``engine.VALUE_BLOCK`` floats (``verify_trajectory``); only the
largest deviation and the first row above the tolerance are kept.  A quiet row's
deviation is max|x_t|, and a streamed iterate the engine yields again is
skipped, its deviation already seen, so a quiet step does no arithmetic.
The oracle computes pieces only up to the last nonzero column of its input
(in a kicked step, up to where the intended trajectory's support ends, when
x is zero past it).  The sampled Lipschitz and strong-convexity
certificates evaluate their pairs in blocks of the same size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (Ball, SgdTrace, StepSchedule, block_rows, euclidean_norm,
                     run_sgd, sgd_steps)

STRONGLY_CONVEX = "sc"
LIPSCHITZ_DECREASING = "lip-dec"
LIPSCHITZ_FIXED = "lip-fixed"
FAMILIES = (STRONGLY_CONVEX, LIPSCHITZ_DECREASING, LIPSCHITZ_FIXED)

# absolute tolerance for detecting ties among active pieces; exact ties in
# real arithmetic show up with ~1e-16 noise in binary64
ACTIVE_TOL = 1e-10

# slack a sampled certificate forgives its worst pair (and the Lipschitz
# certificate its largest subgradient norm)
SLACK_TOL = 1e-12

@dataclass(frozen=True)
class AdversarialInstance:
    """One worst-case instance: family tag, dimension d, horizon T and the
    read-only shared slopes a_1..a_d and depths b_1..b_d of its staircase."""

    family: str
    d: int
    T: int
    shared_slopes: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        for name in ("shared_slopes", "depths"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)

    @property
    def quiet_steps(self) -> int:
        """Number of leading steps at which the oracle answers zero (T - d)."""
        return self.T - self.d

    @property
    def quadratic(self) -> bool:
        """Whether every piece carries the common ||x||^2 / 2 term."""
        return self.family == STRONGLY_CONVEX

    @property
    def lipschitz_constant(self) -> float:
        return 3.0 if self.quadratic else 1.0

    def schedule(self) -> StepSchedule:
        if self.family == STRONGLY_CONVEX:
            return StepSchedule("inv_t")
        if self.family == LIPSCHITZ_DECREASING:
            return StepSchedule("inv_sqrt_t")
        return StepSchedule("constant", value=1.0 / np.sqrt(self.T))

    def feasible(self) -> Ball:
        return Ball(radius=1.0, dim=self.d)


def _piece_row(inst: AdversarialInstance, i: int) -> np.ndarray:
    """Row h_i of the staircase, built from slices: a_j for j < i, -b_i at
    j = i, zero beyond."""
    h = np.zeros(inst.d)
    m = max(i - 1, 0)
    h[:m] = inst.shared_slopes[:m]
    if 1 <= i <= inst.d:
        h[m] = -inst.depths[m]
    return h


def _piece_grad(inst: AdversarialInstance, i: int, x: np.ndarray) -> np.ndarray:
    """Gradient of piece i at x: h_i, plus x in the strongly convex family."""
    g = _piece_row(inst, i)
    if inst.quadratic:
        g += x
    return g


def build_instance(family: str, d: int, T: int) -> AdversarialInstance:
    """The shared slopes and depths of one (family, d, T) instance."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > T:
        raise ValueError(f"need d <= T, got d={d}, T={T}")
    if T >= 2 ** 53:    # the step indices 1..T+1 must be exact floats
        raise ValueError(f"need T <= 2**53 - 1, so that every step index is an exact "
                         f"float, got T={T}")

    j = np.arange(1, d + 1, dtype=float)
    if family == STRONGLY_CONVEX:
        slopes = 1.0 / (2.0 * (d + 1 - j))
        depths = np.ones(d)
    else:
        slopes = 1.0 / (8.0 * (d + 1 - j))
        if family == LIPSCHITZ_DECREASING:
            depths = np.sqrt(j + T - d) / (2.0 * np.sqrt(T))
        else:
            depths = np.full(d, 0.5)
    return AdversarialInstance(family, d, T, shared_slopes=slopes, depths=depths)


def piece_values(inst: AdversarialInstance, x: np.ndarray, w: int | None = None) -> np.ndarray:
    """Values of all d+2 pieces at x, a single point or an (n, d) batch, in
    O(d) per point: with S_k = sum_{j<=k} a_j x_j and S_0 = 0, piece 0 is 0,
    piece i in 1..d is S_{i-1} - b_i x_i and piece d+1 is S_d.

    One output buffer holds everything: columns 1..d+1 get [0, a_1 x_1, ...,
    a_d x_d] and an in-place cumulative sum turns them into S_0..S_d.  The
    sum starts from S_0 = +0.0, so S_k is never -0.0 (an all -0.0 prefix
    gives S_k = +0.0).

    With ``w < d`` the caller vouches that the columns past w are ±0.0, and
    only pieces 0..w+1 are computed (w+2 columns): each of the pieces
    w+1..d+1 is then S_w - b_i (±0.0) or S_w, which is S_w bit for bit
    because S_w is never -0.0.  The quadratic term still sums over the full
    row."""
    x = np.asarray(x, dtype=float)
    w = inst.d if w is None else w
    xw = x[..., :w]
    vals = np.empty(x.shape[:-1] + (w + 2,))
    vals[..., :2] = 0.0
    np.multiply(inst.shared_slopes[:w], xw, out=vals[..., 2:])
    S = vals[..., 1:]
    np.add.accumulate(S, axis=-1, out=S)   # np.cumsum without its Python wrapper
    vals[..., 1:-1] -= inst.depths[:w] * xw
    if inst.quadratic:
        vals += (0.5 * np.add.reduce(x * x, axis=-1))[..., None]
    return vals


def _support(x: np.ndarray) -> int:
    """Width of the leading columns of x, a point or a (k, d) block, that
    hold all of its nonzeros (NaN counts as one, ±0.0 does not)."""
    nz = x != 0
    if nz.ndim == 2:
        nz = nz.any(axis=0)
    zeros_after = int(nz[::-1].argmax())
    return nz.size - zeros_after if nz[-1 - zeros_after] else 0


#: how far past the unit ball f may still be evaluated (rounding slack)
_BALL_SLACK = 1.0 + 1e-9
_OUTSIDE_BALL = "x lies outside the unit ball"


def eval_f(inst: AdversarialInstance, x) -> float:
    """f(x) = max over pieces; defined on the unit ball only."""
    x = np.asarray(x, dtype=float)
    if euclidean_norm(x) > _BALL_SLACK:
        raise ValueError(_OUTSIDE_BALL)
    return float(piece_values(inst, x).max())


class AdversarialOracle:
    """Subgradient oracle driving the worst-case trajectory.

    Returns one shared read-only zero vector for the first T-d steps;
    afterwards returns the gradient of the lowest active piece other than
    the base piece (plus x for the strongly convex family).  On the
    intended trajectory that piece index equals t - (T-d), and x is ±0.0
    from column t - (T-d) on, so only the pieces up to there are computed
    when one count confirms it.  Any disagreement is recorded in
    ``self.divergences`` as (t, expected, got) so drift is observable.
    """

    def __init__(self, inst: AdversarialInstance):
        self.inst = inst
        self.divergences: list[tuple[int, int, int]] = []
        self._zero = np.zeros(inst.d)
        self._zero.setflags(write=False)

    def reset(self, seed: int) -> None:
        # deterministic oracle; only clear the drift log for a fresh run
        self.divergences = []

    def value(self, X) -> np.ndarray:
        """f at each row of a (k, d) block, which must lie in the unit ball
        (the rule of :func:`eval_f`), from the pieces up to the block's
        last nonzero column."""
        X = np.asarray(X, dtype=float)
        if np.count_nonzero(_row_norms(X) > _BALL_SLACK):
            raise ValueError(_OUTSIDE_BALL)
        return piece_values(self.inst, X, _support(X)).max(axis=-1)

    def subgradient(self, x, t: int) -> np.ndarray:
        inst = self.inst
        if not 1 <= t <= inst.T:
            raise ValueError(f"step index {t} out of range 1..{inst.T}")
        if t <= inst.quiet_steps:
            return self._zero
        x = np.asarray(x, dtype=float)
        expected = t - inst.quiet_steps
        # on the intended trajectory x_t is ±0.0 past column expected-1, and
        # one count confirms it; the pieces past it then all equal the last
        # one computed
        w = expected - 1
        if np.count_nonzero(x[w:]):
            w = inst.d
        vals = piece_values(inst, x, w)
        active = vals[1:] >= vals.max() - ACTIVE_TOL
        i = int(active.argmax()) + 1        # the first active piece above the base one
        if not active[i - 1]:
            raise RuntimeError(
                f"no active piece above the base one at step {t}; "
                "the trajectory left the analyzed region")
        if i != expected:
            self.divergences.append((t, expected, i))
        return _piece_grad(inst, i, x)


def _kicked_window(inst: AdversarialInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3d+1 floats the closed form reads, from the schedule's step sizes
    eta_k = eta_{q+k}, k = 1..d, over the kicked window, q = T-d: the
    products P_k = prod_{i=2}^{k} (1 - c eta_i), with c = 1 in the
    quadratic family and 0 otherwise (so every P_k is 1.0), the scaled
    depths B_j = b_j eta_j / P_j, and V_m = sum_{k<=m} eta_k / P_k, V_0 = 0."""
    eta = inst.schedule().sizes(inst.T, first=inst.quiet_steps + 1)
    P = np.cumprod(np.concatenate(([1.0], 1.0 - float(inst.quadratic) * eta[1:])))
    return P, inst.depths * eta / P, np.concatenate(([0.0], np.cumsum(eta / P)))


def _closed_form_block(inst: AdversarialInstance, t0: int, t1: int,
                       window: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Predicted iterates z_t for t in [t0, t1), 1 <= t0 < t1 <= T+2, as a
    (t1-t0, d) array; ``window`` is ``_kicked_window(inst)``, (P, B, V).

    z_t = 0 for t <= T-d+1.  For later t, with q = T-d and m = t-1-q,
    coordinate j is nonzero exactly when j <= m, and

      z_{t,j} = P_m (B_j - a_j (V_m - V_j)),

    the solution of x_{s+1,j} = (1 - c eta_s) x_{s,j} - eta_s a_j from the
    kick x_{q+j+1,j} = b_j eta_{q+j}.  It holds for any step sizes that keep
    the oracle on its intended pieces inside the ball, and needs O(d) memory
    beside the block.  P starts at i = 2, so eta_{q+1} = 1 (d = T under
    eta_t = 1/t) enters no product.  The formula runs on the kicked rows and
    the columns j < t1-q-1 only, and is written under the triangular mask
    j < t-q; every other entry is +0.0.
    """
    q = inst.quiet_steps
    z = np.zeros((t1 - t0, inst.d))
    lo, w = max(t0, q + 2), t1 - q - 2     # first kicked row, support width
    if lo < t1:
        t = np.arange(lo, t1, dtype=float)[:, None]
        P, B, V = window
        m = slice(lo - 1 - q, t1 - 1 - q)             # m = t-1-q of each row
        v = B[:w] - inst.shared_slopes[:w] * (V[m, None] - V[1:w + 1])
        v *= P[lo - 2 - q:t1 - 2 - q, None]           # P_m, stored from P_1 on
        np.copyto(z[lo - t0:, :w], v, where=np.arange(1.0, w + 1) < t - q)
    return z


def closed_form_iterate(inst: AdversarialInstance, t: int) -> np.ndarray:
    """Predicted iterate z_t for one step t in 1..T+1, in O(d) memory."""
    if not 1 <= t <= inst.T + 1:
        raise ValueError(f"t={t} out of range 1..{inst.T + 1}")
    return _closed_form_block(inst, t, t + 1, _kicked_window(inst))[0]


def lower_bound_value(family: str, d: int, T: int) -> float:
    """Certified suboptimality of the final iterate for one (family, d, T).

    Uses the natural log for d >= 2.  For d = 1 the harmonic-sum-to-log step
    is dropped and the per-term constant kept: 1/(4T) for the strongly
    convex family, 1/(32 sqrt(T)) for the Lipschitz families.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if d < 1 or d > T:
        raise ValueError(f"invalid (d, T) = ({d}, {T})")
    if family == STRONGLY_CONVEX:
        return np.log(d) / (5.0 * T) if d >= 2 else 1.0 / (4.0 * T)
    return np.log(d) / (32.0 * np.sqrt(T)) if d >= 2 else 1.0 / (32.0 * np.sqrt(T))


def beats_bound(final_value: float, bound: float, d: int) -> bool:
    """Whether a final value certifies the lower bound: strictly above it for
    d >= 2, at least equal to it for the d = 1 fallback bound."""
    return bool(final_value > bound if d >= 2 else final_value >= bound)


def run_on_instance(inst: AdversarialInstance) -> SgdTrace:
    """Run the engine on an instance from x_1 = 0 with its family schedule."""
    oracle = AdversarialOracle(inst)
    return run_sgd(oracle, inst.feasible(), inst.schedule(), np.zeros(inst.d), inst.T)


@dataclass
class VerifyReport:
    """Outcome of checking an engine run against the closed form."""

    family: str
    d: int
    T: int
    max_deviation: float
    first_mismatch: int | None   # 1-based step index, None if within tol
    final_value: float
    bound: float
    tol: float
    passed: bool
    divergences: list | None  # the oracle's (t, expected, got); None for a trace

    def to_dict(self) -> dict:
        rec, drift = dict(vars(self)), self.divergences
        rec["pass"] = rec.pop("passed")
        if drift is not None:
            rec["divergences"] = {"count": len(drift), "first": [list(e) for e in drift[:3]]}
        return rec


def _compare(inst: AdversarialInstance, blocks, tol: float, oracle=None) -> VerifyReport:
    """Max-norm comparison of x_1..x_{T+1}, given as consecutive (k, d) row
    blocks, with the closed form block by block, keeping only the running
    maximum of the row deviations, the first row not within ``tol`` and the
    oracle's divergences: memory O(block), not O(T).  A NaN deviation is
    the maximum, as in ``max``, and a mismatch, so a run whose iterates hold
    NaN fails.  A NaN or infinite ``tol`` is rejected: no deviation compares
    above it, so every run would pass.

    In the quiet prefix (t <= T-d+1) z_t is +0.0, so a row's deviation is
    max|x_t| (x - (+0.0) is x, bit for bit), and no zero block is built; a
    quiet block that is the same object as the one before it has the same
    deviations, so it changes neither the maximum nor the first mismatch."""
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, not NaN or infinite, got {tol}")
    window = _kicked_window(inst)
    last_quiet = inst.quiet_steps + 1
    worst, first = -math.inf, None
    t, prev = 1, None
    for x in blocks:
        t1 = t + x.shape[0]
        if t1 - 1 > last_quiet:
            z = _closed_form_block(inst, t, t1, window)
            np.subtract(x, z, out=z)
            dev = np.maximum.reduce(np.abs(z, out=z), axis=1)
        elif x is prev:     # the deviations just seen: no new maximum or mismatch
            t = t1
            continue
        else:
            dev = np.maximum.reduce(np.abs(x), axis=1)
        top = dev.max()
        worst = np.maximum(worst, top)      # keeps a NaN, as dev.max() does
        if first is None and not top <= tol:
            first = t + int(np.flatnonzero(~(dev <= tol))[0])
        t, prev = t1, x
    if t != inst.T + 2:
        raise ValueError(f"got {t - 1} iterates, expected T+1 = {inst.T + 1}")
    return VerifyReport(
        family=inst.family, d=inst.d, T=inst.T,
        max_deviation=float(worst), first_mismatch=first,
        final_value=eval_f(inst, x[-1]),
        bound=lower_bound_value(inst.family, inst.d, inst.T),
        tol=tol, passed=first is None,
        divergences=None if oracle is None else oracle.divergences,
    )


def verify_trajectory(inst: AdversarialInstance, trace: SgdTrace,
                      tol: float = 1e-9) -> VerifyReport:
    """Check a recorded trace against the closed form, in blocks of
    ``engine.VALUE_BLOCK`` floats of iterates; a trace has no divergences."""
    want = (inst.T + 1, inst.d)
    if trace.iterates.shape != want:
        raise ValueError(f"trace shape {trace.iterates.shape} does not match expected {want}")
    rows = block_rows(inst.d)
    blocks = (trace.iterates[s:s + rows] for s in range(0, inst.T + 1, rows))
    return _compare(inst, blocks, tol)


def verify_instance(inst: AdversarialInstance, tol: float = 1e-9) -> VerifyReport:
    """Run the engine as :func:`run_on_instance` does and check each iterate
    as it is produced, as a one-row block viewing it: no history, f only at
    the final iterate, memory O(d) beside one block of step sizes.  A
    quiet step does no arithmetic: the engine yields the same iterate, and
    the comparison skips it.  The report carries the oracle's divergences."""
    oracle = AdversarialOracle(inst)
    steps = sgd_steps(oracle, inst.feasible(), inst.schedule(), np.zeros(inst.d), inst.T)
    return _compare(inst, _row_blocks(steps), tol, oracle)


def _row_blocks(steps):
    """Each iterate of an ``sgd_steps`` stream as a one-row view; an iterate
    the engine yields again (a pass-through step) gives the same view."""
    x = blk = None
    for _, _, y in steps:
        if y is not x:
            x, blk = y, y[None]
        yield blk


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1) for a real (n, d) array, bit for bit: the
    same reduction over v*v, without the wrapper and its conj() copy."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def sample_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform samples from the unit ball: normalized Gaussian scaled by U^(1/dim).
    All normals are drawn, then all radii; the rows are then normalized and
    scaled in place, one block of ``engine.VALUE_BLOCK`` floats at a time."""
    g = rng.standard_normal((count, dim))
    r = rng.random(count) ** (1.0 / dim)
    rows = block_rows(dim)
    for s in range(0, count, rows):
        blk = g[s:s + rows]
        blk /= _row_norms(blk)[:, None]
        blk *= r[s:s + rows, None]
    return g


@dataclass
class CertificateReport:
    """Outcome of a sampled Lipschitz or strong-convexity check."""

    kind: str
    constant: float
    samples: int
    seed: int
    worst: float          # worst slack: <= SLACK_TOL means pass
    worst_ratio: float    # max |f(x)-f(y)| / (L ||x-y||), Lipschitz only
    passed: bool
    witness: tuple | None

    def to_dict(self) -> dict:
        rec = {k: v for k, v in vars(self).items() if k not in ("passed", "witness")}
        if math.isnan(self.worst_ratio):    # strict JSON has no NaN
            rec["worst_ratio"] = None
        return {**rec, "pass": self.passed}


def check_lipschitz(inst: AdversarialInstance, L: float | None = None,
                    samples: int = 10_000, seed: int = 0) -> CertificateReport:
    """Sampled certificate that |f(x)-f(y)| <= L ||x-y|| on the unit ball.

    Also verifies that every active piece at every sampled point has
    (sub)gradient norm at most L, which covers every output the min-index
    oracle could emit there.  The pairs are evaluated one block of
    ``engine.VALUE_BLOCK`` floats at a time; only per-pair scalars are kept
    for all of them.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if L is None:
        L = inst.lipschitz_constant
    rng = np.random.default_rng(seed)
    X = sample_ball(rng, samples, inst.d)
    Y = sample_ball(rng, samples, inst.d)

    c = np.cumsum(np.concatenate(([0.0], inst.shared_slopes ** 2)))
    row_sq = np.concatenate(([0.0], c[:-1] + inst.depths ** 2, c[-1:]))
    dist, fx, fy = np.empty(samples), np.empty(samples), np.empty(samples)
    # subgradient norms over all active pieces at the x-samples: the largest
    # squared norm per block (sc), or the columns active anywhere (otherwise)
    sq_max, active_cols = [], np.zeros(inst.d + 2, dtype=bool)
    rows = block_rows(inst.d)
    for s in range(0, samples, rows):
        x, y, e = X[s:s + rows], Y[s:s + rows], slice(s, s + rows)
        dist[e] = _row_norms(x - y)
        fy[e] = piece_values(inst, y).max(axis=1)
        vx = piece_values(inst, x)
        fx[e] = vx.max(axis=1)
        act = vx >= fx[e, None] - ACTIVE_TOL
        if inst.quadratic:
            # ||h_i + x||^2 = ||h_i||^2 + 2 (h_i.x + ||x||^2/2), and the bracket is vx
            vx *= 2.0
            vx += row_sq
            np.copyto(vx, 0.0, where=~act)
            sq_max.append(vx.max())
        else:
            active_cols |= act.any(axis=0)
    if inst.quadratic:
        gnorm = float(np.sqrt(np.max(sq_max)))
    else:
        # every row_sq is >= +0.0, so the max over active columns is the max
        # over active entries
        gnorm = float(np.sqrt(row_sq[active_cols].max()))

    gap = np.abs(fx - fy) - L * dist
    worst_idx = int(np.argmax(gap))
    worst = float(gap[worst_idx])
    nz = dist > 0
    worst_ratio = float(np.max(np.abs(fx - fy)[nz] / (L * dist[nz]))) if nz.any() else 0.0

    passed = worst <= SLACK_TOL and gnorm <= L + SLACK_TOL
    witness = None
    if not passed:
        witness = (X[worst_idx].copy(), Y[worst_idx].copy())
    return CertificateReport(
        kind="lipschitz", constant=L, samples=samples, seed=seed,
        worst=max(worst, gnorm - L), worst_ratio=worst_ratio,
        passed=passed, witness=witness)


def check_strong_convexity(inst: AdversarialInstance, alpha: float = 1.0,
                           samples: int = 10_000, seed: int = 0) -> CertificateReport:
    """Sampled certificate that f(y) - f(x) >= g.(y-x) + alpha/2 ||y-x||^2
    for g the canonical subgradient at x, one block of ``engine.VALUE_BLOCK``
    floats of pairs at a time; only the per-pair slacks are kept."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not inst.quadratic:
        raise ValueError(f"family {inst.family!r} is not strongly convex")
    rng = np.random.default_rng(seed)
    X = sample_ball(rng, samples, inst.d)
    Y = sample_ball(rng, samples, inst.d)

    slack = np.empty(samples)
    rows = block_rows(inst.d)
    for s in range(0, samples, rows):
        x, y = X[s:s + rows], Y[s:s + rows]
        fy = piece_values(inst, y).max(axis=1)
        vx = piece_values(inst, x)
        fx = vx.max(axis=1)
        first_active = np.argmax(vx >= fx[:, None] - ACTIVE_TOL, axis=1)
        # at most d+2 distinct pieces: build each row once, then gather
        pieces, which = np.unique(first_active, return_inverse=True)
        G = np.array([_piece_row(inst, int(i)) for i in pieces])[which]
        G += x
        diff = y - x
        G *= diff
        diff *= diff
        slack[s:s + rows] = (fy - fx - np.add.reduce(G, axis=1)
                             - 0.5 * alpha * np.add.reduce(diff, axis=1))
    worst_idx = int(np.argmin(slack))
    worst = float(slack[worst_idx])
    passed = worst >= -SLACK_TOL
    witness = None if passed else (X[worst_idx].copy(), Y[worst_idx].copy())
    return CertificateReport(
        kind="strong_convexity", constant=alpha, samples=samples, seed=seed,
        worst=worst, worst_ratio=float("nan"), passed=passed, witness=witness)

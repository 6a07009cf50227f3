"""Birth-death chain induced by a restricted +/-1 oracle on the grid {0, 1/n, ..., 1}.

Running fixed-step SGD with step 1/n on a convex f: [0,1] -> R whose oracle
can only answer +1 or -1 keeps the iterate on the grid, so the process is a
Markov chain.  With a_i the probability of answering +1 (a step toward 0)
at grid point i/n, the chain moves left with probability a_i, right with
probability 1-a_i, and the boundary moves that would leave [0,1] are
projected back (the endpoints stay put instead).  Unbiasedness forces
2 a_i - 1 to be a subgradient of f at i/n, and convexity with the minimum
at 0 forces 1/2 <= a_0 <= ... <= a_n <= 1.

The stationary distribution has the product closed form

    p_i  proportional to  prod_{j<i} (1 - a_j) / prod_{1<=j<=i} a_j,

computed here in log space, and its expected objective value is bounded by
(2 + 24e)/n.

The walk runs as that SGD through the engine (:func:`simulate_chain_sgd`)
with :class:`GridSignOracle`, the nearly linear study's two-point oracle,
which answers a float for a float, so the run steps in Python floats.
Objectives and subgradients map an array of points elementwise, as the
:data:`PROFILES` do, and are called once per grid or block of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Interval, SgdTrace, StepSchedule, run_sgd
from .nearly_linear import TwoPointOracle

#: coefficient of the stationary suboptimality bound (2 + 24e)/n
BOUND_COEFF = 2.0 + 24.0 * math.e

_MONOTONE_TOL = 1e-9

#: residual max|p P - p| at which the power iteration stops
_POWER_TOL = 1e-12


@dataclass(frozen=True)
class WalkChain:
    """Grid size n and left-move probabilities a_0..a_n, which define the walk."""

    n: int
    left_probs: np.ndarray   # (n+1,)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def _diagonals(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and super-diagonal of the transition matrix: left with
    probability a_i, right with 1 - a_i, staying put where [0, 1] ends."""
    main = np.zeros_like(a)
    main[0], main[-1] = a[0], 1.0 - a[-1]
    return a[1:], main, 1.0 - a[:-1]


def _step(p: np.ndarray, sub, main, sup) -> np.ndarray:
    """One transition p -> p P in O(n) from the three diagonals of P."""
    q = main * p
    q[1:] += sup * p[:-1]
    q[:-1] += sub * p[1:]
    return q


def make_chain(left_probs) -> WalkChain:
    """Validate a probability profile (NaN fails every test) and assemble the chain."""
    a = np.asarray(left_probs, dtype=float).copy()
    if a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("need at least two grid points")
    if not np.all((a >= 0.5 - _MONOTONE_TOL) & (a <= 1.0 + _MONOTONE_TOL)):
        raise ValueError("left-move probabilities must lie in [1/2, 1]")
    if np.any(np.diff(a) < -_MONOTONE_TOL):
        raise ValueError("left-move probabilities must be nondecreasing")
    a = np.clip(a, 0.5, 1.0)
    a.setflags(write=False)
    return WalkChain(n=a.shape[0] - 1, left_probs=a)


def chain_from_function(f: Callable[[np.ndarray], np.ndarray], n: int,
                        subgradient: Callable[[np.ndarray], np.ndarray] | None = None,
                        ) -> WalkChain:
    """Chain of the restricted oracle for a 1-Lipschitz convex f minimized at 0.

    a_i = (1 + b_i)/2 where b_i is a subgradient of f at i/n, so the +/-1
    answers have the right mean.  ``subgradient`` may supply exact values
    (a scalar is broadcast); otherwise a one-sided difference quotient with
    h = 1e-6 is used (right derivative, except at the right endpoint).
    Invalid profiles (NaN, negative or decreasing slopes) are rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.arange(n + 1) / n
    if subgradient is not None:
        b = np.broadcast_to(np.asarray(subgradient(grid), dtype=float), grid.shape)
    else:
        h = 1e-6
        right = grid + h <= 1.0
        fx, fy = f(np.concatenate((grid, np.where(right, grid + h, grid - h)))).reshape(2, -1)
        b = np.where(right, fy - fx, fx - fy) / h
    if not np.all((b >= -_MONOTONE_TOL) & (b <= 1.0 + _MONOTONE_TOL)):
        raise ValueError("subgradients must lie in [0, 1] for a valid profile")
    return make_chain((1.0 + np.clip(b, 0.0, 1.0)) / 2.0)


@dataclass
class StationaryResult:
    p: np.ndarray
    method: str
    residual: float   # max-norm of p P - p


def _residual(chain: WalkChain, p: np.ndarray) -> float:
    return float(np.max(np.abs(_step(p, *_diagonals(chain.left_probs)) - p)))


def stationary_closed_form(chain: WalkChain) -> StationaryResult:
    """Product-form stationary distribution, evaluated in log space.

    Works up to the first index where a_j = 1 exactly; all mass beyond it is
    zero (the walk cannot pass a point that always steps left), matching the
    zero factor of the product.
    """
    a = chain.left_probs
    n = chain.n
    ones = np.flatnonzero(a >= 1.0)
    cut = int(ones[0]) + 1 if ones.size else n + 1  # indices < cut can carry mass

    # log of the unnormalized weights for i < cut:
    #   lw_i = sum_{j<i} log(1-a_j) - sum_{1<=j<=i} log(a_j)
    num = np.concatenate(([0.0], np.cumsum(np.log1p(-a[:cut - 1]))))
    den = np.concatenate(([0.0], np.cumsum(np.log(a[1:cut]))))
    lw = num - den
    lw -= lw.max()
    w = np.exp(lw)

    p = np.zeros(n + 1)
    p[:cut] = w / w.sum()
    return StationaryResult(p=p, method="closed_form", residual=_residual(chain, p))


def stationary_solve(chain: WalkChain, method: str = "linear_solve",
                     max_iters: int = 10 ** 6) -> StationaryResult:
    """Stationary distribution by banded linear solve or power iteration.

    ``linear_solve`` solves A p = 0 for the tridiagonal A = P^T - I by
    Thomas elimination from the three diagonals, in O(n) time and memory
    with no matrix built.  Neither route uses the product closed form, and
    both agree with it to ~1e-10 whenever the chain is irreducible and
    aperiodic.
    """
    n = chain.n
    if method == "linear_solve":
        # Eliminating rows n, n-1, ..., 1 of A leaves p_j = c_j p_{j-1}.  The
        # last row to eliminate, row 0, is then redundant (A has rank n), so
        # p_0 = 1 is fixed instead.  A is column diagonally dominant, so no
        # pivoting is needed (the pivots are -a_j in exact arithmetic); c_j
        # >= 0 and p_0 is the largest weight, so the products neither
        # overflow nor go negative.
        sub, main, sup = (v.tolist() for v in _diagonals(chain.left_probs))
        c = [1.0] * (n + 1)
        below = 0.0   # A[j, j+1] c_{j+1}, carried up from the row below
        for j in range(n, 0, -1):
            c[j] = -sup[j - 1] / (main[j] - 1.0 + below)
            below = sub[j - 1] * c[j]
        p = np.cumprod(c)
        p /= p.sum()
        return StationaryResult(p=p, method=method, residual=_residual(chain, p))
    if method == "power_iteration":
        p = np.full(n + 1, 1.0 / (n + 1))
        diagonals = _diagonals(chain.left_probs)
        for _ in range(max_iters):
            q = _step(p, *diagonals)
            r = float(np.max(np.abs(q - p)))
            p = q
            if r <= _POWER_TOL:
                return StationaryResult(p=p, method=method, residual=_residual(chain, p))
        raise RuntimeError(
            f"power iteration did not reach residual {_POWER_TOL} in {max_iters} "
            f"iterations (last residual {r:.3e})")
    raise ValueError(f"unknown method {method!r}")


def stationary_suboptimality(chain: WalkChain, f: Callable[[np.ndarray], np.ndarray],
                             p: np.ndarray | None = None) -> float:
    """Expected objective value sum_i p_i f(i/n) under the stationary law."""
    if p is None:
        p = stationary_closed_form(chain).p
    return float(p @ f(chain.grid))


def suboptimality_bound(n: int) -> float:
    """The certified stationary bound (2 + 24e)/n."""
    return BOUND_COEFF / n


# ---------------------------------------------------------------------------
# simulation through the SGD engine (the chain is fixed-step SGD in disguise)

class GridSignOracle(TwoPointOracle):
    """Restricted oracle answering +/-1, P[+1] = a_i at x = i/n: i counts the
    midpoints (k + 1/2)/n <= x, the uniforms come from ``default_rng(seed)``,
    and ``f`` maps an array of points to their values."""

    def __init__(self, chain: WalkChain, f: Callable[[np.ndarray], np.ndarray]):
        super().__init__((np.arange(chain.n) + 0.5) / chain.n, chain.left_probs, 1.0,
                         np.random.default_rng, f)


def simulate_chain_sgd(chain: WalkChain, f: Callable[[np.ndarray], np.ndarray],
                       steps: int, seed: int = 0, start: float = 1.0) -> SgdTrace:
    """Run the walk as projected SGD on [0, 1] with constant step 1/n."""
    oracle = GridSignOracle(chain, f)
    schedule = StepSchedule("constant", value=1.0 / chain.n)
    return run_sgd(oracle, Interval(0.0, 1.0), schedule,
                   np.array([start]), steps, seed=seed)


def long_run_suboptimality(trace: SgdTrace, burn_in: int = 0) -> float:
    """Time average of the recorded objective values after the first
    ``burn_in``; ValueError unless 0 <= burn_in < the number of values."""
    n = len(trace.values)
    if not 0 <= burn_in < n:
        raise ValueError(f"need 0 <= burn_in < {n}, the number of recorded values, "
                         f"got burn_in={burn_in}")
    return float(np.mean(trace.values[burn_in:]))


# ---------------------------------------------------------------------------
# small corpus of 1-Lipschitz convex test functions on [0, 1], minimum 0 at 0

def linear_profile(slope: float = 0.5):
    """f(x) = slope * x with 0 < slope <= 1."""
    if not 0.0 < slope <= 1.0:
        raise ValueError("slope must be in (0, 1]")
    return (lambda x: slope * x), (lambda x: slope)


def quadratic_profile():
    """f(x) = x^2 / 2, subgradient x."""
    return (lambda x: 0.5 * x * x), (lambda x: x)


def piecewise_profile():
    """f(x) = max(x/2, x - 1/4): slope 1/2 then 1, kink at 1/2."""
    return (lambda x: np.maximum(0.5 * x, x - 0.25)), (lambda x: np.where(x < 0.5, 0.5, 1.0))


def exp_profile():
    """f(x) = (e^x - 1)/e, subgradient e^(x-1) in [1/e, 1]."""
    return (lambda x: (np.exp(x) - 1.0) / math.e), (lambda x: np.exp(x - 1.0))


PROFILES = {
    "linear": linear_profile,
    "quadratic": quadratic_profile,
    "piecewise": piecewise_profile,
    "exp": exp_profile,
}


def profile(name: str, slope: float = 0.5):
    """Look up a corpus profile; returns (f, subgradient) callables."""
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    if name == "linear":
        return linear_profile(slope)
    return PROFILES[name]()

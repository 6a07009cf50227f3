"""Reference routes the tests check the library's structured routes against.

Each is rebuilt from the library's own primitives, so a check keeps an
independent route to the values it asserts:

- the dense (d+2, d) piece table, the active set and the canonical
  subgradient of a worst-case instance, from the staircase rows and the
  piece values;
- the dense transition matrix of a walk, from its three diagonals;
- the conditional mean of a nearly linear instance's oracle, from a
  ``searchsorted`` over its interior knots;
- a nearly linear instance's two-point oracle for a (B, 1) batch of
  points, so that batched paths can run through the engine's array step
  beside ``simulate_paths``' transition table;
- a recorded run with every row of its history written, from the points
  and answers of ``sgd_steps``.

No route of the library uses them; the two dense tables cost O(d^2) and
O(n^2) memory, and the recorded run commits every page of its history.
"""

import numpy as np

import lastiter.constructions as cons
import lastiter.nearly_linear as nl
import lastiter.walk as wk
from lastiter import engine


def piece_grads(inst) -> np.ndarray:
    """Dense read-only (d+2, d) table of h_0..h_{d+1}."""
    h = np.array([cons._piece_row(inst, i) for i in range(inst.d + 2)])
    h.setflags(write=False)
    return h


def active_set(inst, x, tol: float = cons.ACTIVE_TOL) -> np.ndarray:
    """Indices of pieces within ``tol`` of the max at x, sorted ascending."""
    vals = cons.piece_values(inst, x)
    return np.flatnonzero(vals >= np.max(vals) - tol)


def subgradient_at(inst, x) -> np.ndarray:
    """A canonical subgradient at x: the lowest active piece's gradient
    (plus x for the strongly convex family).  Valid at every point of the
    ball, including where only the base piece is active."""
    return cons._piece_grad(inst, int(active_set(inst, x)[0]), np.asarray(x, dtype=float))


def matrix(chain) -> np.ndarray:
    """Dense (n+1, n+1) row-stochastic transition matrix of a walk."""
    sub, main, sup = wk._diagonals(chain.left_probs)
    P, i = np.diag(main), np.arange(chain.n)
    P[i + 1, i], P[i, i + 1] = sub, sup
    return P


def mean_grad(inst, x):
    """Conditional mean of a nearly linear instance's oracle at x: the
    right-derivative slope (left derivative at the right endpoint)."""
    return inst.slopes[np.searchsorted(inst.knots[1:-1], x, side="right")]


class BatchTwoPointOracle:
    """A nearly linear instance's two-point oracle for a (B, 1) batch: row r
    answers step t with +G when the t-th uniform of the (seed, ``trials[r]``)
    Philox stream is below P[+G] at its point (a ``searchsorted`` over the
    interior knots), and -G otherwise.  Each stream is drawn ``nl.TILE``
    steps at a time, whatever the horizon, into a step-major (TILE, B)
    tile."""

    def __init__(self, inst, trials):
        self._inst = inst
        self._trials = [int(r) for r in trials]
        self._answers = np.array([-inst.grad_bound, inst.grad_bound])
        self.reset(0)

    def reset(self, seed: int) -> None:
        self._seed, self._streams, self._col = seed, None, nl.TILE

    def subgradient(self, x, t: int) -> np.ndarray:
        if self._col == nl.TILE:
            if self._streams is None:
                self._streams = [nl.trial_stream(self._seed, r) for r in self._trials]
                self._tile = np.empty((nl.TILE, len(self._streams)))
            for j, stream in enumerate(self._streams):
                self._tile[:, j] = stream.random(nl.TILE)
            self._col = 0
        u = self._tile[self._col]
        self._col += 1
        probs = self._inst.segment_probs[
            np.searchsorted(self._inst.knots[1:-1], x[:, 0], side="right")]
        return self._answers[(u < probs).astype(np.intp)][:, None]


def recorded_run(oracle, feasible, schedule, x1, T: int, seed: int = 0) -> engine.SgdTrace:
    """What ``run_sgd`` records, with every row written into ``np.empty``:
    x_1 and each (g_t, x_{t+1}) of ``sgd_steps`` as it is yielded, then the
    values, one ``oracle.value`` call per block of ``engine.VALUE_BLOCK``
    floats of iterates."""
    d = np.atleast_1d(np.asarray(x1, dtype=float)).shape[0]
    iterates, gradients = np.empty((T + 1, d)), np.empty((T, d))
    for t, g, x in engine.sgd_steps(oracle, feasible, schedule, x1, T, seed):
        iterates[t] = x
        if t:
            gradients[t - 1] = g
    rows = engine.block_rows(d)
    values = np.concatenate([oracle.value(iterates[s:s + rows])
                             for s in range(0, T + 1, rows)])
    return engine.SgdTrace(iterates, gradients, values)

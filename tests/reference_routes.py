"""Reference routes the tests check the library's structured routes against.

Each is rebuilt from the library's own primitives, so a check keeps an
independent route to the values it asserts:

- the dense (d+2, d) piece table, the active set and the canonical
  subgradient of a worst-case instance, from the staircase rows and the
  piece values;
- the dense transition matrix of a walk, from its three diagonals;
- the conditional mean of a nearly linear instance's oracle, from a
  ``searchsorted`` over its interior knots.

No route of the library uses them; the two dense tables cost O(d^2) and
O(n^2) memory.
"""

import numpy as np

import lastiter.constructions as cons
import lastiter.walk as wk


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

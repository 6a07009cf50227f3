"""Numerical laboratory for the final iterate of projected subgradient descent.

Four pieces: a generic projected-SGD engine (`engine`), worst-case
max-affine constructions with closed-form trajectories and certified lower
bounds (`constructions`), the grid birth-death walk with its product-form
stationary law (`walk`), and Monte Carlo experiments on nearly linear 1D
instances (`nearly_linear`).  The `cli` module exposes everything as
subcommands.
"""

from .engine import (Ball, Interval, SgdTrace, StepSchedule, run_sgd, sgd_steps,
                     trace_to_csv)
from .constructions import (FAMILIES, LIPSCHITZ_DECREASING, LIPSCHITZ_FIXED,
                            STRONGLY_CONVEX, AdversarialInstance,
                            AdversarialOracle, build_instance, check_lipschitz,
                            check_strong_convexity, closed_form_iterate, eval_f,
                            lower_bound_value, run_on_instance, verify_instance,
                            verify_trajectory)
from .walk import (WalkChain, chain_from_function, make_chain,
                   simulate_chain_sgd, stationary_closed_form,
                   stationary_solve, stationary_suboptimality,
                   suboptimality_bound)
from .nearly_linear import (GoodSet, NearlyLinearInstance, PathStats,
                            build_nearly_linear, expected_suboptimality,
                            good_set, path_via_engine, simulate_paths,
                            tail_estimate)

__all__ = [
    "Ball", "Interval", "SgdTrace", "StepSchedule", "run_sgd", "sgd_steps",
    "trace_to_csv",
    "FAMILIES", "LIPSCHITZ_DECREASING", "LIPSCHITZ_FIXED", "STRONGLY_CONVEX",
    "AdversarialInstance", "AdversarialOracle", "build_instance",
    "check_lipschitz", "check_strong_convexity", "closed_form_iterate", "eval_f",
    "lower_bound_value", "run_on_instance", "verify_instance", "verify_trajectory",
    "WalkChain", "chain_from_function", "make_chain", "simulate_chain_sgd",
    "stationary_closed_form", "stationary_solve", "stationary_suboptimality",
    "suboptimality_bound",
    "GoodSet", "NearlyLinearInstance", "PathStats", "build_nearly_linear",
    "expected_suboptimality", "good_set", "path_via_engine", "simulate_paths",
    "tail_estimate",
]
__version__ = "0.1.0"

"""The three benchmark workloads and the correctness checks they run.

Each workload has a ``build`` step (the inputs: instances, chains, the
nearly-linear instance and its good sets) and a ``run`` step that drives the
public functions of ``lastiter`` the way the CLI subcommands do and checks
every output against the paper's closed forms and certificates.  ``run``
calls ``run_sgd`` itself, rather than ``run_on_instance``,
``simulate_chain_sgd`` or ``path_via_engine``, so that a traced pass can hand
the engine a timing proxy in place of the oracle; the arguments are the ones
those helpers pass.

Why these workloads (every layer is heavy in one and light in another):

adversarial  At d = 1024 the dense (d+2, d) piece table costs O(d^2) on every
             ``value`` and kicked ``subgradient`` call; the d = 8 cells are
             bound by per-step engine overhead; certificates use the table
             in batched form.  No walk or Monte Carlo code runs.
walk         The dense (n+1)^2 transition matrix and the O(n^3) solve
             dominate time and memory; the 2e5-step simulation is pure
             d = 1 engine overhead.  No constructions code runs.
mc           The long batch holds a trials x T block of uniforms, so its
             memory shows tiling; the wide batch spends a third of its time
             creating per-trial Philox streams.  The engine runs only for the
             two cross-check paths.
"""

from __future__ import annotations

import math
import random

import numpy as np

from lastiter import constructions as cons
from lastiter import engine
from lastiter import nearly_linear as nl
from lastiter import walk as wk

PARAMS = {
    "adversarial": {"families": list(cons.FAMILIES), "dims": [8, 1024], "T": 4096,
                    "tol": 1e-9, "cert_d": 256, "cert_samples": 10_000},
    "walk": {"profiles": ["exp", "piecewise"], "n": 4000, "agree_tol": 1e-10,
             "residual_tol": 1e-12, "power_profile": "exp", "power_n": 1000,
             "sim_profile": "linear", "sim_n": 100, "sim_steps": 200_000,
             "sim_burn_in": 10_000, "sim_tol": 0.01},
    "mc": {"shape": "abs", "diameter": 1.0, "grad_bound": 1.0, "epsilon": 0.5,
           "k_max": 20, "batches": [["long", 25_600, 2048], ["wide", 400, 32_768]]},
}

#: sizes for the harness self-test; everything else as in PARAMS
TINY = {
    "adversarial": {"dims": [2, 16], "T": 64, "cert_d": 8, "cert_samples": 200},
    "walk": {"n": 200, "power_n": 50, "sim_n": 20, "sim_steps": 20_000,
             "sim_burn_in": 400},
    "mc": {"batches": [["long", 1600, 256], ["wide", 100, 2048]]},
}


def params(workload: str, size: str = "full") -> dict:
    return PARAMS[workload] if size == "full" else {**PARAMS[workload], **TINY[workload]}


class Checks:
    """Outcome of every correctness check of one pass."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok, **detail) -> None:
        self.results.append({"name": name, "pass": bool(ok), **detail})

    @property
    def failed(self) -> int:
        return sum(not r["pass"] for r in self.results)


def run_engine(tr, oracle, layer, feasible, schedule, x1, T, seed,
               kicked_after=None):
    """``run_sgd`` inside an ``engine.run_sgd`` span; the oracle is proxied
    when tracing.  Records the steps and the computed bytes of the history;
    returns the trace and the span, for more attributes."""
    with tr.span("engine.run_sgd", steps=T) as rec:
        trace = engine.run_sgd(tr.oracle(oracle, layer, kicked_after),
                               feasible, schedule, x1, T, seed=seed)
    rec["history_bytes"] = sum(int(np.prod(a.shape)) * a.itemsize
                               for a in vars(trace).values()
                               if isinstance(a, np.ndarray))
    return trace, rec


# ---------------------------------------------------------------------------
# adversarial: verify / sweep and certify

def build_adversarial(p, seed, tr):
    cells, certs = [], []
    for family in p["families"]:
        for d in p["dims"]:
            with tr.span("constructions.build"):
                cells.append(cons.build_instance(family, d, p["T"]))
        with tr.span("constructions.build"):
            certs.append(cons.build_instance(family, p["cert_d"], p["T"]))
    return {"cells": cells, "certs": certs}


def run_adversarial(inputs, p, seed, tr, checks):
    for inst in inputs["cells"]:
        oracle = cons.AdversarialOracle(inst)
        trace, rec = run_engine(tr, oracle, "constructions", inst.feasible(),
                                inst.schedule(), np.zeros(inst.d), inst.T, seed,
                                kicked_after=inst.quiet_steps)
        rec["divergences"] = len(oracle.divergences)
        with tr.span("constructions.verify", peak=True):
            rep = cons.verify_trajectory(inst, trace, tol=p["tol"])
        del trace
        tag = f"{inst.family} d={inst.d} T={inst.T}"
        checks.add(f"trajectory {tag}", rep.passed, max_deviation=rep.max_deviation,
                   divergences=len(oracle.divergences))
        beats = rep.final_value > rep.bound if inst.d >= 2 else rep.final_value >= rep.bound
        checks.add(f"lower bound {tag}", beats, final_value=rep.final_value,
                   bound=rep.bound)

    for inst in inputs["certs"]:
        tag = f"{inst.family} d={inst.d}"
        with tr.span("constructions.certify", samples=p["cert_samples"]):
            rep = cons.check_lipschitz(inst, samples=p["cert_samples"], seed=seed)
        checks.add(f"lipschitz {tag}", rep.passed, worst=rep.worst)
        if inst.quadratic:
            with tr.span("constructions.certify", samples=p["cert_samples"]):
                rep = cons.check_strong_convexity(inst, alpha=1.0,
                                                  samples=p["cert_samples"], seed=seed)
            checks.add(f"strong convexity {tag}", rep.passed, worst=rep.worst)


# ---------------------------------------------------------------------------
# walk: stationary routes and the engine-simulated chain

def _chain(tr, name, n):
    f, df = wk.profile(name)
    with tr.span("walk.chain_build", peak=True):
        chain = wk.chain_from_function(f, n, subgradient=df)
    return chain, f


def build_walk(p, seed, tr):
    return {
        "routes": [(name, *_chain(tr, name, p["n"])) for name in p["profiles"]],
        "power": _chain(tr, p["power_profile"], p["power_n"]),
        "sim": _chain(tr, p["sim_profile"], p["sim_n"]),
    }


def run_walk(inputs, p, seed, tr, checks):
    for name, chain, f in inputs["routes"]:
        tag = f"{name} n={chain.n}"
        with tr.span("walk.closed_form"):
            closed = wk.stationary_closed_form(chain)
        with tr.span("walk.linear_solve", peak=True):
            solved = wk.stationary_solve(chain, "linear_solve")
        diff = float(np.max(np.abs(closed.p - solved.p)))
        checks.add(f"routes agree {tag}", diff <= p["agree_tol"], diff=diff)
        resid = max(closed.residual, solved.residual)
        checks.add(f"residual {tag}", resid <= p["residual_tol"], residual=resid)
        with tr.span("walk.suboptimality"):
            sub = wk.stationary_suboptimality(chain, f, p=solved.p)
        bound = wk.suboptimality_bound(chain.n)
        checks.add(f"stationary bound {tag}", sub <= bound, suboptimality=sub, bound=bound)

    chain, f = inputs["power"]
    with tr.span("walk.power_iteration"):
        power = wk.stationary_solve(chain, "power_iteration")
    with tr.span("walk.closed_form"):
        closed = wk.stationary_closed_form(chain)
    diff = float(np.max(np.abs(power.p - closed.p)))
    checks.add(f"power iteration {p['power_profile']} n={chain.n}",
               diff <= p["agree_tol"], diff=diff)

    chain, f = inputs["sim"]
    trace, _ = run_engine(tr, wk.GridSignOracle(chain, f), "walk",
                          engine.Interval(0.0, 1.0),
                          engine.StepSchedule("constant", value=1.0 / chain.n),
                          np.array([1.0]), p["sim_steps"], seed)
    with tr.span("walk.long_run"):
        emp = wk.long_run_suboptimality(trace, burn_in=p["sim_burn_in"])
    del trace
    with tr.span("walk.suboptimality"):
        stat = wk.stationary_suboptimality(chain, f)
    checks.add(f"simulated walk {p['sim_profile']} n={chain.n}",
               abs(emp - stat) <= p["sim_tol"], empirical=emp, stationary=stat)


# ---------------------------------------------------------------------------
# mc: Monte Carlo batches with an engine cross-check per batch

def build_mc(p, seed, tr):
    with tr.span("nearly_linear.build"):
        inst = nl.build_nearly_linear(p["shape"], p["diameter"], p["grad_bound"],
                                      p["epsilon"])
    good = {}
    for name, T, _ in p["batches"]:
        with tr.span("nearly_linear.good_set"):
            good[name] = nl.good_set(inst, T)
    return {"inst": inst, "good": good}


def run_mc(inputs, p, seed, tr, checks):
    inst = inputs["inst"]
    x0 = inst.hi
    for name, T, trials in p["batches"]:
        with tr.span(f"nearly_linear.simulate.{name}", peak=True,
                     path_steps=T * trials):
            stats = nl.simulate_paths(inst, T, trials, x0, seed=seed)
        with tr.span("nearly_linear.expected"):
            mean, se = nl.expected_suboptimality(stats)
        try:
            with tr.span("nearly_linear.tail"):
                rate = nl.tail_estimate(stats, k_max=p["k_max"]).rate
        except ValueError:
            rate = math.nan
        gs = inputs["good"][name]
        at_end = stats.last_visit == T
        consistent = (gs.threshold == stats.threshold
                      and np.array_equal(stats.final_subopt <= gs.threshold, at_end))
        checks.add(f"summary {name} T={T} trials={trials}",
                   consistent and se > 0 and rate < 0,
                   mean=mean, se=se, fitted_rate=rate)

        trial = random.Random(seed).randrange(trials)
        eta = 4.0 * inst.diameter / (inst.grad_bound * math.sqrt(T))
        trace, _ = run_engine(tr, nl.NearlyLinearOracle(inst, trial=trial),
                              "nearly_linear", engine.Interval(inst.lo, inst.hi),
                              engine.StepSchedule("constant", value=eta),
                              np.array([float(x0)]), T, seed)
        xs = trace.iterates[:, 0]
        hits = np.flatnonzero(inst.f(xs) <= stats.threshold)
        last = int(hits[-1]) if hits.size else -1
        checks.add(f"engine path {name} trial={trial}",
                   xs[-1] == stats.final_x[trial] and last == stats.last_visit[trial],
                   engine_final=float(xs[-1]), batch_final=float(stats.final_x[trial]))
        del stats, trace


WORKLOADS = {
    "adversarial": (build_adversarial, run_adversarial),
    "walk": (build_walk, run_walk),
    "mc": (build_mc, run_mc),
}

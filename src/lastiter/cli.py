"""Batch experiment runner.

Subcommands: lowerbound, verify, certify, walk, mc, sweep.  Every one takes
--out PATH (default stdout) and --config FILE (or any prefix of --config), a
flat key=value file whose values explicit flags override.  --format csv|json is taken by lowerbound,
verify, walk and mc (certify writes JSON, sweep CSV), --seed N, an integer
in [0, 2^64), by certify and mc, and --jobs N by sweep; the default worker
count honors the LASTITER_JOBS environment variable.  Exit status: 0 when
every embedded check passes, 1 with a machine-readable failure report on
stderr otherwise, 2 for usage errors (an input too large to fit in memory is
one).  A sweep checks its inputs before any job runs; a job that then
raises anything but ``MemoryError``, or whose worker process dies under
``--jobs``, becomes a failing row whose report carries the error text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import constructions as cons
from . import nearly_linear as nl
from . import walk as wk

JOBS_ENV = "LASTITER_JOBS"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return "" if v is None else str(v)


def _write_text(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _emit_csv(header, rows, out: str | None) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_text("\n".join(lines) + "\n", out)


def _fail(report) -> int:
    sys.stderr.write(json.dumps({"failures": report}, sort_keys=True) + "\n")
    return 1


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _closed_form_record(family: str, d: int, T: int) -> dict:
    inst = cons.build_instance(family, d, T)
    final = cons.eval_f(inst, cons.closed_form_iterate(inst, T + 1))
    bound = cons.lower_bound_value(family, d, T)
    return {"family": family, "d": d, "T": T, "final_value": final,
            "bound": bound, "ratio": final / bound, "pass": cons.beats_bound(final, bound, d)}


def _verify_point(job) -> dict:
    family, d, T, tol = job
    rep = cons.verify_instance(cons.build_instance(family, d, T), tol=tol)
    return {**rep.to_dict(), "ratio": rep.final_value / rep.bound,
            "pass": rep.passed and cons.beats_bound(rep.final_value, rep.bound, d)}


def _sweep_point(job) -> dict:
    """The record of one sweep job, or a failing row carrying the exception's
    text when the job raised anything but ``MemoryError``.  ``cmd_sweep``
    checks the usage inputs before any job runs, so an error raised here is
    the run's own."""
    try:
        return _verify_point(job)
    except MemoryError:
        raise           # an input too large for memory: main exits 2
    except Exception as exc:
        return _failing_row(job, exc)


def _failing_row(job, exc: BaseException) -> dict:
    family, d, T = job[:3]
    return {"family": family, "d": d, "T": T, "final_value": None, "bound": None,
            "ratio": None, "max_deviation": None, "first_mismatch": None,
            "divergences": None, "pass": False, "error": f"{type(exc).__name__}: {exc}"}


def _pool_sweep(jobs: list, workers: int) -> list[dict]:
    """:func:`_sweep_point` over the jobs in worker processes, one future per
    job, results in job order.  When a worker dies (the pool breaks), each
    job without a result becomes a failing row carrying that error.  Any
    other exception cancels the jobs not yet started before it propagates."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sweep_point, job) for job in jobs]
        results = []
        try:
            for job, fut in zip(jobs, futures):
                try:
                    results.append(fut.result())
                except BrokenProcessPool as exc:
                    results.append(_failing_row(job, exc))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


_CURVE_VALUES = ("final_suboptimality", "bound")


def emit_curve(results: list[dict], x_axis: str = "d") -> tuple[list[str], list[tuple]]:
    """Rows (x, final_suboptimality, bound) sorted by the chosen axis."""
    if x_axis not in ("d", "T"):
        raise ValueError("x_axis must be 'd' or 'T'")
    if not results:
        raise ValueError("empty results; nothing to emit")
    rows = sorted((r[x_axis], r["final_value"], r["bound"]) for r in results)
    return [x_axis, *_CURVE_VALUES], rows


# --------------------------------------------------------------------------
# subcommand implementations

def cmd_lowerbound(args) -> int:
    rec = _closed_form_record(args.family, args.d, args.T)
    if args.format == "csv":
        header = ["family", "d", "T", "final_value", "bound", "ratio", "pass"]
        _emit_csv(header, [tuple(rec[h] for h in header)], args.out)
    else:
        _emit_json(rec, args.out)
    return 0 if rec["pass"] else _fail([rec])


def cmd_verify(args) -> int:
    if args.dump_trace:
        from .engine import trace_to_csv
        inst = cons.build_instance(args.family, args.d, args.T)
        trace_to_csv(cons.run_on_instance(inst), args.dump_trace)
    rec = _verify_point((args.family, args.d, args.T, args.tol))
    if args.format == "csv":
        header = ["family", "d", "T", "max_deviation", "final_value", "bound", "pass"]
        _emit_csv(header, [tuple(rec[h] for h in header)], args.out)
    else:
        _emit_json(rec, args.out)
    return 0 if rec["pass"] else _fail([rec])


def cmd_certify(args) -> int:
    inst = cons.build_instance(args.family, args.d, args.T)
    checks = [cons.check_lipschitz(inst, samples=args.samples, seed=args.seed)]
    if inst.quadratic:
        checks.append(cons.check_strong_convexity(
            inst, alpha=1.0, samples=args.samples, seed=args.seed))
    rec = {"family": args.family, "d": args.d, "T": args.T,
           "checks": [c.to_dict() for c in checks],
           "pass": all(c.passed for c in checks)}
    _emit_json(rec, args.out)
    return 0 if rec["pass"] else _fail([rec])


def cmd_walk(args) -> int:
    f, df = wk.profile(args.profile, slope=args.slope)
    chain = wk.chain_from_function(f, args.n, subgradient=df)
    if args.method == "closed_form":
        res = wk.stationary_closed_form(chain)
    else:
        res = wk.stationary_solve(chain, method=args.method)
    sub = wk.stationary_suboptimality(chain, f, p=res.p)
    bound = wk.suboptimality_bound(args.n)
    summary = {"n": args.n, "profile": args.profile, "method": res.method,
               "residual": res.residual, "suboptimality": sub,
               "bound_value": bound, "pass": bool(sub <= bound)}
    if args.format == "csv":
        header = ["i", "x", "a_i", "p_i", "f_x"]
        rows = [(i, i / args.n, chain.left_probs[i], res.p[i], fx)
                for i, fx in enumerate(f(chain.grid))]
        _emit_csv(header, rows, args.out)
    else:
        _emit_json(summary, args.out)
    return 0 if summary["pass"] else _fail([summary])


def cmd_mc(args) -> int:
    inst = nl.build_nearly_linear(args.shape, args.diameter, args.grad_bound,
                                  args.epsilon, args.band_ratio)
    x0 = args.x0 if args.x0 is not None else inst.hi
    if args.trials < nl.MIN_TRIALS:
        raise ValueError(f"need at least {nl.MIN_TRIALS} trials for a stable mean")
    if args.kmax < 2:
        raise ValueError(f"kmax must be >= 2 for a tail fit, got {args.kmax}")
    stats = nl.simulate_paths(inst, args.T, args.trials, x0, seed=args.seed)
    mean, se = nl.expected_suboptimality(stats)
    try:
        tail = nl.tail_estimate(stats, k_max=args.kmax)
        tail_rows, rate, tail_status = tail.rows, tail.rate, None
    except ValueError as exc:
        tail_rows, rate, tail_status = [], None, str(exc)
        sys.stderr.write(f"tail fit unavailable: {exc}\n")
    if args.format == "csv":
        header = ["trial", "final_x", "final_suboptimality", "last_visit_t", "hit_S"]
        rows = [(i, stats.final_x[i], stats.final_subopt[i],
                 int(stats.last_visit[i]), int(stats.last_visit[i] >= 0))
                for i in range(stats.trials)]
        _emit_csv(header, rows, args.out)
    else:
        summary = {"shape": args.shape, "T": args.T, "trials": args.trials,
                   "seed": args.seed, "x0": x0, "mean": mean, "se": se,
                   "never_hit": stats.never_hit_count,
                   # P[+G] of 0 or 1 on a segment: the oracle is deterministic there
                   "oracle_degenerate": bool(np.isin(inst.segment_probs, (0.0, 1.0)).any()),
                   "tail": tail_rows, "fitted_rate": rate,
                   "tail_fit_status": tail_status}
        _emit_json(summary, args.out)
    return 0


def cmd_sweep(args) -> int:
    families = list(cons.FAMILIES) if args.family == "all" else [args.family]
    jobs = [(family, d, T, args.tol)
            for family in families for d in args.d for T in args.T if d <= T]
    if not jobs:
        raise ValueError("sweep grid is empty (no (d, T) pair with d <= T)")
    # usage errors surface here, before any job runs
    if not math.isfinite(args.tol):
        raise ValueError(f"tol must be finite, not NaN or infinite, got {args.tol}")
    for family, d, T, _ in jobs:
        cons.build_instance(family, d, T)
    if args.jobs > 1:
        results = _pool_sweep(jobs, min(args.jobs, len(jobs)))
    else:
        results = [_sweep_point(j) for j in jobs]

    header = ["family", "d", "T", "final_value", "bound", "ratio", "pass"]
    rows = [tuple(r[h] for h in header) for r in results]
    _emit_csv(header, rows, args.out)
    done = [r for r in results if "error" not in r]
    if args.curve_out:
        # header only when every job failed, so no earlier curve is left there
        chead, crows = (emit_curve(done, x_axis=args.x_axis) if done
                        else ([args.x_axis, *_CURVE_VALUES], []))
        _emit_csv(chead, crows, args.curve_out)
    bad = [r for r in results if not r["pass"]]
    if bad:
        keys = ("family", "d", "T", "max_deviation", "first_mismatch", "divergences",
                "pass", "error")
        return _fail([{k: r[k] for k in keys if k in r} for r in bad])
    return 0


# --------------------------------------------------------------------------
# parser assembly and config handling

def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A --seed value: one 64-bit key word of a Philox stream (mc) or a
    ``default_rng`` seed (certify), so an integer in [0, 2^64)."""
    value = _int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


def _add_common(p, *, fmt=False, seed=False, jobs=False):
    """--config and --out, and of --format, --seed and --jobs the ones the
    subcommand reads."""
    p.add_argument("--config", help="flat key=value file; flags override it")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="json")
    if seed:
        p.add_argument("--seed", type=_seed, default=0)
    if jobs:
        # a string default goes through _positive_int too, so a bad
        # $LASTITER_JOBS is a usage error like a bad --jobs
        p.add_argument("--jobs", type=_positive_int,
                       default=os.environ.get(JOBS_ENV, "1"),
                       help=f"worker processes, >= 1 (default from ${JOBS_ENV} or 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lastiter",
        description="experiments on the final iterate of projected subgradient descent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lowerbound", help="closed-form final value vs certified bound")
    p.add_argument("--family", choices=cons.FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    _add_common(p, fmt=True)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("verify", help="engine trajectory vs closed form")
    p.add_argument("--family", choices=cons.FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--dump-trace", default=None, help="also write the trace CSV here")
    _add_common(p, fmt=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="sampled Lipschitz / strong convexity checks")
    p.add_argument("--family", choices=cons.FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("walk", help="stationary analysis of the grid random walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", choices=sorted(wk.PROFILES), default="quadratic")
    p.add_argument("--slope", type=float, default=0.5, help="slope for the linear profile")
    p.add_argument("--method", choices=("closed_form", "linear_solve"),
                   default="closed_form")
    _add_common(p, fmt=True)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("mc", help="Monte Carlo paths on a nearly linear instance")
    p.add_argument("--shape", choices=nl.SHAPES, default="abs")
    p.add_argument("--diameter", type=float, default=1.0)
    p.add_argument("--grad-bound", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--band-ratio", type=float, default=1.0)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--x0", type=float, default=None, help="start point (default: right endpoint)")
    p.add_argument("--kmax", type=int, default=20)
    _add_common(p, fmt=True, seed=True)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("sweep", help="verify + bound over a (family, d, T) grid")
    p.add_argument("--family", choices=cons.FAMILIES + ("all",), required=True)
    p.add_argument("--d", type=_int_list, required=True, help="comma list, e.g. 1,2,4")
    p.add_argument("--T", type=_int_list, required=True, help="comma list, e.g. 64,1024")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--curve-out", default=None, help="also write (x, final, bound) rows")
    p.add_argument("--x-axis", choices=("d", "T"), default="d")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def attach_negative_numbers(argv: list[str]) -> list[str]:
    """argv with each token that starts like a negative number (``-1e-3``,
    ``-.5``, ``-inf``, ``-nan``) and follows a ``--flag`` with no value
    attached joined to it as ``--flag=value``: after a space argparse takes
    only the ``-12`` and ``-1.5`` forms as a flag's value."""
    out: list[str] = []
    for tok in argv:
        if (out and re.fullmatch(r"--[^=]+", out[-1])
                and re.match(r"-(\d|\.\d|inf|nan)", tok, re.I)):
            tok = out.pop() + "=" + tok
        out.append(tok)
    return out


def _load_config(path: str) -> list[str]:
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if not _:
                raise ValueError(f"bad config line in {path} (want key=value): {line!r}")
            key = key.strip()
            if key and "config".startswith(key):     # argparse's --config or a prefix
                raise ValueError(f"config file {path} names another config file "
                                 f"({key}={value.strip()}); config files do not nest")
            flags.append(f"--{key}={value.strip()}")
    return flags


def _inject_config(argv: list[str]) -> list[str]:
    """Put the key=value flags of --config FILE (or of any prefix of
    --config) right after the subcommand, so the explicit flags win."""
    pre = argparse.ArgumentParser(prog="lastiter", add_help=False)
    pre.add_argument("--config")
    found, rest = pre.parse_known_args(argv)
    if found.config is None or not rest:
        return argv
    return rest[:1] + _load_config(found.config) + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_inject_config(attach_negative_numbers(argv)))
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        # numpy's message says what it could not allocate; a bare one is empty
        parser.error(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())

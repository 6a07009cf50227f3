"""Benchmark of the lastiter laboratory.

Run from the repository root:

    python3 perfbench/run.py --workload adversarial --seed 1 --seconds 40 --trace 0

Workloads are ``adversarial``, ``walk`` and ``mc`` (see ``workloads.py``).
Each run is one closed loop in one process: a single caller repeats the
workload ("a pass": build the inputs, then run and check everything) until
``--seconds`` are spent, and reports medians over the passes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

    wall_s            median seconds from the end of set-up to a fully
                      checked result
    setup_s           median over fresh interpreters of the seconds to
                      import lastiter (numpy included) and build every input
    peak_rss_mb       high-water resident memory of this process
    check_pass_ratio  checks passed / checks attempted, over every pass

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, taken from the spans of the traced passes (medians), and
``bench.tracing_overhead_s``, the traced minus the untraced median wall time.
The ``*_peak_mb`` metrics come from one extra pass under tracemalloc, which
slows allocation-heavy calls too much for its times to be used.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record with
provenance, every pass, every check and every span is written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.

Only the standard library and numpy are used.  The package is imported from
``src/`` next to this directory; the run fails (non-zero exit, no result)
when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("adversarial", "walk", "mc")
#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 7
#: BLAS threads.  On a 2-vCPU virtual machine with shared host cores, two BLAS
#: threads tie every dense solve to the other core's availability and made
#: pass times bimodal (see BASELINE.md).
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time spent repeating passes (at least one pass runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the harness self-test only")
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one import + build in this interpreter, print it, exit")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_lastiter():
    """Import the package from this checkout's src/ and nowhere else, with
    BLAS pinned to BLAS_THREADS (numpy reads the setting when it loads)."""
    if not (SRC / "lastiter" / "__init__.py").is_file():
        raise SystemExit(f"lastiter sources not found under {SRC}")
    os.environ.update(dict.fromkeys(BLAS_ENV, BLAS_THREADS))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lastiter
    if Path(lastiter.__file__).resolve().parent != SRC / "lastiter":
        raise SystemExit(f"imported lastiter from {lastiter.__file__}, not {SRC}")
    import workloads
    return workloads


def _setup_probe(args) -> int:
    t0 = time.perf_counter()
    workloads = _import_lastiter()
    build, _ = workloads.WORKLOADS[args.workload]
    from tracing import NullTracer
    build(workloads.params(args.workload, args.size), args.seed, NullTracer())
    print(repr(time.perf_counter() - t0))
    return 0


class SetupProbe:
    """Times set-up in fresh interpreters.  Back-to-back probes share one
    machine state, so they are spread over the run: call ``pace`` between
    passes and ``finish`` at the end."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--size", args.size]
        self.samples: list[float] = []

    def _one(self) -> None:
        out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))

    def pace(self, share: float) -> None:
        """Catch up to ``share`` (0..1) of the samples."""
        while len(self.samples) < min(share, 1.0) * SETUP_SAMPLES:
            self._one()

    def finish(self) -> list[float]:
        self.pace(1.0)
        return self.samples


def _git_head():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (or inside another repo)
    return lines[1]


def _blas_threads():
    """OpenBLAS thread count through its C API, when numpy bundles OpenBLAS."""
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _provenance(args, params) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_head": _git_head(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "argv": sys.argv[1:],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": params,
        "setup_samples": SETUP_SAMPLES,
    }


def _one_pass(workloads, args, params, tracer, kind, run_id):
    """Build fresh inputs, then run and check them.  The pass is timed from
    the end of the build; cpu_s sums every thread of the process."""
    build, run = workloads.WORKLOADS[args.workload]
    tracer.run_id = run_id
    gc.collect()
    with tracer.span("bench.setup"):
        inputs = build(params, args.seed, tracer)
    checks = workloads.Checks()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("bench.pass"):
        run(inputs, params, args.seed, tracer, checks)
    wall = time.perf_counter() - t0
    return {"kind": kind, "wall_s": wall, "cpu_s": time.process_time() - c0,
            "checks": checks}


def _passes(workloads, args, params, tracers, probe):
    """Repeat rounds of passes until --seconds are spent; at least one round
    runs.  Untraced, a round is one pass.  Traced, one pass under tracemalloc
    comes first, for the memory peaks only, and each round is an untraced
    pass followed by a traced one.  ``probe`` (or None) is paced between
    rounds.  Returns the passes."""
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    passes = []
    start = time.perf_counter()
    if args.trace:
        passes.append(_one_pass(workloads, args, params, tracers["memory"],
                                "memory", "memory"))
    for k in itertools.count():
        t_round = time.perf_counter()
        for kind in kinds:
            passes.append(_one_pass(workloads, args, params, tracers[kind],
                                    kind, f"{kind}-{k}"))
        now = time.perf_counter()
        if now - start + (now - t_round) > args.seconds:
            return passes
        if probe is not None:
            probe.pace((now - start) / args.seconds)


def _spec_metrics(kind: str) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        return _setup_probe(args)
    if not SPEC.is_file():
        raise SystemExit(f"{SPEC} is missing")

    workloads = _import_lastiter()
    import tracing
    params = workloads.params(args.workload, args.size)
    tracers = {"plain": tracing.NullTracer(), "traced": tracing.Tracer(),
               "memory": tracing.Tracer(peaks=True)}
    probe = None if args.trace else SetupProbe(args)
    passes = _passes(workloads, args, params, tracers, probe)
    setup = [] if probe is None else probe.finish()

    attempted = sum(len(p["checks"].results) for p in passes)
    failed = sum(p["checks"].failed for p in passes)
    walls = {kind: [p["wall_s"] for p in passes if p["kind"] == kind] for kind in tracers}
    if args.trace:
        units = _spec_metrics("per_layer")
        timed = tracers["traced"]
        per_pass = [tracing.layer_metrics(timed.pass_spans(run_id))
                    for run_id in dict.fromkeys(s["run"] for s in timed.spans)]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        peaks = tracing.layer_metrics(tracers["memory"].spans)
        values.update((name, v) for name, v in peaks.items() if name.endswith("peak_mb"))
        values["bench.tracing_overhead_s"] = (statistics.median(walls["traced"])
                                              - statistics.median(walls["plain"]))
    else:
        units = _spec_metrics("end_to_end")
        values = {
            "wall_s": statistics.median(walls["plain"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_ratio": (attempted - failed) / attempted,
        }
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match {SPEC.name}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "provenance": _provenance(args, params),
        "result": result,
        "check_fail_ratio": failed / attempted,
        "setup_s_samples": setup,
        "passes": [dict(p, checks=p["checks"].results) for p in passes],
        "spans": tracers["memory"].spans + tracers["traced"].spans,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(f"{args.workload}: {len(passes)} passes, {failed}/{attempted} checks failed; "
          f"record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

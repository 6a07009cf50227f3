"""Fast self-test of the benchmark harness, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For every workload it checks that

- an untraced and a traced pass run the same checks, and all of them pass;
- a forced fault, an oracle whose subgradients are negated, makes checks
  fail, so the failure ratio rises above 0;
- every span's self time and every layer's self time is non-negative;
- the per-layer metrics are exactly the ``per_layer`` names of BENCHMARK.json;
- ``run.py`` prints a last line with the contract keys and every metric, for
  ``--trace 0`` and ``--trace 1``;

and that ``run.py`` fails without a result in a directory holding only
BENCHMARK.json and perfbench/.  Exits 1 at the first unmet expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracing import NullTracer, Tracer, layer_metrics, layer_self_times, self_times

RUN = [sys.executable, str(run.HERE / "run.py")]


def expect(ok, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


class _Negated:
    """Oracle wrapper that negates every subgradient (the forced fault)."""

    def __init__(self, oracle):
        self._oracle = oracle

    def reset(self, seed):
        self._oracle.reset(seed)

    def value(self, x):
        return self._oracle.value(x)

    def subgradient(self, x, t):
        return -self._oracle.subgradient(x, t)


class FaultTracer(NullTracer):
    def oracle(self, oracle, layer, kicked_after=None):
        return _Negated(oracle)


def tiny_pass(workloads, name, tracer, seed=3):
    build, work = workloads.WORKLOADS[name]
    params = workloads.params(name, "tiny")
    tracer.run_id = name
    checks = workloads.Checks()
    with tracer.span("bench.setup"):
        inputs = build(params, seed, tracer)
    with tracer.span("bench.pass"):
        work(inputs, params, seed, tracer, checks)
    return checks


def fail_ratio(checks) -> float:
    return checks.failed / len(checks.results)


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    workloads = run._import_lastiter()
    spec = json.loads(run.SPEC.read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    for name in run.WORKLOAD_NAMES:
        plain = tiny_pass(workloads, name, NullTracer())
        tracer = Tracer()
        traced = tiny_pass(workloads, name, tracer)
        names = [c["name"] for c in plain.results]
        expect(names == [c["name"] for c in traced.results] and names,
               f"{name}: untraced and traced passes run the same {len(names)} checks")
        expect(fail_ratio(plain) == 0 and fail_ratio(traced) == 0,
               f"{name}: every check passes")

        faulty = tiny_pass(workloads, name, FaultTracer())
        expect(fail_ratio(faulty) > fail_ratio(plain),
               f"{name}: negated subgradients raise the failure ratio to "
               f"{faulty.failed}/{len(faulty.results)}")

        memory = Tracer(peaks=True)
        tiny_pass(workloads, name, memory)
        for tr in (tracer, memory):
            own = self_times(tr.spans)
            expect(min(own.values()) >= 0 and min(layer_self_times(tr.spans).values()) >= 0,
                   f"{name}: {len(own)} span self times and every layer's are >= 0")
        metrics = set(layer_metrics(tracer.spans)) | {"bench.tracing_overhead_s"}
        expect(metrics == per_layer, f"{name}: per-layer metrics match BENCHMARK.json")

        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            out = subprocess.run(RUN + ["--workload", name, "--seed", "5", "--seconds", "0.5",
                                        "--trace", str(trace), "--size", "tiny"],
                                 cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            res = last_json_line(out.stdout) if out.returncode == 0 else {}
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                   and set(res["metrics"]) == wanted,
                   f"{name}: run.py --trace {trace} prints a correct result line"
                   + (f"\n{out.stderr}" if out.returncode else ""))

    bare = run.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.SPEC, bare / run.SPEC.name)
    out = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "mc",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "run.py fails without a result when src/ is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the benchmark's calls into the lastiter layers.

A span is one dict: id, name ("<layer>.<operation>"), parent id, run id,
start, end, count and busy seconds, plus whatever attributes the caller
attaches (steps, bytes, samples, tracemalloc peak).  An ordinary span covers
one call, so count = 1 and busy = end - start.  Oracle calls are far too many
to keep one dict each, so :class:`ProxyOracle` keeps one *aggregate* span per
oracle method under the span that is open at its first call; its count is
the number of calls and its busy time their summed duration.

A span's self time is its busy time minus the busy time of its children.
Nothing inside ``lastiter`` is edited or patched: spans come only from the
benchmark's own files.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

MB = 2.0 ** 20


class Tracer:
    """Records spans in memory; ``run_id`` tags the spans of one pass.

    tracemalloc slows allocation-heavy calls severalfold, so it runs only in a
    tracer made with ``peaks=True``, whose times are not used.
    """

    def __init__(self, peaks: bool = False):
        self.peaks = peaks
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str, start: float | None, **attrs) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": start, "end": start,
               "count": 0, "busy": 0.0, **attrs}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, peak: bool = False, **attrs):
        """Time one call.  With ``peak`` (and ``self.peaks``) the tracemalloc
        high-water mark of the allocations made inside the span is stored as
        ``peak_mb``."""
        peak = peak and self.peaks
        if peak:
            if tracemalloc.is_tracing():
                raise RuntimeError(f"span {name!r}: peak spans cannot nest")
            tracemalloc.start()
        rec = self._open(name, perf_counter(), **attrs)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            rec["count"] = 1
            rec["busy"] = rec["end"] - rec["start"]
            self._stack.pop()
            if peak:
                rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()

    def aggregate(self, name: str, start: float) -> dict:
        """Open a span that sums many short calls under the current span."""
        return self._open(name, start)

    def oracle(self, oracle, layer: str, kicked_after: int | None = None):
        """The oracle to hand to ``run_sgd``: a timing proxy."""
        return ProxyOracle(oracle, self, layer, kicked_after)

    def pass_spans(self, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]


class NullTracer(Tracer):
    """Tracing off: no spans, and the real oracle goes to ``run_sgd``."""

    def span(self, name: str, peak: bool = False, **attrs):
        return nullcontext({})

    def oracle(self, oracle, layer: str, kicked_after: int | None = None):
        return oracle


class ProxyOracle:
    """Forwards ``reset``/``value``/``subgradient`` and times the last two.

    With ``kicked_after`` set, subgradient calls at steps t > kicked_after are
    tallied apart from the quiet ones (the adversarial oracle's two regimes).
    """

    def __init__(self, oracle, tracer: Tracer, layer: str,
                 kicked_after: int | None = None):
        self._oracle = oracle
        self._tracer = tracer
        self._layer = layer
        self._kicked_after = kicked_after
        self._spans: dict[str, dict] = {}

    def reset(self, seed: int) -> None:
        self._oracle.reset(seed)

    def value(self, x):
        t0 = perf_counter()
        v = self._oracle.value(x)
        self._tally("oracle_value", t0, perf_counter())
        return v

    def subgradient(self, x, t: int):
        t0 = perf_counter()
        g = self._oracle.subgradient(x, t)
        t1 = perf_counter()
        if self._kicked_after is None:
            kind = "oracle_subgradient"
        elif t > self._kicked_after:
            kind = "oracle_subgradient.kicked"
        else:
            kind = "oracle_subgradient.quiet"
        self._tally(kind, t0, t1)
        return g

    def _tally(self, kind: str, t0: float, t1: float) -> None:
        rec = self._spans.get(kind)
        if rec is None:
            rec = self._spans[kind] = self._tracer.aggregate(f"{self._layer}.{kind}", t0)
        rec["count"] += 1
        rec["busy"] += t1 - t0
        rec["end"] = t1


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> busy time minus the busy time of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["busy"]
    return {s["id"]: s["busy"] - child[s["id"]] for s in spans}


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Layer (first part of the span name) -> summed self time."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += own[s["id"]]
    return dict(out)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced pass, from its spans.

    A layer that the workload does not call reads 0.  ``*_bytes`` values are
    computed from array shapes, ``*_peak_mb`` values are tracemalloc peaks.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(*names):
        return sum(s["count"] for n in names for s in by_name[n])

    def secs(*names):
        return sum(own[s["id"]] for n in names for s in by_name[n])

    def attr(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def peak(name):
        return max((s.get("peak_mb", 0.0) for s in by_name[name]), default=0.0)

    def per_call(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    layers = layer_self_times(spans)
    m = {}
    steps = attr("engine.run_sgd", "steps")
    m["engine.calls"] = calls("engine.run_sgd")
    m["engine.steps"] = steps
    m["engine.self_s"] = layers.get("engine", 0.0)
    m["engine.step_overhead_us"] = per_call(m["engine.self_s"], steps, 1e6)
    m["engine.history_bytes"] = attr("engine.run_sgd", "history_bytes")

    quiet, kicked = ("constructions.oracle_subgradient.quiet",
                     "constructions.oracle_subgradient.kicked")
    m["constructions.self_s"] = layers.get("constructions", 0.0)
    m["constructions.oracle_value_calls"] = calls("constructions.oracle_value")
    m["constructions.oracle_value_s"] = secs("constructions.oracle_value")
    m["constructions.oracle_value_us"] = per_call(
        m["constructions.oracle_value_s"], m["constructions.oracle_value_calls"], 1e6)
    m["constructions.oracle_subgradient_calls"] = calls(quiet, kicked)
    m["constructions.oracle_kicked_calls"] = calls(kicked)
    m["constructions.oracle_subgradient_s"] = secs(quiet, kicked)
    m["constructions.oracle_kicked_us"] = per_call(secs(kicked), calls(kicked), 1e6)
    m["constructions.oracle_divergences"] = attr("engine.run_sgd", "divergences")
    m["constructions.build_s"] = secs("constructions.build")
    m["constructions.verify_s"] = secs("constructions.verify")
    m["constructions.verify_peak_mb"] = peak("constructions.verify")
    m["constructions.certify_s"] = secs("constructions.certify")
    m["constructions.certify_samples"] = attr("constructions.certify", "samples")

    m["walk.self_s"] = layers.get("walk", 0.0)
    m["walk.chain_build_s"] = secs("walk.chain_build")
    m["walk.chain_build_peak_mb"] = peak("walk.chain_build")
    m["walk.closed_form_s"] = secs("walk.closed_form")
    m["walk.linear_solve_s"] = secs("walk.linear_solve")
    m["walk.linear_solve_peak_mb"] = peak("walk.linear_solve")
    m["walk.power_iteration_s"] = secs("walk.power_iteration")
    m["walk.suboptimality_s"] = secs("walk.suboptimality")
    m["walk.oracle_subgradient_s"] = secs("walk.oracle_subgradient")
    m["walk.oracle_value_s"] = secs("walk.oracle_value")

    m["nearly_linear.self_s"] = layers.get("nearly_linear", 0.0)
    m["nearly_linear.good_set_s"] = secs("nearly_linear.good_set")
    for batch in ("long", "wide"):
        name = f"nearly_linear.simulate.{batch}"
        m[f"nearly_linear.{batch}.simulate_s"] = secs(name)
        m[f"nearly_linear.{batch}.ns_per_path_step"] = per_call(
            secs(name), attr(name, "path_steps"), 1e9)
        m[f"nearly_linear.{batch}.peak_mb"] = peak(name)
    m["nearly_linear.tail_s"] = secs("nearly_linear.tail")
    m["nearly_linear.oracle_subgradient_s"] = secs("nearly_linear.oracle_subgradient")

    m["bench.self_s"] = layers.get("bench", 0.0)
    return m

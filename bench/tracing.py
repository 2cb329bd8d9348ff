"""Timing wrappers for the traced benchmark run.

Nothing here edits nextsym: :func:`install` swaps module attributes that the
CLI and harness look up at call time (``cli.run_experiment``,
``harness.generate``, ``harness.StreamingEstimator``, ...) for wrappers that
count and time the calls.  It is only ever called in the traced job process.

Two kinds of record are kept:

- full spans (CLI phases, config builders, experiments, replicates, verify
  cases): name, start, end and parent span, all kept;
- per-step layers (push, probe, observe, conditional, schedules, scans,
  generate): a call counter, the summed duration of every ``every``-th call,
  and a bounded, evenly thinned sample of those timed calls as span records.

Per-layer totals are estimated as mean sampled duration times call count.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns

HOT_EVERY = 8  # per-step layers time one call in this many
SAMPLE_CAP = 512  # sampled span records kept per layer (thinned to stay below 2x)


def _timer_overhead_ns() -> int:
    """Median cost of one back-to-back pair of clock reads."""
    deltas = []
    for _ in range(2001):
        t0 = _now()
        deltas.append(_now() - t0)
    deltas.sort()
    return deltas[len(deltas) // 2]


class Layer:
    """Counter plus sampled timings for one per-step layer."""

    __slots__ = ("name", "every", "calls", "timed", "ns", "records", "stride", "extra")

    def __init__(self, name: str, every: int):
        self.name = name
        self.every = every
        self.calls = 0
        self.timed = 0
        self.ns = 0
        self.records = []
        self.stride = 1
        self.extra = {}

    def add(self, parent, t0: int, dt: int) -> None:
        self.timed += 1
        self.ns += dt
        if self.timed % self.stride == 0:
            self.records.append((parent, t0, dt))
            if len(self.records) >= 2 * SAMPLE_CAP:
                del self.records[::2]
                self.stride *= 2

    def mean_ns(self) -> float:
        return self.ns / self.timed if self.timed else 0.0

    def total_ns(self) -> float:
        return self.mean_ns() * self.calls


class Tracer:
    def __init__(self):
        self.timer_ns = _timer_overhead_ns()
        self.spans = []  # [id, parent, name, start_ns, end_ns]
        self.stack = []
        self.layers = {}
        self.wrapper_ns = 0.0

    # -- full spans ---------------------------------------------------------
    def begin(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1][0] if self.stack else None, name, _now(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = _now()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order (open: {popped[2]})")

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    # -- per-step layers ----------------------------------------------------
    def layer(self, name: str, every: int = HOT_EVERY) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name, every)
        return self.layers[name]

    def timed(self, layer: Layer, fn):
        """Wrap ``fn`` so every call is counted and every ``layer.every``-th
        call is timed."""
        every = layer.every
        stack = self.stack
        overhead = self.timer_ns

        def hot(*args):
            layer.calls += 1
            if layer.calls % every:
                return fn(*args)
            t0 = _now()
            result = fn(*args)
            dt = _now() - t0 - overhead
            layer.add(stack[-1][0] if stack else None, t0, dt if dt > 0 else 0)
            return result

        def full(*args, **kwargs):
            layer.calls += 1
            t0 = _now()
            result = fn(*args, **kwargs)
            dt = _now() - t0 - overhead
            layer.add(stack[-1][0] if stack else None, t0, dt if dt > 0 else 0)
            return result

        wrapper = full if every == 1 else hot
        wrapper.inner = fn
        return wrapper

    def calibrate(self) -> None:
        """Per-call cost the hot wrappers add outside their timed interval,
        so self times can be corrected for it."""

        def noop(x):
            return x

        probe = Layer("calibration", HOT_EVERY)
        wrapped = self.timed(probe, noop)
        n = 200_000
        best = None
        for _ in range(3):
            t0 = _now()
            for i in range(n):
                noop(i)
            t1 = _now()
            for i in range(n):
                wrapped(i)
            t2 = _now()
            extra = ((t2 - t1) - (t1 - t0)) / n
            best = extra if best is None else min(best, extra)
        self.wrapper_ns = max(0.0, best)

    # -- results ------------------------------------------------------------
    def span_totals(self) -> dict:
        """name -> (count, summed seconds) over closed full spans."""
        out: dict = {}
        for _, _, name, t0, t1 in self.spans:
            if t1 is None:
                continue
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + (t1 - t0) / 1e9)
        return out

    def self_seconds(self, name: str) -> float:
        """Summed self time of the named spans: duration minus direct children."""
        child_ns: dict = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None and t1 is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        total = 0
        for sid, _, sname, t0, t1 in self.spans:
            if sname == name and t1 is not None:
                total += (t1 - t0) - child_ns.get(sid, 0)
        return total / 1e9

    def write(self, path: str) -> None:
        doc = {
            "timer_overhead_ns": self.timer_ns,
            "wrapper_overhead_ns": self.wrapper_ns,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3], "end_ns": s[4]} for s in self.spans
            ],
            "layers": {
                name: {
                    "calls": lay.calls,
                    "timed": lay.timed,
                    "every": lay.every,
                    "mean_ns": lay.mean_ns(),
                    "extra": lay.extra,
                    "sample": [{"parent": p, "start_ns": t0, "dur_ns": dt} for p, t0, dt in lay.records],
                }
                for name, lay in self.layers.items()
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrap_schedules(tracer: Tracer, schedules):
    """Same schedules with K and J counted and timed; K remembers its last
    value so the probe wrapper can tell whether the match hit the cap."""
    from nextsym.estimator import Schedules

    layer = tracer.layer("estimator.schedule")
    k_fn = schedules.K
    timed_k = tracer.timed(layer, k_fn)

    def K(n):
        value = timed_k(n)
        K.last = value
        return value

    K.inner = k_fn
    K.last = None
    return Schedules(K=K, J=tracer.timed(layer, schedules.J))


def _estimator_class(tracer: Tracer):
    from nextsym.streaming import StreamingEstimator

    push_l = tracer.layer("streaming.push")
    probe_l = tracer.layer("streaming.probe")
    query_l = tracer.layer("streaming.query", every=1)
    probe_l.extra.update(abstain=0, at_cap=0)
    push_l.extra.update(op_count=0, stored_keys_max=0)
    timed_probe = tracer.timed(probe_l, StreamingEstimator.probe)
    live = []

    def retire(est) -> None:
        push_l.extra["op_count"] += est.op_count
        keys = est.stored_keys()
        if keys > push_l.extra["stored_keys_max"]:
            push_l.extra["stored_keys_max"] = keys

    class TracedStreamingEstimator(StreamingEstimator):
        __slots__ = ()
        push = tracer.timed(push_l, StreamingEstimator.push)
        current_estimate = tracer.timed(query_l, StreamingEstimator.current_estimate)
        current_distribution = tracer.timed(query_l, StreamingEstimator.current_distribution)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            while live:
                retire(live.pop())
            live.append(self)

        def probe(self):
            hit = timed_probe(self)
            extra = probe_l.extra
            if hit is None:
                extra["abstain"] += 1
            else:
                k_fn = self.schedules.K
                cap = getattr(k_fn, "last", None)
                n_plus_1 = len(self.seq)
                if cap is None:
                    cap = getattr(k_fn, "inner", k_fn)(n_plus_1 - 1)
                if hit[0] == min(cap, n_plus_1):
                    extra["at_cap"] += 1
            return hit

    def flush() -> None:
        while live:
            retire(live.pop())

    return TracedStreamingEstimator, flush


def _oracle_class(tracer: Tracer):
    from nextsym.processes import Oracle

    init_l = tracer.layer("processes.oracle_init", every=1)
    observe_l = tracer.layer("processes.observe")
    conditional_l = tracer.layer("processes.conditional")

    class CursorProxy:
        __slots__ = ("observe", "conditional")

        def __init__(self, cursor):
            self.observe = tracer.timed(observe_l, cursor.observe)
            self.conditional = tracer.timed(conditional_l, cursor.conditional)

    class TracedOracle(Oracle):
        __init__ = tracer.timed(init_l, Oracle.__init__)

        def cursor(self):
            return CursorProxy(super().cursor())

    return TracedOracle


def install(tracer: Tracer):
    """Patch the CLI, harness and verify modules; returns a flush callable to
    run after the traced command."""
    from nextsym import cli, estimator, harness, processes, verify

    Estimator, flush = _estimator_class(tracer)
    harness.StreamingEstimator = Estimator
    harness.Oracle = _oracle_class(tracer)

    gen_l = tracer.layer("processes.generate", every=1)
    gen_l.extra["symbols"] = 0
    timed_generate = tracer.timed(gen_l, processes.generate)

    def generate(spec, seed, horizon, *rest):
        gen_l.extra["symbols"] += horizon + 1
        return timed_generate(spec, seed, horizon, *rest)

    harness.generate = generate

    scan_l = tracer.layer("estimator.scan", every=1)
    verify.estimate = tracer.timed(scan_l, estimator.estimate)
    verify.estimate_distribution = tracer.timed(scan_l, estimator.estimate_distribution)
    times_l = tracer.layer("estimator.recurrence_times", every=1)
    verify.recurrence_times = tracer.timed(times_l, estimator.recurrence_times)
    harness.recurrence_times = verify.recurrence_times

    harness._run_replicate = tracer.spanned("harness.replicate", harness._run_replicate)
    cli.run_experiment = tracer.spanned("harness.run_experiment", cli.run_experiment)

    for name in ("load_document", "build_process", "build_experiment"):
        setattr(cli, name, tracer.spanned("config.build", getattr(cli, name)))
    build_schedules = cli.build_schedules
    cli.build_schedules = tracer.spanned(
        "config.build", lambda *a, **k: _wrap_schedules(tracer, build_schedules(*a, **k))
    )

    run_verify = verify.verify_equivalence

    def verify_equivalence(**kwargs):
        open_case = []

        def factory(alphabet, schedules, horizon):
            while open_case:
                tracer.end(open_case.pop())
            open_case.append(tracer.begin("verify.case"))
            return Estimator(alphabet, schedules, horizon=horizon)

        def schedules_for(size):
            return _wrap_schedules(tracer, estimator.Schedules.default(size))

        span = tracer.begin("verify.run")
        try:
            return run_verify(estimator_factory=factory, schedules_for=schedules_for, **kwargs)
        finally:
            while open_case:
                tracer.end(open_case.pop())
            tracer.end(span)

    cli.verify_equivalence = verify_equivalence
    return flush


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values derived from the trace (units as in BENCHMARK.json)."""
    lay = tracer.layers
    spans = tracer.span_totals()

    def calls(name):
        return lay[name].calls if name in lay else 0

    def mean_ns(name):
        return lay[name].mean_ns() if name in lay else 0.0

    def total_s(name):
        return lay[name].total_ns() / 1e9 if name in lay else 0.0

    def span_mean(name):
        count, total = spans.get(name, (0, 0.0))
        return total / count if count else 0.0

    gen_calls = calls("processes.generate")
    symbols = lay["processes.generate"].extra["symbols"] if gen_calls else 0
    probe_calls = calls("streaming.probe")
    probe_extra = lay["streaming.probe"].extra if probe_calls else {}
    push_calls = calls("streaming.push")
    push_extra = lay["streaming.push"].extra if push_calls else {}

    hot = ("streaming.push", "streaming.probe", "processes.observe", "processes.conditional")
    rep_count, rep_total = spans.get("harness.replicate", (0, 0.0))
    rep_self_us = 0.0
    if rep_count and push_calls:
        children = sum(total_s(n) for n in hot) + total_s("processes.generate") + total_s("processes.oracle_init")
        # K/J wrappers run inside probe's timed interval, so their cost is already in probe's total
        wrapped_calls = sum(calls(n) for n in hot)
        self_s = rep_total - children - wrapped_calls * tracer.wrapper_ns / 1e9
        rep_self_us = self_s / push_calls * 1e6

    case_count, case_total = spans.get("verify.case", (0, 0.0))
    verify_self = 0.0
    if case_count:
        verify_self = case_total - sum(
            total_s(n) for n in ("estimator.scan", "estimator.recurrence_times", "streaming.push", "streaming.query")
        )

    return {
        "processes.generate.calls": gen_calls,
        "processes.generate.us_per_call": mean_ns("processes.generate") / 1e3,
        "processes.generate.ns_per_symbol": lay["processes.generate"].ns / symbols if symbols else 0.0,
        "processes.observe.calls": calls("processes.observe"),
        "processes.observe.ns": mean_ns("processes.observe"),
        "processes.conditional.calls": calls("processes.conditional"),
        "processes.conditional.ns": mean_ns("processes.conditional"),
        "streaming.push.calls": push_calls,
        "streaming.push.ns": mean_ns("streaming.push"),
        "streaming.probe.calls": probe_calls,
        "streaming.probe.ns": mean_ns("streaming.probe"),
        "streaming.probe.abstain_frac": probe_extra.get("abstain", 0) / probe_calls if probe_calls else 0.0,
        "streaming.probe.at_cap_frac": probe_extra.get("at_cap", 0) / probe_calls if probe_calls else 0.0,
        "streaming.query.calls": calls("streaming.query"),
        "streaming.query.ns": mean_ns("streaming.query"),
        "streaming.op_count_per_push": push_extra.get("op_count", 0) / push_calls if push_calls else 0.0,
        "streaming.stored_keys": push_extra.get("stored_keys_max", 0),
        "estimator.schedule.calls": calls("estimator.schedule"),
        "estimator.schedule.ns": mean_ns("estimator.schedule"),
        "estimator.scan.calls": calls("estimator.scan"),
        "estimator.scan.us": mean_ns("estimator.scan") / 1e3,
        "estimator.recurrence_times.calls": calls("estimator.recurrence_times"),
        "estimator.recurrence_times.us": mean_ns("estimator.recurrence_times") / 1e3,
        "harness.replicate.calls": rep_count,
        "harness.replicate.s": span_mean("harness.replicate"),
        "harness.replicate.self_us_per_step": rep_self_us,
        "harness.aggregate.s": tracer.self_seconds("harness.run_experiment"),
        "verify.case.calls": case_count,
        "verify.case.s": span_mean("verify.case"),
        "verify.self_s": verify_self,
        "cli.write.s": tracer.self_seconds("cli.main"),
    }

"""Span recorder that wraps lionsweep's public functions from outside the package.

`Tracer.install` replaces every public function of the traced modules, in
every module namespace that holds it, so calls made through a name imported
with `from .dynamics import run` are recorded too. The namespace a call went
through is the span's site: `dynamics.step_cleared_mask` called from
`search` and from `dynamics.step` are told apart that way.

A span records its name, site, start, end, parent span and task id, plus
the time its direct children took, so self time is duration minus child
time. The two hot kernels are counters instead of spans: one span per call
would cost more memory than the run has, so their calls and time are summed
per site and charged as child time to the enclosing span. Spans stay in
memory and are written out when the run ends. Outside a task the wrappers
only pass the call through, so the output checks are not recorded.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("cli", "graphs", "dynamics", "strategies", "search", "isoperimetry", "cheeger")
LEAVES = ("step_cleared_mask", "boundary_size_mask")

# Span info kept from a function's return value.
SUMMARIES = {"search.can_clear": lambda v: (v.states_explored, v.peak_frontier)}
PLANS = ("strategies.row_sweep_moves", "strategies.caffeinated_wall_moves")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("dynamics.step_cleared_mask.in_search.calls", "count", "lower"),
    ("dynamics.step_cleared_mask.in_search.us_per_call", "us", "lower"),
    ("dynamics.step_cleared_mask.in_search.s", "s", "lower"),
    ("dynamics.step_cleared_mask.in_step.calls", "count", "lower"),
    ("dynamics.step_cleared_mask.in_step.us_per_call", "us", "lower"),
    ("dynamics.step_cleared_mask.in_step.s", "s", "lower"),
    ("search.states_explored", "count", "lower"),
    ("search.successors", "count", "lower"),
    ("search.admit_ratio", "ratio", "higher"),
    ("search.peak_frontier", "count", "lower"),
    ("search.states_per_s", "1/s", "higher"),
    ("search.can_clear.calls", "count", "lower"),
    ("search.can_clear.s", "s", "lower"),
    ("search.can_clear.self_s", "s", "lower"),
    ("cheeger.subsets", "count", "lower"),
    ("cheeger.subsets_per_s", "1/s", "higher"),
    ("cheeger.cheeger_constant.s", "s", "lower"),
    ("isoperimetry.subsets", "count", "lower"),
    ("isoperimetry.subsets_per_s", "1/s", "higher"),
    ("isoperimetry.iso_profile.s", "s", "lower"),
    ("isoperimetry.falldown_check.s", "s", "lower"),
    ("isoperimetry.conjecture_report.s", "s", "lower"),
    ("graphs.boundary_size_mask.calls", "count", "lower"),
    ("graphs.boundary_size_mask.us_per_call", "us", "lower"),
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.us_per_call", "us", "lower"),
    ("dynamics.validate_moves.s", "s", "lower"),
    ("dynamics.run.s", "s", "lower"),
    ("dynamics.write_trace.s", "s", "lower"),
    ("dynamics.read_trace.s", "s", "lower"),
    ("dynamics.read_moves.s", "s", "lower"),
    ("dynamics.trace_bytes", "bytes", "lower"),
    ("strategies.plan.s", "s", "lower"),
    ("strategies.plan_steps", "count", "lower"),
    ("search.verify_lemma_bounds.s", "s", "lower"),
    ("graphs.boundary.calls", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("graphs.load_graph.s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

# Metrics that are exact counts, identical on every pass.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


class Tracer:
    """Records spans for calls made while a task is open."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # closed: (id, parent, task, name, site, start, end, child_s, info)
        self.stack = []  # open: [id, start, child_s]
        self.leaves = {}  # (name, site) -> [calls, seconds]
        self.task = None
        self._next_id = 0
        self._saved = []

    def install(self) -> None:
        owners = {getattr(self.lib, m).__name__: m for m in MODULES}
        for site in MODULES:
            mod = getattr(self.lib, site)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ not in owners:
                    continue
                name = f"{owners[fn.__module__]}.{fn.__name__}"
                wrap = self._leaf if fn.__name__ in LEAVES else self._span
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrap(fn, name, site))

    def uninstall(self) -> None:
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved.clear()

    def begin(self, task: int, start: float) -> None:
        self.task = task
        self._next_id += 1
        self.stack.append([self._next_id, start, 0.0])

    def end(self, stop: float) -> None:
        sid, start, child = self.stack.pop()
        self.spans.append((sid, 0, self.task, "bench.task", "bench", start, stop, child, None))
        self.task = None

    def take(self) -> tuple:
        """Spans and kernel counters recorded since the last call; resets both."""
        spans = list(self.spans)
        self.spans.clear()
        leaves = {key: tuple(stat) for key, stat in self.leaves.items()}
        for stat in self.leaves.values():
            stat[:] = [0, 0.0]
        return spans, leaves

    def _span(self, fn, name, site):
        clock = time.perf_counter
        stack = self.stack
        summarize = SUMMARIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            self._next_id += 1
            rec = [self._next_id, clock(), 0.0]
            stack.append(rec)
            info = None
            try:
                result = fn(*args, **kwargs)
                if summarize is not None:
                    info = summarize(result)
                return result
            finally:
                stop = clock()
                stack.pop()
                parent = stack[-1]
                parent[2] += stop - rec[1]
                self.spans.append((rec[0], parent[0], self.task, name, site, rec[1], stop,
                                   rec[2], info))
        return wrapper

    def _leaf(self, fn, name, site):
        clock = time.perf_counter
        stack = self.stack
        stat = self.leaves.setdefault((name, site), [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args):
            if self.task is None:
                return fn(*args)
            start = clock()
            result = fn(*args)
            took = clock() - start
            stat[0] += 1
            stat[1] += took
            stack[-1][2] += took
            return result
        return wrapper


def write_spans(path, passes) -> None:
    """One JSON list per span or kernel counter, tagged with its traced pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (spans, leaves) in enumerate(passes):
            for s in spans:
                fh.write(json.dumps([i, *s]) + "\n")
            for (name, site), (calls, seconds) in sorted(leaves.items()):
                fh.write(json.dumps([i, "counter", name, site, calls, seconds]) + "\n")


def reported_states(spans) -> dict:
    """Task id -> states_explored of the last can_clear verdict in that task."""
    out = {}
    for s in sorted((s for s in spans if s[8] is not None), key=lambda s: s[6]):
        out[s[2]] = s[8][0]
    return out


def layer_metrics(spans, leaves) -> dict:
    """Per-layer values from one traced pass, except the counts the runner supplies."""
    names = {s[0]: s[3] for s in spans}
    dur, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    layer_top, layer_self = defaultdict(float), defaultdict(float)
    states, peak = 0, 0
    for sid, parent, _task, name, _site, start, stop, child, info in spans:
        took = stop - start
        dur[name] += took
        self_s[name] += took - child
        calls[name] += 1
        layer = name.split(".")[0]
        layer_self[layer] += took - child
        if names.get(parent, "").split(".")[0] != layer:
            layer_top[layer] += took
        if info is not None:
            states += info[0]
            peak = max(peak, info[1])

    def leaf(name, sites=None):
        got = [v for (n, site), v in leaves.items()
               if n == name and (sites is None or site in sites)]
        return sum(c for c, _ in got), sum(s for _, s in got)

    def per_call(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    k_search, s_search = leaf("dynamics.step_cleared_mask", ("search",))
    k_step, s_step = leaf("dynamics.step_cleared_mask", ("dynamics",))
    b_calls, b_s = leaf("graphs.boundary_size_mask")
    step_calls, step_s = calls["dynamics.step"], dur["dynamics.step"]
    return {
        "dynamics.step_cleared_mask.in_search.calls": k_search,
        "dynamics.step_cleared_mask.in_search.us_per_call": per_call(s_search, k_search),
        "dynamics.step_cleared_mask.in_search.s": s_search,
        "dynamics.step_cleared_mask.in_step.calls": k_step,
        "dynamics.step_cleared_mask.in_step.us_per_call": per_call(s_step, k_step),
        "dynamics.step_cleared_mask.in_step.s": s_step,
        "search.states_explored": states,
        "search.successors": k_search,
        "search.admit_ratio": states / k_search if k_search else 0.0,
        "search.peak_frontier": peak,
        "search.states_per_s": rate(states, dur["search.can_clear"]),
        "search.can_clear.calls": calls["search.can_clear"],
        "search.can_clear.s": dur["search.can_clear"],
        "search.can_clear.self_s": self_s["search.can_clear"],
        "cheeger.cheeger_constant.s": dur["cheeger.cheeger_constant"],
        "isoperimetry.iso_profile.s": dur["isoperimetry.iso_profile"],
        "isoperimetry.falldown_check.s": dur["isoperimetry.falldown_check"],
        "isoperimetry.conjecture_report.s": dur["isoperimetry.conjecture_report"],
        "isoperimetry.busy_s": layer_top["isoperimetry"],
        "graphs.boundary_size_mask.calls": b_calls,
        "graphs.boundary_size_mask.us_per_call": per_call(b_s, b_calls),
        "dynamics.step.calls": step_calls,
        "dynamics.step.us_per_call": per_call(step_s, step_calls),
        "dynamics.validate_moves.s": dur["dynamics.validate_moves"],
        "dynamics.run.s": dur["dynamics.run"],
        "dynamics.write_trace.s": dur["dynamics.write_trace"],
        "dynamics.read_trace.s": dur["dynamics.read_trace"],
        "dynamics.read_moves.s": dur["dynamics.read_moves"],
        "strategies.plan.s": sum(dur[p] for p in PLANS),
        "search.verify_lemma_bounds.s": dur["search.verify_lemma_bounds"],
        "graphs.boundary.calls": calls["graphs.boundary"],
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": layer_self["cli"],
        "graphs.load_graph.s": dur["graphs.load_graph"],
    }

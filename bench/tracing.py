"""Spans around lobdiff's public functions, recorded from outside.

`Tracer.patched()` replaces each traced function, wherever a lobdiff module
holds a reference to it, with a wrapper that records one span: name, start,
end, the span that was open when it began (its parent), and a few counts
taken from the call's arguments and result. Spans stay in memory until the
run writes them out at its end. Nothing in lobdiff is edited.

`layer_metrics` folds the spans of one traced round into the per-layer
metrics. A span's self time is its duration minus that of its direct
children.
"""

import contextlib
import os
import sys
import time


def _count_events(result):
    # A generator returns either an OrderEvent list or (times, sides, deltas).
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, module, attribute, counts(args, kwargs, result) or None)
TARGETS = (
    ("flows.gen", "lobdiff.flows", "gen_poisson_flow", lambda a, k, r: {"events": _count_events(r)}),
    ("flows.gen", "lobdiff.flows", "gen_agent_flow", lambda a, k, r: {"events": _count_events(r)}),
    ("book.events_to_list", "lobdiff.book", "events_to_list", None),
    (
        "book.replay",
        "lobdiff.book",
        "replay",
        lambda a, k, r: {"events": len(r[0].samples) - 1, "jumps": len(r[0].jumps)},
    ),
    ("io.write_events", "lobdiff.io", "write_events_csv", _file_bytes),
    ("io.write_queues", "lobdiff.io", "write_queues_csv", _file_bytes),
    ("io.write_prices", "lobdiff.io", "write_prices_csv", _file_bytes),
    ("io.write_grid", "lobdiff.io", "write_grid_csv", _file_bytes),
    ("io.write_json", "lobdiff.io", "write_json", _file_bytes),
    ("io.read_events", "lobdiff.io", "read_events_csv", _file_bytes),
    ("estimation.from_events", "lobdiff.estimation", "FlowSample.from_events", None),
    ("estimation.rates", "lobdiff.estimation", "estimate_rates", None),
    ("estimation.moments", "lobdiff.estimation", "estimate_size_moments", None),
    ("estimation.rho", "lobdiff.estimation", "estimate_rho", None),
    ("estimation.hill", "lobdiff.estimation", "hill_estimator", None),
    ("estimation.variance_ratio", "lobdiff.estimation", "variance_ratio_table", None),
    ("estimation.report", "lobdiff.estimation", "estimate_report", None),
    ("diffusion.first_hits", "lobdiff.diffusion", "first_hits", lambda a, k, r: {"paths": len(r[0])}),
    ("diffusion.simulate_q", "lobdiff.diffusion", "simulate_Q", None),
    ("diffusion.net_flow_check", "lobdiff.diffusion", "net_flow_fclt_check", None),
    ("analytics.prob_up", "lobdiff.analytics", "prob_up", None),
    ("analytics.prob_up_mc", "lobdiff.analytics", "prob_up_mc", None),
    ("analytics.survival_series", "lobdiff.analytics", "duration_survival", None),
    ("analytics.survival_drifted", "lobdiff.analytics", "duration_survival_drifted", None),
)

# metric name -> (span name, what): "total" and "self" are seconds, "calls"
# a call count, anything else the sum of that count over the spans.
LAYER_METRICS = {
    "flows.gen_s": ("flows.gen", "self"),
    "flows.gen_calls": ("flows.gen", "calls"),
    "flows.events": ("flows.gen", "events"),
    "book.events_to_list_s": ("book.events_to_list", "total"),
    "book.replay_s": ("book.replay", "total"),
    "book.replay_calls": ("book.replay", "calls"),
    "book.replay_events": ("book.replay", "events"),
    "book.jumps": ("book.replay", "jumps"),
    "io.write_events_s": ("io.write_events", "total"),
    "io.write_queues_s": ("io.write_queues", "total"),
    "io.write_prices_s": ("io.write_prices", "total"),
    "io.read_events_s": ("io.read_events", "total"),
    "io.bytes_read": ("io.read_events", "bytes"),
    "estimation.from_events_s": ("estimation.from_events", "total"),
    "estimation.rates_s": ("estimation.rates", "total"),
    "estimation.moments_s": ("estimation.moments", "total"),
    "estimation.rho_s": ("estimation.rho", "total"),
    "estimation.hill_s": ("estimation.hill", "total"),
    "estimation.variance_ratio_s": ("estimation.variance_ratio", "total"),
    "estimation.report_self_s": ("estimation.report", "self"),
    "diffusion.first_hits_s": ("diffusion.first_hits", "total"),
    "diffusion.first_hits_calls": ("diffusion.first_hits", "calls"),
    "diffusion.first_hits_paths": ("diffusion.first_hits", "paths"),
    "diffusion.simulate_q_s": ("diffusion.simulate_q", "total"),
    "diffusion.simulate_q_calls": ("diffusion.simulate_q", "calls"),
    "diffusion.net_flow_check_self_s": ("diffusion.net_flow_check", "self"),
    "analytics.prob_up_s": ("analytics.prob_up", "total"),
    "analytics.prob_up_mc_self_s": ("analytics.prob_up_mc", "self"),
    "analytics.survival_series_s": ("analytics.survival_series", "total"),
    "analytics.survival_drifted_s": ("analytics.survival_drifted", "total"),
    "analytics.survival_drifted_points": ("analytics.survival_drifted", "calls"),
    "cli.self_s": ("cli", "self"),
}

_IO_WRITES = ("io.write_events", "io.write_queues", "io.write_prices", "io.write_grid", "io.write_json")


def metric_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "bytes"
    return "count"


METRIC_NAMES = tuple(LAYER_METRICS) + (
    "io.bytes_written",
    "diffusion.paths_per_s",
    "trace.overhead_s",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record[4]
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _wrap(self, name, func, counts):
        def wrapper(*args, **kwargs):
            with self.span(name) as tally:
                result = func(*args, **kwargs)
                if counts is not None:
                    tally.update(counts(args, kwargs, result))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Trace every function in TARGETS until the block exits."""
        undo = []
        try:
            for name, module_name, attr, counts in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, classmethod(self._wrap(name, original.__func__, counts)))
                    undo.append((cls, method, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counts)
                # Patch every lobdiff module that bound the name at import.
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "lobdiff" and not mod_name.startswith("lobdiff."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)


def layer_metrics(spans, overhead_s):
    """Per-layer metrics of one traced round.

    `spans` are Tracer records; command spans are named ``cli.<command>``
    and count under ``cli``.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    agg = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        key = "cli" if name.startswith("cli.") else name
        a = agg.setdefault(key, {"total": 0.0, "self": 0.0, "calls": 0})
        a["total"] += end - start
        a["self"] += end - start - child_time[i]
        a["calls"] += 1
        for k, v in counts.items():
            a[k] = a.get(k, 0) + v

    def get(span_name, what):
        return agg.get(span_name, {}).get(what, 0)

    out = {metric: get(*source) for metric, source in LAYER_METRICS.items()}
    out["io.bytes_written"] = sum(get(n, "bytes") for n in _IO_WRITES)
    hits_s = out["diffusion.first_hits_s"]
    out["diffusion.paths_per_s"] = out["diffusion.first_hits_paths"] / hits_s if hits_s > 0 else 0.0
    out["trace.overhead_s"] = overhead_s
    return out

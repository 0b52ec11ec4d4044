"""In-memory spans around each layer's public entry points.

The program is not changed: :class:`Tracer` swaps each entry point for a
timing wrapper under every name the program looks it up by (a function
imported by name into another module is replaced there too) and puts
the originals back on :meth:`Tracer.uninstall`.  A span is ``(id, name,
layer, start, end, parent, op)``; the parent and the op id ride in
context variables, so asyncio tasks and executor threads each keep
their own nesting.  A layer's self time is its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

#: (layer, "module" or "module:Class", attribute).  Functions imported
#: by name elsewhere are found by identity and replaced there as well.
ENTRY_POINTS = (
    ("facade", "repro", "sort"),
    ("facade", "repro", "sort_pairs"),
    ("plan", "repro.plan.planner:Planner", "plan"),
    ("cost", "repro.cost.hostprofile", "load_host_profile"),
    ("cost", "repro.cost.model:CostModel", "price_hybrid"),
    ("core.keys", "repro.core.keys", "to_sortable_bits"),
    ("core.keys", "repro.core.keys", "from_sortable_bits"),
    ("core.pairs", "repro.core.pairs", "pack_key_index"),
    ("core.pairs", "repro.core.pairs", "unpack_key_index"),
    ("core.pairs", "repro.core.pairs", "split_words64"),
    ("core.pairs", "repro.core.pairs", "join_words64"),
    ("core.pairs", "repro.core.pairs", "pack_key_value"),
    ("core.pairs", "repro.core.pairs", "unpack_key_value"),
    ("core.hybrid", "repro.core.hybrid_sort:HybridRadixSorter", "sort"),
    ("core.counting_sort", "repro.core.counting_sort", "counting_sort_pass"),
    ("core.bucket", "repro.core.bucket", "partition_subbuckets"),
    ("core.local_sort", "repro.core.local_sort:LocalSortEngine", "execute"),
    ("native", "repro.native.engine:NativeRadixEngine", "sort"),
    ("hetero", "repro.hetero.sorter:HeterogeneousSorter", "run_plan"),
    ("hetero.merge", "repro.hetero.merge", "kway_merge"),
    ("hetero.merge", "repro.hetero.merge", "kway_merge_pairs"),
    ("external.spill", "repro.external.runs:RunWriter", "write_runs"),
    ("external.merge", "repro.external.merge", "merge_runs"),
    ("service", "repro.service.service:SortService", "submit"),
)

#: Layers whose spans open an operation.  The service span covers
#: queueing while other requests run, so it is left out of the shares.
ROOT_LAYERS = ("facade", "service")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.hybrid_traces: list = []
        self._ids = itertools.count(1)
        self._parent = contextvars.ContextVar("perfbench_span", default=None)
        self._op = contextvars.ContextVar("perfbench_op", default=None)
        self._undo: list[tuple] = []
        # The service runs engines on executor threads.
        self._counts_lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _enter(self, layer):
        span_id = next(self._ids)
        op = self._op.get()
        op_token = None
        if op is None and layer in ROOT_LAYERS:
            op = span_id
            op_token = self._op.set(op)
        token = self._parent.set(span_id)
        return span_id, op, token, op_token

    def _exit(self, name, layer, state, start, parent):
        span_id, op, token, op_token = state
        end = time.perf_counter()
        self._parent.reset(token)
        if op_token is not None:
            self._op.reset(op_token)
        self.spans.append((span_id, name, layer, start, end, parent, op))

    def _wrap(self, fn, name, layer):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = self._parent.get()
                state = self._enter(layer)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(name, layer, state, start, parent)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent.get()
            state = self._enter(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, layer, state, start, parent)
            self._observe_call(layer, args, kwargs, result)
            return result

        return wrapper

    def _observe_call(self, layer, args, kwargs, result) -> None:
        """Counts taken at the boundary where the work happens."""
        if layer == "core.hybrid" and result.trace is not None:
            self.hybrid_traces.append(result.trace)
        elif layer == "native":
            keys = kwargs["keys"] if "keys" in kwargs else args[1]
            with self._counts_lock:
                self.counts["native.keys"] += int(keys.size)
        elif layer == "core.local_sort":
            with self._counts_lock:
                self.counts["core.local_sort.buckets"] += result.total_buckets

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        for layer, target, attr in ENTRY_POINTS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            name = f"{class_name or module_name.rsplit('.', 1)[-1]}.{attr}"
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(original, name, layer))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, layer)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- reduction -----------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span minus what its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                children[span[5]].append((span[3], span[4]))
        out: dict[str, float] = defaultdict(float)
        for span_id, _, layer, start, end, _, _ in self.spans:
            out[layer] += (end - start) - _union(children.get(span_id, ()))
        return out

    def calls(self) -> Counter:
        return Counter(span[2] for span in self.spans)

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        fields = ("id", "name", "layer", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def _union(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def per_layer_metrics(tracer, observed, ops, service_delta, overhead):
    """Every per-layer metric of the traced run as ``{name: {value, unit}}``,
    plus each layer's share of traced self time.

    ``observed`` holds what the benchmark saw around each op (plan
    prediction ratios, downgrades, keys, file I/O, external reports);
    ``service_delta`` is the change in ``ServiceStats`` over the traced
    run.  Counts and bytes are per op and per key of every op, so a
    layer that did not run reads 0 rather than an undefined ratio.
    """
    ops = max(ops, 1)
    layer = tracer.self_times()
    calls = tracer.calls()
    traces = tracer.hybrid_traces
    passes = sum(len(t.counting_passes) for t in traces)
    # Histogram read, then scatter read and write, per counting pass.
    counted = sum(
        p.n_keys * (3 * p.key_bytes + 2 * p.value_bytes)
        for t in traces
        for p in t.counting_passes
    )
    svc = service_delta
    requests = max(svc.get("completed", 0), 1)
    lookups = svc.get("plan_cache_hits", 0) + svc.get("plan_cache_misses", 0)
    ext = observed["external"]
    ratios = observed["prediction_ratios"]

    def per_op(name):
        return ("s/op", layer.get(name, 0.0) / ops)

    def per_request(key):
        return ("s/req", svc.get(key, 0.0) / requests)

    def count_per_request(key):
        return ("1/req", svc.get(key, 0) / requests)

    values = {
        "facade.self_s": per_op("facade"),
        "plan.self_s": per_op("plan"),
        "plan.calls": ("1/op", calls["plan"] / ops),
        "plan.prediction_ratio": ("ratio", statistics.median(ratios) if ratios else 0.0),
        "cost.self_s": per_op("cost"),
        "cost.calls": ("1/op", calls["cost"] / ops),
        "core.keys.self_s": per_op("core.keys"),
        "core.pairs.self_s": per_op("core.pairs"),
        "core.hybrid.self_s": per_op("core.hybrid"),
        "core.counting_sort.self_s": per_op("core.counting_sort"),
        "core.counting_sort.passes": ("1/op", passes / ops),
        "core.counting_sort.bytes_per_key": ("B/key", counted / max(observed["keys"], 1)),
        "core.bucket.self_s": per_op("core.bucket"),
        "core.local_sort.self_s": per_op("core.local_sort"),
        "core.local_sort.buckets": ("1/op", tracer.counts["core.local_sort.buckets"] / ops),
        "native.self_s": per_op("native"),
        "native.keys": ("1/op", tracer.counts["native.keys"] / ops),
        "native.downgrades": ("1/op", observed["downgrades"] / ops),
        "hetero.self_s": per_op("hetero"),
        "hetero.merge_s": per_op("hetero.merge"),
        "external.spill_s": per_op("external.spill"),
        "external.merge_s": per_op("external.merge"),
        "external.runs": ("1/job", ext["runs"] / max(ext["jobs"], 1)),
        "external.bytes_per_input_byte": (
            "ratio", ext["io_bytes"] / max(ext["input_bytes"], 1)
        ),
        "service.queue_wait_s": per_request("queue_wait_seconds"),
        "service.plan_s": per_request("plan_seconds"),
        "service.execute_s": per_request("execute_seconds"),
        "service.batched_frac": ("ratio", svc.get("batched_requests", 0) / requests),
        "service.plan_cache_hit_ratio": (
            "ratio", svc.get("plan_cache_hits", 0) / lookups if lookups else 0.0
        ),
        "service.retries": count_per_request("retries"),
        "service.fallbacks": count_per_request("fallbacks"),
        "service.shed": count_per_request("shed"),
        "trace.overhead_frac": ("ratio", overhead),
    }
    shares = {name: s for name, s in layer.items() if name != "service"}
    total = sum(shares.values()) or 1.0
    return (
        {k: {"value": v, "unit": u} for k, (u, v) in values.items()},
        {k: v / total for k, v in sorted(shares.items())},
    )

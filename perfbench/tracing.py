"""Per-layer tracing from outside the program.

Each public function a layer calls is replaced, for the traced pass only,
by a wrapper in the namespace of the module that calls it, so the program's
own files stay untouched. A wrapper records one span (name, start, end,
parent, call id) in memory. The per-walk helper is never wrapped: it runs
hundreds of thousands of times per call, and a wrapper there would measure
itself. Self times are derived from the spans afterwards.

The layers are single-threaded, so no span waits on another and there is
no wait time to report.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _explore_counts(result) -> dict[str, int]:
    return {"exploration.hops": result.total_hops,
            "exploration.generations": result.generations_run}


def _sweep_counts(result) -> dict[str, int]:
    return {"analysis.splits": len(result) - 1}


# (calling module, attribute, span name, counts read from the return value)
LAYERS = (
    ("commwalker.cli", "main", "cli.main", None),
    ("commwalker.cli", "load_edge_list", "graph.load", None),
    ("commwalker.cli", "load_gml", "graph.load", None),
    ("commwalker.cli", "detect", "pipeline.detect", None),
    ("commwalker", "detect", "pipeline.detect", None),
    ("commwalker.pipeline", "explore", "exploration.explore", _explore_counts),
    ("commwalker.pipeline", "sweep", "analysis.sweep", _sweep_counts),
    ("commwalker.pipeline", "connected_components", "graph.components", None),
    ("commwalker.pipeline", "induced_subgraph", "graph.induced_subgraph", None),
    ("commwalker.pipeline", "modularity", "modularity.q", None),
    ("commwalker.exploration", "select_start_nodes", "exploration.select_starts", None),
    ("commwalker.exploration", "exploration_done", "exploration.stop_check", None),
    ("commwalker.exploration", "is_connected", "graph.is_connected", None),
    ("commwalker.analysis", "edge_removal_order", "analysis.order", None),
    ("commwalker.analysis", "connected_components", "graph.components", None),
    ("commwalker.analysis", "is_connected", "graph.is_connected", None),
    ("commwalker.analysis", "modularity", "modularity.q", None),
)

# Per-layer metrics: (name, unit). All are per detect call, except the
# trace.* figures, which cover the whole traced pass.
METRICS = (
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("graph.load_s", "s"),
    ("pipeline.detect_s", "s"),
    ("pipeline.self_s", "s"),
    ("graph.induced_subgraph_s", "s"),
    ("graph.is_connected_calls", "count"),
    ("exploration.explore_s", "s"),
    ("exploration.self_s", "s"),
    ("exploration.hops", "count"),
    ("exploration.generations", "count"),
    ("exploration.ns_per_hop", "ns"),
    ("exploration.hops_per_s", "1/s"),
    ("exploration.select_starts_s", "s"),
    ("exploration.select_starts_calls", "count"),
    ("exploration.stop_check_s", "s"),
    ("exploration.stop_check_calls", "count"),
    ("analysis.sweep_s", "s"),
    ("analysis.sweep_self_s", "s"),
    ("analysis.order_s", "s"),
    ("analysis.splits", "count"),
    ("graph.components_calls", "count"),
    ("graph.components_s", "s"),
    ("modularity.q_calls", "count"),
    ("modularity.q_s", "s"),
    ("analysis.split_yield", "ratio"),
    ("modularity.accuracy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span store for one traced pass. Set `call` before each detect call."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, call id)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.call = -1
        self._stack: list[int] = []

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, perf_counter()

    def _leave(self, name: str, index: int, parent: int, start: float) -> None:
        self.spans[index] = (name, start, perf_counter(), parent, self.call)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        token = self._enter()
        try:
            yield
        finally:
            self._leave(name, *token)

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            token = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, *token)
            if counter is not None:
                try:
                    for key, value in counter(result).items():
                        self.counts[key] += value
                except (AttributeError, TypeError):
                    self.absent.add(f"counts of {name}")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block. A
        function a later version removed or renamed is recorded as absent."""
        saved = []
        try:
            for module_name, attr, name, counter in LAYERS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")

    def metrics(self, calls: int, wall_s: float, untraced_wall_s: float,
                scale: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics from the spans and counts of `calls` calls whose
        summed time was wall_s traced and untraced_wall_s untraced. Span
        times are multiplied by scale[call id], as the calls' times were."""
        durations = [(end - start) * scale.get(call, 1.0)
                     for _, start, end, _, call in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += duration
        total = defaultdict(float)
        own = defaultdict(float)
        n = defaultdict(int)
        for i, ((name, *_), duration) in enumerate(zip(self.spans, durations)):
            total[name] += duration
            own[name] += duration - child[i]
            n[name] += 1
        c = self.counts
        hops = c["exploration.hops"]

        def ratio(a, b):
            return a / b if b else 0.0

        per_call = {
            "cli.main_s": total["cli.main"],
            "cli.self_s": own["cli.main"],
            "graph.load_s": total["graph.load"],
            "pipeline.detect_s": total["pipeline.detect"],
            "pipeline.self_s": own["pipeline.detect"],
            "graph.induced_subgraph_s": total["graph.induced_subgraph"],
            "graph.is_connected_calls": n["graph.is_connected"],
            "exploration.explore_s": total["exploration.explore"],
            "exploration.self_s": own["exploration.explore"],
            "exploration.hops": hops,
            "exploration.generations": c["exploration.generations"],
            "exploration.select_starts_s": total["exploration.select_starts"],
            "exploration.select_starts_calls": n["exploration.select_starts"],
            "exploration.stop_check_s": total["exploration.stop_check"],
            "exploration.stop_check_calls": n["exploration.stop_check"],
            "analysis.sweep_s": total["analysis.sweep"],
            "analysis.sweep_self_s": own["analysis.sweep"],
            "analysis.order_s": total["analysis.order"],
            "analysis.splits": c["analysis.splits"],
            "graph.components_calls": n["graph.components"],
            "graph.components_s": total["graph.components"],
            "modularity.q_calls": n["modularity.q"],
            "modularity.q_s": total["modularity.q"],
            "modularity.accuracy_s": total["modularity.accuracy"],
        }
        out = {name: value / calls for name, value in per_call.items()}
        out["trace.wall_s"] = wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["exploration.ns_per_hop"] = ratio(own["exploration.explore"], hops) * 1e9
        out["exploration.hops_per_s"] = ratio(hops, total["exploration.explore"])
        out["analysis.split_yield"] = ratio(c["analysis.splits"], n["graph.components"])
        return out

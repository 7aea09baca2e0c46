"""Outside-in span tracing of resilnet's public functions.

The benchmark wraps functions from its own files; the package is not
changed.  A span records its name, start, end and parent span.  Spans live
in flat arrays while the repetition runs and are written out once at the
end.  A span's self time is its duration minus the time covered by its
wrapped child spans, so the self times of all spans plus the untraced
remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Resilnet functions looked up as module attributes.  Each is replaced in
# every resilnet module that holds it, so calls from inside the package
# (``reports.graph_metrics`` calling ``pe_margin``, ``run_rescue`` calling
# ``two_hop_view``) are caught along with the benchmark's own calls.
FUNCTIONS = {
    # the attributes run_rescue looks up in resilnet.isolation
    "observers.two_hop_view": [("observers", "two_hop_view")],
    "observers.design_gain": [("observers", "design_gain")],
    "observers.gain_matrix": [("observers", "gain_matrix")],
    "isolation.make_record": [("observers", "make_record")],
    "dynamics.closed_loop_matrix": [("dynamics", "closed_loop_matrix")],
    "dynamics.build_edge_timeline": [("dynamics", "build_edge_timeline")],
    "graphs.pe_margin": [("graphs", "pe_margin")],
    "dynamics.stability_constants": [("dynamics", "stability_constants")],
    # the top-level calls the workloads make
    "scenarios.generate": [
        ("scenarios", "generate_example1"),
        ("scenarios", "generate_example2"),
        ("scenarios", "random_connected_graph"),
        ("scenarios", "split_edges_alternating"),
    ],
    "scenarios.materialize": [("scenarios", "materialize")],
    "graphs.r_robustness": [("graphs", "r_robustness")],
    "graphs.vertex_connectivity": [("graphs", "vertex_connectivity")],
    "dynamics.simulate": [("dynamics", "simulate")],
    "isolation.run_rescue": [("isolation", "run_rescue")],
    "isolation.dp_msr_run": [("isolation", "dp_msr_run")],
    "reports.write_trace_csv": [("reports", "write_trace_csv")],
    "reports.write_events_csv": [("reports", "write_events_csv")],
    "reports.write_residuals_csv": [("reports", "write_residuals_csv")],
    "reports.write_long_csv": [("reports", "write_long_csv")],
    "reports.lambda2_series": [("reports", "lambda2_series")],
    "reports.graph_metrics": [("reports", "graph_metrics")],
    "reports.rescue_report": [("reports", "rescue_report")],
    "reports.write_report": [("reports", "write_report")],
}

METHODS = {
    "observers.ObserverState.step": ("ObserverState", "step"),
    "observers.ObserverState.reconfigure": ("ObserverState", "reconfigure"),
    "observers.ObserverState.remap": ("ObserverState", "remap"),
    "observers.ObserverState.reinit": ("ObserverState", "reinit"),
    "observers.ObserverState.neighbor_residuals": ("ObserverState", "neighbor_residuals"),
    "observers.TwoHopView.measure": ("TwoHopView", "measure"),
    "observers.ThresholdRule.evaluate": ("ThresholdRule", "evaluate"),
}

# span names whose call counts are reported next to their self time
COUNTED = (
    "graphs.pe_margin",
    "dynamics.closed_loop_matrix",
    "observers.ObserverState.step",
    "observers.TwoHopView.measure",
    "observers.two_hop_view",
)


def span_names() -> list:
    """Every span name, in the order the metrics are listed."""
    return sorted((*FUNCTIONS, *METHODS))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` may update
        the counters once the span has ended."""
        nid = self._id(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_reconfigure(self, args, kwargs, result):
        if kwargs.get("keep_state", args[3] if len(args) > 3 else False):
            self.counters["observers.reconfig.keep"] += 1

    def _count_rescue(self, args, kwargs, result):
        self.counters["isolation.events"] += len(result.run.events)
        self.counters["isolation.segments"] += len(result.trace.segments)

    def _count_simulate(self, args, kwargs, result):
        self.counters["dynamics.simulate.agent_steps"] += (
            len(result.t) - 1
        ) * result.node_count

    def install(self, package):
        """Patch every resilnet module of ``package`` that holds a traced
        function, and the traced methods on their classes."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        hooks = {
            "isolation.run_rescue": self._count_rescue,
            "dynamics.simulate": self._count_simulate,
        }
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(sys.modules[f"{package.__name__}.{module}"], attr)
                traced = self.wrap(name, original, hooks.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, traced)
        observers = sys.modules[f"{package.__name__}.observers"]
        for span, (cls_name, attr) in METHODS.items():
            cls = getattr(observers, cls_name)
            original = cls.__dict__[attr]
            after = self._count_reconfigure if attr == "reconfigure" else None
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original, after))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self, total_s: float) -> dict:
        """Per-span self time and call counts, the observer counters, and the
        self time left outside every span (``bench.other.s``)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_by_name = np.bincount(ids, weights=self_s, minlength=k)
        total_by_name = np.bincount(ids, weights=dur, minlength=k)
        by = {name: i for i, name in enumerate(self.names)}

        out = {}
        for name in span_names():
            i = by.get(name)
            out[f"{name}.s"] = float(self_by_name[i]) if i is not None else 0.0
            if name in COUNTED:
                out[f"{name}.calls"] = int(calls[i]) if i is not None else 0
        i = by.get("isolation.run_rescue")
        out["isolation.run_rescue.total_s"] = float(total_by_name[i]) if i is not None else 0.0
        out["bench.other.s"] = total_s - float(dur[~nested].sum())

        def count(name):
            return int(calls[by[name]]) if name in by else 0

        # gain-cache misses: designs run_rescue asked for directly (the
        # ladder's own gain_matrix calls sit under design_gain)
        rescue = by.get("isolation.run_rescue")
        parent_ids = np.full(len(ids), -1)
        parent_ids[nested] = ids[parent[nested]]
        misses = sum(
            int(np.count_nonzero((ids == by[name]) & (parent_ids == rescue)))
            for name in ("observers.design_gain", "observers.gain_matrix")
            if name in by and rescue is not None
        )
        keep = self.counters["observers.reconfig.keep"]
        remap = count("observers.ObserverState.remap")
        reinit = count("observers.ObserverState.reinit")
        lookups = keep + remap + reinit
        out.update(
            {
                "observers.reconfig.keep": keep,
                "observers.reconfig.remap": remap,
                "observers.reconfig.reinit": reinit,
                "observers.gain.misses": misses,
                "observers.gain.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
                "isolation.events": self.counters["isolation.events"],
                "isolation.segments": self.counters["isolation.segments"],
                "dynamics.simulate.agent_steps": self.counters["dynamics.simulate.agent_steps"],
                "trace.spans": len(dur),
            }
        )
        return out

    def save(self, path, run_id: str):
        np.savez(
            path,
            run_id=np.array(run_id),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

"""Per-layer measurement of hexsync from outside the package.

A `Tracer` replaces each listed public function of a layer, wherever a
hexsync module binds it, with a wrapper that records a span (name, start,
end, parent). Spans are folded into totals as they close, so memory stays
flat over millions of clock calls: per span name the call count, inclusive
time and self time (inclusive time minus the time of its child spans),
and per parent -> child edge the call count and inclusive time.

With `layers=("simnet",)` the tracer hooks only simnet's entry points
(`make_sim`, `Sim.run_until`, `Sim.send`). That probe reads the run's counts
without timing the inner layers, and is the untraced side of the
exact-count check.
"""

from __future__ import annotations

import bisect
import importlib
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

# Layer -> the public functions whose calls are spans of that layer.
# `Sim.*` names are methods of hexsync.simnet.Sim.
LAYER_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "clock": ("ticks_at", "true_time_of_tick", "local_seconds_at"),
    "tsch": ("asn_at", "slot_boundary_true_time", "resync_to_parent"),
    "gait": ("build_schedule", "events_for_controller", "arm_free_running",
             "arm_asn_ref", "period_start_true_time", "period_index_at",
             "gait_sync_error", "gait_event_true_time", "setpoints_for_event",
             "servo_trace"),
    "simnet": ("make_sim", "Sim.run_until", "Sim.send"),
    "experiment": ("build_sim", "run_scheme", "fit_drift_slope",
                   "sweep_resync_period"),
    "cli": ("trace_csv_lines", "sweep_csv_lines", "servo_csv_lines",
            "_write_lines"),
}
CSV_FUNCTIONS = ("cli.trace_csv_lines", "cli.sweep_csv_lines",
                 "cli.servo_csv_lines", "cli._write_lines")
MIN_WINDOW_SAMPLES = 3  # experiment.fit_drift_slope's default


class Tracer:
    """Install with `with Tracer(...) as tracer:`; the originals come back on exit."""

    def __init__(self, layers=tuple(LAYER_FUNCTIONS)):
        self.layers = tuple(layers)
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.counts = {"events": 0, "messages": 0, "samples": 0, "resync_marks": 0,
                       "sim_setpoints": 0, "resyncs": 0, "setpoints": 0,
                       "fit_windows": 0, "fit_windows_used": 0}
        self.stop_deliveries: List[float] = []
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._seen = weakref.WeakKeyDictionary()  # Sim -> (samples, marks, setpoints) so far

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        after = {"Sim.run_until": self._after_run_until, "Sim.send": self._after_send,
                 "resync_to_parent": self._after_resync,
                 "setpoints_for_event": self._after_setpoints,
                 "fit_drift_slope": self._after_fit}
        try:
            for layer in self.layers:
                module = importlib.import_module(f"hexsync.{layer}")
                for name in LAYER_FUNCTIONS[layer]:
                    self._install(module, layer, name, after.get(name))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, module, layer: str, name: str, after) -> None:
        owner, _, attr = name.rpartition(".")
        target = getattr(module, owner) if owner else module
        original = getattr(target, attr, None)
        if original is None:
            self.missing.append(f"{layer}.{name}")
            return
        wrapped = self._wrap(f"{layer}.{name}", original, after)
        if owner:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "hexsync":
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, binding, original))
                    setattr(mod, binding, wrapped)

    def _wrap(self, name: str, fn: Callable, after) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges, stack, now = self.edges, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0]
            stack.append(span)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - span[1]
                key = (parent[0] if parent else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts at the layer boundaries -------------------------------------

    def _after_run_until(self, processed, args) -> None:
        sim = args[0]
        self.counts["events"] += processed
        before = self._seen.get(sim, (0, 0, 0))
        now = (len(sim.samples), len(sim.resync_marks), len(sim.servo_setpoints))
        self.counts["samples"] += now[0] - before[0]
        self.counts["resync_marks"] += now[1] - before[1]
        self.counts["sim_setpoints"] += now[2] - before[2]
        self._seen[sim] = now

    def _after_send(self, _, args) -> None:
        msg = args[1]
        self.counts["messages"] += 1
        if getattr(msg.body, "value", None) == "stop":
            self.stop_deliveries.append(float(msg.delivered_true_s))

    def _after_resync(self, *_) -> None:
        self.counts["resyncs"] += 1

    def _after_setpoints(self, setpoints, _) -> None:
        self.counts["setpoints"] += len(setpoints)

    def _after_fit(self, _, args) -> None:
        """Inter-resync windows the fit considered, and those with enough samples."""
        trace = args[0]
        marks = sorted(set(trace.resync_marks))
        times = sorted(s[0] for s in trace.samples)
        # window i holds samples with marks[i-1] < t <= marks[i]; the last is open
        edges = [bisect.bisect_right(times, m) for m in marks] + [len(times)]
        sizes = [hi - lo for lo, hi in zip([0] + edges, edges)]
        self.counts["fit_windows"] += len(sizes)
        self.counts["fit_windows_used"] += sum(n >= MIN_WINDOW_SAMPLES for n in sizes)

    # -- derived figures ----------------------------------------------------

    def layer(self, layer: str) -> Tuple[int, float]:
        """(calls, self seconds) summed over the layer's spans."""
        rows = [v for k, v in self.stats.items() if k.split(".")[0] == layer]
        return int(sum(r[0] for r in rows)), sum(r[2] for r in rows)

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures of one traced command (cli.rows/bytes/import_s come
        from the caller)."""
        m: Dict[str, float] = {}
        for layer in ("clock", "tsch", "gait"):
            calls, self_s = self.layer(layer)
            m[f"{layer}.calls"], m[f"{layer}.self_s"] = calls, self_s
        m["clock.ns_per_call"] = m["clock.self_s"] / m["clock.calls"] * 1e9 if m["clock.calls"] else 0.0
        m["tsch.resyncs"] = self.counts["resyncs"]
        m["gait.setpoints"] = self.counts["setpoints"]
        loop_s = self.total("simnet.Sim.run_until")
        m["simnet.events"] = self.counts["events"]
        m["simnet.events_per_s"] = self.counts["events"] / loop_s if loop_s else 0.0
        m["simnet.self_s"] = self.layer("simnet")[1]
        m["simnet.messages"] = self.counts["messages"]
        m["simnet.send_s"] = self.total("simnet.Sim.send")
        m["simnet.samples"] = self.counts["samples"]
        windows = self.counts["fit_windows"]
        m["experiment.fit_s"] = self.total("experiment.fit_drift_slope")
        m["experiment.fit_windows"] = windows
        m["experiment.fit_window_yield"] = self.counts["fit_windows_used"] / windows if windows else 0.0
        m["cli.csv_s"] = sum(self.total(n) for n in CSV_FUNCTIONS)
        return m

    def exact_counts(self) -> Dict[str, int]:
        """Counts any run of the same command must repeat, traced or not."""
        c = self.counts
        return {"simnet.events": c["events"], "simnet.messages": c["messages"],
                "simnet.samples": c["samples"], "tsch.resyncs": c["resync_marks"],
                "gait.setpoints": c["sim_setpoints"]}

    def top_edges(self, limit: int = 12) -> List[str]:
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])[:limit]
        return [f"{parent or '<root>'} -> {child}: {int(calls)} calls, {total:.4f} s"
                for (parent, child), (calls, total) in rows]

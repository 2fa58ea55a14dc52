"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each dynzone module. Modules bind
each other's functions by name (`from .zoning import zone_load`), so a
wrapper replaces the binding in every `dynzone.*` module namespace that
holds the same function object; `FloorGraph` and `Simulation` methods are
wrapped on their classes. `uninstall` puts every original back.

Each call records a span: name, start, end and the span that caused it.
Calls made directly by the event loop are kept whole in memory; deeper
calls, up to a million per run, are folded into per-name aggregates as
they end. Both are written out when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# Layer (module) -> traced names. "Class.method" names are wrapped on the class.
LAYERS = {
    "floorgraph": ["FloorGraph.shortest_path_points", "FloorGraph.distances_from"],
    "zoning": [
        "zone_load",
        "assign_transfer_stations",
        "transfer_tip",
        "validate_partition",
        "plan_delivery",
        "shortest_feasible_path",
    ],
    "consensus": ["run_consensus"],
    "ddz": ["ddz_optimize", "fleet_loads"],
    "baselines": [
        "sa_optimize",
        "ga_optimize",
        "decode_genome",
        "initial_partition",
        "load_spread",
        "flow_from_history",
    ],
    "scheduler": ["select_next", "task_score", "requeue_after_repair"],
    "simengine": ["Simulation.run"],
}

# Names whose per-call durations are kept for a median.
TIMED = ("ddz_optimize", "sa_optimize", "ga_optimize")


class _Stat:
    __slots__ = ("calls", "busy", "active", "good", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0  # inclusive seconds; nested calls of one name count once
        self.active = 0  # calls of this name now on the stack
        self.good = 0  # useful outcomes, for the waste ratios
        self.extra: dict[str, float] = defaultdict(float)


def _outcome(name: str, result, stat: _Stat) -> None:
    """Counters read from a returned value."""
    if name == "transfer_tip":
        stat.good += 1  # reaching here means the move was legal
    elif name == "validate_partition":
        stat.good += not result
    elif name == "decode_genome":
        stat.good += result is not None
    elif name == "run_consensus":
        stat.extra["steps"] += result.steps
    elif name == "ddz_optimize":
        for entry in result.trace:
            if entry["kind"] == "proposal":
                stat.extra["proposals"] += 1
                stat.extra["accepted"] += entry["accepted"]
    elif name == "Simulation.run":
        stat.extra["events"] += len(result)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._stack: list[list] = []  # [name, child seconds, span index or None]
        self._saved: list[tuple[object, str, object]] = []

    # ── Wrapping ─────────────────────────────────────────────────────

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        self_time = self.self_time
        durations = self.durations[name] if name in TIMED else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # Keep whole spans for what the event loop calls directly.
            keep = parent is not None and parent[0] == "Simulation.run"
            index = None
            if keep or parent is None:
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent[2] if parent else None))
            frame = [name, 0.0, index]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                span = end - start
                stat.calls += 1
                if not stat.active:
                    stat.busy += span
                self_time[layer] += span - frame[1]
                if parent is not None:
                    parent[1] += span
                if index is not None:
                    spans[index] = (name, start, end, spans[index][3])
                if durations is not None:
                    durations.append(span)
            _outcome(name, result, stat)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced name; call uninstall() to restore."""
        import dynzone.floorgraph
        import dynzone.simengine

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("dynzone.")]
        classes = {
            "FloorGraph": dynzone.floorgraph.FloorGraph,
            "Simulation": dynzone.simengine.Simulation,
        }
        for layer, names in LAYERS.items():
            home = sys.modules[f"dynzone.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = classes[cls_name]
                    original = cls.__dict__[attr]
                    self._saved.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(layer, name, original))
                    continue
                original = getattr(home, name)
                traced = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ── Reporting ────────────────────────────────────────────────────

    def metrics(self, sims: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as per-simulation means over `sims` runs."""
        out: dict[str, tuple[float, str]] = {}

        def stat(name: str) -> _Stat:
            return self.stats[name]

        for layer, names in LAYERS.items():
            for name in names:
                if name == "Simulation.run":
                    continue
                short = name.split(".")[-1]
                out[f"{layer}.{short}.calls"] = (stat(name).calls / sims, "calls/sim")
                out[f"{layer}.{short}.s"] = (stat(name).busy / sims, "s/sim")
            out[f"{layer}.self_s"] = (self.self_time[layer] / sims, "s/sim")

        def ratio(name: str) -> float:
            s = stat(name)
            return s.good / s.calls if s.calls else 0.0

        def p50_ms(name: str) -> float:
            d = self.durations[name]
            return 1000.0 * statistics.median(d) if d else 0.0

        out["zoning.transfer_tip.ok_ratio"] = (ratio("transfer_tip"), "ratio")
        out["zoning.validate_partition.valid_ratio"] = (ratio("validate_partition"), "ratio")
        out["consensus.run_consensus.steps"] = (
            stat("run_consensus").extra["steps"] / sims, "steps/sim")
        out["ddz.ddz_optimize.p50_ms"] = (p50_ms("ddz_optimize"), "ms")
        out["ddz.proposals"] = (stat("ddz_optimize").extra["proposals"] / sims, "count/sim")
        out["ddz.accepted"] = (stat("ddz_optimize").extra["accepted"] / sims, "count/sim")
        out["baselines.sa_optimize.p50_ms"] = (p50_ms("sa_optimize"), "ms")
        out["baselines.ga_optimize.p50_ms"] = (p50_ms("ga_optimize"), "ms")
        out["baselines.decode_genome.valid_ratio"] = (ratio("decode_genome"), "ratio")
        out["simengine.run.s"] = (stat("Simulation.run").busy / sims, "s/sim")
        out["simengine.events"] = (stat("Simulation.run").extra["events"] / sims, "events/sim")
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file written at the end of a run."""
        return {
            "aggregates": {
                name: {"calls": s.calls, "s": s.busy, "good": s.good, **s.extra}
                for name, s in sorted(self.stats.items())
            },
            "self_s": dict(sorted(self.self_time.items())),
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p}
                for n, a, b, p in self.spans
            ],
        }

"""The names the perfbench tracer wraps must exist in the package.

`perfbench/tracer.py` wraps functions and methods by name, so deleting or
renaming one of them breaks `perfbench/run.py --trace 1` while every other
test still passes.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from dynzone.consensus import comm_graph, run_consensus
from dynzone.datafiles import load_layout
from dynzone.ddz import AnnealingSchedule, DdzConfig, ddz_optimize, fleet_loads
from dynzone.floorgraph import FloorGraph
from dynzone.scheduler import PartTask
from dynzone.simengine import Simulation
from dynzone.zoning import HandlingTimes, Zone, ZonePartition, assign_transfer_stations

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CLASSES = {"FloorGraph": FloorGraph, "Simulation": Simulation}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _tracer()
LAYERS = TRACER_MODULE.LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in LAYERS.items() for name in names]
)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"dynzone.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        # The tracer wraps the method on the class that defines it.
        assert callable(CLASSES[cls_name].__dict__.get(attr)), name
    else:
        assert callable(getattr(module, name, None)), f"dynzone.{layer}.{name}"


def test_tracer_counts_what_the_results_hold():
    """The tracer's counters read fields of real search and consensus
    results; renaming one of them must fail here, not only under --trace 1."""
    graph = load_layout("dumbbell")
    design = assign_transfer_stations(ZonePartition(graph, (
        Zone(1, (1, 2), frozenset({"W1|W2"})),
        Zone(2, (3, 4), frozenset({"W3|W4"})),
        Zone(3, (5, 6), frozenset({"W5|W6"})),
    )))
    handling = HandlingTimes(0.25, 0.25)
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)] + [PartTask(100, 5, 6, 6, 0.0)]
    loads = fleet_loads(design, tasks, 100.0, handling)
    mean = sum(loads.values()) / len(loads)
    links = comm_graph({1: (10.0, 0.0), 2: (60.0, 0.0), 3: (110.0, 0.0)}, 200.0)
    search = ddz_optimize(
        design, links, tasks, {z: mean for z in loads}, 1, DdzConfig(),
        AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=30), random.Random(8),
        100.0, handling,
    )
    proposals = [e for e in search.trace if e["kind"] == "proposal"]
    # Rejected proposals and rows of other kinds, so each count is its own.
    assert 0 < sum(e["accepted"] for e in proposals) < len(proposals) < len(search.trace)

    consensus = run_consensus([3.0, 9.0, 0.0], [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)], 60.0)
    assert consensus.steps > 1

    stats = {}
    for name, result in (("ddz_optimize", search), ("run_consensus", consensus)) * 2:
        stats.setdefault(name, TRACER_MODULE._Stat())
        TRACER_MODULE._outcome(name, result, stats[name])
    assert dict(stats["ddz_optimize"].extra) == {
        "proposals": 2 * len(proposals),
        "accepted": 2 * sum(e["accepted"] for e in proposals),
    }
    assert dict(stats["run_consensus"].extra) == {"steps": 2 * consensus.steps}

"""The shared tip-move proposal kernel behind SA and ddz.

The proposal traces of both searches are pinned by digest on the shipped
floor, so a change to how moves are built or scored must reproduce every
draw, score and decision. A counting wrapper checks that one search call
builds each move out of one design at most once.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from dynzone import zoning
from dynzone.baselines import PartHistoryWindow, initial_partition, sa_optimize
from dynzone.consensus import comm_graph
from dynzone.datafiles import load_layout, load_scenario
from dynzone.ddz import AnnealingSchedule, DdzConfig, ddz_optimize, fleet_loads
from dynzone.scheduler import PartTask
from dynzone.simengine import expand_scenario
from dynzone.zoning import HandlingTimes, partition_to_json

HANDLING = HandlingTimes(0.25, 0.25)
VELOCITY = 200.0
SCHEDULE = AnnealingSchedule(t_initial=10.0, t_freeze=0.1, reductions=60, k=1.0)


@pytest.fixture(scope="module")
def layout18():
    return load_layout("layout18")


def _legs():
    """(part, from, to) for every delivery leg of scenario100, in part order."""
    legs = []
    for part, (_, route) in enumerate(expand_scenario(load_scenario("scenario100"))):
        legs.extend((part, a, b) for a, b in zip(route, route[1:]))
    return legs


def _history(stride):
    window = PartHistoryWindow()
    for part, src, dst in _legs()[::stride]:
        window.add(part, src, dst, 0.0)
    return window


def _queued(stride):
    """One queued part per kept leg, waiting at the leg's pickup station."""
    return [
        PartTask(i, src, dst, dst, 0.0) for i, (_, src, dst) in enumerate(_legs()[::stride])
    ]


def _digest(*values) -> str:
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sa(graph, seed, stride=7):
    return sa_optimize(
        graph, _history(stride), 3, SCHEDULE, random.Random(seed),
        VELOCITY, HANDLING, iterations=120,
    )


def _ddz(graph, seed, stride=3):
    partition = initial_partition(graph, 3)
    tasks = _queued(stride)
    loads = fleet_loads(partition, tasks, VELOCITY, HANDLING)
    mean = sum(loads.values()) / len(loads)
    positions = {
        z.id: (graph.points[graph.anchor_of(z.workstations[0])].x,
               graph.points[graph.anchor_of(z.workstations[0])].y)
        for z in partition.zones
    }
    return ddz_optimize(
        partition, comm_graph(positions, 250.0), tasks, {z: mean for z in loads}, 1,
        DdzConfig(iterations=40), SCHEDULE, random.Random(seed), VELOCITY, HANDLING,
    )


SA_DIGESTS = {1: "fc34720efa568f06", 2: "94cc130ba0812692", 3: "7e6925db6cb3fade"}
DDZ_DIGESTS = {1: "d8bc78fbe38d844b", 2: "3b5b3bdc5caf00bc", 3: "1fbd9587b30aa1ba"}


@pytest.mark.parametrize("seed", sorted(SA_DIGESTS))
def test_sa_proposal_trace_pinned(layout18, seed):
    result = _sa(layout18, seed)
    digest = _digest(
        result.trace, result.objective, result.progress, partition_to_json(result.partition)
    )
    assert digest == SA_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(DDZ_DIGESTS))
def test_ddz_proposal_trace_pinned(layout18, seed):
    result = _ddz(layout18, seed)
    leaders = [e["leader"] for e in result.trace if e["kind"] == "episode-adopt"]
    digest = _digest(
        result.trace, result.objective_before, result.objective, leaders,
        result.iterations, partition_to_json(result.partition),
    )
    assert digest == DDZ_DIGESTS[seed]


def _count_moves(monkeypatch):
    """Wrap the transfer_tip the kernel calls; return its (design, move) calls."""
    calls: list[tuple] = []
    original = zoning.transfer_tip

    def counted(partition, from_zone, to_zone, ws):
        # The design itself is kept, so its id cannot be reused by another.
        calls.append((partition, from_zone, to_zone, ws))
        return original(partition, from_zone, to_zone, ws)

    monkeypatch.setattr(zoning, "transfer_tip", counted)
    return calls


def _repeats(calls) -> int:
    keys = Counter((id(p), giver, receiver, ws) for p, giver, receiver, ws in calls)
    return sum(n - 1 for n in keys.values())


@pytest.mark.parametrize("seed", [1, 2])
def test_sa_builds_each_move_once_per_design(layout18, monkeypatch, seed):
    calls = _count_moves(monkeypatch)
    trace = _sa(layout18, seed).trace
    assert len(trace) > len({id(p) for p, *_ in calls})  # designs are revisited
    assert calls and _repeats(calls) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_ddz_builds_each_move_once_per_design(layout18, monkeypatch, seed):
    calls = _count_moves(monkeypatch)
    result = _ddz(layout18, seed)
    assert result.trace
    assert calls and _repeats(calls) == 0

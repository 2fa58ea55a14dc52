from __future__ import annotations

import math
import random

import pytest

from dynzone.consensus import comm_graph
from dynzone.datafiles import load_layout
from dynzone.ddz import (
    AnnealingSchedule,
    DdzConfig,
    ddz_optimize,
    detect_imbalance,
    fleet_loads,
    load_sigma,
    propagate_start,
    queue_flows,
    temperature,
)
from dynzone.errors import NoNeighbors
from dynzone.scheduler import PartTask
from dynzone.zoning import (
    HandlingTimes,
    Zone,
    ZonePartition,
    assign_transfer_stations,
    validate_partition,
)

HANDLING = HandlingTimes(0.25, 0.25)


@pytest.fixture
def dumbbell():
    return load_layout("dumbbell")


@pytest.fixture
def three_zones(dumbbell):
    partition = ZonePartition(
        dumbbell,
        (
            Zone(1, (1, 2), frozenset({"W1|W2"})),
            Zone(2, (3, 4), frozenset({"W3|W4"})),
            Zone(3, (5, 6), frozenset({"W5|W6"})),
        )
    )
    return assign_transfer_stations(partition)


# ── Temperature schedule ─────────────────────────────────────────────


def test_temperature_endpoints():
    sched = AnnealingSchedule(t_initial=7.5, t_freeze=0.3, reductions=13)
    assert temperature(sched, 0) == 7.5
    assert temperature(sched, 13) == pytest.approx(0.3)


def test_temperature_midpoint():
    sched = AnnealingSchedule(t_initial=100.0, t_freeze=1.0, reductions=2)
    assert temperature(sched, 1) == pytest.approx(10.0)


def test_temperature_strictly_decreasing():
    rng = random.Random(1)
    for _ in range(100):
        t_f = rng.uniform(0.01, 1.0)
        t_i = t_f + rng.uniform(0.5, 100.0)
        m = rng.randint(1, 50)
        sched = AnnealingSchedule(t_initial=t_i, t_freeze=t_f, reductions=m)
        temps = [temperature(sched, n) for n in range(m + 1)]
        assert temps[0] == t_i
        assert temps[-1] == pytest.approx(t_f)
        assert all(a > b for a, b in zip(temps, temps[1:]))


# ── Local load standard deviation ────────────────────────────────────


def test_sigma_zero_when_balanced():
    assert load_sigma(4.0, 4.0, [4.0, 4.0]) == 0.0


def test_sigma_single_term():
    assert load_sigma(10.0, 4.0, []) == 6.0


def test_sigma_direct_evaluation():
    assert load_sigma(2.0, 5.0, [4.0, 9.0]) == pytest.approx(math.sqrt(26.0 / 3.0))


# ── Imbalance detection ──────────────────────────────────────────────


def _history(samples):
    return [(t, load, x) for t, load, x in samples]


def test_no_violation_in_window():
    hist = _history([(0, 5, 4), (2, 5, 4), (4, 5, 4)])
    assert not detect_imbalance(hist, l_tol=2.0, t_lt=4.0, now=4.0)


def test_violation_lasting_exactly_t_lt():
    hist = _history([(0, 10, 4), (2, 10, 4), (4, 10, 4)])
    assert detect_imbalance(hist, l_tol=2.0, t_lt=4.0, now=4.0)


def test_interrupted_violation_resets_timer():
    hist = _history([(0, 10, 4), (2, 5, 4), (4, 10, 4), (6, 10, 4)])
    # Streak restarted at t=4; not yet 4 minutes old at t=6.
    assert not detect_imbalance(hist, l_tol=2.0, t_lt=4.0, now=6.0)
    hist.append((8, 10, 4))
    assert detect_imbalance(hist, l_tol=2.0, t_lt=4.0, now=8.0)


# ── Start-signal propagation ─────────────────────────────────────────


def test_isolated_origin():
    positions = {1: (0.0, 0.0), 2: (500.0, 0.0)}
    assert propagate_start(1, comm_graph(positions, 100.0)) == frozenset({1})


def test_fully_connected_fleet():
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0), 3: (0.0, 10.0)}
    assert propagate_start(1, comm_graph(positions, 50.0)) == frozenset({1, 2, 3})


def test_relay_chain():
    positions = {1: (0.0, 0.0), 2: (90.0, 0.0), 3: (180.0, 0.0)}
    assert propagate_start(1, comm_graph(positions, 100.0)) == frozenset({1, 2, 3})


# Exactly 250 ft apart off-axis (a 3-4-5 triangle), and a third robot far away.
BOUNDARY = {1: (0.0, 0.0), 2: (150.0, 200.0), 3: (900.0, 900.0)}


def test_robots_exactly_in_range_hear_the_start_signal():
    assert propagate_start(1, comm_graph(BOUNDARY, 250.0)) == frozenset({1, 2})


# ── Queue flows ──────────────────────────────────────────────────────


def test_queue_flows_first_leg_only(dumbbell, three_zones):
    tasks = [PartTask(1, 1, 2, 2, 0.0), PartTask(2, 2, 5, 5, 0.0)]
    flows = queue_flows(three_zones, tasks)
    assert flows[1].get(1, 2) == 1.0
    # Cross-zone part contributes only its next leg, up to the hand-off.
    legs_total = flows[1].total() + flows[2].total() + flows[3].total()
    assert legs_total == 2.0


# ── DDZ annealing ────────────────────────────────────────────────────


POSITIONS = {1: (10.0, 0.0), 2: (60.0, 0.0), 3: (110.0, 0.0)}


def _run(graph, partition, tasks, seed, episodes=0, iterations=0, k=1.0,
         links=comm_graph(POSITIONS, 200.0)):
    config = DdzConfig(episodes=episodes, iterations=iterations)
    schedule = AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=30, k=k)
    loads = fleet_loads(partition, tasks, velocity=100.0, handling=HANDLING)
    mean = sum(loads.values()) / len(loads)
    consensus = {z: mean for z in loads}
    return ddz_optimize(
        partition,
        links,
        tasks,
        consensus,
        origin=1,
        config=config,
        schedule=schedule,
        rng=random.Random(seed),
        velocity=100.0,
        handling=HANDLING,
    )


def _leaders(result):
    return [e["leader"] for e in result.trace if e["kind"] == "episode-adopt"]


def test_balanced_start_keeps_initial_design(dumbbell, three_zones):
    result = _run(dumbbell, three_zones, tasks=[], seed=3)
    assert result.objective_before == 0.0
    assert result.objective == 0.0
    assert result.partition.zone(1).workstations == (1, 2)
    assert validate_partition(result.partition) == []


def test_unbalanced_fleet_improves_sigma(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)] + [PartTask(100, 2, 1, 1, 0.0)]
    for seed in (0, 1, 2):
        result = _run(dumbbell, three_zones, tasks, seed=seed)
        assert result.objective <= result.objective_before + 1e-9
        assert validate_partition(result.partition) == []


def test_best_sigma_non_increasing_within_episode(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)]
    result = _run(dumbbell, three_zones, tasks, seed=5)
    best = math.inf
    episode = -1
    for entry in result.trace:
        if entry["kind"] == "proposal":
            if entry["episode"] != episode:
                episode = entry["episode"]
                best = math.inf
            best = min(best, entry["sigma_after"])
        elif entry["kind"] == "episode-adopt":
            assert entry["sigma"] <= best + 1e-12 or best == math.inf


def test_acceptance_probability_bounds(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)]
    result = _run(dumbbell, three_zones, tasks, seed=9)
    for entry in result.trace:
        if entry["kind"] != "proposal":
            continue
        assert 0.0 < entry["p"] <= 1.0
        if entry["sigma_after"] <= entry["sigma_before"]:
            assert entry["accepted"]


def test_hill_climb_limit_rejects_worsening(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)] + [PartTask(100, 5, 6, 6, 0.0)]
    worsening = []
    for seed in range(10):
        result = _run(dumbbell, three_zones, tasks, seed=seed, k=1e-300)
        worsening += [
            e
            for e in result.trace
            if e["kind"] == "proposal" and e["sigma_after"] > e["sigma_before"]
        ]
    assert worsening  # the walk must actually propose bad moves
    assert not any(e["accepted"] for e in worsening)


def test_seeded_runs_are_bit_identical(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(6)]
    a = _run(dumbbell, three_zones, tasks, seed=42)
    b = _run(dumbbell, three_zones, tasks, seed=42)
    assert a.trace == b.trace
    assert a.partition == b.partition


def test_no_neighbors_raises(dumbbell, three_zones):
    config = DdzConfig()
    schedule = AnnealingSchedule()
    with pytest.raises(NoNeighbors):
        ddz_optimize(
            three_zones,
            comm_graph(POSITIONS, 5.0),
            [],
            {1: 0.0, 2: 0.0, 3: 0.0},
            origin=1,
            config=config,
            schedule=schedule,
            rng=random.Random(0),
            velocity=100.0,
            handling=HANDLING,
        )


def test_leader_rotation_round_robin(dumbbell, three_zones):
    result = _run(dumbbell, three_zones, [], seed=0)
    assert _leaders(result) == [1, 2, 3]


def test_robots_exactly_in_range_search_together(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)]
    result = _run(dumbbell, three_zones, tasks, seed=0, links=comm_graph(BOUNDARY, 250.0))
    assert _leaders(result) == [1, 2]  # one episode per participant
    assert {e["receiver"] for e in result.trace if "receiver" in e} <= {1, 2}

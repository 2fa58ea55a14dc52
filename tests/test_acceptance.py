"""Top-level acceptance gate: one test per release criterion.

Each test prints a single CRITERION n PASS line when its assertions hold,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist. The heavy
shipped-scenario matrix (5 seeds x 3 methods) runs once and is shared by
the trend, validity, and determinism criteria.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from types import SimpleNamespace

import pytest

from dynzone.baselines import (
    GaConfig,
    PartHistoryWindow,
    ga_optimize,
    load_spread,
    sa_optimize,
)
from dynzone.consensus import comm_graph, metropolis_weights, run_consensus
from dynzone.datafiles import load_config, load_layout, load_scenario
from dynzone.ddz import AnnealingSchedule, DdzConfig, ddz_optimize, fleet_loads, temperature
from dynzone.floorgraph import WS_ANCHOR, CriticalPoint, FloorGraph, Workstation
from dynzone.scheduler import PartTask, RobotQueue, score_and_rank, select_next
from dynzone.simengine import (
    SimConfig,
    Simulation,
    compute_metrics,
    expand_scenario,
    log_from_jsonl,
    log_to_jsonl,
)
from dynzone.zoning import (
    HandlingTimes,
    Zone,
    ZonePartition,
    assign_transfer_stations,
    find_transfer_stations,
    validate_partition,
    zone_load,
)
from tests.conftest import allclose, mix, run_simulation

SEEDS = (1, 2, 3, 4, 5)
METHODS = ("sa", "ga", "ddz")
HANDLING = HandlingTimes(0.25, 0.25)


def _ok(n: int, message: str) -> None:
    print(f"CRITERION {n}: PASS — {message}")


# ── Shared shipped-scenario matrix ───────────────────────────────────


class _RecordingSim(Simulation):
    """Simulation that keeps every partition it ever adopts."""

    def __init__(self, *args, **kwargs):
        self.adopted = []
        super().__init__(*args, **kwargs)
        self.adopted.append(self.partition)

    def _apply_repair(self, partition):
        before = self.partition
        super()._apply_repair(partition)
        if self.partition is not before:
            self.adopted.append(self.partition)


@pytest.fixture(scope="module")
def matrix():
    graph = load_layout("layout18")
    scenario = expand_scenario(load_scenario("scenario100"))
    config_data = load_config("config_default")
    runs = {}
    for method in METHODS:
        for seed in SEEDS:
            cfg = SimConfig.from_json(config_data, method, seed)
            sim = _RecordingSim(graph, scenario, cfg)
            t0 = time.perf_counter()
            events = sim.run()
            wall = time.perf_counter() - t0
            report = compute_metrics(events, method, cfg.n_robots, len(scenario))
            runs[(method, seed)] = SimpleNamespace(
                events=events, report=report, wall=wall, adopted=sim.adopted
            )
    return SimpleNamespace(graph=graph, scenario=scenario, config=config_data, runs=runs)


def test_criterion_01_travel_sigma_and_completion_trend(matrix):
    med = {
        method: {
            "sigma": statistics.median(
                matrix.runs[(method, s)].report.std_travel for s in SEEDS
            ),
            "time": statistics.median(
                matrix.runs[(method, s)].report.time_to_complete_minutes for s in SEEDS
            ),
        }
        for method in METHODS
    }
    for run in matrix.runs.values():
        assert run.report.completed == run.report.total_parts == 100
        assert run.wall < 60.0
    assert med["ddz"]["sigma"] < med["ga"]["sigma"]
    assert med["ddz"]["sigma"] < med["sa"]["sigma"]
    assert med["ddz"]["time"] > med["sa"]["time"]
    assert med["ddz"]["time"] > med["ga"]["time"]
    _ok(
        1,
        "median travel sigma ddz {:.0f} < ga {:.0f} and sa {:.0f}; median time "
        "ddz {:.0f} > sa {:.0f} and ga {:.0f}; all 15 runs under 60 s".format(
            med["ddz"]["sigma"], med["ga"]["sigma"], med["sa"]["sigma"],
            med["ddz"]["time"], med["sa"]["time"], med["ga"]["time"],
        ),
    )


def test_criterion_02_consensus_on_random_geometric_graphs():
    rng = random.Random(20)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 12)
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        graph = comm_graph(dict(enumerate(positions)), comm_range=45.0)
        # keep only connected instances
        seen, stack = {0}, [0]
        while stack:
            for b in graph[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) != n:
            continue
        checked += 1

        w = metropolis_weights(graph)
        assert all(allclose(row, col) for row, col in zip(w, zip(*w)))
        assert allclose([sum(row) for row in w], [1.0] * n)
        assert all(0 <= v <= 1 for row in w for v in row)

        loads = [rng.uniform(0, 60) for _ in range(n)]
        mean = sum(loads) / n
        result = run_consensus(
            loads, positions, comm_range=45.0, eps=1e-6, max_steps=500
        )
        assert result.converged and result.steps <= 500
        assert max(abs(v - mean) for v in result.values) < 1e-6

        values = loads
        for _ in range(20):
            values = mix(w, values)
            assert sum(values) / n == pytest.approx(mean, rel=1e-9)
    _ok(2, "100 random connected graphs converge to the mean within 500 steps")


def _random_tree_instance(rng):
    """A random workstation tree with hand-computable path distances."""
    n = rng.randint(3, 8)
    positions, used = {}, set()
    while len(positions) < n:
        xy = (rng.randint(0, 60), rng.randint(0, 60))
        if xy in used:
            continue
        used.add(xy)
        positions[len(positions) + 1] = xy
    parent = {1: None}
    for i in range(2, n + 1):
        parent[i] = rng.randint(1, i - 1)
    points = [CriticalPoint(f"P{i}", *positions[i], WS_ANCHOR) for i in positions]
    segments = [(f"P{parent[i]}", f"P{i}") for i in range(2, n + 1)]
    workstations = [Workstation(i, f"P{i}", 1.0) for i in positions]
    graph = FloorGraph(points, segments, workstations, adjacency_threshold=1000.0)

    def edge_len(i):
        (x1, y1), (x2, y2) = positions[i], positions[parent[i]]
        return abs(x1 - x2) + abs(y1 - y2)

    def tree_dist(i, j):
        depth = {}
        d, cur = 0.0, i
        while cur is not None:
            depth[cur] = d
            if parent[cur] is not None:
                d += edge_len(cur)
            cur = parent[cur]
        d, cur = 0.0, j
        while cur not in depth:
            d += edge_len(cur)
            cur = parent[cur]
        return d + depth[cur]

    return graph, n, tree_dist


def test_criterion_03_load_model_matches_literal_oracle():
    rng = random.Random(33)
    velocity, t_u, t_l = 150.0, 0.3, 0.2
    for _ in range(1000):
        graph, n, tree_dist = _random_tree_instance(rng)
        partition = ZonePartition(
            graph, (Zone(1, tuple(range(1, n + 1)), frozenset(graph.segments)),)
        )
        from dynzone.zoning import FlowMatrix

        flows = FlowMatrix()
        raw = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and rng.random() < 0.5:
                    c = float(rng.randint(0, 9))
                    flows.add(i, j, c)
                    raw[(i, j)] = c
        load = zone_load(
            partition, 1, flows, velocity, HandlingTimes(t_u, t_l)
        )
        # independent literal transcription of the load model
        total = sum(raw.values())
        expect = 0.0
        empty_trips = 0.0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                f_ij = raw.get((i, j), 0.0)
                if total > 0:
                    g_ij = (
                        sum(raw.get((k, i), 0.0) for k in range(1, n + 1))
                        * sum(raw.get((j, k), 0.0) for k in range(1, n + 1))
                        / total
                    )
                else:
                    g_ij = 0.0
                empty_trips += g_ij
                expect += (g_ij + f_ij) * tree_dist(i, j) / velocity
        expect += total * (t_u + t_l)
        assert load == pytest.approx(expect, rel=1e-9, abs=1e-12)
        if total > 0:
            assert empty_trips == pytest.approx(total, rel=1e-9)
    _ok(3, "1000 random tree instances match the literal load transcription at 1e-9")


def test_criterion_04_temperature_endpoints_and_monotonicity():
    rng = random.Random(4)
    for _ in range(100):
        t_f = rng.uniform(0.001, 2.0)
        t_i = t_f + rng.uniform(0.1, 500.0)
        m = rng.randint(1, 80)
        sched = AnnealingSchedule(t_initial=t_i, t_freeze=t_f, reductions=m)
        assert temperature(sched, 0) == t_i
        assert temperature(sched, m) == t_i * (t_f / t_i) ** 1.0
        assert temperature(sched, m) == pytest.approx(t_f, rel=1e-12)
        temps = [temperature(sched, k) for k in range(m + 1)]
        assert all(a > b for a, b in zip(temps, temps[1:]))
    _ok(4, "100 random schedules hit both endpoints exactly and cool monotonically")


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


SYMMETRIC_DELIVERIES = [(1, 2), (2, 1), (2, 3), (5, 4), (6, 5), (5, 6)]


def _symmetric_window(graph):
    window = PartHistoryWindow()
    for i, (src, dst) in enumerate(SYMMETRIC_DELIVERIES):
        window.add(i, src, dst, 0.0)
    return window


def _ddz_run(graph, partition, tasks, seed, k, episodes=0, iterations=0):
    positions = {1: (10.0, 0.0), 2: (60.0, 0.0), 3: (110.0, 0.0)}
    config = DdzConfig(episodes=episodes, iterations=iterations)
    schedule = AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=30, k=k)
    loads = fleet_loads(partition, tasks, velocity=100.0, handling=HANDLING)
    mean = sum(loads.values()) / len(loads)
    return ddz_optimize(
        partition, comm_graph(positions, 200.0), tasks, {z: mean for z in loads}, 1,
        config, schedule, random.Random(seed), 100.0, HANDLING,
    )


def test_criterion_05_annealing_sanity(dumbbell, three_zones):
    tasks = [PartTask(i, 1, 2, 2, 0.0) for i in range(8)] + [
        PartTask(100, 5, 6, 6, 0.0), PartTask(101, 2, 1, 1, 0.0)
    ]
    window = _symmetric_window(dumbbell)
    schedule = AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=30)

    # Best objective never rises, at normal temperature weighting.
    for seed in range(5):
        result = _ddz_run(dumbbell, three_zones, tasks, seed, k=1.0)
        adopts = [e["sigma"] for e in result.trace if e["kind"] == "episode-adopt"]
        assert adopts == sorted(adopts, reverse=True)
        sa = sa_optimize(
            dumbbell, window, 2, schedule, random.Random(seed), 100.0, HANDLING,
            iterations=80,
        )
        best = [obj for _, obj in sa.progress]
        assert best == sorted(best, reverse=True)

    # Hill-climbing limit: no strictly worsening move accepted.
    proposals = 0
    frozen = AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=30, k=1e-300)
    for seed in range(7):
        result = _ddz_run(
            dumbbell, three_zones, tasks, seed, k=1e-300, episodes=3, iterations=400
        )
        for e in result.trace:
            if e["kind"] != "proposal":
                continue
            proposals += 1
            if e["accepted"]:
                assert e["sigma_after"] <= e["sigma_before"] + 1e-12
        sa = sa_optimize(
            dumbbell, window, 2, frozen, random.Random(seed), 100.0, HANDLING,
            iterations=1200,
        )
        for e in sa.trace:
            proposals += 1
            if e["accepted"]:
                assert e["obj_after"] <= e["obj_before"] + 1e-12
    assert proposals >= 10_000
    _ok(5, f"best objective non-increasing; 0 worsening moves accepted over {proposals} k->0 proposals")


def test_criterion_06_toy_scale_optimality(dumbbell):
    window = _symmetric_window(dumbbell)
    # exhaustive enumeration of every connected 2-partition of the chain
    def chain_partition(split):
        left = tuple(range(1, split + 1))
        right = tuple(range(split + 1, 7))
        seg = lambda a, b: f"W{a}|W{b}"
        zones = (
            Zone(1, left, frozenset(seg(w, w + 1) for w in left[:-1])),
            Zone(2, right, frozenset(seg(w, w + 1) for w in right[:-1])),
        )
        return assign_transfer_stations(ZonePartition(dumbbell, zones))

    optimum = min(
        load_spread(chain_partition(s), window, 100.0, HANDLING)
        for s in range(1, 6)
    )
    schedule = AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=30)
    ga_cfg = GaConfig(population=16, generations=25, crossover=0.8, mutation=0.15, elitism=2)
    sa_hits = ga_hits = 0
    for seed in range(20):
        sa = sa_optimize(
            dumbbell, window, 2, schedule, random.Random(seed), 100.0, HANDLING,
            iterations=120,
        )
        sa_hits += sa.objective == pytest.approx(optimum, rel=1e-9)
        ga = ga_optimize(
            dumbbell, window, 2, ga_cfg, random.Random(seed), 100.0, HANDLING
        )
        ga_hits += ga.objective == pytest.approx(optimum, rel=1e-9)
    assert sa_hits >= 19, f"sa found the optimum in only {sa_hits}/20 runs"
    assert ga_hits >= 19, f"ga found the optimum in only {ga_hits}/20 runs"
    _ok(6, f"enumerated optimum found by sa in {sa_hits}/20 and ga in {ga_hits}/20 runs")


def test_criterion_07_every_adopted_partition_valid(matrix):
    adopted = 0
    for run in matrix.runs.values():
        for partition in run.adopted:
            assert validate_partition(partition) == []
            adopted += 1
    assert adopted >= len(matrix.runs)
    _ok(7, f"{adopted} adopted partitions across the matrix, zero violations")


def test_criterion_08_scheduler_orderings_and_no_starvation(dumbbell):
    rng = random.Random(8)
    now = 50.0
    tasks = [
        PartTask(i, rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6),
                 rng.uniform(0.0, now))
        for i in range(1, 31)
    ]
    position = dumbbell.anchor_of(1)

    # c_age = 0: ranking is ascending delivery distance.
    queue = RobotQueue(1, pending=list(tasks), c_age=0.0, c_dist=1.0)
    ranked, _ = score_and_rank(dumbbell, queue, position, 100.0, now)

    def jobdist(task):
        approach = dumbbell.shortest_path_points(
            position, {dumbbell.anchor_of(task.pickup)}
        ).distance
        return approach + dumbbell.distance(task.pickup, task.dropoff)

    dists = [jobdist(t) for t in ranked]
    assert dists == sorted(dists)

    # c_dist = 0: ranking is descending age (oldest release first).
    queue = RobotQueue(1, pending=list(tasks), c_age=1.0, c_dist=0.0)
    ranked, _ = score_and_rank(dumbbell, queue, position, 100.0, now)
    starts = [t.age_start for t in ranked]
    assert starts == sorted(starts)

    # Default weights: a 500-task randomized stream fully drains.
    queue = RobotQueue(1)
    clock, served = 0.0, 0
    backlog = [
        PartTask(i, rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6), 0.0)
        for i in range(1, 501)
    ]
    queue.pending.extend(backlog[:50])
    feed = 50
    while queue.pending or queue.selected or feed < 500:
        if feed < 500 and len(queue.pending) < 50:
            queue.pending.append(backlog[feed])
            feed += 1
        select_next(dumbbell, queue, position, 100.0, clock)
        if queue.selected is not None:
            queue.selected = None
            served += 1
        clock += 0.5
    assert served == 500
    _ok(8, "distance-only and age-only orderings hold; 500-task stream fully served")


def test_criterion_09_determinism_and_exact_replay(matrix):
    fresh_events, fresh_report = run_simulation(
        matrix.graph,
        matrix.scenario,
        SimConfig.from_json(matrix.config, "ddz", seed=1),
    )
    assert log_to_jsonl(fresh_events) == log_to_jsonl(matrix.runs[("ddz", 1)].events)
    assert fresh_report.to_json() == matrix.runs[("ddz", 1)].report.to_json()
    for (method, _), run in matrix.runs.items():
        replayed = compute_metrics(
            log_from_jsonl(log_to_jsonl(run.events)), method, 3, run.report.total_parts
        )
        assert replayed.to_json() == run.report.to_json()
    _ok(9, "byte-identical logs for identical seeds; replay reproduces every report exactly")


# First 16 hex digits of sha256(log_to_jsonl(events)) for the shipped seed-1
# runs. Speed-ups must leave every event log byte-identical.
SEED1_FINGERPRINTS = {
    "ddz": "62ae727634abab5d",
    "sa": "d3425ded5e6c124a",
    "ga": "ea37598c0c2b4279",
}


def test_seed1_event_log_fingerprints(matrix):
    for method, expect in SEED1_FINGERPRINTS.items():
        text = log_to_jsonl(matrix.runs[(method, 1)].events)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expect, method


def test_criterion_10_shared_transfer_station_fixture():
    graph = load_layout("fig2")
    partition = ZonePartition(
        graph,
        (
            Zone(1, (1, 4, 5), frozenset({"H|I", "I|N", "N|O", "N|S", "R|S"})),
            Zone(2, (2, 3, 6), frozenset({"A|F", "C|F"})),
        )
    )
    found = find_transfer_stations(partition, 1, 2, loads={1: 10.0, 2: 20.0})
    assert len(found) == 1
    ts = found[0]
    assert ts.ws == 2
    assert ts.station_zone == 2
    assert ts.path_zone == 1
    _ok(10, "two-zone fixture shares WS2 with the connecting path assigned to zone 1")

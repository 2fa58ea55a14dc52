from __future__ import annotations

import hashlib
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dynzone import simengine
from dynzone.datafiles import load_config, load_layout, load_scenario
from dynzone.ddz import ddz_optimize
from dynzone.errors import DeadlockDetected, LayoutError
from dynzone.scheduler import PartTask
from dynzone.simengine import (
    MetricsReport,
    SimConfig,
    Simulation,
    compute_metrics,
    expand_scenario,
    log_from_jsonl,
    log_to_jsonl,
)
from dynzone.zoning import HandlingTimes, Zone, ZonePartition
from tests.conftest import grid_layout, run_simulation


@pytest.fixture
def dumbbell():
    return load_layout("dumbbell")


@pytest.fixture
def desk():
    return load_layout("layout18")


def _config(**overrides):
    base = dict(
        velocity=100.0,
        handling=HandlingTimes(0.25, 0.25),
        n_robots=1,
        method="sa",
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


# ── Config and scenario parsing ──────────────────────────────────────


def test_config_validation():
    with pytest.raises(ValueError):
        _config(velocity=0.0)
    with pytest.raises(ValueError):
        _config(n_robots=0)
    with pytest.raises(ValueError):
        _config(method="magic")


@pytest.mark.parametrize("field", ["l_tol", "t_lt", "t_ac"])
def test_balance_timing_must_be_positive(field):
    with pytest.raises(ValueError):
        SimConfig(**{field: 0})
    with pytest.raises(ValueError):
        SimConfig(**{field: -1.0})


@pytest.mark.parametrize(
    "field, value",
    [
        ("consensus_eps", 0.0),
        ("consensus_eps", -1e-4),
        ("consensus_max_steps", -1),
        ("window_minutes", 0.0),
        ("time_cap", 0.0),
        ("time_cap", -1.0),
        ("sa_iterations", -1),
    ],
)
def test_config_rejects_values_that_would_fail_later(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(method="ddz", n_robots=3, **{field: value})


def test_config_accepts_zero_counts():
    cfg = SimConfig(consensus_max_steps=0, sa_iterations=0)
    assert (cfg.consensus_max_steps, cfg.sa_iterations) == (0, 0)


def test_config_from_shipped_json():
    cfg = SimConfig.from_json(load_config("config_default"), "ddz", seed=7)
    assert cfg.velocity == 200.0
    assert cfg.n_robots == 3
    assert cfg.method == "ddz" and cfg.seed == 7
    assert cfg.comm_range == 250.0


def _leaders(result):
    """The ddz episode leaders: one episode per participant by default."""
    return [e["leader"] for e in result.trace if e["kind"] == "episode-adopt"]


def test_comm_range_has_one_source(desk, monkeypatch):
    """A config built with comm_range=100 floods the repair start signal at
    100 ft both where the simulation starts a repair and inside ddz."""
    cfg = SimConfig(comm_range=100.0, method="ddz", n_robots=3)
    sim = Simulation(desk, [], cfg)
    # Robots 1 and 2 are 40 ft apart; robot 3 is 170-200 ft from both.
    for robot, ws in ((1, 1), (2, 2), (3, 16)):
        sim.robots[robot].point = desk.anchor_of(ws)
    flooded = []

    def spy(*args, **kwargs):
        result = ddz_optimize(*args, **kwargs)
        flooded.append(_leaders(result))
        return result

    monkeypatch.setattr(simengine, "ddz_optimize", spy)
    sim._start_repair(1)
    start = next(e for e in sim.events if e["kind"] == "ddz-start")
    assert start["participants"] == [1, 2]
    assert flooded == [[1, 2]]


def test_ddz_searches_only_the_robots_the_repair_paused(desk, monkeypatch):
    """A robot that drives into range after the start signal was sent is
    not paused, so it takes no part in the search."""
    cfg = SimConfig(comm_range=100.0, method="ddz", n_robots=3)
    sim = Simulation(desk, [], cfg)
    for robot, ws in ((1, 1), (2, 2), (3, 16)):
        sim.robots[robot].point = desk.anchor_of(ws)
    sim.robots[1].queue.selected = PartTask(1, 1, 2, 2, 0.0)
    searched = []

    def spy(*args, **kwargs):
        result = ddz_optimize(*args, **kwargs)
        searched.append((_leaders(result), sim.robots[3].paused))
        return result

    monkeypatch.setattr(simengine, "ddz_optimize", spy)
    sim._start_repair(1)  # robot 1 is busy, so only robot 2 pauses now
    assert searched == [] and sim.robots[2].paused
    sim.robots[3].point = desk.anchor_of(1)
    sim.robots[1].queue.selected = None
    sim._poke(1)  # robot 1 finishes its task and pauses; the search starts
    assert searched == [([1, 2], False)]
    assert not sim.robots[3].paused


def test_expand_scenario_quantities():
    parts = expand_scenario(load_scenario("scenario100"))
    assert len(parts) == 100
    assert sum(1 for t, _ in parts if t == "A") == 30
    assert sum(1 for t, _ in parts if t == "D") == 20
    assert parts[0][1] == (4, 2, 1, 3, 14)


def test_expand_scenario_rejects_bad_schema():
    with pytest.raises(LayoutError):
        expand_scenario({"schema_version": 99, "parts": []})
    with pytest.raises(LayoutError):
        expand_scenario(
            {"schema_version": 1, "parts": [{"type": "A", "route": [], "qty": 1}]}
        )


# ── Closed-form timelines ────────────────────────────────────────────


def test_empty_scenario_all_metrics_zero(dumbbell):
    events, report = run_simulation(dumbbell, [], _config())
    assert report.completed == 0
    assert report.time_to_complete_minutes == 0.0
    assert report.pct_time_in_balance == 0.0
    assert report.avg_travel == 0.0 and report.std_travel == 0.0


def test_single_part_closed_form(dumbbell):
    # Robot starts at WS1. Part processed 1 min at WS2, approach 20 ft,
    # load 0.25, carry 60 ft to WS4, unload 0.25, process 1 min.
    events, report = run_simulation(dumbbell, [("X", (2, 4))], _config())
    expect = 1.0 + 20 / 100 + 0.25 + 60 / 100 + 0.25 + 1.0
    assert report.completed == 1
    assert report.time_to_complete_minutes == pytest.approx(expect)
    assert report.travel_by_robot[1] == pytest.approx(80.0)
    kinds = [e["kind"] for e in events if e["kind"] != "consensus-round"]
    assert kinds == [
        "arrival",
        "processing-done",
        "pickup",
        "dropoff",
        "processing-done",
        "part-done",
    ]


def test_route_revisiting_same_station(dumbbell):
    # A route that comes back to its first station needs two deliveries.
    _, report = run_simulation(dumbbell, [("X", (2, 4, 2))], _config())
    assert report.completed == 1
    assert report.travel_by_robot[1] == pytest.approx(20 + 60 + 60)


def test_part_conservation(dumbbell):
    parts = [("X", (1, 4)), ("X", (2, 5)), ("X", (3, 6)), ("X", (6, 1))]
    events, report = run_simulation(dumbbell, parts, _config())
    assert report.completed == len(parts)
    assert sum(1 for e in events if e["kind"] == "part-done") == len(parts)
    assert sum(1 for e in events if e["kind"] == "arrival") == len(parts)


def test_throughput_curve_non_decreasing(dumbbell):
    parts = [("X", (1, 4)), ("X", (2, 5)), ("X", (3, 6))]
    _, report = run_simulation(dumbbell, parts, _config())
    counts = [n for _, n in report.throughput]
    assert counts == sorted(counts)
    assert counts[-1] == 3


def test_always_balanced_scenario_100_pct(dumbbell):
    _, report = run_simulation(
        dumbbell, [("X", (2, 4))], _config(l_tol=1e6)
    )
    assert report.pct_time_in_balance == pytest.approx(100.0)


# ── Determinism and replay ───────────────────────────────────────────


def _small_desk_run(desk, method, seed=3):
    scenario = [
        ("A", (4, 2, 1, 3, 14)),
        ("B", (5, 6, 7, 13, 17)),
        ("C", (11, 8, 9, 10, 18)),
        ("D", (14, 11, 13, 11, 8, 10, 14, 15)),
    ] * 3
    cfg = SimConfig.from_json(load_config("config_default"), method, seed=seed)
    return run_simulation(desk, scenario, cfg)


@pytest.mark.parametrize("method", ["sa", "ga", "ddz"])
def test_byte_identical_logs(desk, method):
    a, _ = _small_desk_run(desk, method)
    b, _ = _small_desk_run(desk, method)
    assert log_to_jsonl(a) == log_to_jsonl(b)


def test_replay_reproduces_metrics(desk):
    events, live = _small_desk_run(desk, "ddz")
    replayed = compute_metrics(
        log_from_jsonl(log_to_jsonl(events)), "ddz", 3, live.total_parts
    )
    assert replayed.to_json() == live.to_json()


def test_metrics_json_round_trip(dumbbell):
    _, report = run_simulation(dumbbell, [("X", (2, 4))], _config())
    assert MetricsReport.from_json(report.to_json()).to_json() == report.to_json()


# ── Imbalance, load share, and repair ────────────────────────────────


def _lopsided_run(desk, method, seed=1):
    # All work lands in one zone; the other robots starve until repair.
    scenario = [("H", (2, 3, 1, 7, 14, 6))] * 16
    cfg = SimConfig.from_json(load_config("config_default"), method, seed=seed)
    return run_simulation(desk, scenario, cfg)


def test_imbalance_triggers_repair(desk):
    events, report = _lopsided_run(desk, "sa")
    signals = [e for e in events if e["kind"] == "imbalance-signal"]
    assert signals
    cfg = SimConfig.from_json(load_config("config_default"), "sa", 1)
    # The violation must persist a full observation streak first.
    assert signals[0]["t"] >= cfg.t_ac + cfg.t_lt
    assert any(e["kind"] == "zone-repair-applied" for e in events)
    assert any(e["kind"] == "load-share" and e["active"] for e in events)
    assert report.completed == 16


def test_ddz_repair_pauses_then_applies(desk):
    events, report = _lopsided_run(desk, "ddz")
    kinds = [e["kind"] for e in events]
    assert "ddz-start" in kinds and "ddz-end" in kinds
    starts = [e["t"] for e in events if e["kind"] == "ddz-start"]
    ends = [e["t"] for e in events if e["kind"] == "ddz-end"]
    assert all(b > a for a, b in zip(starts, ends))
    assert report.completed == 16


def test_info_log_names_each_repair_and_leaves_the_event_log_unchanged(desk, caplog):
    """At INFO, the shipped seed-1 ddz run logs one record per repair start,
    end and rejection, with the event's time and payload, and its event log
    keeps its pinned fingerprint."""
    parts = expand_scenario(load_scenario("scenario100"))
    config = SimConfig.from_json(load_config("config_default"), "ddz", seed=1)
    with caplog.at_level(logging.INFO, logger="dynzone.simengine"):
        events = Simulation(desk, parts, config).run()
    text = log_to_jsonl(events)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "62ae727634abab5d"
    kinds = {"imbalance-signal", "ddz-start", "ddz-end", "zone-repair-applied", "repair-rejected"}
    expect = [
        (e["t"], e["kind"], {k: v for k, v in e.items() if k not in ("t", "kind")})
        for e in events
        if e["kind"] in kinds
    ]
    got = [
        (round(r.args[0], 9), r.args[1], r.args[2])
        for r in caplog.records
        if r.name == "dynzone.simengine"
    ]
    assert got == expect
    assert {kind for _, kind, _ in got} >= {"ddz-start", "ddz-end", "zone-repair-applied"}


def test_runs_with_repairs_do_not_import_logging():
    """Nothing configures logging in a program that never imports it, so a
    run there logs nothing and leaves the import to programs that do."""
    src = str(Path(simengine.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from dynzone.datafiles import load_config, load_layout\n"
        "from dynzone.simengine import SimConfig, Simulation\n"
        "config = SimConfig.from_json(load_config('config_default'), 'ddz', 1)\n"
        "events = Simulation(load_layout('layout18'), [('H', (2, 3, 1, 7, 14, 6))] * 16, config).run()\n"
        "print(sum(e['kind'] == 'zone-repair-applied' for e in events) > 0, 'logging' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["True", "False"]


def test_no_pickup_during_ddz_repair(desk):
    events, _ = _lopsided_run(desk, "ddz")
    window = None
    participants: set[int] = set()
    for e in events:
        if e["kind"] == "ddz-start":
            window = e["t"]
            participants = set(e["participants"])
        elif e["kind"] in ("zone-repair-applied", "repair-rejected"):
            window = None
        elif window is not None and e["kind"] == "pickup":
            assert e["robot"] not in participants


def test_balance_change_events_match_detector(desk):
    events, _ = _lopsided_run(desk, "sa")
    flips = [e for e in events if e["kind"] == "balance-change"]
    assert flips and flips[0]["balanced"] is False
    state = True
    for e in flips:
        assert e["balanced"] != state
        state = e["balanced"]


def test_rejected_repair_keeps_old_partition(dumbbell):
    sim = Simulation(dumbbell, [("X", (2, 4))], _config(n_robots=2))
    before = sim.partition
    broken = ZonePartition(
        dumbbell, (Zone(1, (1, 2, 3), frozenset()), Zone(2, (4, 5, 6), frozenset()))
    )
    sim._apply_repair(broken)
    assert sim.partition is before
    assert sim.events[-1]["kind"] == "repair-rejected"


def test_identity_repair_only_logs(dumbbell):
    sim = Simulation(dumbbell, [("X", (2, 4))], _config(n_robots=2))
    before = sim.partition
    pending_before = {r: list(q.queue.pending) for r, q in sim.robots.items()}
    sim._apply_repair(before)
    assert sim.partition == before
    assert sim.events[-1]["kind"] == "zone-repair-applied"
    assert {r: list(q.queue.pending) for r, q in sim.robots.items()} == pending_before


# ── Failure modes ────────────────────────────────────────────────────


def test_time_cap_stops_run(dumbbell):
    events, report = run_simulation(
        dumbbell, [("X", (2, 4))], _config(time_cap=0.5)
    )
    assert events[-1]["kind"] == "time-cap"
    assert report.completed == 0


def test_deadlock_detected(dumbbell, monkeypatch):
    sim = Simulation(dumbbell, [("X", (2, 4))], _config())
    monkeypatch.setattr(Simulation, "_on_arrival", lambda self, pid: None)
    monkeypatch.setattr(Simulation, "_on_consensus", lambda self: None)
    with pytest.raises(DeadlockDetected):
        sim.run()


def test_info_log_names_time_cap_and_deadlock_exits(dumbbell, monkeypatch, caplog):
    with caplog.at_level(logging.INFO, logger="dynzone.simengine"):
        run_simulation(dumbbell, [("X", (2, 4))], _config(time_cap=0.5))
        sim = Simulation(dumbbell, [("X", (2, 4))], _config())
        monkeypatch.setattr(Simulation, "_on_arrival", lambda self, pid: None)
        monkeypatch.setattr(Simulation, "_on_consensus", lambda self: None)
        with pytest.raises(DeadlockDetected):
            sim.run()
    assert [r.getMessage() for r in caplog.records] == [
        "t=0.500 time-cap {'completed': 0}",
        "t=2.000 deadlock with 1 parts in flight",
    ]


def test_invalid_initial_partition_rejected(dumbbell):
    broken = ZonePartition(dumbbell, (Zone(1, (1, 2), frozenset({"W1|W2"})),))
    with pytest.raises(LayoutError):
        Simulation(dumbbell, [], _config(), start=broken)


def test_initial_partition_of_another_graph_rejected(dumbbell):
    # An equal floor loaded twice is two graphs: a design valid on the copy
    # is still bound to the copy.
    copy = load_layout("dumbbell")
    start = Simulation(copy, [], _config(n_robots=2)).partition
    assert start.graph is copy
    with pytest.raises(LayoutError, match="another floor graph"):
        Simulation(dumbbell, [], _config(n_robots=2), start=start)
    rebound = ZonePartition(dumbbell, start.zones, start.transfer_stations, start.design_id)
    assert rebound == start
    assert Simulation(dumbbell, [], _config(n_robots=2), start=rebound).partition is rebound


# ── Dispatch on a generated floor ────────────────────────────────────


def _dispatch_grid():
    """A 6 x 5 aisle grid with 20 stations, five part routes, and four
    robots whose loads never trigger a repair."""
    rng = random.Random("dispatch-grid20")
    graph = grid_layout(rng, 6, 5, 20)
    scenario = {
        "schema_version": 1,
        "parts": [
            {"type": f"G{k}", "route": rng.sample(range(1, 21), rng.randint(4, 6)), "qty": 4}
            for k in range(1, 6)
        ],
        "release": "simultaneous",
    }
    config = dict(load_config("config_default"), n_robots=4, l_tol_minutes=1.0e6)
    return graph, expand_scenario(scenario), SimConfig.from_json(config, "ddz", 7)


def test_dispatch_log_on_generated_floor_is_pinned():
    """Dispatch alone (scoring, delivery plans, restricted legs, consensus
    rounds) reproduces a recorded event log byte for byte."""
    graph, parts, cfg = _dispatch_grid()
    events, report = run_simulation(graph, parts, cfg)
    assert report.completed == len(parts) == 20
    assert not any(e["kind"] == "imbalance-signal" for e in events)
    digest = hashlib.sha256(log_to_jsonl(events).encode()).hexdigest()
    assert digest[:16] == "9b8a1c0610f183ed"

from __future__ import annotations

import heapq
import json
import logging
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzone import baselines, floorgraph
from dynzone.baselines import (
    GaConfig,
    PartHistoryWindow,
    decode_genome,
    flow_from_history,
    ga_optimize,
    genome_of,
    initial_partition,
    load_share_dispatch,
    load_spread,
    sa_optimize,
)
from dynzone.datafiles import load_config, load_layout
from dynzone.ddz import AnnealingSchedule
from dynzone.errors import InfeasibleStart, OrphanPart
from dynzone.simengine import SimConfig, Simulation
from dynzone.zoning import (
    HandlingTimes,
    Zone,
    ZonePartition,
    assign_transfer_stations,
    partition_to_json,
    validate_partition,
)
from tests.conftest import grid_layout, tie_grid

HANDLING = HandlingTimes(0.25, 0.25)
V = 100.0


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


def _chain_partition(dumbbell, split):
    """Two zones over the six-station line, cut after workstation `split`."""
    left = tuple(range(1, split + 1))
    right = tuple(range(split + 1, 7))
    seg = lambda a, b: f"W{a}|W{b}"
    zones = (
        Zone(1, left, frozenset(seg(w, w + 1) for w in left[:-1])),
        Zone(2, right, frozenset(seg(w, w + 1) for w in right[:-1])),
    )
    return assign_transfer_stations(ZonePartition(dumbbell, zones))


SYMMETRIC_DELIVERIES = [(1, 2), (2, 1), (2, 3), (5, 4), (6, 5), (5, 6)]


def _symmetric_window(dumbbell):
    window = PartHistoryWindow()
    for i, (src, dst) in enumerate(SYMMETRIC_DELIVERIES):
        window.add(i, src, dst, 0.0)
    return window


def _enumerated_optimum(dumbbell, window):
    spreads = {
        split: load_spread(_chain_partition(dumbbell, split), window, V, HANDLING)
        for split in range(1, 6)
    }
    return min(spreads.values()), spreads


# ── Delivery history ─────────────────────────────────────────────────


def test_window_prunes_old_records():
    w = PartHistoryWindow(window_minutes=20.0)
    w.add(1, 1, 2, 5.0)
    w.add(2, 2, 3, 30.0)
    w.prune(now=40.0)
    assert [r[0] for r in w.records] == [2]


def test_empty_window_zero_flow(dumbbell, three_zones):
    flows = flow_from_history(PartHistoryWindow(), three_zones)
    assert all(f.total() == 0.0 for f in flows.values())


def test_single_delivery_counts_once(dumbbell, three_zones):
    w = PartHistoryWindow()
    w.add(1, 1, 2, 0.0)
    flows = flow_from_history(w, three_zones)
    assert flows[1].get(1, 2) == 1.0
    assert flows[2].total() == 0.0 and flows[3].total() == 0.0


def test_cross_zone_delivery_splits_at_transfer_stations(dumbbell, three_zones):
    w = PartHistoryWindow()
    w.add(1, 1, 5, 0.0)
    flows = flow_from_history(w, three_zones)
    ts12 = three_zones.transfer_stations_between(1, 2)[0].ws
    ts23 = three_zones.transfer_stations_between(2, 3)[0].ws
    assert flows[1].get(1, ts12) == 1.0
    assert flows[2].get(ts12, ts23) == 1.0
    assert flows[3].get(ts23, 5) == 1.0


def test_total_trips_equal_leg_count(dumbbell, three_zones):
    rng = random.Random(2)
    w = PartHistoryWindow()
    for i in range(30):
        src = rng.randint(1, 6)
        dst = rng.randint(1, 6)
        w.add(i, src, dst, float(i))
    flows = flow_from_history(w, three_zones)
    from dynzone.zoning import plan_delivery

    legs = sum(
        len(plan_delivery(three_zones, src, dst))
        for _, src, dst, _ in w.records
    )
    assert sum(f.total() for f in flows.values()) == legs


# ── Initial design ───────────────────────────────────────────────────


def test_initial_partition_single_zone(dumbbell):
    p = initial_partition(dumbbell, 1)
    assert p.zone(1).workstations == (1, 2, 3, 4, 5, 6)
    assert validate_partition(p) == []


def test_initial_partition_splits_dumbbell_evenly(dumbbell):
    p = initial_partition(dumbbell, 2)
    assert p.zone(1).workstations == (1, 2, 3)
    assert p.zone(2).workstations == (4, 5, 6)
    assert validate_partition(p) == []


def test_initial_partition_desk_layout_three_zones():
    graph = load_layout("layout18")
    p = initial_partition(graph, 3)
    assert validate_partition(p) == []
    covered = sorted(ws for z in p.zones for ws in z.workstations)
    assert covered == sorted(graph.workstations)


def test_initial_partition_searches_free_paths_once_per_source(monkeypatch):
    """The build settles one unrestricted tree per source it queries, and
    on this exact floor the trees answer most of its restricted growth
    queries: fewer of them search than there are trees."""
    graph = grid_layout(random.Random("seeds-48"), 9, 7, 48)
    assert graph._exact
    trees, restricted = [], []
    settle = graph._settle
    monkeypatch.setattr(
        graph,
        "_settle",
        lambda source, targets, allowed, wanted, *rest: (
            (trees if allowed is None else restricted).append((source, wanted))
        ) or settle(source, targets, allowed, wanted, *rest),
    )
    p = initial_partition(graph, 6)
    assert validate_partition(p) == []
    sources = [source for source, _ in trees]
    assert len(sources) == len(set(sources)) < len(graph.workstations)
    assert {wanted for _, wanted in trees} == {len(graph.points)}
    assert 0 < len(restricted) < len(trees)


def _unbounded_initial_partition(graph, nz):
    """The initial design as it was built before candidate searches took a
    bound: every candidate's search runs to its target, and the minimum
    (distance, workstation) wins."""
    ws_ids = sorted(graph.workstations)
    if nz < 1 or nz > len(ws_ids):
        raise InfeasibleStart("count")
    if nz == 1:
        zone = Zone(1, tuple(ws_ids), frozenset(graph.segments))
        return assign_transfer_stations(ZonePartition(graph, (zone,)))
    dist = {(u, v): graph.distance(u, v) for u in ws_ids for v in ws_ids if u < v}

    def d(u, v):
        return 0.0 if u == v else dist[(min(u, v), max(u, v))]

    seeds = [min(ws_ids, key=lambda u: (-max(d(u, v) for v in ws_ids), u))]
    while len(seeds) < nz:
        seeds.append(max(
            (w for w in ws_ids if w not in seeds),
            key=lambda w: (min(d(w, s) for s in seeds), -w),
        ))
    seeds.sort()
    unclaimed = set(ws_ids) - set(seeds)
    points = {z: {graph.anchor_of(s)} for z, s in enumerate(seeds, start=1)}
    members = {z: [s] for z, s in enumerate(seeds, start=1)}
    segments = {z: set() for z in members}
    while unclaimed:
        for z in sorted(members, key=lambda z: (len(members[z]), z)):
            others = set().union(*(segments[o] for o in segments if o != z))
            allowed = frozenset(set(graph.segments) - others)
            best = None
            for w in sorted(unclaimed):
                path = graph.shortest_path_points(graph.anchor_of(w), points[z], allowed)
                if path is not None and (best is None or (path.distance, w) < best[:2]):
                    best = (path.distance, w, path)
            if best is not None:
                _, w, path = best
                unclaimed.discard(w)
                members[z].append(w)
                segments[z].update(path.segments)
                points[z].update(path.points)
                break
        else:
            raise InfeasibleStart("stalled")
    zones = tuple(
        Zone(z, tuple(sorted(members[z])), frozenset(segments[z])) for z in sorted(members)
    )
    partition = assign_transfer_stations(ZonePartition(graph, zones))
    if validate_partition(partition):
        raise InfeasibleStart("invalid")
    return partition


def _design_or_infeasible(build, graph, nz):
    try:
        return partition_to_json(build(graph, nz))
    except InfeasibleStart:
        return InfeasibleStart


@st.composite
def _floors(draw):
    if draw(st.booleans()):
        return tie_grid(draw(st.integers(0, 10**6)))
    cols, rows = draw(st.integers(3, 8)), draw(st.integers(3, 6))
    stations = draw(st.integers(cols * rows // 3, min(cols * rows, 30)))
    return grid_layout(random.Random(draw(st.integers(0, 10**6))), cols, rows, stations)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph=_floors(), nz=st.integers(2, 6))
def test_bounded_growth_equals_the_unbounded_loop(graph, nz):
    expect = _design_or_infeasible(_unbounded_initial_partition, graph, nz)
    assert _design_or_infeasible(initial_partition, graph, nz) == expect


def test_initial_design_heap_pops_on_the_grid48_pool(monkeypatch):
    """The bound keeps the initial designs of the ten dispatch-grid48 pool
    floors under 200,000 heap pops (468,360 when every search ran to its
    target)."""
    from perfbench import workloads

    pops = []

    def heappop(heap):
        pops.append(None)
        return heapq.heappop(heap)

    monkeypatch.setattr(floorgraph, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
    for index in range(1, 11):
        inst = workloads.make_instance("dispatch-grid48", index)
        graph = floorgraph.FloorGraph.from_json(json.loads(inst.layout_text))
        assert validate_partition(initial_partition(graph, 6)) == []
    assert len(pops) <= 200_000


def test_ga_simulation_builds_the_initial_design_once(monkeypatch, caplog):
    """The GA seeds its population from the very design the simulation
    started from, built once."""
    graph = load_layout("layout18")
    seeded = []
    monkeypatch.setattr(baselines, "genome_of", lambda p: seeded.append(p) or genome_of(p))
    config = SimConfig.from_json(load_config("config_default"), "ga", seed=1)
    with caplog.at_level(logging.DEBUG, logger="dynzone.baselines"):
        sim = Simulation(graph, [("H", (2, 3, 1, 7, 14, 6))] * 16, config)
        start = sim.partition
        events = sim.run()
    assert any(e["kind"] == "zone-repair-applied" for e in events)
    assert seeded and all(p is start for p in seeded)
    builds = [r for r in caplog.records if r.getMessage().startswith("initial design")]
    assert len(builds) == 1


def test_initial_partition_infeasible_count(dumbbell):
    with pytest.raises(InfeasibleStart):
        initial_partition(dumbbell, 7)
    with pytest.raises(InfeasibleStart):
        initial_partition(dumbbell, 0)


# ── Simulated annealing ──────────────────────────────────────────────


SCHEDULE = AnnealingSchedule(t_initial=5.0, t_freeze=0.05, reductions=60, k=1.0)


def test_sa_single_zone_trivial(dumbbell):
    window = _symmetric_window(dumbbell)
    res = sa_optimize(dumbbell, window, 1, SCHEDULE, random.Random(0), V, HANDLING)
    assert res.objective == 0.0
    assert len(res.partition.zones) == 1


def test_sa_reaches_symmetric_optimum(dumbbell):
    window = _symmetric_window(dumbbell)
    optimum, _ = _enumerated_optimum(dumbbell, window)
    res = sa_optimize(
        dumbbell, window, 2, SCHEDULE, random.Random(7), V, HANDLING, iterations=120
    )
    assert res.objective == pytest.approx(optimum, abs=1e-6)
    assert validate_partition(res.partition) == []


def test_sa_progress_non_increasing(dumbbell):
    window = _symmetric_window(dumbbell)
    res = sa_optimize(
        dumbbell, window, 2, SCHEDULE, random.Random(3), V, HANDLING, iterations=80
    )
    values = [obj for _, obj in res.progress]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sa_deterministic(dumbbell):
    window = _symmetric_window(dumbbell)
    a = sa_optimize(dumbbell, window, 2, SCHEDULE, random.Random(5), V, HANDLING, 60)
    b = sa_optimize(dumbbell, window, 2, SCHEDULE, random.Random(5), V, HANDLING, 60)
    assert a.partition == b.partition
    assert a.objective == b.objective
    assert a.progress == b.progress


# ── Genetic algorithm ────────────────────────────────────────────────


def test_ga_single_zone_trivial(dumbbell):
    window = _symmetric_window(dumbbell)
    config = GaConfig(population=4, generations=3)
    res = ga_optimize(dumbbell, window, 1, config, random.Random(0), V, HANDLING)
    assert res.objective == 0.0


def test_ga_no_variation_returns_input_genome(dumbbell):
    window = _symmetric_window(dumbbell)
    genome = (1, 1, 1, 1, 2, 2)
    config = GaConfig(population=4, generations=5, crossover=1.0, mutation=0.0)
    res = ga_optimize(
        dumbbell,
        window,
        2,
        config,
        random.Random(0),
        V,
        HANDLING,
        initial_population=[genome] * 4,
    )
    assert genome_of(res.partition) == genome


def test_ga_matches_enumerated_optimum(dumbbell):
    window = _symmetric_window(dumbbell)
    optimum, _ = _enumerated_optimum(dumbbell, window)
    config = GaConfig(population=16, generations=25, mutation=0.2)
    res = ga_optimize(dumbbell, window, 2, config, random.Random(1), V, HANDLING)
    assert res.objective == pytest.approx(optimum, abs=1e-6)
    assert validate_partition(res.partition) == []


def test_ga_deterministic(dumbbell):
    window = _symmetric_window(dumbbell)
    config = GaConfig(population=8, generations=8)
    a = ga_optimize(dumbbell, window, 2, config, random.Random(9), V, HANDLING)
    b = ga_optimize(dumbbell, window, 2, config, random.Random(9), V, HANDLING)
    assert a.partition == b.partition and a.objective == b.objective


def test_decode_repairs_disconnected_genome(dumbbell):
    # Zone 1 split across both ends of the line must be stitched back together.
    p = decode_genome(dumbbell, (1, 2, 2, 2, 2, 1), 2)
    assert p is not None
    assert validate_partition(p) == []
    assert len(p.zones) == 2


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(mutation=1.5)
    with pytest.raises(ValueError):
        GaConfig(elitism=99)


# ── Load-sharing dispatch ────────────────────────────────────────────


def test_dispatch_same_station_empty(dumbbell, three_zones):
    assert load_share_dispatch(three_zones, 3, 3, balanced=True) == []


def test_dispatch_in_zone_direct_both_modes(dumbbell, three_zones):
    for balanced in (True, False):
        legs = load_share_dispatch(three_zones, 3, 4, balanced)
        assert legs == [(3, 4, 2)]


def test_dispatch_balanced_uses_transfer_station(dumbbell, three_zones):
    legs = load_share_dispatch(three_zones, 1, 5, balanced=True)
    assert len(legs) == 3
    ts12 = three_zones.transfer_stations_between(1, 2)[0].ws
    assert legs[0] == (1, ts12, 1)


def test_dispatch_imbalanced_goes_direct(dumbbell, three_zones):
    legs = load_share_dispatch(three_zones, 1, 5, balanced=False)
    assert legs == [(1, 5, 1)]


def test_dispatch_orphan_part(dumbbell):
    partial = ZonePartition(dumbbell, (Zone(1, (1, 2), frozenset({"W1|W2"})),))
    with pytest.raises(OrphanPart):
        load_share_dispatch(partial, 5, 1, balanced=False)

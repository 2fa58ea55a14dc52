from __future__ import annotations

import random

import pytest

from dynzone.errors import (
    NoFeasiblePath,
    NotATip,
    WouldDisconnect,
    WouldEmptyZone,
    ZeroVelocity,
    ZoneViolation,
)
from dynzone.floorgraph import WS_ANCHOR
from dynzone.zoning import (
    FlowMatrix,
    HandlingTimes,
    TransferStation,
    Zone,
    ZonePartition,
    assign_transfer_stations,
    find_transfer_stations,
    partition_from_json,
    partition_to_json,
    plan_delivery,
    remove_tip,
    shortest_feasible_path,
    tip_workstations,
    transfer_tip,
    validate_partition,
    zone_load,
)
from tests import reference_dijkstra
from tests.conftest import build_graph, left_to_right, tie_grid

NO_HANDLING = HandlingTimes(0.0, 0.0)


# ── Tips ─────────────────────────────────────────────────────────────


def test_single_workstation_zone_is_its_own_tip(twozone_graph):
    zone = Zone(1, (4,), frozenset())
    assert tip_workstations(twozone_graph, zone) == (4,)


def test_forked_zone_has_three_tips(twozone_graph, twozone_partition):
    assert tip_workstations(twozone_graph, twozone_partition.zone(1)) == (1, 4, 5)


def test_midchain_workstation_is_not_a_tip(twozone_graph, twozone_partition):
    # WS6 sits mid-chain with two incident segments.
    assert tip_workstations(twozone_graph, twozone_partition.zone(2)) == (2, 3)


def test_tip_removal_collapses_branch(twozone_graph, twozone_partition):
    shrunk = remove_tip(twozone_graph, twozone_partition.zone(1), 4)
    assert shrunk.workstations == (1, 5)
    assert shrunk.segments == frozenset({"H|I", "I|N", "N|S", "R|S"})


# ── Tip transfers ────────────────────────────────────────────────────


def test_transfer_tip_roundtrip(twozone_graph, twozone_partition):
    moved = transfer_tip(twozone_partition, 1, 2, 1)
    assert moved.zone(1).workstations == (4, 5)
    assert 1 in moved.zone(2).workstations
    back = transfer_tip(moved, 2, 1, 1)
    for zid in (1, 2):
        assert back.zone(zid).workstations == twozone_partition.zone(zid).workstations


def test_transfer_tip_rejects_non_tip(twozone_graph, twozone_partition):
    with pytest.raises(NotATip):
        transfer_tip(twozone_partition, 2, 1, 6)


def test_transfer_tip_rejects_unconnectable(twozone_graph, twozone_partition):
    # WS4's only way out runs through zone 1's remaining primary segments.
    with pytest.raises(WouldDisconnect):
        transfer_tip(twozone_partition, 1, 2, 4)


def test_transfer_tip_refuses_to_empty_zone(twozone_graph):
    partition = ZonePartition(
        twozone_graph,
        (
            Zone(1, (1,), frozenset({"H|I"})),
            Zone(2, (2, 3, 4, 5, 6), frozenset({"A|F", "C|F", "C|D", "D|I", "I|N", "N|O", "N|S", "R|S"})),
        )
    )
    with pytest.raises(WouldEmptyZone):
        transfer_tip(partition, 1, 2, 1)


def test_transfer_preserves_ws_count_and_disjoint_segments(twozone_graph, twozone_partition):
    rng = random.Random(7)
    partition = twozone_partition
    total_ws = sum(len(z.workstations) for z in partition.zones)
    for _ in range(30):
        frm, to = rng.sample([1, 2], 2)
        tips = tip_workstations(twozone_graph, partition.zone(frm))
        ws = rng.choice(tips)
        try:
            partition = transfer_tip(partition, frm, to, ws)
        except (NotATip, WouldDisconnect, WouldEmptyZone):
            continue
        assert sum(len(z.workstations) for z in partition.zones) == total_ws
        assert not (partition.zone(1).segments & partition.zone(2).segments)
        # Structural zone checks must keep passing after every move.
        partition_full = assign_transfer_stations(partition)
        violations = validate_partition(partition_full)
        assert violations == []


# ── Transfer stations ────────────────────────────────────────────────


def test_fig2_transfer_station(twozone_graph, twozone_partition):
    found = find_transfer_stations(
        twozone_partition, 1, 2, loads={1: 10.0, 2: 20.0}
    )
    assert len(found) == 1
    ts = found[0]
    assert ts.ws == 2
    assert ts.station_zone == 2
    assert ts.path_zone == 1
    assert ts.path == ("H|I", "D|I", "C|D")  # the H-I-D-C corridor


def test_transfer_stations_symmetric_in_argument_order(twozone_graph, twozone_partition):
    loads = {1: 10.0, 2: 20.0}
    ab = find_transfer_stations(twozone_partition, 1, 2, loads)
    ba = find_transfer_stations(twozone_partition, 2, 1, loads)
    assert ab == ba


def test_transfer_station_load_tie_goes_to_lower_zone_id(twozone_graph, twozone_partition):
    found = find_transfer_stations(
        twozone_partition, 1, 2, loads={1: 5.0, 2: 5.0}
    )
    assert len(found) == 1
    assert found[0].station_zone == 1
    assert found[0].ws == 1
    assert found[0].path_zone == 2


def test_no_adjacent_tips_yields_empty_set():
    # Two chain zones far apart; tips exist but nothing is adjacent at 10 ft.
    g = build_graph(
        points=[
            ("A", 0, 0, WS_ANCHOR),
            ("B", 20, 0, WS_ANCHOR),
            ("C", 100, 0, WS_ANCHOR),
            ("D", 120, 0, WS_ANCHOR),
        ],
        segments=[("A", "B"), ("B", "C"), ("C", "D")],
        workstations=[(1, "A", 0.0), (2, "B", 0.0), (3, "C", 0.0), (4, "D", 0.0)],
        threshold=10,
    )
    partition = ZonePartition(
        g, (Zone(1, (1, 2), frozenset({"A|B"})), Zone(2, (3, 4), frozenset({"C|D"})))
    )
    assert find_transfer_stations(partition, 1, 2, {1: 0.0, 2: 0.0}) == ()


# ── Shortest feasible path ───────────────────────────────────────────


def test_feasible_path_vacuous_for_whole_graph_zone(twozone_graph):
    partition = ZonePartition(
        twozone_graph,
        (Zone(1, tuple(sorted(twozone_graph.workstations)), frozenset(twozone_graph.segments)),)
    )
    for a, b in [(1, 2), (3, 5), (4, 6)]:
        feasible = shortest_feasible_path(partition, a, b)
        assert feasible.distance == twozone_graph.distance(a, b)


def test_feasible_path_never_shorter_than_unrestricted(twozone_graph, twozone_partition):
    p = shortest_feasible_path(twozone_partition, 2, 1)
    assert p.distance >= twozone_graph.distance(2, 1)


def test_feasible_path_matches_enumeration_on_grid():
    # 3x3 junction grid with four corner workstations, random 2-zone split;
    # compare against brute-force enumeration of simple paths.
    g = build_graph(
        points=[
            ("J00", 0, 0, WS_ANCHOR),
            ("J10", 10, 0, WS_ANCHOR),
            ("J20", 20, 0, WS_ANCHOR),
            ("J01", 0, 10, WS_ANCHOR),
            ("J11", 10, 10, WS_ANCHOR),
            ("J21", 20, 10, WS_ANCHOR),
        ],
        segments=[
            ("J00", "J10"), ("J10", "J20"),
            ("J01", "J11"), ("J11", "J21"),
            ("J00", "J01"), ("J10", "J11"), ("J20", "J21"),
        ],
        workstations=[(i + 1, p, 0.0) for i, p in enumerate(["J00", "J10", "J20", "J01", "J11", "J21"])],
        threshold=15,
    )
    partition = ZonePartition(
        g,
        (
            Zone(1, (1, 2, 4), frozenset({"J00|J10", "J00|J01"})),
            Zone(2, (3, 5, 6), frozenset({"J11|J21", "J20|J21"})),
        )
    )
    allowed = (
        partition.zone(1).segments
        | partition.zone(2).segments
        | partition.unassigned_segments()
    )

    adj = reference_dijkstra.adjacency(g)

    def enumerate_paths(src, dst):
        best = None
        stack = [(src, 0.0, {src})]
        while stack:
            cur, d, seen = stack.pop()
            if cur == dst:
                best = d if best is None else min(best, d)
                continue
            for nbr, sid, length in adj[cur]:
                if sid in allowed and nbr not in seen:
                    stack.append((nbr, d + length, seen | {nbr}))
        return best

    for src, dst in [(1, 6), (2, 5), (4, 3)]:
        expect = enumerate_paths(g.anchor_of(src), g.anchor_of(dst))
        got = shortest_feasible_path(partition, src, dst)
        assert got.distance == pytest.approx(expect)


# ── Zone load ────────────────────────────────────────────────────────


@pytest.fixture
def pair_zone():
    g = build_graph(
        points=[("P", 0, 0, WS_ANCHOR), ("Q", 100, 0, WS_ANCHOR)],
        segments=[("P", "Q")],
        workstations=[(1, "P", 1.0), (2, "Q", 1.0)],
        threshold=200,
    )
    partition = ZonePartition(g, (Zone(1, (1, 2), frozenset({"P|Q"})),))
    return g, partition


def test_zero_flow_zero_load(pair_zone):
    g, partition = pair_zone
    assert zone_load(partition, 1, FlowMatrix(), 100.0, HandlingTimes(0.5, 0.5)) == 0.0


def test_hand_computed_two_station_load(pair_zone):
    g, partition = pair_zone
    flows = FlowMatrix({(1, 2): 3.0})
    # 3 loaded trips 1->2 and 3 expected empty trips 2->1, one minute each.
    assert zone_load(partition, 1, flows, 100.0, NO_HANDLING) == pytest.approx(6.0)
    assert zone_load(partition, 1, flows, 100.0, HandlingTimes(0.5, 0.5)) == pytest.approx(9.0)


def test_zero_velocity_rejected(pair_zone):
    g, partition = pair_zone
    with pytest.raises(ZeroVelocity):
        zone_load(partition, 1, FlowMatrix(), 0.0, NO_HANDLING)


def _literal_load(dist, flows, stations, velocity, t_u, t_l):
    """Straight transcription of the load formulas, kept separate from the
    library code path on purpose."""
    total = sum(flows.get((m, n), 0.0) for m in stations for n in stations)
    load = 0.0
    empty_trips = 0.0
    for i in stations:
        for j in stations:
            f_ij = flows.get((i, j), 0.0)
            if total > 0:
                g_ij = (
                    sum(flows.get((k, i), 0.0) for k in stations)
                    * sum(flows.get((j, k), 0.0) for k in stations)
                    / total
                )
            else:
                g_ij = 0.0
            empty_trips += g_ij
            load += (g_ij * dist[(i, j)] + f_ij * dist[(i, j)]) / velocity
    load += total * (t_u + t_l)
    if total > 0:
        assert empty_trips == pytest.approx(total, rel=1e-9)
    return load


def _station_matrix(graph, partition, zone_id):
    """Distances between every ordered pair of the zone's stations, in
    station order, read from the kept station rows."""
    stations = partition.stations_of_zone(zone_id)
    return {
        (i, j): partition.station_row(zone_id, i)[j] for i in stations for j in stations
    }


def test_load_matches_literal_formula_oracle():
    g = build_graph(
        points=[
            ("P", 0, 0, WS_ANCHOR),
            ("Q", 50, 0, WS_ANCHOR),
            ("U", 90, 0, WS_ANCHOR),
            ("V", 90, 30, WS_ANCHOR),
        ],
        segments=[("P", "Q"), ("Q", "U"), ("U", "V")],
        workstations=[(1, "P", 1.0), (2, "Q", 1.0), (3, "U", 1.0), (4, "V", 1.0)],
        threshold=200,
    )
    partition = ZonePartition(g, (Zone(1, (1, 2, 3, 4), frozenset(g.segments)),))
    stations = (1, 2, 3, 4)
    rng = random.Random(42)
    for _ in range(50):
        flows = FlowMatrix()
        raw = {}
        for i in stations:
            for j in stations:
                if i != j and rng.random() < 0.6:
                    c = float(rng.randint(0, 8))
                    flows.add(i, j, c)
                    raw[(i, j)] = raw.get((i, j), 0.0) + c
        load = zone_load(partition, 1, flows, 120.0, HandlingTimes(0.3, 0.2))
        dist = _station_matrix(g, partition, 1)
        assert load == pytest.approx(_literal_load(dist, raw, stations, 120.0, 0.3, 0.2), rel=1e-9)


def test_load_monotone_in_flows(pair_zone):
    g, partition = pair_zone
    rng = random.Random(3)
    flows = FlowMatrix()
    prev = 0.0
    for _ in range(20):
        i, j = rng.sample([1, 2], 2)
        flows.add(i, j, 1.0)
        load = zone_load(partition, 1, flows, 100.0, HandlingTimes(0.1, 0.1))
        assert load >= prev - 1e-9
        prev = load


def test_load_requires_connected_stations(twozone_graph, twozone_partition):
    # Stations of zone 1 with a foreign transfer-station entry the zone
    # cannot reach: rebuild a partition whose ts path was dropped.
    from dynzone.zoning import TransferStation

    broken = ZonePartition(
        twozone_graph,
        twozone_partition.zones,
        (TransferStation(3, (), 2, 1),),  # WS3 claimed reachable by zone 1 with no path
    )
    flows = FlowMatrix({(1, 4): 1.0})
    with pytest.raises(NoFeasiblePath):
        zone_load(broken, 1, flows, 100.0, NO_HANDLING)


# ── Validation ───────────────────────────────────────────────────────


def test_whole_graph_single_zone_is_valid(twozone_graph):
    partition = ZonePartition(
        twozone_graph,
        (Zone(1, tuple(sorted(twozone_graph.workstations)), frozenset(twozone_graph.segments)),)
    )
    assert validate_partition(partition) == []


def test_duplicate_membership_violation(twozone_graph, twozone_partition):
    z1 = twozone_partition.zone(1)
    z2 = twozone_partition.zone(2)
    dup = ZonePartition(twozone_graph, (z1, Zone(2, z2.workstations + (1,), z2.segments)))
    violations = validate_partition(dup)
    assert any("WS1" in v and "zones" in v for v in violations)


def test_crossing_connecting_path_violation(twozone_graph):
    from dynzone.zoning import TransferStation

    # Three zones; a connecting path between zones 1 and 3 runs through
    # zone 2's primary segment C|D.
    partition = ZonePartition(
        twozone_graph,
        (
            Zone(1, (1, 4, 5), frozenset({"H|I", "I|N", "N|O", "N|S", "R|S"})),
            Zone(2, (2,), frozenset({"C|D"})),
            Zone(3, (3, 6), frozenset({"A|F"})),
        ),
        (
            TransferStation(1, ("C|D", "D|I", "H|I"), 1, 3),
            TransferStation(2, ("D|I",), 2, 1),
            TransferStation(2, ("C|F",), 2, 3),
        ),
    )
    violations = validate_partition(partition)
    assert any("crosses zone 2" in v for v in violations)


def test_transfer_station_path_must_reach_its_path_zone(twozone_graph, twozone_partition):
    # Zone 1 cannot reach WS3 of zone 2: no path joins A to zone 1.
    unreached = ZonePartition(
        twozone_graph, twozone_partition.zones, (TransferStation(3, (), 2, 1),)
    )
    with pytest.raises(NoFeasiblePath):
        _station_matrix(twozone_graph, unreached, 1)
    assert validate_partition(unreached) == [
        "connecting path of transfer station WS3 does not reach zone 1"
    ]
    full = assign_transfer_stations(twozone_partition, loads={1: 20.0, 2: 10.0})
    (ts,) = full.transfer_stations
    assert (ts.ws, ts.path_zone) == (1, 2) and validate_partition(full) == []
    # Listed from the other end, the path still joins; one segment short of
    # zone 2, or cut off from the station, it does not.
    reverse = ZonePartition(twozone_graph, full.zones, (TransferStation(1, ts.path[::-1], 1, 2),))
    assert validate_partition(reverse) == []
    for path in (ts.path[:-1], ts.path[1:]):
        cut = ZonePartition(twozone_graph, full.zones, (TransferStation(1, path, 1, 2),))
        assert validate_partition(cut) == [
            "connecting path of transfer station WS1 does not reach zone 2"
        ]


def test_valid_two_zone_partition(twozone_graph, twozone_partition):
    full = assign_transfer_stations(
        twozone_partition, loads={1: 10.0, 2: 20.0}
    )
    assert validate_partition(full) == []


# ── Delivery planning ────────────────────────────────────────────────


def test_plan_within_zone(twozone_graph, twozone_partition):
    assert plan_delivery(twozone_partition, 4, 5) == [(4, 5, 1)]
    assert plan_delivery(twozone_partition, 4, 4) == []


def test_plan_across_zones_goes_through_transfer_station(twozone_graph, twozone_partition):
    full = assign_transfer_stations(
        twozone_partition, loads={1: 10.0, 2: 20.0}
    )
    legs = plan_delivery(full, 4, 3)
    assert legs == [(4, 2, 1), (2, 3, 2)]  # hand off at WS2
    # Starting from the transfer station itself: single remaining leg.
    assert plan_delivery(full, 2, 3) == [(2, 3, 2)]


def _uncached_plan(partition, src, dst):
    """plan_delivery as it was before plans were kept on the partition."""
    if src == dst:
        return []
    zs = partition.zone_of_ws(src)
    zd = partition.zone_of_ws(dst)
    if zs is None or zd is None:
        raise ZoneViolation(f"WS{src if zs is None else dst} belongs to no zone")
    if zs == zd:
        return [(src, dst, zs)]
    prev = {zs: zs}
    frontier = [zs]
    while frontier and zd not in prev:
        nxt = []
        for cur in frontier:
            for nbr in partition.neighbor_zones(cur):
                if nbr not in prev:
                    prev[nbr] = cur
                    nxt.append(nbr)
        frontier = nxt
    if zd not in prev:
        raise NoFeasiblePath(f"zones {zs} and {zd} share no transfer-station route")
    chain = [zd]
    while chain[-1] != zs:
        chain.append(prev[chain[-1]])
    chain.reverse()
    legs = []
    cur_ws = src
    for a, b in zip(chain, chain[1:]):
        ts = min(partition.transfer_stations_between(a, b), key=lambda t: t.ws)
        if cur_ws != ts.ws:
            legs.append((cur_ws, ts.ws, a))
        cur_ws = ts.ws
    if cur_ws != dst:
        legs.append((cur_ws, dst, zd))
    return legs


def _uncached_leg(graph, partition, src, dst):
    """shortest_feasible_path as it was before legs were kept on the partition."""
    zs = partition.zone_of_ws(src)
    zd = partition.zone_of_ws(dst)
    if zs is None or zd is None:
        raise ZoneViolation(f"WS{src if zs is None else dst} belongs to no zone")
    allowed = frozenset(
        set(partition.zone(zs).segments)
        | set(partition.zone(zd).segments)
        | set(partition.unassigned_segments())
    )
    return graph.shortest_path(src, dst, allowed)


def _answer(query, *args):
    try:
        return query(*args)
    except (ZoneViolation, NoFeasiblePath) as exc:
        return type(exc)


@pytest.mark.parametrize("design", ["layout18", "twozone", "twozone-assigned"])
def test_kept_plans_and_legs_equal_uncached_answers(design, twozone_graph, twozone_partition):
    from dynzone.baselines import initial_partition
    from dynzone.datafiles import load_layout

    if design == "layout18":
        graph = load_layout("layout18")
        partition = initial_partition(graph, 3)
    else:
        graph, partition = twozone_graph, twozone_partition
        if design == "twozone-assigned":
            partition = assign_transfer_stations(partition, {1: 10.0, 2: 20.0})
    stations = sorted(graph.workstations) + [99]  # WS99 is in no zone
    pairs = [(a, b) for a in stations for b in stations]
    expect = {
        (a, b): (_answer(_uncached_plan, partition, a, b),
                 _answer(_uncached_leg, graph, partition, a, b))
        for a, b in pairs
    }
    design_copy = ZonePartition(
        graph, partition.zones, partition.transfer_stations, partition.design_id
    )
    for _ in range(2):  # the second pass reads the kept answers
        for a, b in pairs:
            got = (_answer(plan_delivery, design_copy, a, b),
                   _answer(shortest_feasible_path, design_copy, a, b))
            assert got == expect[(a, b)]
    errors = {answer for both in expect.values() for answer in both if isinstance(answer, type)}
    assert errors == ({ZoneViolation, NoFeasiblePath} if design == "twozone" else {ZoneViolation})


def test_kept_plan_is_copied_to_each_caller(twozone_graph, twozone_partition):
    full = assign_transfer_stations(twozone_partition, {1: 10.0, 2: 20.0})
    legs = plan_delivery(full, 4, 3)
    legs.append((0, 0, 0))
    legs[0] = None
    assert plan_delivery(full, 4, 3) == [(4, 2, 1), (2, 3, 2)]


def test_kept_legs_search_once_and_errors_search_every_call(monkeypatch, line_graph):
    # WS1 and WS3 sit in zones that own no segment; zone 3 owns the whole aisle.
    partition = ZonePartition(
        line_graph,
        (Zone(1, (1,), frozenset()), Zone(2, (3,), frozenset()),
         Zone(3, (2,), frozenset(line_graph.segments)))
    )
    searches = []
    search = line_graph.shortest_path
    monkeypatch.setattr(
        line_graph, "shortest_path", lambda *args: searches.append(args[:2]) or search(*args)
    )
    for _ in range(2):
        with pytest.raises(NoFeasiblePath):
            shortest_feasible_path(partition, 1, 3)
        with pytest.raises(ZoneViolation):
            shortest_feasible_path(partition, 1, 99)
        with pytest.raises(ZoneViolation):
            plan_delivery(partition, 99, 1)
        with pytest.raises(NoFeasiblePath):
            plan_delivery(partition, 1, 3)  # no transfer stations
        assert shortest_feasible_path(partition, 1, 2).distance == 10.0
    assert searches == [(1, 3), (1, 2), (1, 3)]


# ── Serialization ────────────────────────────────────────────────────


def test_partition_roundtrip(twozone_graph, twozone_partition):
    full = assign_transfer_stations(
        twozone_partition, loads={1: 10.0, 2: 20.0}
    )
    data = partition_to_json(full)
    again = partition_from_json(twozone_graph, data)
    assert again == full
    assert partition_to_json(again) == data


# ── Cached partition lookups ─────────────────────────────────────────


def _scanned_lookups(graph, p):
    """Every partition lookup by linear scan over the partition's fields."""
    ids = sorted({z.id for z in p.zones})

    def zone(zid):
        return next(z for z in p.zones if z.id == zid)

    assigned = frozenset().union(*(z.segments for z in p.zones))
    unassigned = frozenset(graph.segments) - assigned
    out = {
        "zone_of_ws": {
            ws: next((z.id for z in p.zones if ws in z.workstations), None)
            for ws in list(graph.workstations) + [999]
        },
        "unassigned": unassigned,
    }
    for zid in ids + [999]:
        nbrs = set()
        for ts in p.transfer_stations:
            if zid in ts.zones():
                nbrs.add(ts.station_zone if ts.path_zone == zid else ts.path_zone)
        out[("neighbors", zid)] = tuple(sorted(nbrs))
        for other in ids + [999]:
            out[("between", zid, other)] = tuple(
                ts for ts in p.transfer_stations if {ts.station_zone, ts.path_zone} == {zid, other}
            )
    for zid in ids:
        z = zone(zid)
        extra = {ts.ws for ts in p.transfer_stations if ts.path_zone == zid} - set(z.workstations)
        stations = tuple(z.workstations) + tuple(sorted(extra))
        allowed = set(z.segments) | unassigned
        for ts in p.transfer_stations:
            if ts.path_zone == zid:
                allowed.update(ts.path)
        out[("zone", zid)] = z
        degree = {}
        for sid in z.segments:
            for end in (graph.segments[sid].a, graph.segments[sid].b):
                degree[end] = degree.get(end, 0) + 1
        out[("tips", zid)] = (
            z.workstations
            if len(z.workstations) == 1
            else tuple(w for w in sorted(z.workstations) if degree.get(graph.anchor_of(w), 0) <= 1)
        )
        out[("stations", zid)] = stations
        out[("allowed", zid)] = frozenset(allowed)
        matrix = {}
        for i in stations:
            reached = reference_dijkstra.distances_from(
                graph, graph.anchor_of(i), {graph.anchor_of(j) for j in stations}, allowed
            )
            for j in stations:
                matrix[(i, j)] = reached.get(graph.anchor_of(j))
        out[("distances", zid)] = matrix
    return ids, out


def _cached_lookups(graph, p, ids):
    out = {
        "zone_of_ws": {ws: p.zone_of_ws(ws) for ws in list(graph.workstations) + [999]},
        "unassigned": p.unassigned_segments(),
    }
    for zid in ids + [999]:
        out[("neighbors", zid)] = p.neighbor_zones(zid)
        for other in ids + [999]:
            out[("between", zid, other)] = p.transfer_stations_between(zid, other)
    for zid in ids:
        out[("zone", zid)] = p.zone(zid)
        out[("tips", zid)] = tip_workstations(graph, p.zone(zid))
        out[("stations", zid)] = p.stations_of_zone(zid)
        out[("allowed", zid)] = p.allowed_segments(zid)
        try:
            out[("distances", zid)] = _station_matrix(graph, p, zid)
        except NoFeasiblePath:
            out[("distances", zid)] = None
    return out


def test_cached_partition_lookups_equal_linear_scans():
    from dynzone.baselines import initial_partition
    from dynzone.datafiles import load_layout

    graph = load_layout("layout18")
    rng = random.Random(3)
    seen = 0
    for nz in (2, 3, 4):
        p = initial_partition(graph, nz)
        for _ in range(25):
            ids, expect = _scanned_lookups(graph, p)
            for zid in ids:
                if None in expect[("distances", zid)].values():
                    expect[("distances", zid)] = None
            twin = ZonePartition(graph, p.zones, p.transfer_stations, p.design_id)
            for _ in range(2):  # the second pass reads the cached values
                assert _cached_lookups(graph, p, ids) == expect
            with pytest.raises(KeyError):
                p.zone(999)
            with pytest.raises(KeyError):
                p.stations_of_zone(999)
            # The caches are no part of the value.
            assert p == twin and hash(p) == hash(twin)
            assert partition_to_json(p) == partition_to_json(twin)
            seen += 1
            giver, receiver = rng.sample(ids, 2)
            tips = tip_workstations(graph, p.zone(giver))
            try:
                moved = transfer_tip(p, giver, receiver, rng.choice(tips))
            except (NotATip, WouldDisconnect, WouldEmptyZone):
                continue
            p = assign_transfer_stations(moved, {z: rng.random() for z in ids})
    assert seen == 75


# ── Loads read only the rows they use; one search per source tip ─────


def _full_matrix_load(graph, partition, zone_id, flows, velocity, handling):
    """The load summed over every ordered pair of the full station matrix,
    zero terms included."""
    stations = partition.stations_of_zone(zone_id)
    d = _station_matrix(graph, partition, zone_id)
    inflows = {i: [] for i in stations}
    outflows = {i: [] for i in stations}
    for (src, dst), c in flows.items():
        if dst in inflows:
            inflows[dst].append(c)
        if src in outflows:
            outflows[src].append(c)
    inflow = {i: left_to_right(cs) for i, cs in inflows.items()}
    outflow = {i: left_to_right(cs) for i, cs in outflows.items()}
    total = flows.total()
    pairs = list(d)
    if total > 0:
        g = {(i, j): inflow[i] * outflow[j] / total for i, j in pairs}
    else:
        g = dict.fromkeys(pairs, 0.0)
    da = {ij: g[ij] * d[ij] for ij in pairs}
    db = {(i, j): flows.get(i, j) * d[(i, j)] for i, j in pairs}
    return (left_to_right(da.values()) + left_to_right(db.values())) / velocity + total * handling.total


def _designs(graph):
    """A whole-floor zone, then every initial design the floor admits."""
    from dynzone.baselines import initial_partition
    from dynzone.errors import InfeasibleStart

    yield ZonePartition(
        graph, (Zone(1, tuple(sorted(graph.workstations)), frozenset(graph.segments)),)
    )
    for nz in (2, 3):
        try:
            yield initial_partition(graph, nz)
        except InfeasibleStart:
            pass


def test_sparse_load_equals_full_matrix_sum_exactly():
    rng = random.Random(11)
    checked = 0
    for seed in range(40):
        graph = tie_grid(seed)
        ws_ids = sorted(graph.workstations)
        for design in _designs(graph):
            for z in design.zones:
                stations = design.stations_of_zone(z.id)
                for _ in range(50 // design.nz):
                    flows = FlowMatrix()
                    carrying = rng.sample(ws_ids, rng.randint(0, len(ws_ids)))
                    for _ in range(rng.randint(0, 8)):
                        i = rng.choice(carrying or ws_ids)
                        j = rng.choice(stations if rng.random() < 0.8 else ws_ids)
                        flows.add(i, j, rng.choice([1.0, rng.uniform(0.001, 7.0)]))
                    velocity = rng.uniform(20.0, 200.0)
                    handling = HandlingTimes(rng.uniform(0, 1), rng.uniform(0, 1))
                    got = zone_load(design, z.id, flows, velocity, handling)
                    assert got == _full_matrix_load(graph, design, z.id, flows, velocity, handling)
                    checked += 1
    assert checked >= 2000


def test_zone_loads_sweep_once_per_flow_carrying_station(monkeypatch):
    from dynzone.baselines import initial_partition
    from dynzone.datafiles import load_layout
    from dynzone.zoning import zone_loads

    graph = load_layout("layout18")
    sweeps = []
    sweep = graph.distances_from
    monkeypatch.setattr(
        graph, "distances_from", lambda *args: sweeps.append(args[0]) or sweep(*args)
    )
    rng = random.Random(8)
    for nz in (2, 3, 4):
        start = initial_partition(graph, nz)
        design = ZonePartition(graph, start.zones, start.transfer_stations, start.design_id)
        flows, expect = {}, 0
        for n, z in enumerate(design.zones):
            stations = design.stations_of_zone(z.id)
            fm = FlowMatrix()
            for _ in range(rng.randint(1, 3) if n else 0):  # the first zone carries none
                i, j = rng.sample(stations, 2)
                fm.add(i, j, rng.uniform(0.5, 3.0))
            flows[z.id] = fm
            into = {i for (_, i), c in fm.items() if c}
            out_of = {i for (i, _), c in fm.items() if c}
            carrying = {
                i for i in stations if (i in into and out_of) or any(fm.get(i, j) for j in stations)
            }
            # A zone that counts no trip reads one row, which checks that
            # its stations are connected, as the full matrix did.
            expect += len(carrying) or 1
        handling = HandlingTimes(0.1, 0.2)
        sweeps.clear()
        loads = zone_loads(design, flows, 100.0, handling)
        assert len(sweeps) == expect < sum(len(design.stations_of_zone(z.id)) for z in design.zones)
        assert loads == {
            z.id: _full_matrix_load(graph, design, z.id, flows[z.id], 100.0, handling)
            for z in design.zones
        }
        sweeps.clear()
        zone_loads(design, flows, 100.0, handling)
        assert sweeps == []  # rows are kept on the design


def test_zero_flow_load_still_requires_connected_stations(twozone_graph, twozone_partition):
    from dynzone.zoning import TransferStation

    broken = ZonePartition(twozone_graph, twozone_partition.zones, (TransferStation(3, (), 2, 1),))
    with pytest.raises(NoFeasiblePath):
        zone_load(broken, 1, FlowMatrix(), 100.0, NO_HANDLING)


def _pairwise_transfer_stations(graph, partition, zone_a, zone_b, loads):
    """find_transfer_stations with one single-target search per tip pair."""
    from dynzone.zoning import TransferStation

    alpha, beta = sorted((zone_a, zone_b))
    za, zb = partition.zone(alpha), partition.zone(beta)
    abp = frozenset(za.segments | zb.segments | partition.unassigned_segments())
    keys = []
    for wa in tip_workstations(graph, za):
        for wb in tip_workstations(graph, zb):
            if graph.adjacent(wa, wb):
                try:
                    path = graph.shortest_path(wa, wb, abp)
                except NoFeasiblePath:
                    continue
                keys.append((path.distance, min(wa, wb), max(wa, wb), path.segments, wa, wb))
    keys.sort()
    station_zone = alpha if loads.get(alpha, 0.0) >= loads.get(beta, 0.0) else beta
    path_zone = beta if station_zone == alpha else alpha
    used, out = set(), []
    for _, _, _, segs, wa, wb in keys:
        if wa not in used and wb not in used:
            used |= {wa, wb}
            station = wa if station_zone == alpha else wb
            out.append(TransferStation(station, segs, station_zone, path_zone))
    return tuple(out)


@pytest.mark.parametrize("layout", ["layout18", "fig2"])
def test_transfer_stations_search_once_per_source_tip(layout):
    from dynzone.baselines import initial_partition
    from dynzone.datafiles import load_layout

    graph = load_layout(layout)
    rng = random.Random(layout)
    searches = 0
    for nz in (2, 3, 4):
        p = initial_partition(graph, nz)
        ids = sorted(z.id for z in p.zones)
        for _ in range(15):
            loads = {z: rng.random() for z in ids}
            for a in ids:
                for b in ids:
                    if a >= b:
                        continue
                    expect = _pairwise_transfer_stations(graph, p, a, b, loads)
                    sources = []
                    each = graph.shortest_paths_to_each
                    graph.shortest_paths_to_each = (
                        lambda s, t, allowed: sources.append(s) or each(s, t, allowed)
                    )
                    try:
                        got = find_transfer_stations(p, b, a, loads)
                    finally:
                        del graph.shortest_paths_to_each
                    assert got == expect
                    tips_b = tip_workstations(graph, p.zone(b))
                    assert sorted(sources) == sorted(
                        graph.anchor_of(wa)
                        for wa in tip_workstations(graph, p.zone(a))
                        if any(graph.adjacent(wa, wb) for wb in tips_b)
                    )
                    searches += len(sources)
            giver, receiver = rng.sample(ids, 2)
            try:
                moved = transfer_tip(
                    p, giver, receiver, rng.choice(tip_workstations(graph, p.zone(giver)))
                )
            except (NotATip, WouldDisconnect, WouldEmptyZone):
                continue
            p = assign_transfer_stations(moved, loads)
    assert searches > 0


def test_tips_kept_once_per_graph_on_the_zone(monkeypatch, twozone_graph, twozone_partition):
    from dynzone import zoning
    from dynzone.floorgraph import FloorGraph

    counted = []
    degrees = zoning._zone_degrees
    monkeypatch.setattr(
        zoning, "_zone_degrees", lambda z, g: counted.append((z, g)) or degrees(z, g)
    )
    zone = twozone_partition.zone(1)
    twin = Zone(zone.id, zone.workstations, zone.segments)
    other = FloorGraph.from_json(twozone_graph.to_json())
    first = tip_workstations(twozone_graph, zone)
    assert tip_workstations(twozone_graph, zone) == first
    assert counted == [(zone, twozone_graph)]
    # A zone is a graph-free value: on an equal floor loaded again, and as
    # an equal zone, its tips are computed once more and kept apart.
    assert tip_workstations(other, zone) == first
    assert tip_workstations(other, zone) == first
    assert tip_workstations(twozone_graph, twin) == first
    assert counted == [(zone, twozone_graph), (zone, other), (twin, twozone_graph)]
    assert set(zone._per_graph) == {("tips", twozone_graph), ("tips", other)}
    # The kept tips are no part of the value.
    assert zone == twin and hash(zone) == hash(twin)


def test_design_lookups_are_kept_without_the_graph(twozone_graph, twozone_partition):
    from dynzone.floorgraph import FloorGraph
    from dynzone.zoning import zone_loads

    full = assign_transfer_stations(twozone_partition, {1: 10.0, 2: 20.0})
    assert validate_partition(full) == []
    zone_loads(full, {1: FlowMatrix({(1, 4): 1.0}), 2: FlowMatrix({(3, 2): 1.0})},
               100.0, NO_HANDLING)
    shortest_feasible_path(full, 4, 3)
    plan_delivery(full, 4, 3)
    kinds = {key[0] for key in full._kept}
    assert kinds == {"unassigned", "allowed", "pair", "row", "leg", "plan"}
    assert not any(isinstance(part, FloorGraph) for key in full._kept for part in key)
    assert full.pair_segments(2, 1) is full.pair_segments(1, 2)
    assert full.pair_segments(1, 2) == (
        full.zone(1).segments | full.zone(2).segments | full.unassigned_segments()
    )
    # The graph is no part of the value either.
    assert "graph" not in repr(full)
    rebound = ZonePartition(
        FloorGraph.from_json(twozone_graph.to_json()),
        full.zones, full.transfer_stations, full.design_id,
    )
    assert rebound == full and hash(rebound) == hash(full)


def test_unknown_ids_are_reported_not_read(twozone_graph, twozone_partition):
    foreign = Zone(1, (1, 4, 5, 7), twozone_partition.zone(1).segments | {"X|Y"})
    partition = ZonePartition(
        twozone_graph,
        (foreign, twozone_partition.zone(2)),
        (TransferStation(2, ("D|I",), 2, 1),),
    )
    assert validate_partition(partition) == [
        "zone 1 references unknown WS7",
        "zone 1 references unknown segment X|Y",
    ]

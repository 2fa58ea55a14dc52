"""Zone partitions: tip workstations, transfer stations, and the load model.

A zone is a connected set of critical segments serving a set of
workstations, operated by exactly one robot. Zones exchange work at
transfer stations: a tip workstation of one zone that the neighboring
zone can reach over a connecting path. All types here are immutable
values; every operation returns a fresh partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping

from . import left_sum
from .errors import (
    LayoutError,
    NoFeasiblePath,
    NotATip,
    WouldDisconnect,
    WouldEmptyZone,
    ZeroVelocity,
    ZoneViolation,
)
from .floorgraph import FloorGraph, Path

PARTITION_SCHEMA_MAJOR = 1


@dataclass(frozen=True)
class TransferStation:
    """A shared workstation where parts cross between two zones.

    `ws` primarily belongs to `station_zone`; `path_zone` absorbed the
    connecting path and reaches the station over it.
    """

    ws: int
    path: tuple[str, ...]
    station_zone: int
    path_zone: int

    def zones(self) -> tuple[int, int]:
        return (self.station_zone, self.path_zone)


@dataclass(frozen=True)
class Zone:
    """One zone of a design. Its tip workstations and points are computed
    once per graph and kept on the value, outside its fields, like the
    lookups of ZonePartition."""

    id: int
    workstations: tuple[int, ...]
    segments: frozenset[str]

    @cached_property
    def _per_graph(self) -> dict[tuple, object]:
        """Graph-dependent lookups, keyed by (lookup, graph)."""
        return {}


@dataclass(frozen=True)
class ZonePartition:
    """An immutable zone design, bound to the floor graph it cuts.

    The graph is left out of equality, hashing and repr. Lookups derived
    from the design (zone by id, zone of each workstation, neighbors,
    transfer stations by zone pair, stations, unassigned, allowed and
    zone-pair segments, station-distance rows, delivery plans and feasible
    legs) are computed on first use and kept on the instance. They are not
    fields, so equality, hashing and serialization see only the design
    itself.
    """

    graph: FloorGraph = field(compare=False, repr=False)
    zones: tuple[Zone, ...]
    transfer_stations: tuple[TransferStation, ...] = ()
    design_id: int = 0

    @property
    def nz(self) -> int:
        return len(self.zones)

    @cached_property
    def _zone_by_id(self) -> dict[int, Zone]:
        out: dict[int, Zone] = {}
        for z in self.zones:
            out.setdefault(z.id, z)
        return out

    @cached_property
    def _zone_of_ws(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for z in self.zones:
            for ws in z.workstations:
                out.setdefault(ws, z.id)
        return out

    @cached_property
    def _neighbors(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, set[int]] = {}
        for ts in self.transfer_stations:
            for zid in ts.zones():
                out.setdefault(zid, set()).add(
                    ts.station_zone if ts.path_zone == zid else ts.path_zone
                )
        return {zid: tuple(sorted(nbrs)) for zid, nbrs in out.items()}

    @cached_property
    def _between(self) -> dict[tuple[int, int], tuple[TransferStation, ...]]:
        out: dict[tuple[int, int], list[TransferStation]] = {}
        for ts in self.transfer_stations:
            a, b = ts.zones()
            out.setdefault((a, b) if a <= b else (b, a), []).append(ts)
        return {pair: tuple(found) for pair, found in out.items()}

    @cached_property
    def _stations(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, tuple[int, ...]] = {}
        for zid, z in self._zone_by_id.items():
            extra = {
                ts.ws
                for ts in self.transfer_stations
                if ts.path_zone == zid and ts.ws not in z.workstations
            }
            out[zid] = tuple(z.workstations) + tuple(sorted(extra))
        return out

    @cached_property
    def _kept(self) -> dict[tuple, object]:
        """Per-query lookups, keyed by (lookup, ...)."""
        return {}

    def zone(self, zone_id: int) -> Zone:
        try:
            return self._zone_by_id[zone_id]
        except KeyError:
            raise KeyError(f"no zone {zone_id}") from None

    def zone_of_ws(self, ws: int) -> int | None:
        return self._zone_of_ws.get(ws)

    def unassigned_segments(self) -> frozenset[str]:
        key = ("unassigned",)
        if key not in self._kept:
            self._kept[key] = frozenset(self.graph.segments).difference(
                *(z.segments for z in self.zones)
            )
        return self._kept[key]

    def stations_of_zone(self, zone_id: int) -> tuple[int, ...]:
        """Primary workstations plus the zone's transfer stations."""
        try:
            return self._stations[zone_id]
        except KeyError:
            raise KeyError(f"no zone {zone_id}") from None

    def allowed_segments(self, zone_id: int) -> frozenset[str]:
        """Segments a robot confined to this zone may traverse.

        Its own primary segments, connecting paths it absorbed, and
        segments not claimed by any zone.
        """
        key = ("allowed", zone_id)
        if key not in self._kept:
            allowed = set(self.zone(zone_id).segments) | self.unassigned_segments()
            for ts in self.transfer_stations:
                if ts.path_zone == zone_id:
                    allowed.update(ts.path)
            self._kept[key] = frozenset(allowed)
        return self._kept[key]

    def pair_segments(self, a: int, b: int) -> frozenset[str]:
        """The primary segments of zones a and b plus the unassigned ones."""
        key = ("pair", a, b) if a <= b else ("pair", b, a)
        if key not in self._kept:
            self._kept[key] = (
                self.zone(a).segments | self.zone(b).segments | self.unassigned_segments()
            )
        return self._kept[key]

    def station_row(self, zone_id: int, ws: int) -> dict[int, float]:
        """Path distances in feet from station ws to each of the zone's
        stations, over the zone's allowed segments: one sweep, kept.

        Raises NoFeasiblePath when ws cannot reach one of them.
        The returned dict is shared by every caller and must not be modified.
        """
        key = ("row", zone_id, ws)
        row = self._kept.get(key)
        if row is None:
            graph = self.graph
            stations = self.stations_of_zone(zone_id)
            anchors = [graph.anchor_of(j) for j in stations]
            reached = graph.distances_from(
                graph.anchor_of(ws), frozenset(anchors), self.allowed_segments(zone_id)
            )
            row = {}
            for j, anchor in zip(stations, anchors):
                if anchor not in reached:
                    raise NoFeasiblePath(
                        f"stations WS{ws} and WS{j} are disconnected inside zone {zone_id}"
                    )
                row[j] = reached[anchor]
            self._kept[key] = row
        return row

    def transfer_stations_between(self, a: int, b: int) -> tuple[TransferStation, ...]:
        """The transfer stations joining zones a and b, in design order."""
        return self._between.get((a, b) if a <= b else (b, a), ())

    def neighbor_zones(self, zone_id: int) -> tuple[int, ...]:
        return self._neighbors.get(zone_id, ())


@dataclass(frozen=True)
class HandlingTimes:
    """Per-part unload and load durations at a workstation, in minutes."""

    unload: float = 0.0
    load: float = 0.0

    def __post_init__(self) -> None:
        if self.unload < 0 or self.load < 0:
            raise ValueError("handling times must be non-negative")

    @property
    def total(self) -> float:
        return self.unload + self.load


class FlowMatrix:
    """Counts of loaded trips between workstation pairs.

    Entries are non-negative; the diagonal is identically zero.
    """

    def __init__(self, entries: Mapping[tuple[int, int], float] | None = None) -> None:
        self._f: dict[tuple[int, int], float] = {}
        if entries:
            for (i, j), c in entries.items():
                self.add(i, j, c)

    def add(self, i: int, j: int, count: float = 1.0) -> None:
        if i == j:
            return
        if count < 0:
            raise ValueError("flow counts must be non-negative")
        if count:
            self._f[(i, j)] = self._f.get((i, j), 0.0) + count

    def get(self, i: int, j: int) -> float:
        return self._f.get((i, j), 0.0)

    def total(self) -> float:
        return left_sum(self._f.values())

    def items(self):
        return self._f.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlowMatrix) and self._f == other._f

    def __repr__(self) -> str:
        return f"FlowMatrix({self._f!r})"


# ── Tip workstations ─────────────────────────────────────────────────


def _zone_degrees(zone: Zone, graph: FloorGraph) -> dict[str, int]:
    deg: dict[str, int] = {}
    for sid in zone.segments:
        seg = graph.segments[sid]
        deg[seg.a] = deg.get(seg.a, 0) + 1
        deg[seg.b] = deg.get(seg.b, 0) + 1
    return deg


def tip_workstations(graph: FloorGraph, zone: Zone) -> tuple[int, ...]:
    """Workstations attached to the zone by a single branch.

    A lone workstation is its own tip. A workstation with two or more
    incident zone segments is never a tip.
    """
    key = ("tips", graph)
    tips = zone._per_graph.get(key)
    if tips is None:
        if len(zone.workstations) == 1:
            tips = tuple(zone.workstations)
        else:
            deg = _zone_degrees(zone, graph)
            tips = tuple(
                sorted(ws for ws in zone.workstations if deg.get(graph.anchor_of(ws), 0) <= 1)
            )
        zone._per_graph[key] = tips
    return tips


def remove_tip(graph: FloorGraph, zone: Zone, ws: int) -> Zone:
    """Drop a tip workstation and its sole connecting branch from the zone.

    The walk stops at the first point that still serves the zone (another
    anchor or a junction with remaining degree >= 2).
    """
    anchors = {graph.anchor_of(w) for w in zone.workstations if w != ws}
    segments = set(zone.segments)
    deg = _zone_degrees(zone, graph)
    cur = graph.anchor_of(ws)
    while cur not in anchors and deg.get(cur, 0) == 1:
        sid = next(
            s for s in sorted(segments)
            if cur in (graph.segments[s].a, graph.segments[s].b)
        )
        segments.discard(sid)
        seg = graph.segments[sid]
        deg[seg.a] -= 1
        deg[seg.b] -= 1
        cur = seg.other(cur)
    new_ws = tuple(sorted(w for w in zone.workstations if w != ws))
    return Zone(zone.id, new_ws, frozenset(segments))


def _zone_points(graph: FloorGraph, zone: Zone) -> frozenset[str]:
    """Anchors of the zone's workstations and ends of its segments, kept
    on the zone per graph."""
    key = ("points", graph)
    pts = zone._per_graph.get(key)
    if pts is None:
        found = {graph.anchor_of(w) for w in zone.workstations}
        for sid in zone.segments:
            seg = graph.segments[sid]
            found.add(seg.a)
            found.add(seg.b)
        pts = zone._per_graph[key] = frozenset(found)
    return pts


def _zone_connected(graph: FloorGraph, zone: Zone) -> bool:
    """True iff all workstation anchors are mutually reachable over zone segments."""
    anchors = {graph.anchor_of(w) for w in zone.workstations}
    if len(anchors) <= 1 and not zone.segments:
        return True
    adj: dict[str, list[str]] = {}
    for sid in zone.segments:
        seg = graph.segments[sid]
        adj.setdefault(seg.a, []).append(seg.b)
        adj.setdefault(seg.b, []).append(seg.a)
    pts = _zone_points(graph, zone)
    start = next(iter(sorted(pts)))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nbr in adj.get(cur, ()):
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return pts <= seen


def _path_joins_zone(graph: FloorGraph, ts: TransferStation, zone: Zone) -> bool:
    """True iff the station's anchor, extended along the segments of its
    connecting path, reaches a point of the zone. Unknown segment ids join
    nothing."""
    points = _zone_points(graph, zone)
    reached = {graph.anchor_of(ts.ws)}
    pending = [graph.segments[sid] for sid in ts.path if sid in graph.segments]
    while reached.isdisjoint(points):
        left = []
        for seg in pending:
            if seg.a in reached or seg.b in reached:
                reached.add(seg.a)
                reached.add(seg.b)
            else:
                left.append(seg)
        if len(left) == len(pending):
            return False
        # Alternate direction, so a path in walk order from either end
        # joins within two passes.
        pending = left[::-1]
    return True


def transfer_tip(
    partition: ZonePartition,
    from_zone: int,
    to_zone: int,
    ws: int,
) -> ZonePartition:
    """Move a tip workstation (with its branch) from one zone to another.

    The receiving zone gains the workstation plus a minimal connecting
    path over its own and unassigned segments. Transfer stations touching
    either zone are dropped; callers re-run transfer-station discovery.
    """
    graph = partition.graph
    fz = partition.zone(from_zone)
    tz = partition.zone(to_zone)
    if from_zone == to_zone:
        raise ValueError("from_zone and to_zone must differ")
    if ws not in fz.workstations:
        raise NotATip(f"WS{ws} is not a member of zone {from_zone}")
    if ws not in tip_workstations(graph, fz):
        raise NotATip(f"WS{ws} is not a tip of zone {from_zone}")
    if len(fz.workstations) == 1:
        raise WouldEmptyZone(f"zone {from_zone} would lose its last workstation")

    new_fz = remove_tip(graph, fz, ws)
    if not _zone_connected(graph, new_fz):
        raise WouldDisconnect(f"removing WS{ws} disconnects zone {from_zone}")

    other_primary: set[str] = set()
    for z in partition.zones:
        if z.id == from_zone:
            other_primary |= new_fz.segments
        elif z.id != to_zone:
            other_primary |= z.segments
    allowed = frozenset(set(graph.segments) - other_primary)

    targets = _zone_points(graph, tz)
    found = graph.shortest_path_points(graph.anchor_of(ws), targets, allowed)
    if found is None:
        raise WouldDisconnect(f"WS{ws} cannot connect to zone {to_zone}")
    new_tz = Zone(
        tz.id,
        tuple(sorted(tz.workstations + (ws,))),
        frozenset(tz.segments | set(found.segments)),
    )

    zones = tuple(
        new_fz if z.id == from_zone else new_tz if z.id == to_zone else z
        for z in partition.zones
    )
    kept = tuple(
        ts
        for ts in partition.transfer_stations
        if from_zone not in ts.zones() and to_zone not in ts.zones()
    )
    return ZonePartition(graph, zones, kept, partition.design_id + 1)


# ── Transfer stations ────────────────────────────────────────────────


def find_transfer_stations(
    partition: ZonePartition,
    zone_a: int,
    zone_b: int,
    loads: Mapping[int, float],
) -> tuple[TransferStation, ...]:
    """Discover the shared stations between two zones.

    Candidate pairs are adjacent tips of the two zones. Pairs are
    consumed shortest-connecting-path first; in each pair the
    higher-load zone contributes the station and the lower-load zone
    absorbs the connecting path. Ties on load go to the lower zone id.
    Returns an empty tuple when the zones share no adjacent tips.
    """
    if zone_a == zone_b:
        raise ValueError("zones must differ")
    graph = partition.graph
    alpha, beta = (zone_a, zone_b) if zone_a < zone_b else (zone_b, zone_a)
    za, zb = partition.zone(alpha), partition.zone(beta)
    tips_b = tip_workstations(graph, zb)
    abp = partition.pair_segments(alpha, beta)
    # One search from each tip of zone a finds its paths to all adjacent
    # tips of zone b. The connecting paths do not change as pairs are
    # consumed, so taking the keys in sorted order equals taking the minimum
    # over the unused pairs round by round.
    keys: list[tuple[float, int, int, tuple[str, ...], int, int]] = []
    for wa in tip_workstations(graph, za):
        near = [wb for wb in tips_b if graph.adjacent(wa, wb)]
        if not near:
            continue
        paths = graph.shortest_paths_to_each(
            graph.anchor_of(wa), {graph.anchor_of(wb) for wb in near}, abp
        )
        for wb in near:
            path = paths.get(graph.anchor_of(wb))
            if path is not None:
                keys.append((path.distance, min(wa, wb), max(wa, wb), path.segments, wa, wb))
    keys.sort()
    if loads.get(alpha, 0.0) >= loads.get(beta, 0.0):
        station_zone, path_zone = alpha, beta
    else:
        station_zone, path_zone = beta, alpha
    used: set[int] = set()
    out: list[TransferStation] = []
    for _, _, _, path_segs, wa, wb in keys:
        if wa in used or wb in used:
            continue
        used.add(wa)
        used.add(wb)
        station = wa if station_zone == alpha else wb
        out.append(TransferStation(station, path_segs, station_zone, path_zone))
    return tuple(out)


def assign_transfer_stations(
    partition: ZonePartition,
    loads: Mapping[int, float] | None = None,
    zone_ids: Iterable[int] | None = None,
) -> ZonePartition:
    """Recompute transfer stations for every zone pair (or pairs touching zone_ids)."""
    loads = dict(loads or {})
    ids = sorted(z.id for z in partition.zones)
    touch = set(ids) if zone_ids is None else set(zone_ids)
    kept = [
        ts
        for ts in partition.transfer_stations
        if not (ts.station_zone in touch or ts.path_zone in touch)
    ]
    base = ZonePartition(partition.graph, partition.zones, tuple(kept), partition.design_id)
    found: list[TransferStation] = list(kept)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if a not in touch and b not in touch:
                continue
            found.extend(find_transfer_stations(base, a, b, loads))
    return ZonePartition(partition.graph, partition.zones, tuple(found), partition.design_id)


# ── Shortest feasible path ───────────────────────────────────────────


def shortest_feasible_path(
    partition: ZonePartition,
    src: int,
    dst: int,
) -> Path:
    """Minimal path confined to the endpoint zones plus unassigned segments.

    Each path is kept on the partition; NoFeasiblePath is raised anew on
    every call.
    """
    key = ("leg", src, dst)
    leg = partition._kept.get(key)
    if leg is None:
        zs = partition.zone_of_ws(src)
        zd = partition.zone_of_ws(dst)
        if zs is None or zd is None:
            raise ZoneViolation(f"WS{src if zs is None else dst} belongs to no zone")
        leg = partition._kept[key] = partition.graph.shortest_path(
            src, dst, partition.pair_segments(zs, zd)
        )
    return leg


# ── Zone load (expected service minutes) ─────────────────────────────


def zone_load(
    partition: ZonePartition,
    zone_id: int,
    flows: FlowMatrix,
    velocity: float,
    handling: HandlingTimes,
) -> float:
    """The zone's load: the minutes its robot needs for its loaded trips,
    expected empty trips, and handling, over the zone's workstations and
    transfer stations.

    Expected empty trips from i to j scale with the loaded inflow at i
    times the loaded outflow at j, normalized by total flow; with zero
    total flow there are no expected empty trips.

    The distance sums take the nonzero terms only, in station-pair order.
    Every other term is exactly 0.0, and adding it would leave the sum
    unchanged, so only the rows of stations that begin a counted trip are
    built. Raises NoFeasiblePath when two of the zone's stations are
    disconnected: any one row shows it, so a load that counts no trip
    reads the first station's row.
    """
    if velocity <= 0:
        raise ZeroVelocity("velocity must be > 0")
    stations = partition.stations_of_zone(zone_id)

    # Loaded trips into and out of each station, and between stations, in
    # one pass; each sum adds its terms from the left in flow insertion order.
    inflow: dict[int, float] = dict.fromkeys(stations, 0)
    outflow: dict[int, float] = dict.fromkeys(stations, 0)
    trips: dict[int, dict[int, float]] = {i: {} for i in stations}  # f[i][j] > 0
    for (src, dst), c in flows.items():
        if dst in inflow:
            inflow[dst] += c
            if src in trips:
                trips[src][dst] = c
        if src in outflow:
            outflow[src] += c
    total = flows.total()
    starts = [j for j, c in outflow.items() if c]  # where empty trips can end
    empty: list[float] = []  # g * d, with g = inflow[i] * outflow[j] / total
    loaded: list[float] = []  # f * d
    read_row = False
    for i, ends in inflow.items():
        to = trips[i]
        dests = [j for j in inflow if j in to] if to else []  # station order
        if not dests and not (ends and starts):
            continue
        row = partition.station_row(zone_id, i)
        read_row = True
        if ends:
            empty.extend(ends * outflow[j] / total * row[j] for j in starts)
        loaded.extend(to[j] * row[j] for j in dests)
    if not read_row and stations:
        partition.station_row(zone_id, stations[0])
    return (left_sum(empty) + left_sum(loaded)) / velocity + total * handling.total


def zone_loads(
    partition: ZonePartition,
    flows: Mapping[int, FlowMatrix],
    velocity: float,
    handling: HandlingTimes,
) -> dict[int, float]:
    """Load of every zone, in partition order, from its per-zone flows."""
    return {
        z.id: zone_load(partition, z.id, flows[z.id], velocity, handling)
        for z in partition.zones
    }


# ── Validation ───────────────────────────────────────────────────────


def validate_partition(partition: ZonePartition) -> list[str]:
    """All invariant violations of a partition on its graph, empty when it is valid."""
    graph = partition.graph
    violations: list[str] = []
    if not partition.zones:
        return ["partition has no zones"]
    ids = [z.id for z in partition.zones]
    if len(set(ids)) != len(ids):
        violations.append("duplicate zone ids")

    # Connectivity, tips and connecting paths read the graph at a zone's
    # workstations and segments, so they are checked only on zones whose
    # workstations and segments all exist.
    off_graph: set[int] = set()
    seen_ws: dict[int, int] = {}
    for z in partition.zones:
        for ws in z.workstations:
            if ws not in graph.workstations:
                violations.append(f"zone {z.id} references unknown WS{ws}")
                off_graph.add(z.id)
            elif ws in seen_ws:
                violations.append(f"WS{ws} belongs to zones {seen_ws[ws]} and {z.id}")
            else:
                seen_ws[ws] = z.id
    for ws in graph.workstations:
        if ws not in seen_ws:
            violations.append(f"WS{ws} belongs to no zone")

    claimed: dict[str, int] = {}
    for z in partition.zones:
        if not z.workstations:
            violations.append(f"zone {z.id} has no workstations")
        for sid in z.segments:
            if sid not in graph.segments:
                violations.append(f"zone {z.id} references unknown segment {sid}")
                off_graph.add(z.id)
            elif sid in claimed:
                violations.append(f"segment {sid} claimed by zones {claimed[sid]} and {z.id}")
            else:
                claimed[sid] = z.id
        if z.workstations and z.id not in off_graph and not _zone_connected(graph, z):
            violations.append(f"zone {z.id} is not connected")

    for z in partition.zones:
        if z.workstations and z.id not in off_graph and not tip_workstations(graph, z):
            violations.append(f"zone {z.id} has no available tip workstation")

    for ts in partition.transfer_stations:
        if ts.ws not in graph.workstations:
            violations.append(f"transfer station references unknown WS{ts.ws}")
            continue
        for zid in ts.zones():
            if zid not in ids:
                violations.append(f"transfer station WS{ts.ws} references unknown zone {zid}")
        for sid in ts.path:
            owner = claimed.get(sid)
            if owner is not None and owner not in ts.zones():
                violations.append(
                    f"connecting path of transfer station WS{ts.ws} crosses zone {owner}"
                )
        # The path zone reaches the station over the connecting path, so the
        # station's anchor and the path must join one of the zone's points.
        if ts.path_zone in ids and ts.path_zone not in off_graph and not _path_joins_zone(
            graph, ts, partition.zone(ts.path_zone)
        ):
            violations.append(
                f"connecting path of transfer station WS{ts.ws} does not reach zone {ts.path_zone}"
            )

    if partition.nz > 1 and not violations:
        for z in partition.zones:
            if not partition.neighbor_zones(z.id):
                violations.append(f"zone {z.id} reaches no neighbor via a transfer station")
        # All zones must be mutually reachable through the transfer graph,
        # otherwise cross-zone deliveries cannot be planned.
        reach = {partition.zones[0].id}
        frontier = [partition.zones[0].id]
        while frontier:
            cur = frontier.pop()
            for nbr in partition.neighbor_zones(cur):
                if nbr not in reach:
                    reach.add(nbr)
                    frontier.append(nbr)
        for z in partition.zones:
            if z.id not in reach:
                violations.append(f"zone {z.id} is unreachable through transfer stations")
    return violations


# ── Tip-move proposals ───────────────────────────────────────────────


class TipMoves:
    """The tip moves out of one zone design, each built and scored once.

    Both repair searches propose by moving a random tip workstation of a
    giver zone to a receiver zone. A design has only a few legal moves and
    a rejected proposal leaves the design unchanged, so later iterations
    draw the same moves again. Each (giver, receiver, ws) outcome is kept:
    None for an illegal move or an invalid design, else the moved design
    with its zone loads. A search makes a new TipMoves whenever its design
    or loads change, so no outcome outlives the state it was built from.
    """

    def __init__(
        self,
        design: ZonePartition,
        loads: Mapping[int, float],
        loads_of: Callable[[ZonePartition], dict[int, float]],
        zone_ids: Iterable[int] | None = None,
    ) -> None:
        self.design = design
        self.loads = loads  # zone loads of design; they pick the transfer stations
        self._loads_of = loads_of
        self._zone_ids = zone_ids  # zones whose transfer stations are recomputed
        self._outcomes: dict[tuple[int, int, int], tuple | None] = {}

    def propose(
        self, giver: int, receiver: int, rng
    ) -> tuple[int, ZonePartition, dict[int, float]] | None:
        """Draw the giver's tips in random order until one moves to a valid
        design; return (ws, moved design, its loads), or None if none does."""
        tips = list(tip_workstations(self.design.graph, self.design.zone(giver)))
        while tips:
            ws = rng.choice(tips)
            tips.remove(ws)
            key = (giver, receiver, ws)
            if key not in self._outcomes:
                self._outcomes[key] = self._build(giver, receiver, ws)
            outcome = self._outcomes[key]
            if outcome is not None:
                return (ws, *outcome)
        return None

    def _build(
        self, giver: int, receiver: int, ws: int
    ) -> tuple[ZonePartition, dict[int, float]] | None:
        try:
            moved = transfer_tip(self.design, giver, receiver, ws)
        except (NotATip, WouldDisconnect, WouldEmptyZone):
            return None
        moved = assign_transfer_stations(moved, self.loads, self._zone_ids)
        if validate_partition(moved):
            return None
        return moved, self._loads_of(moved)


# ── Delivery planning ────────────────────────────────────────────────


def plan_delivery(
    partition: ZonePartition,
    src: int,
    dst: int,
) -> list[tuple[int, int, int]]:
    """Legs (pickup, dropoff, serving zone) moving a part from src to dst.

    Cross-zone deliveries hop between zones at transfer stations; each
    leg is served by the robot of the zone being traversed. The plan
    depends on the design alone, so it is kept on the partition; each call
    returns a new list. ZoneViolation and NoFeasiblePath are raised anew on
    every call.
    """
    key = ("plan", src, dst)
    legs = partition._kept.get(key)
    if legs is None:
        legs = partition._kept[key] = tuple(_route_legs(partition, src, dst))
    return list(legs)


def _route_legs(partition: ZonePartition, src: int, dst: int) -> list[tuple[int, int, int]]:
    if src == dst:
        return []
    zs = partition.zone_of_ws(src)
    zd = partition.zone_of_ws(dst)
    if zs is None or zd is None:
        raise ZoneViolation(f"WS{src if zs is None else dst} belongs to no zone")
    if zs == zd:
        return [(src, dst, zs)]

    # BFS over the zone graph, deterministic by zone id.
    prev: dict[int, int] = {zs: zs}
    frontier = [zs]
    while frontier and zd not in prev:
        nxt: list[int] = []
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

    legs: list[tuple[int, int, int]] = []
    cur_ws = src
    for a, b in zip(chain, chain[1:]):
        stations = partition.transfer_stations_between(a, b)
        ts = min(stations, key=lambda t: t.ws)
        if cur_ws != ts.ws:
            legs.append((cur_ws, ts.ws, a))
        cur_ws = ts.ws
    if cur_ws != dst:
        legs.append((cur_ws, dst, zd))
    return legs


# ── Serialization ────────────────────────────────────────────────────


def partition_to_json(partition: ZonePartition) -> dict:
    return {
        "schema_version": PARTITION_SCHEMA_MAJOR,
        "design_id": partition.design_id,
        "zones": [
            {
                "id": z.id,
                "workstations": list(z.workstations),
                "segments": sorted(z.segments),
            }
            for z in partition.zones
        ],
        "transfer_stations": [
            {
                "ws": ts.ws,
                "path": list(ts.path),
                "station_zone": ts.station_zone,
                "path_zone": ts.path_zone,
            }
            for ts in partition.transfer_stations
        ],
    }


def partition_from_json(graph: FloorGraph, data: Mapping) -> ZonePartition:
    """The design a partition file describes, bound to graph. It is not
    validated against the graph."""
    major = data.get("schema_version")
    if major != PARTITION_SCHEMA_MAJOR:
        raise LayoutError(f"unsupported partition schema_version {major!r}")
    try:
        zones = tuple(
            Zone(
                int(z["id"]),
                tuple(sorted(int(w) for w in z["workstations"])),
                frozenset(str(s) for s in z["segments"]),
            )
            for z in data["zones"]
        )
        stations = tuple(
            TransferStation(
                int(t["ws"]),
                tuple(str(s) for s in t["path"]),
                int(t["station_zone"]),
                int(t["path_zone"]),
            )
            for t in data.get("transfer_stations", [])
        )
        design_id = int(data.get("design_id", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"malformed partition file: {exc}") from exc
    return ZonePartition(graph, zones, stations, design_id)


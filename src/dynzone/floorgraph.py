"""Floor graph: critical points, critical segments, and workstations.

The manufacturing floor is a graph of critical points (aisle junctions and
workstation anchors) joined by critical segments (straight aisle stretches).
All distances are rectilinear feet measured along segments. The graph is
immutable after loading; every query here is a pure function of its inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from .errors import LayoutError, NoFeasiblePath, UnknownWorkstation

JUNCTION = "junction"
WS_ANCHOR = "workstation-anchor"

LAYOUT_SCHEMA_MAJOR = 1


def segment_id(a: str, b: str) -> str:
    """Canonical id for the undirected segment between points a and b."""
    return f"{a}|{b}" if a < b else f"{b}|{a}"


@dataclass(frozen=True)
class CriticalPoint:
    id: str
    x: float
    y: float
    kind: str  # JUNCTION or WS_ANCHOR


@dataclass(frozen=True)
class CriticalSegment:
    id: str
    a: str
    b: str
    length: float

    def other(self, point: str) -> str:
        return self.b if point == self.a else self.a


@dataclass(frozen=True)
class Workstation:
    id: int
    anchor: str
    processing_time: float  # minutes per part


@dataclass(frozen=True, slots=True)
class Path:
    """An ordered segment walk with its total rectilinear length in feet."""

    segments: tuple[str, ...]
    distance: float
    points: tuple[str, ...]  # visited points, including both endpoints


class FloorGraph:
    """Immutable floor graph with deterministic shortest-path queries.

    Ties between equal-length paths are broken by the lexicographic order
    of the visited point-id sequence, so repeated runs are reproducible.
    """

    def __init__(
        self,
        points: Iterable[CriticalPoint],
        segments: Iterable[tuple[str, str]],
        workstations: Iterable[Workstation],
        adjacency_threshold: float,
    ) -> None:
        self.points: dict[str, CriticalPoint] = {}
        for p in points:
            if p.id in self.points:
                raise LayoutError(f"duplicate point id {p.id!r}")
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise LayoutError(f"point {p.id!r} has non-finite position")
            if p.kind not in (JUNCTION, WS_ANCHOR):
                raise LayoutError(f"point {p.id!r} has unknown kind {p.kind!r}")
            self.points[p.id] = p
        seen_pos = {}
        for p in self.points.values():
            key = (p.x, p.y)
            if key in seen_pos:
                raise LayoutError(f"points {seen_pos[key]!r} and {p.id!r} share a position")
            seen_pos[key] = p.id

        self.segments: dict[str, CriticalSegment] = {}
        for a, b in segments:
            for end in (a, b):
                if end not in self.points:
                    raise LayoutError(f"segment endpoint {end!r} is not a point")
            if a == b:
                raise LayoutError(f"segment {a!r}-{b!r} is a self-loop")
            sid = segment_id(a, b)
            if sid in self.segments:
                raise LayoutError(f"duplicate segment {sid!r}")
            pa, pb = self.points[a], self.points[b]
            length = abs(pa.x - pb.x) + abs(pa.y - pb.y)
            if length <= 0:
                raise LayoutError(f"segment {sid!r} has non-positive length")
            lo, hi = (a, b) if a < b else (b, a)
            self.segments[sid] = CriticalSegment(sid, lo, hi, length)

        self.workstations: dict[int, Workstation] = {}
        for ws in workstations:
            if ws.id in self.workstations:
                raise LayoutError(f"duplicate workstation id {ws.id}")
            anchor = self.points.get(ws.anchor)
            if anchor is None:
                raise LayoutError(f"workstation {ws.id} anchor {ws.anchor!r} is not a point")
            if anchor.kind != WS_ANCHOR:
                raise LayoutError(f"workstation {ws.id} anchor {ws.anchor!r} is not a workstation-anchor")
            if ws.processing_time < 0:
                raise LayoutError(f"workstation {ws.id} has negative processing time")
            self.workstations[ws.id] = ws
        anchors = [ws.anchor for ws in self.workstations.values()]
        if len(set(anchors)) != len(anchors):
            raise LayoutError("two workstations share an anchor point")

        if adjacency_threshold <= 0:
            raise LayoutError("adjacency_threshold must be positive")
        self.adjacency_threshold = float(adjacency_threshold)
        # Workstations within the threshold of each workstation, itself included.
        self._near: dict[int, frozenset[int]] = {
            a: frozenset(
                b
                for b in self.workstations
                if self.manhattan(self.anchor_of(a), self.anchor_of(b))
                <= self.adjacency_threshold
            )
            for a in self.workstations
        }

        # Neighbor lists over integer point ids numbered in sorted point-id
        # order, so comparing id tuples orders routes exactly as comparing
        # point-id strings does. Each list is sorted by neighbor id for
        # deterministic expansion.
        self._ids: list[str] = sorted(self.points)
        self._index: dict[str, int] = {pid: i for i, pid in enumerate(self._ids)}
        self._nbrs: list[list[tuple[int, str, float]]] = [[] for _ in self._ids]
        for seg in self.segments.values():
            a, b = self._index[seg.a], self._index[seg.b]
            self._nbrs[a].append((b, seg.id, seg.length))
            self._nbrs[b].append((a, seg.id, seg.length))
        for lst in self._nbrs:
            lst.sort()
        # On an exact floor every route length is an exact integer.
        lengths = [s.length for s in self.segments.values()]
        self._exact = all(float(x).is_integer() for x in lengths) and math.fsum(lengths) < 2**53
        self._trees: dict[str, tuple[dict[str, int], dict[str, Path], tuple]] = {}

        self._validate_connected()
        for ws in self.workstations.values():
            if not self._nbrs[self._index[ws.anchor]]:
                raise LayoutError(f"workstation {ws.id} anchor has no incident segment")

    def _validate_connected(self) -> None:
        if not self.points:
            raise LayoutError("graph has no points")
        start = self._index[next(iter(self.points))]
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nbr, _, _ in self._nbrs[cur]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(seen) != len(self.points):
            missing = sorted(set(self.points) - {self._ids[i] for i in seen})
            raise LayoutError(f"graph is disconnected; unreachable points: {missing[:5]}")

    # ── Basic queries ────────────────────────────────────────────────

    def workstation(self, ws_id: int) -> Workstation:
        try:
            return self.workstations[ws_id]
        except KeyError:
            raise UnknownWorkstation(f"workstation {ws_id} does not exist") from None

    def anchor_of(self, ws_id: int) -> str:
        try:
            return self.workstations[ws_id].anchor
        except KeyError:
            raise UnknownWorkstation(f"workstation {ws_id} does not exist") from None

    def manhattan(self, a: str, b: str) -> float:
        """Manhattan distance between two points, straight-line (not along aisles)."""
        pa, pb = self.points[a], self.points[b]
        return abs(pa.x - pb.x) + abs(pa.y - pb.y)

    def adjacent(self, a: int, b: int) -> bool:
        """True iff the two workstations' anchors are within the adjacency threshold."""
        if a not in self._near or b not in self._near:
            self.workstation(a)  # raises UnknownWorkstation
            self.workstation(b)
        return b in self._near[a]

    # ── Shortest paths ───────────────────────────────────────────────

    def shortest_path_points(
        self,
        source: str,
        targets: set[str] | frozenset[str],
        allowed_segments: set[str] | frozenset[str] | None = None,
        below: float | None = None,
    ) -> Path | None:
        """Deterministic Dijkstra from a point to the nearest of a point set.

        Restricted to allowed_segments when given. Returns None if every
        target is unreachable; raises LayoutError if the source or a target
        is not a point. Equal-length ties resolve to the lexicographically
        smallest point-id route.

        With `below`, returns the path only if its distance is < below, and
        None otherwise; the search stops at the bound.

        The source's tree answers every unrestricted query and, on an exact
        floor, a restricted one whose tree answer is at or over the bound or
        lies within allowed_segments: removing segments never shortens a
        route, and exact lengths leave no near-tie for it to flip.
        """
        self._check_points(source, targets)
        bound = math.inf if below is None else below
        if targets and (allowed_segments is None or self._exact):
            rank, kept, _ = self._trees.get(source) or self._tree(source)
            end = min(targets, key=rank.__getitem__) if len(targets) > 1 else next(iter(targets))
            path = kept.get(end) or self._tree_path(source, end)
            if path.distance >= bound:
                return None
            if allowed_segments is None or allowed_segments.issuperset(path.segments):
                return path
        found, route, via, dist = self._settle(source, targets, allowed_segments, 1, bound)
        return self._path(route[found[0]], via, dist[found[0]]) if found else None

    def shortest_paths_to_each(
        self,
        source: str,
        targets: set[str] | frozenset[str],
        allowed_segments: set[str] | frozenset[str] | None = None,
    ) -> dict[str, Path]:
        """Deterministic shortest path from a point to each target, in one search.

        Restricted to allowed_segments when given; unreachable targets are
        absent. Each path equals shortest_path_points(source, {target},
        allowed_segments), in settle order, and raises as it does; the tree
        answers when it holds every target's answer.
        """
        self._check_points(source, targets)
        if allowed_segments is None or self._exact:
            rank, kept, _ = self._trees.get(source) or self._tree(source)
            ends = sorted(targets, key=rank.__getitem__)
            paths = {end: kept.get(end) or self._tree_path(source, end) for end in ends}
            segments = (path.segments for path in paths.values())
            if allowed_segments is None or all(map(allowed_segments.issuperset, segments)):
                return paths
        found, route, via, dist = self._settle(source, targets, allowed_segments, len(targets))
        return {self._ids[i]: self._path(route[i], via, dist[i]) for i in found}

    def _check_points(self, source: str, targets: set[str] | frozenset[str]) -> None:
        if source not in self.points or not self.points.keys() >= targets:
            unknown = next(p for p in (source, *sorted(targets)) if p not in self.points)
            raise LayoutError(f"unknown point {unknown!r}")

    def _tree(self, source: str) -> tuple[dict[str, int], dict[str, Path], tuple]:
        """Settle the source's whole unrestricted tree and keep each point's
        settle position, the Paths answered from the tree so far, and by point
        index the predecessor (-1 at the source), last segment and distance."""
        order, route, via, dist = self._settle(source, self.points, None, len(self._ids))
        pred = [-1 if len(r) == 1 else r[-2] for r in route]
        rank = {self._ids[i]: k for k, i in enumerate(order)}
        return self._trees.setdefault(source, (rank, {}, (pred, via, dist)))

    def _tree_path(self, source: str, end: str) -> Path:
        """The tree's route from source to end, built on first use and kept."""
        _, kept, (pred, via, dist) = self._trees[source]
        chain = [self._index[end]]
        while pred[chain[-1]] >= 0:
            chain.append(pred[chain[-1]])
        return kept.setdefault(end, self._path(chain[::-1], via, dist[chain[0]]))

    def _path(self, chain: Sequence[int], via: list[str | None], distance: float) -> Path:
        return Path(tuple(via[i] for i in chain[1:]), distance, tuple(self._ids[i] for i in chain))

    def _settle(
        self,
        source: str,
        targets: Container[str],
        allowed_segments: set[str] | frozenset[str] | None,
        wanted: int,
        below: float = math.inf,
    ) -> tuple[list[int], list, list[str | None], list[float | None]]:
        """Lexicographic Dijkstra that stops once `wanted` targets have settled,
        or once it pops a distance of at least `below`. Returns the settled
        targets' indices in order, and per point index its route, last
        segment and distance.

        Targets decide only when the search stops, never the order in which
        points settle, so every recorded route is the one a search for that
        target alone would return. Every push extends the popped route by a
        positive length, so entries pop in nondecreasing distance: a stop at
        the bound loses exactly the targets at distance >= below.
        """
        ids = self._ids
        nbrs = self._nbrs
        start = self._index[source]
        dist: list[float | None] = [None] * len(ids)
        route: list[tuple[int, ...] | None] = [None] * len(ids)
        via: list[str | None] = [None] * len(ids)  # segment each route ends on
        done = [False] * len(ids)
        dist[start] = 0.0
        route[start] = (start,)
        found: list[int] = []
        heap: list[tuple[float, tuple[int, ...]]] = [(0.0, route[start])]
        while heap:
            d, r = heapq.heappop(heap)
            if d >= below:
                break
            cur = r[-1]
            # Each route tuple is pushed once, so a popped entry is current
            # exactly when it is the very tuple recorded for its end point.
            if done[cur] or r is not route[cur]:
                continue
            done[cur] = True
            if ids[cur] in targets:
                found.append(cur)
                if len(found) == wanted:
                    break
            for nbr, sid, length in nbrs[cur]:
                if allowed_segments is not None and sid not in allowed_segments:
                    continue
                if done[nbr]:
                    continue
                nd = d + length
                old = dist[nbr]
                if old is None or nd < old - 1e-9:
                    nr = r + (nbr,)
                elif abs(nd - old) <= 1e-9:
                    nr = r + (nbr,)
                    if not nr < route[nbr]:
                        continue
                else:
                    continue
                dist[nbr] = nd
                route[nbr] = nr
                via[nbr] = sid
                heapq.heappush(heap, (nd, nr))
        return found, route, via, dist

    def shortest_path(
        self,
        src: int,
        dst: int,
        allowed_segments: set[str] | frozenset[str] | None = None,
    ) -> Path:
        """Minimum-length aisle path between two workstations.

        Uses only allowed_segments when given. Raises NoFeasiblePath if the
        endpoints are disconnected under the restriction.
        """
        a = self.anchor_of(src)
        b = self.anchor_of(dst)
        if src == dst:
            return Path((), 0.0, (a,))
        found = self.shortest_path_points(a, {b}, allowed_segments)
        if found is None:
            raise NoFeasiblePath(f"no path from WS{src} to WS{dst} under the segment restriction")
        return found

    def distance(
        self,
        src: int,
        dst: int,
        allowed_segments: set[str] | frozenset[str] | None = None,
    ) -> float:
        return self.shortest_path(src, dst, allowed_segments).distance

    def distances_from(
        self,
        source: str,
        targets: set[str] | frozenset[str],
        allowed_segments: set[str] | frozenset[str] | None = None,
    ) -> dict[str, float]:
        """Shortest-path lengths from one point to every reachable target.

        One Dijkstra sweep serving all targets at once; unreachable targets
        are simply absent from the result.
        """
        if source not in self.points:
            raise LayoutError(f"unknown point {source!r}")
        ids = self._ids
        nbrs = self._nbrs
        remaining = set(targets)
        out: dict[str, float] = {}
        if source in remaining:
            out[source] = 0.0
            remaining.discard(source)
        start = self._index[source]
        dist = [math.inf] * len(ids)
        done = [False] * len(ids)
        dist[start] = 0.0
        heap: list[tuple[float, int]] = [(0.0, start)]
        while heap and remaining:
            d, cur = heapq.heappop(heap)
            if done[cur]:
                continue
            done[cur] = True
            pid = ids[cur]
            if pid in remaining:
                out[pid] = d
                remaining.discard(pid)
            for nbr, sid, length in nbrs[cur]:
                if allowed_segments is not None and sid not in allowed_segments:
                    continue
                nd = d + length
                if not done[nbr] and nd < dist[nbr]:
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        return out

    # ── Serialization ────────────────────────────────────────────────

    def to_json(self) -> dict:
        return {
            "schema_version": LAYOUT_SCHEMA_MAJOR,
            "adjacency_threshold_feet": self.adjacency_threshold,
            "points": [
                {"id": p.id, "x": p.x, "y": p.y, "kind": p.kind}
                for p in self.points.values()
            ],
            "segments": [[s.a, s.b] for s in self.segments.values()],
            "workstations": [
                {
                    "id": w.id,
                    "anchor": w.anchor,
                    "processing_time_minutes": w.processing_time,
                }
                for w in self.workstations.values()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FloorGraph":
        major = data.get("schema_version")
        if major != LAYOUT_SCHEMA_MAJOR:
            raise LayoutError(f"unsupported layout schema_version {major!r}")
        try:
            points = [
                CriticalPoint(str(p["id"]), float(p["x"]), float(p["y"]), str(p["kind"]))
                for p in data["points"]
            ]
            segments = [(str(a), str(b)) for a, b in data["segments"]]
            workstations = [
                Workstation(int(w["id"]), str(w["anchor"]), float(w["processing_time_minutes"]))
                for w in data["workstations"]
            ]
            threshold = float(data["adjacency_threshold_feet"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LayoutError(f"malformed layout file: {exc}") from exc
        return cls(points, segments, workstations, threshold)

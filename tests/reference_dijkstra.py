"""String-keyed Dijkstra kept as the reference for FloorGraph's searches.

These are the shortest-path routines FloorGraph used before it numbered
its points: routes are tuples of point-id strings and ties break on them
directly. Tests compare the graph's answers with these.
"""

from __future__ import annotations

import heapq
import math

from dynzone.floorgraph import FloorGraph, Path


def adjacency(graph: FloorGraph) -> dict[str, list[tuple[str, str, float]]]:
    """Neighbor lists sorted by neighbor id, built from the public fields."""
    adj: dict[str, list[tuple[str, str, float]]] = {pid: [] for pid in graph.points}
    for seg in graph.segments.values():
        adj[seg.a].append((seg.b, seg.id, seg.length))
        adj[seg.b].append((seg.a, seg.id, seg.length))
    for lst in adj.values():
        lst.sort()
    return adj


def shortest_path_points(graph, source, targets, allowed_segments=None) -> Path | None:
    adj = adjacency(graph)
    if source in targets:
        return Path((), 0.0, (source,))
    dist: dict[str, float] = {source: 0.0}
    route: dict[str, tuple[str, ...]] = {source: (source,)}
    segs: dict[str, tuple[str, ...]] = {source: ()}
    done: set[str] = set()
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    while heap:
        d, r = heapq.heappop(heap)
        cur = r[-1]
        if cur in done or r != route.get(cur):
            continue
        done.add(cur)
        if cur in targets:
            return Path(segs[cur], d, route[cur])
        for nbr, sid, length in adj[cur]:
            if allowed_segments is not None and sid not in allowed_segments:
                continue
            if nbr in done:
                continue
            nd = d + length
            old = dist.get(nbr)
            nr = route[cur] + (nbr,)
            if old is None or nd < old - 1e-9 or (abs(nd - old) <= 1e-9 and nr < route[nbr]):
                dist[nbr] = nd
                route[nbr] = nr
                segs[nbr] = segs[cur] + (sid,)
                heapq.heappush(heap, (nd, nr))
    return None


def distances_from(graph, source, targets, allowed_segments=None) -> dict[str, float]:
    adj = adjacency(graph)
    remaining = set(targets)
    out: dict[str, float] = {}
    if source in remaining:
        out[source] = 0.0
        remaining.discard(source)
    dist: dict[str, float] = {source: 0.0}
    heap: list[tuple[float, str]] = [(0.0, source)]
    done: set[str] = set()
    while heap and remaining:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        done.add(cur)
        if cur in remaining:
            out[cur] = d
            remaining.discard(cur)
        for nbr, sid, length in adj[cur]:
            if allowed_segments is not None and sid not in allowed_segments:
                continue
            nd = d + length
            if nbr not in done and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return out

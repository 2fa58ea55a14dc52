from __future__ import annotations

import itertools
import json
import math
import random

import pytest

from dynzone.errors import LayoutError, NoFeasiblePath, UnknownWorkstation
from dynzone.floorgraph import JUNCTION, WS_ANCHOR, FloorGraph
from tests import reference_dijkstra
from tests.conftest import build_graph


def test_identity_path(line_graph):
    p = line_graph.shortest_path(2, 2)
    assert p.distance == 0
    assert p.segments == ()


def test_single_route(line_graph):
    p = line_graph.shortest_path(1, 3)
    assert p.distance == 30
    assert p.segments == ("A|B", "B|C")


def test_unknown_workstation(line_graph):
    with pytest.raises(UnknownWorkstation):
        line_graph.shortest_path(1, 99)


def test_restricted_no_path(line_graph):
    with pytest.raises(NoFeasiblePath):
        line_graph.shortest_path(1, 3, allowed_segments={"A|B"})


def test_restriction_never_shortens(twozone_graph):
    full = twozone_graph.shortest_path(1, 2).distance
    restricted = twozone_graph.shortest_path(1, 2, allowed_segments=set(twozone_graph.segments))
    assert restricted.distance == full


def test_adjacency(twozone_graph):
    assert twozone_graph.adjacent(1, 1)  # reflexive
    assert twozone_graph.adjacent(1, 2)  # 30 ft at threshold 30
    assert twozone_graph.adjacent(2, 1)  # symmetric
    assert not twozone_graph.adjacent(4, 2)  # 40 ft


def test_adjacency_direct_comparison():
    g = build_graph(
        points=[("A", 0, 0, WS_ANCHOR), ("B", 5, 0, WS_ANCHOR), ("C", 30, 0, WS_ANCHOR)],
        segments=[("A", "B"), ("B", "C")],
        workstations=[(1, "A", 0.0), (2, "B", 0.0), (3, "C", 0.0)],
        threshold=20,
    )
    assert g.adjacent(1, 2)  # 5 ft apart
    assert not g.adjacent(1, 3)  # 30 ft apart (25-ft case in spirit: > threshold)


def _grid_graph(n, seed=0):
    """n x n grid of junctions with a workstation hung on each corner."""
    points = []
    segments = []
    for r in range(n):
        for c in range(n):
            points.append((f"J{c}{r}", 10.0 * c, 10.0 * r, JUNCTION))
            if c:
                segments.append((f"J{c-1}{r}", f"J{c}{r}"))
            if r:
                segments.append((f"J{c}{r-1}", f"J{c}{r}"))
    ws = []
    corners = [(0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)]
    for i, (c, r) in enumerate(corners, start=1):
        # Anchors hang off the grid so their coordinates stay unique.
        y = 10.0 * r + (-5.0 if r == 0 else 5.0)
        points.append((f"W{i}", 10.0 * c, y, WS_ANCHOR))
        segments.append((f"J{c}{r}", f"W{i}"))
        ws.append((i, f"W{i}", 1.0))
    return build_graph(points, segments, ws, threshold=15)


def _floyd_warshall(graph):
    pts = sorted(graph.points)
    idx = {p: i for i, p in enumerate(pts)}
    inf = float("inf")
    n = len(pts)
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for seg in graph.segments.values():
        a, b = idx[seg.a], idx[seg.b]
        dist[a][b] = min(dist[a][b], seg.length)
        dist[b][a] = min(dist[b][a], seg.length)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist, idx


def test_dijkstra_matches_floyd_warshall_oracle():
    g = _grid_graph(4)
    dist, idx = _floyd_warshall(g)
    for a, b in itertools.combinations(sorted(g.workstations), 2):
        expect = dist[idx[g.anchor_of(a)]][idx[g.anchor_of(b)]]
        assert g.distance(a, b) == pytest.approx(expect)


def test_shipped_layout_ws4_to_ws14_matches_oracle():
    from dynzone.datafiles import load_layout

    g = load_layout("layout18")
    dist, idx = _floyd_warshall(g)
    expect = dist[idx[g.anchor_of(4)]][idx[g.anchor_of(14)]]
    assert g.distance(4, 14) == pytest.approx(expect)


def test_triangle_inequality_and_symmetry(twozone_graph):
    ws = sorted(twozone_graph.workstations)
    for a, b in itertools.combinations(ws, 2):
        assert twozone_graph.distance(a, b) == pytest.approx(twozone_graph.distance(b, a))
    for a, b, c in itertools.permutations(ws, 3):
        assert twozone_graph.distance(a, c) <= (
            twozone_graph.distance(a, b) + twozone_graph.distance(b, c) + 1e-9
        )


def test_deterministic_tie_breaking():
    # Two equal-length routes around a square block; the lexicographically
    # smaller point sequence must win every time.
    g = build_graph(
        points=[
            ("A", 0, 0, WS_ANCHOR),
            ("B", 10, 0, JUNCTION),
            ("C", 0, 10, JUNCTION),
            ("D", 10, 10, WS_ANCHOR),
        ],
        segments=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        workstations=[(1, "A", 0.0), (2, "D", 0.0)],
        threshold=25,
    )
    for _ in range(5):
        p = g.shortest_path(1, 2)
        assert p.points == ("A", "B", "D")


def test_loader_rejects_disconnected():
    with pytest.raises(LayoutError, match="disconnected"):
        build_graph(
            points=[
                ("A", 0, 0, WS_ANCHOR),
                ("B", 10, 0, WS_ANCHOR),
                ("C", 30, 0, WS_ANCHOR),
                ("D", 40, 0, WS_ANCHOR),
            ],
            segments=[("A", "B"), ("C", "D")],
            workstations=[(1, "A", 1.0), (2, "C", 1.0)],
            threshold=20,
        )


def test_loader_rejects_bad_anchor():
    with pytest.raises(LayoutError, match="anchor"):
        build_graph(
            points=[("A", 0, 0, JUNCTION), ("B", 10, 0, WS_ANCHOR)],
            segments=[("A", "B")],
            workstations=[(1, "A", 1.0)],
            threshold=20,
        )


def test_roundtrip_json(twozone_graph):
    loaded = FloorGraph.from_json(json.loads(json.dumps(twozone_graph.to_json())))
    assert loaded.to_json() == twozone_graph.to_json()


def _tie_grid(seed: int) -> FloorGraph:
    """A junction grid whose aisle lengths mix 10 ft with 0.1-0.3 ft steps.

    Many routes tie in length, some only within floating-point rounding,
    and point ids such as P10 and P2 sort differently as strings than as
    numbers.
    """
    rng = random.Random(seed)
    cols, rows = 7, 5
    xs = list(itertools.accumulate(rng.choice([0.1, 0.2, 0.3, 10.0]) for _ in range(cols)))
    ys = list(itertools.accumulate(rng.choice([0.1, 0.2, 0.3, 10.0]) for _ in range(rows)))
    anchors = set(rng.sample(range(cols * rows), 6))
    points = [
        (f"P{r * cols + c}", xs[c], ys[r], WS_ANCHOR if r * cols + c in anchors else JUNCTION)
        for r in range(rows)
        for c in range(cols)
    ]
    segments = [
        (f"P{r * cols + c}", f"P{r * cols + c + 1}") for r in range(rows) for c in range(cols - 1)
    ] + [
        (f"P{r * cols + c}", f"P{(r + 1) * cols + c}") for r in range(rows - 1) for c in range(cols)
    ]
    workstations = [(i + 1, f"P{a}", 1.0) for i, a in enumerate(sorted(anchors))]
    return build_graph(points, segments, workstations, threshold=30)


@pytest.mark.parametrize("name", ["layout18", "fig2", "grid-3", "grid-4"])
def test_searches_match_string_keyed_reference(name):
    from dynzone.datafiles import load_layout

    g = _tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
    rng = random.Random(name)
    point_ids = sorted(g.points)
    segment_ids = sorted(g.segments)
    for _ in range(150):
        keep = rng.choice([None, 0.5, 0.8, 1.0])
        allowed = None if keep is None else {s for s in segment_ids if rng.random() < keep}
        source = rng.choice(point_ids)
        targets = set(rng.sample(point_ids, rng.randint(1, 4)))
        if rng.random() < 0.1:
            targets.add(source)
        expect_path = reference_dijkstra.shortest_path_points(g, source, targets, allowed)
        expect_dists = reference_dijkstra.distances_from(g, source, targets, allowed)
        # Twice, so that memoized unrestricted answers are compared as well.
        for _ in range(2):
            assert g.shortest_path_points(source, targets, allowed) == expect_path
            got = g.distances_from(source, targets, allowed)
            assert got == expect_dists
            got.clear()  # a caller's edits must not reach the memo


@pytest.mark.parametrize("name", ["layout18", "fig2", "grid-3", "grid-4"])
def test_paths_to_each_equal_single_target_searches(name):
    from dynzone.datafiles import load_layout

    g = _tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
    rng = random.Random(f"each-{name}")
    point_ids = sorted(g.points)
    segment_ids = sorted(g.segments)
    for _ in range(60):
        keep = rng.choice([None, 0.5, 0.8, 1.0])
        allowed = None if keep is None else {s for s in segment_ids if rng.random() < keep}
        source = rng.choice(point_ids)
        targets = set(rng.sample(point_ids, rng.randint(1, len(point_ids))))
        expect = {}
        for t in sorted(targets):
            single = g.shortest_path_points(source, {t}, allowed)
            assert single == reference_dijkstra.shortest_path_points(g, source, {t}, allowed)
            if single is not None:
                expect[t] = single
        assert g.shortest_paths_to_each(source, targets, allowed) == expect


@pytest.mark.parametrize("name", ["layout18", "fig2", "dumbbell", "grid-3", "grid-4"])
def test_kept_free_paths_equal_reference_in_any_order(name):
    """A miss keeps the source's paths to every anchor; each answer, searched
    or kept, equals the reference, whatever order the pairs come in."""
    from dynzone.datafiles import load_layout

    g = _tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
    fresh = FloorGraph.from_json(g.to_json())
    anchors = sorted(g.anchor_of(w) for w in g.workstations)
    points = anchors + [p for p in sorted(g.points) if p not in anchors][:1]  # and a junction
    pairs = [(s, t) for s in points for t in points]
    random.Random(name).shuffle(pairs)
    for source, target in pairs:
        expect = reference_dijkstra.shortest_path_points(g, source, {target})
        assert fresh.shortest_path_points(source, {target}) == expect
    for a in g.workstations:
        for b in g.workstations:
            expect = reference_dijkstra.shortest_path_points(g, g.anchor_of(a), {g.anchor_of(b)})
            assert fresh.shortest_path(a, b) == expect


@pytest.mark.parametrize("name", ["layout18", "fig2", "grid-3", "grid-4", "grid-7"])
def test_bounded_search_answers_only_below_the_bound(name):
    """With `below`, a search returns the reference path when its distance
    is < below and None otherwise: at, just under and just over the
    reference distance, restricted or not, and through the free-path memo
    whether its first search for a source was bounded or not."""
    from dynzone.datafiles import load_layout

    g = _tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
    rng = random.Random(f"below-{name}")
    point_ids = sorted(g.points)
    segment_ids = sorted(g.segments)
    for _ in range(200):
        source = rng.choice(point_ids)
        if rng.random() < 0.5:  # the unrestricted single-target memo
            allowed, targets = None, {rng.choice(point_ids)}
        else:
            keep = rng.choice([None, 0.5, 0.8, 1.0])
            allowed = None if keep is None else {s for s in segment_ids if rng.random() < keep}
            targets = set(rng.sample(point_ids, rng.randint(1, 4)))
            if rng.random() < 0.1:
                targets.add(source)
        expect = reference_dijkstra.shortest_path_points(g, source, targets, allowed)
        d = expect.distance if expect is not None else rng.uniform(0.0, 400.0)
        bounds = [d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf), d / 2, 2 * d + 1]
        for below in bounds:
            want = expect if expect is not None and expect.distance < below else None
            assert g.shortest_path_points(source, targets, allowed, below=below) == want
        assert g.shortest_path_points(source, targets, allowed, below=None) == expect


def test_free_path_miss_searches_once_per_source(monkeypatch):
    g = _tie_grid(5)
    anchors = sorted(g.anchor_of(w) for w in g.workstations)
    searches = []
    settle = g._settle
    monkeypatch.setattr(
        g, "_settle", lambda source, *rest: searches.append(source) or settle(source, *rest)
    )
    for source in anchors:
        for target in anchors:
            g.shortest_path_points(source, {target})
    assert searches == anchors
    # Restricted and multi-target queries search every time.
    searches.clear()
    for _ in range(2):
        g.shortest_path_points(anchors[0], {anchors[1]}, set(g.segments))
        g.shortest_path_points(anchors[0], set(anchors[1:]))
    assert searches == [anchors[0]] * 4


def test_paths_to_each_rejects_unknown_source(line_graph):
    with pytest.raises(LayoutError):
        line_graph.shortest_paths_to_each("nowhere", {"A"})

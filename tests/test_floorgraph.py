from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynzone.errors import LayoutError, NoFeasiblePath, UnknownWorkstation
from dynzone.floorgraph import JUNCTION, WS_ANCHOR, FloorGraph
from tests import reference_dijkstra
from tests.conftest import build_graph, grid_layout, tie_grid


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


@pytest.mark.parametrize("name", ["layout18", "fig2", "grid-3", "grid-4"])
def test_searches_match_string_keyed_reference(name):
    from dynzone.datafiles import load_layout

    g = tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
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

    g = tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
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

    g = tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
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

    g = tie_grid(int(name[5:])) if name.startswith("grid") else load_layout(name)
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


def _spy_searches(monkeypatch, g):
    """Record (source, restricted) for every search the graph runs."""
    searches = []
    settle = g._settle
    monkeypatch.setattr(
        g,
        "_settle",
        lambda source, targets, allowed, *rest: searches.append((source, allowed is not None))
        or settle(source, targets, allowed, *rest),
    )
    return searches


def test_free_path_miss_searches_once_per_source(monkeypatch):
    """The first query from a source settles its whole tree in one search;
    every unrestricted query from it is then answered from the tree. On a
    floor that is not exact, restricted queries search every time."""
    g = tie_grid(5)
    assert not g._exact
    anchors = sorted(g.anchor_of(w) for w in g.workstations)
    searches = _spy_searches(monkeypatch, g)
    for source in anchors:
        for target in anchors:
            g.shortest_path_points(source, {target})
        g.shortest_path_points(source, set(anchors[1:]), below=50.0)
        g.shortest_paths_to_each(source, set(anchors))
    assert searches == [(source, False) for source in anchors]
    searches.clear()
    everything = set(g.segments)
    for _ in range(2):
        g.shortest_path_points(anchors[0], {anchors[1]}, everything)
        g.shortest_paths_to_each(anchors[0], set(anchors[1:]), everything)
    assert searches == [(anchors[0], True)] * 4


def test_exact_floor_restricted_queries_search_only_off_the_tree(monkeypatch):
    """On an exact floor a restricted query searches only when the tree's
    answer leaves the allowed segments, and the answer is the reference's
    either way."""
    g = tie_grid(5, (1, 2, 3, 100))
    assert g._exact
    source, *others = sorted(g.anchor_of(w) for w in g.workstations)
    searches = _spy_searches(monkeypatch, g)
    free = g.shortest_paths_to_each(source, set(others))
    assert searches == [(source, False)]
    inside = set(g.segments)
    outside = inside - {free[others[0]].segments[-1]}
    for allowed, searched in ((inside, []), (outside, [(source, True)] * 3)):
        searches.clear()
        for targets in ({others[0]}, set(others)):
            expect = reference_dijkstra.shortest_path_points(g, source, targets, allowed)
            assert g.shortest_path_points(source, targets, allowed) == expect
        assert g.shortest_paths_to_each(source, set(others), allowed) == {
            t: reference_dijkstra.shortest_path_points(g, source, {t}, allowed) for t in others
        }
        assert searches == searched


def _exact_floor(kind: str, seed: int) -> FloorGraph:
    if kind == "grid":
        rng = random.Random(seed)
        cols, rows = rng.randint(2, 6), rng.randint(2, 5)
        return grid_layout(rng, cols, rows, rng.randint(2, cols * rows))
    scale = int(kind[5:])
    return tie_grid(seed, (scale, 2 * scale, 3 * scale, 100 * scale))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["grid", "ties-1", "ties-2", "ties-3", "ties-100"]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_tree_answers_equal_reference_on_exact_floors(kind, seed, data):
    """On exact floors, grids and integer near-tie grids, every answer
    equals the reference over random allowed sets, target sets and bounds,
    with the kept trees shared across the queries."""
    g = _exact_floor(kind, seed)
    assert g._exact
    point_ids = sorted(g.points)
    segment_ids = sorted(g.segments)
    for _ in range(6):
        source = data.draw(st.sampled_from(point_ids))
        targets = data.draw(st.sets(st.sampled_from(point_ids), min_size=1, max_size=5))
        cut = data.draw(st.none() | st.sets(st.sampled_from(segment_ids), max_size=len(segment_ids)))
        allowed = None if cut is None else set(segment_ids) - cut
        expect = reference_dijkstra.shortest_path_points(g, source, targets, allowed)
        d = expect.distance if expect is not None else 50.0
        below = data.draw(st.sampled_from([None, d, math.nextafter(d, 0.0), d + 1, d / 2]))
        want = expect if below is None or (expect is not None and expect.distance < below) else None
        assert g.shortest_path_points(source, targets, allowed, below=below) == want
        each = {t: reference_dijkstra.shortest_path_points(g, source, {t}, allowed) for t in targets}
        got = g.shortest_paths_to_each(source, targets, allowed)
        assert got == {t: p for t, p in each.items() if p is not None}
        assert list(got) == sorted(got, key=lambda t: (got[t].distance, got[t].points))


def test_exact_floor_detection():
    """A floor is exact when its lengths are integers summing below 2**53."""
    from dynzone.datafiles import load_layout
    from perfbench import workloads

    for name in ("layout18", "fig2", "dumbbell"):
        assert load_layout(name)._exact
    grid48 = workloads.make_instance("dispatch-grid48", 1).layout_text
    assert FloorGraph.from_json(json.loads(grid48))._exact
    assert grid_layout(random.Random(0), 9, 7, 48)._exact
    assert tie_grid(3, (1, 2, 3, 100))._exact
    assert not any(tie_grid(seed)._exact for seed in range(8))

    def line(first: float, second: float) -> FloorGraph:
        return build_graph(
            [("A", 0.0, 0.0, WS_ANCHOR), ("B", first, 0.0, JUNCTION),
             ("C", first + second, 0.0, WS_ANCHOR)],
            [("A", "B"), ("B", "C")], [(1, "A", 1.0), (2, "C", 1.0)], threshold=1,
        )

    assert line(2.0**52, 2.0**52 - 1)._exact
    assert not line(2.0**52, 2.0**52)._exact
    assert not line(1.0, 2.5)._exact


def test_paths_to_each_rejects_unknown_source(line_graph):
    with pytest.raises(LayoutError):
        line_graph.shortest_paths_to_each("nowhere", {"A"})


@pytest.mark.parametrize("allowed", [None, "all"])
@pytest.mark.parametrize("exact", [True, False])
def test_unknown_target_is_refused_on_every_path(allowed, exact):
    g = grid_layout(random.Random(3), 4, 3, 4) if exact else tie_grid(0)
    assert g._exact is exact
    source = g.anchor_of(min(g.workstations))
    segments = None if allowed is None else frozenset(g.segments)
    with pytest.raises(LayoutError, match="nowhere"):
        g.shortest_path_points(source, {source, "nowhere"}, segments)
    with pytest.raises(LayoutError, match="nowhere"):
        g.shortest_path_points(source, {"nowhere"}, segments)
    with pytest.raises(LayoutError, match="nowhere"):
        g.shortest_paths_to_each(source, {source, "nowhere"}, segments)

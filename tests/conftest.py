from __future__ import annotations

import itertools
import operator
import random

import pytest

from dynzone.floorgraph import JUNCTION, WS_ANCHOR, CriticalPoint, FloorGraph, Workstation
from dynzone.simengine import Simulation, compute_metrics
from dynzone.zoning import Zone, ZonePartition


def left_to_right(values):
    """Add values one at a time from the left, the order every logged sum uses."""
    total = 0
    for v in values:
        total = total + v
    return total


def mix(w, x):
    """One consensus step: the matrix-vector product of rows w and x."""
    return [left_to_right(map(operator.mul, row, x)) for row in w]


def allclose(actual, expected, rtol=1e-5, atol=1e-8):
    """numpy.allclose's test, elementwise over equal-length sequences."""
    return len(actual) == len(expected) and all(
        abs(a - b) <= atol + rtol * abs(b) for a, b in zip(actual, expected)
    )


def run_simulation(graph, scenario_parts, config, start=None):
    """One run as `dynzone simulate` makes it: (event log, metrics report)."""
    events = Simulation(graph, scenario_parts, config, start).run()
    return events, compute_metrics(events, config.method, config.n_robots, len(scenario_parts))


def build_graph(points, segments, workstations, threshold):
    pts = [CriticalPoint(pid, x, y, kind) for pid, x, y, kind in points]
    ws = [Workstation(i, anchor, minutes) for i, anchor, minutes in workstations]
    return FloorGraph(pts, segments, ws, threshold)


def grid_layout(rng, cols: int, rows: int, n_stations: int) -> FloorGraph:
    """A cols x rows aisle grid of junctions at 40-ft spacing; n_stations
    junctions drawn from rng carry a workstation on its own 20-ft stub, with
    a processing time of 1-3 minutes drawn from rng."""
    points, segments = [], []
    for r in range(rows):
        for c in range(cols):
            points.append({"id": f"J{c}_{r}", "x": 40 * c, "y": 40 * r, "kind": JUNCTION})
            if c + 1 < cols:
                segments.append([f"J{c}_{r}", f"J{c + 1}_{r}"])
            if r + 1 < rows:
                segments.append([f"J{c}_{r}", f"J{c}_{r + 1}"])
    workstations = []
    for ws_id, cell in enumerate(sorted(rng.sample(range(cols * rows), n_stations)), start=1):
        c, r = cell % cols, cell // cols
        anchor = f"W{ws_id}"
        points.append({"id": anchor, "x": 40 * c + 10, "y": 40 * r + 10, "kind": WS_ANCHOR})
        segments.append([f"J{c}_{r}", anchor])
        workstations.append(
            {"id": ws_id, "anchor": anchor, "processing_time_minutes": rng.randint(1, 3)}
        )
    return FloorGraph.from_json({
        "schema_version": 1,
        "adjacency_threshold_feet": 80,
        "points": points,
        "segments": segments,
        "workstations": workstations,
    })


def tie_grid(seed: int, steps=(0.1, 0.2, 0.3, 10.0)) -> FloorGraph:
    """A junction grid whose aisle lengths mix 10 ft with 0.1-0.3 ft steps.

    Many routes tie in length, some only within floating-point rounding,
    and point ids such as P10 and P2 sort differently as strings than as
    numbers. Integer steps give an exact floor with as many ties.
    """
    rng = random.Random(seed)
    cols, rows = 7, 5
    xs = list(itertools.accumulate(rng.choice(steps) for _ in range(cols)))
    ys = list(itertools.accumulate(rng.choice(steps) for _ in range(rows)))
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


@pytest.fixture
def line_graph():
    """Three workstations on a straight aisle: A --10-- B --20-- C."""
    return build_graph(
        points=[
            ("A", 0, 0, WS_ANCHOR),
            ("B", 10, 0, WS_ANCHOR),
            ("C", 30, 0, WS_ANCHOR),
        ],
        segments=[("A", "B"), ("B", "C")],
        workstations=[(1, "A", 1.0), (2, "B", 1.0), (3, "C", 1.0)],
        threshold=20,
    )


@pytest.fixture
def twozone_graph():
    """Two-zone example floor: a forked zone next to a short chain zone.

    Zone 1 (WS1, WS4, WS5) hangs off junction N; zone 2 (WS2, WS3, WS6)
    is the chain A-F-C. Junctions D and I sit on the unassigned corridor
    connecting the zones. WS1 and WS2 are the only cross-zone adjacent
    tips (Manhattan 30 at threshold 30).
    """
    return build_graph(
        points=[
            ("A", 0, 20, WS_ANCHOR),
            ("F", 10, 20, WS_ANCHOR),
            ("C", 20, 20, WS_ANCHOR),
            ("D", 30, 20, JUNCTION),
            ("I", 40, 20, JUNCTION),
            ("H", 40, 30, WS_ANCHOR),
            ("N", 40, 10, JUNCTION),
            ("O", 40, 0, WS_ANCHOR),
            ("S", 50, 10, JUNCTION),
            ("R", 60, 10, WS_ANCHOR),
        ],
        segments=[
            ("A", "F"),
            ("F", "C"),
            ("C", "D"),
            ("D", "I"),
            ("H", "I"),
            ("I", "N"),
            ("N", "O"),
            ("N", "S"),
            ("S", "R"),
        ],
        workstations=[
            (1, "H", 1.0),
            (2, "C", 1.0),
            (3, "A", 1.0),
            (4, "O", 1.0),
            (5, "R", 1.0),
            (6, "F", 1.0),
        ],
        threshold=30,
    )


@pytest.fixture
def twozone_partition(twozone_graph):
    zone1 = Zone(1, (1, 4, 5), frozenset({"H|I", "I|N", "N|O", "N|S", "R|S"}))
    zone2 = Zone(2, (2, 3, 6), frozenset({"A|F", "C|F"}))
    return ZonePartition(twozone_graph, (zone1, zone2))

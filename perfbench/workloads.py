"""The benchmark's workloads: fixed pools of simulation instances.

Each workload is a pool of instances, numbered from 1. An instance is
everything one `dynzone simulate` run needs: layout, scenario and config as
JSON text, the method, and the simulation seed. A run's --seed shuffles the
pool into the order the run visits it, so the same seed gives the same
inputs in the same order, and every event log a run makes has a stored
fingerprint to match.

Every workload also has instance 0, a full-size run too long to repeat
inside one timed run: for the shipped workloads the full shipped run
(layout18, scenario100, config_default, seed 1), whose fingerprint the
project's roadmap pins; for dispatch-grid48 a 300-part scenario. Only
`--fingerprints` and `--instance 0` run it.

This module uses the standard library only; it never imports dynzone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "dynzone" / "data"

# A timed run visits its whole pool at least once, so its figures do not
# depend on which instances the seed happens to put first. The pools are
# sized so that one pass takes 12-28 s on a 2-core machine.
POOL_SIZES = {"ddz-shipped": 16, "sa-shipped": 16, "ga-shipped": 16, "dispatch-grid48": 10}

# scenario100 cut to 4 A, 4 B, 3 C and 3 D parts (qty x 0.15, rounded half
# to even). A full shipped run takes 20-60 s on a 2-core machine; this cut
# keeps the route mix, triggers 1-3 repairs, and takes 0.4-2 s, so one
# timed run covers the whole pool.
SHIPPED_SCALE = 0.15


@dataclass(frozen=True)
class Instance:
    workload: str
    index: int
    method: str
    sim_seed: int
    layout_text: str
    scenario_text: str
    config_text: str
    # Workload facts the correctness checks use.
    repair_free: bool


def _shipped_text(name: str) -> str:
    return (DATA / f"{name}.json").read_text()


def _scaled_scenario(scale: float) -> str:
    scenario = json.loads(_shipped_text("scenario100"))
    scenario["name"] += f"-x{scale}"
    for entry in scenario["parts"]:
        entry["qty"] = max(1, round(entry["qty"] * scale))
    return json.dumps(scenario, indent=2) + "\n"


def _shipped(workload: str, method: str, index: int) -> Instance:
    if index == 0:
        scenario, sim_seed = _shipped_text("scenario100"), 1
    else:
        scenario, sim_seed = _scaled_scenario(SHIPPED_SCALE), index
    return Instance(
        workload, index, method, sim_seed,
        _shipped_text("layout18"), scenario, _shipped_text("config_default"),
        repair_free=False,
    )


# ── dispatch-grid48: a generated floor with 48 workstations ──────────

GRID_COLS, GRID_ROWS, GRID_SPACING = 9, 7, 40
GRID_STATIONS = 48
GRID_PART_TYPES = 12
GRID_QTY = 4  # parts per type: 48 parts in all
GRID_QTY_FULL = 25  # instance 0: 300 parts
GRID_ROBOTS = 6
# No load gap on this floor ever reaches this many minutes, so no repair
# starts and the initial zone design stays in force for the whole run.
GRID_L_TOL = 1.0e6


def grid48_layout(rng: random.Random) -> tuple[dict, list[int]]:
    """A 9 x 7 aisle grid at 40-ft spacing; 48 of its 63 junctions, drawn
    from rng, carry a workstation on a 20-ft stub, as on the shipped floor."""

    def jname(c: int, r: int) -> str:
        return f"J{c}_{r}"

    points, segments, workstations = [], [], []
    for r in range(GRID_ROWS):
        for c in range(GRID_COLS):
            x, y = c * GRID_SPACING, r * GRID_SPACING
            points.append({"id": jname(c, r), "x": x, "y": y, "kind": "junction"})
            if c + 1 < GRID_COLS:
                segments.append([jname(c, r), jname(c + 1, r)])
            if r + 1 < GRID_ROWS:
                segments.append([jname(c, r), jname(c, r + 1)])
    cells = [(c, r) for r in range(GRID_ROWS) for c in range(GRID_COLS)]
    chosen = sorted(rng.sample(range(len(cells)), GRID_STATIONS))
    for ws_id, cell in enumerate(chosen, start=1):
        c, r = cells[cell]
        anchor = f"W{ws_id}"
        points.append({
            "id": anchor,
            "x": c * GRID_SPACING + 10,
            "y": r * GRID_SPACING + 10,
            "kind": "workstation-anchor",
        })
        segments.append([jname(c, r), anchor])
        workstations.append({
            "id": ws_id,
            "anchor": anchor,
            "processing_time_minutes": rng.randint(1, 3),
        })
    layout = {
        "schema_version": 1,
        "adjacency_threshold_feet": 80,
        "points": points,
        "segments": segments,
        "workstations": workstations,
    }
    return layout, [w["id"] for w in workstations]


def grid48_scenario(rng: random.Random, ws_ids: list[int], qty: int) -> dict:
    """Twelve part types, each a route of 4-7 distinct stations.

    Routes are dealt from a shuffled deck that holds every station twice,
    so no station serves more than two part types and the busiest station
    varies little from one instance to the next.
    """
    deck = ws_ids * 2
    rng.shuffle(deck)
    parts = []
    for k in range(GRID_PART_TYPES):
        route: list[int] = []
        for _ in range(rng.randint(4, 7)):
            ws = next(w for w in deck if w not in route)
            deck.remove(ws)
            route.append(ws)
        parts.append({"type": f"G{k + 1}", "route": route, "qty": qty})
    return {
        "schema_version": 1,
        "name": "dispatch-grid48",
        "parts": parts,
        "release": "simultaneous",
    }


def grid48_config() -> dict:
    config = json.loads(_shipped_text("config_default"))
    config["n_robots"] = GRID_ROBOTS
    config["l_tol_minutes"] = GRID_L_TOL
    return config


def _grid48(index: int) -> Instance:
    rng = random.Random(f"dispatch-grid48:{index}")
    layout, ws_ids = grid48_layout(rng)
    scenario = grid48_scenario(rng, ws_ids, GRID_QTY_FULL if index == 0 else GRID_QTY)
    return Instance(
        "dispatch-grid48", index, "ddz", index,
        json.dumps(layout, indent=2) + "\n",
        json.dumps(scenario, indent=2) + "\n",
        json.dumps(grid48_config(), indent=2) + "\n",
        repair_free=True,
    )


WORKLOADS = {
    "ddz-shipped": lambda i: _shipped("ddz-shipped", "ddz", i),
    "sa-shipped": lambda i: _shipped("sa-shipped", "sa", i),
    "ga-shipped": lambda i: _shipped("ga-shipped", "ga", i),
    "dispatch-grid48": _grid48,
}


def instance_indices(workload: str) -> list[int]:
    """Every instance of a workload that has a stored fingerprint."""
    return list(range(POOL_SIZES[workload] + 1))


def make_instance(workload: str, index: int) -> Instance:
    if index not in instance_indices(workload):
        raise KeyError(f"{workload} has no instance {index}")
    return WORKLOADS[workload](index)


def visit_order(workload: str, seed: int) -> list[int]:
    """The pool indices a run with this seed visits, in order."""
    order = list(range(1, POOL_SIZES[workload] + 1))
    random.Random(seed).shuffle(order)
    return order

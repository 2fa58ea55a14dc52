"""Correctness checks on one finished simulation, made apart from the program.

Every check reads the inputs as JSON and the event log as a list of dicts,
and returns a list of problems (empty when the check passes). None of them
calls into dynzone: distances come from the benchmark's own all-pairs
shortest paths over the layout, and routes from the benchmark's own reading
of the scenario. This module uses the standard library only.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import defaultdict
from dataclasses import dataclass

EPS = 1e-6


@dataclass(frozen=True)
class Facts:
    """What the checks need to know about one run besides its event log."""

    layout: dict
    scenario: dict
    n_robots: int
    start_points: dict[int, str]  # robot id -> point it stands on at t = 0
    odometers: dict[int, float]  # robot id -> odometer after the run
    completion_minutes: float  # from the metrics report
    repair_free: bool


# ── Independent models of the inputs ─────────────────────────────────


def all_pairs_distances(layout: dict) -> dict[str, dict[str, float]]:
    """Shortest aisle distance between every pair of points.

    Segment length is the Manhattan distance between its end points, as the
    layout format defines it. One Dijkstra sweep per source point.
    """
    pos = {p["id"]: (float(p["x"]), float(p["y"])) for p in layout["points"]}
    adj: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for a, b in layout["segments"]:
        length = abs(pos[a][0] - pos[b][0]) + abs(pos[a][1] - pos[b][1])
        adj[a].append((b, length))
        adj[b].append((a, length))
    table = {}
    for source in pos:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, cur = heapq.heappop(heap)
            if d > dist[cur]:
                continue
            for nbr, length in adj[cur]:
                nd = d + length
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        table[source] = dist
    return table


def part_routes(scenario: dict) -> dict[int, list[int]]:
    """Part id -> route; parts are numbered from 1 in scenario order."""
    routes = {}
    for entry in scenario["parts"]:
        for _ in range(entry["qty"]):
            routes[len(routes) + 1] = list(entry["route"])
    return routes


def _anchors(layout: dict) -> dict[int, str]:
    return {w["id"]: w["anchor"] for w in layout["workstations"]}


def _processing(layout: dict) -> dict[int, float]:
    return {w["id"]: float(w["processing_time_minutes"]) for w in layout["workstations"]}


# ── Checks ───────────────────────────────────────────────────────────


def check_trips(
    events: list[dict], facts: Facts, oracle: dict[str, dict[str, float]]
) -> list[str]:
    """Empty trips equal the oracle distance from the robot's previous point
    to the pickup anchor; loaded trips are at least the oracle distance from
    pickup to dropoff. The oracle is all_pairs_distances(facts.layout)."""
    anchor = _anchors(facts.layout)
    at = dict(facts.start_points)
    carrying: dict[int, int] = {}
    problems = []
    for e in events:
        if e["kind"] == "pickup":
            r = e["robot"]
            want = oracle[at[r]].get(anchor[e["ws"]])
            if want is None or abs(e["distance"] - want) > EPS:
                problems.append(
                    f"t={e['t']} robot {r}: empty trip {at[r]} -> WS{e['ws']} "
                    f"logged {e['distance']}, shortest is {want}"
                )
            carrying[r] = e["ws"]
            at[r] = anchor[e["ws"]]
        elif e["kind"] == "dropoff":
            r = e["robot"]
            src = carrying.pop(r, None)
            if src is None:
                problems.append(f"t={e['t']} robot {r}: dropoff without a pickup")
                continue
            want = oracle[anchor[src]].get(anchor[e["ws"]])
            if want is None or e["distance"] < want - EPS:
                problems.append(
                    f"t={e['t']} robot {r}: loaded trip WS{src} -> WS{e['ws']} "
                    f"logged {e['distance']}, shortest is {want}"
                )
            at[r] = anchor[e["ws"]]
    return problems


def check_odometers(events: list[dict], facts: Facts) -> list[str]:
    """Each robot's logged distances sum to its odometer."""
    logged: dict[int, float] = defaultdict(float)
    for e in events:
        if e["kind"] in ("pickup", "dropoff"):
            logged[e["robot"]] += e["distance"]
    return [
        f"robot {r}: logged {logged[r]} ft, odometer {odo} ft"
        for r, odo in sorted(facts.odometers.items())
        if abs(logged[r] - odo) > EPS
    ]


def check_routes(events: list[dict], facts: Facts) -> list[str]:
    """Each part is processed at exactly its route's stations, in order."""
    routes = part_routes(facts.scenario)
    seen: dict[int, list[int]] = defaultdict(list)
    for e in events:
        if e["kind"] == "processing-done":
            seen[e["part"]].append(e["ws"])
    return [
        f"part {pid}: processed at {seen[pid]}, route is {route}"
        for pid, route in sorted(routes.items())
        if seen[pid] != route
    ]


def check_station_spacing(events: list[dict], facts: Facts) -> list[str]:
    """A station finishes one part at a time: successive processing-done
    times are at least its processing time apart, the first one too."""
    proc = _processing(facts.layout)
    last: dict[int, float] = {}
    problems = []
    for e in events:
        if e["kind"] != "processing-done":
            continue
        ws = e["ws"]
        gap = e["t"] - last.get(ws, 0.0)
        if gap < proc[ws] - EPS:
            problems.append(
                f"t={e['t']} WS{ws}: finished {gap} min after its previous part, "
                f"processing takes {proc[ws]} min"
            )
        last[ws] = e["t"]
    return problems


def check_completion(events: list[dict], facts: Facts) -> list[str]:
    """Every part finishes, no later than the time cap, and no sooner than
    the longest route's processing or the busiest station's total work."""
    proc = _processing(facts.layout)
    routes = part_routes(facts.scenario)
    problems = []
    done = sum(1 for e in events if e["kind"] == "part-done")
    if done != len(routes):
        problems.append(f"{done} of {len(routes)} parts completed")
    if any(e["kind"] == "time-cap" for e in events):
        problems.append("the run stopped at the time cap")
    longest = max(sum(proc[ws] for ws in route) for route in routes.values())
    work: dict[int, float] = defaultdict(float)
    for route in routes.values():
        for ws in route:
            work[ws] += proc[ws]
    busiest = max(work.values())
    for name, bound in (("longest route", longest), ("busiest station", busiest)):
        if facts.completion_minutes < bound - EPS:
            problems.append(
                f"completion {facts.completion_minutes} min is below the "
                f"{name}'s {bound} min of processing"
            )
    return problems


def check_repairs(events: list[dict], facts: Facts) -> list[str]:
    """Every applied zone design assigns each workstation to exactly one of
    n_robots zones; a repair-free workload never signals an imbalance."""
    stations = sorted(w["id"] for w in facts.layout["workstations"])
    zone_ids = {str(z) for z in range(1, facts.n_robots + 1)}
    problems = []
    for e in events:
        if e["kind"] == "zone-repair-applied":
            zones = e["zones"]
            if set(zones) != zone_ids:
                problems.append(f"t={e['t']}: zones {sorted(zones)}, want {sorted(zone_ids)}")
            assigned = sorted(ws for members in zones.values() for ws in members)
            if assigned != stations:
                problems.append(f"t={e['t']}: workstations assigned {assigned}")
        elif e["kind"] == "imbalance-signal" and facts.repair_free:
            problems.append(f"t={e['t']}: imbalance signal on a repair-free workload")
    return problems


def check_fingerprint(log_text: str, expected: str | None) -> list[str]:
    """The event log is byte-identical to the stored copy's fingerprint."""
    got = fingerprint(log_text)
    if expected is None:
        return [f"no stored fingerprint (log sha256 {got})"]
    if got != expected:
        return [f"log sha256 {got}, stored fingerprint {expected}"]
    return []


def fingerprint(log_text: str) -> str:
    return hashlib.sha256(log_text.encode()).hexdigest()


LOG_CHECKS = (
    check_odometers,
    check_routes,
    check_station_spacing,
    check_completion,
    check_repairs,
)


def check_run(
    events: list[dict],
    facts: Facts,
    log_text: str,
    expected: str | None,
    oracle: dict[str, dict[str, float]],
) -> list[str]:
    """Every check; each problem is prefixed by the name of its check."""
    problems = [f"check_trips: {p}" for p in check_trips(events, facts, oracle)]
    for check in LOG_CHECKS:
        problems += [f"{check.__name__}: {p}" for p in check(events, facts)]
    problems += [f"check_fingerprint: {p}" for p in check_fingerprint(log_text, expected)]
    return problems

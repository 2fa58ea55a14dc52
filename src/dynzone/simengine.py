"""Deterministic discrete-event simulation of the zone-delivery system.

Parts move through workstation routes; one robot serves each zone, hands
cross-zone parts over at transfer stations, and the fleet periodically
estimates load balance. When an imbalance persists, the configured method
repairs the zones: the decentralized protocol pauses the participating
robots while they anneal, while the centralized baselines switch to
direct load-share deliveries until the new design is swapped in.

Every run is a pure function of (layout, scenario, config, seed); the
event log replays to identical metrics.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
import random
import statistics
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from . import left_sum, logger
from .baselines import (
    GaConfig,
    PartHistoryWindow,
    ga_optimize,
    initial_partition,
    load_share_dispatch,
    sa_optimize,
)
from .consensus import comm_graph, run_consensus
from .ddz import (
    AnnealingSchedule,
    DdzConfig,
    SearchResult,
    ddz_optimize,
    detect_imbalance,
    fleet_loads,
    propagate_start,
)
from .errors import (
    DeadlockDetected,
    LayoutError,
    NoFeasiblePath,
    NoNeighbors,
    UnknownWorkstation,
)
from .floorgraph import FloorGraph, Path
from .scheduler import PartTask, RobotQueue, requeue_after_repair, select_next
from .zoning import (
    HandlingTimes,
    ZonePartition,
    shortest_feasible_path,
    validate_partition,
)

METHODS = ("sa", "ga", "ddz")

# Event kinds that mark a repair's start, end or rejection, or a run's exit.
_LOGGED_KINDS = frozenset(
    {"imbalance-signal", "ddz-start", "ddz-end", "zone-repair-applied",
     "repair-rejected", "time-cap"}
)


@dataclass(frozen=True)
class SimConfig:
    velocity: float = 200.0  # feet per minute
    handling: HandlingTimes = HandlingTimes(0.25, 0.25)
    n_robots: int = 3
    comm_range: float = 250.0  # feet
    method: str = "ddz"
    seed: int = 0
    c_age: float = 1.0
    c_dist: float = 1.0
    l_tol: float = 5.0  # minutes of load gap tolerated
    t_lt: float = 5.0  # minutes a violation must persist
    t_ac: float = 2.0  # minutes between balance checks
    window_minutes: float = 20.0
    time_cap: float = 2000.0  # minutes
    consensus_eps: float = 1e-4
    consensus_max_steps: int = 500
    ddz: DdzConfig = DdzConfig()
    schedule: AnnealingSchedule = AnnealingSchedule()
    ga: GaConfig = GaConfig()
    sa_iterations: int = 200

    def __post_init__(self) -> None:
        if self.velocity <= 0:
            raise ValueError("velocity must be > 0")
        if self.n_robots < 1:
            raise ValueError("n_robots must be >= 1")
        if self.comm_range <= 0:
            raise ValueError("comm_range must be > 0")
        if min(self.l_tol, self.t_lt, self.t_ac) <= 0:
            raise ValueError("l_tol, t_lt, and t_ac must be positive")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if min(self.consensus_eps, self.window_minutes, self.time_cap) <= 0:
            raise ValueError("consensus_eps, window_minutes, and time_cap must be positive")
        if min(self.consensus_max_steps, self.sa_iterations) < 0:
            raise ValueError("consensus_max_steps and sa_iterations must be >= 0")

    @classmethod
    def from_json(cls, data: Mapping, method: str, seed: int) -> "SimConfig":
        if data.get("schema_version") != 1:
            raise LayoutError("unsupported config schema version")
        return cls(
            velocity=data["velocity_feet_per_min"],
            handling=HandlingTimes(data["unload_minutes"], data["load_minutes"]),
            n_robots=data["n_robots"],
            comm_range=data["comm_range_feet"],
            method=method,
            seed=seed,
            c_age=data["c_age"],
            c_dist=data["c_dist"],
            l_tol=data["l_tol_minutes"],
            t_lt=data["t_lt_minutes"],
            t_ac=data["t_ac_minutes"],
            window_minutes=data["rolling_window_minutes"],
            time_cap=data["time_cap_minutes"],
            consensus_eps=data["consensus"]["eps"],
            consensus_max_steps=data["consensus"]["max_steps"],
            ddz=DdzConfig(**data["ddz"]),
            schedule=AnnealingSchedule(**data["schedule"]),
            ga=GaConfig(**data["ga"]),
            sa_iterations=data["sa"]["iterations"],
        )

    def centralized_search(
        self,
        graph: FloorGraph,
        window: PartHistoryWindow,
        nz: int,
        rng,
        start: ZonePartition | None = None,
    ) -> SearchResult:
        """The configured SA or GA search for an nz-zone design over the
        window's deliveries. SA anneals from start (default: the initial
        design); GA ignores start and evolves from the initial design."""
        if self.method == "sa":
            return sa_optimize(
                graph, window, nz, self.schedule, rng, self.velocity, self.handling,
                iterations=self.sa_iterations, start=start,
            )
        return ga_optimize(graph, window, nz, self.ga, rng, self.velocity, self.handling)


def expand_scenario(data: Mapping) -> list[tuple[str, tuple[int, ...]]]:
    """Flatten a scenario file into one (type, route) entry per part."""
    if data.get("schema_version") != 1:
        raise LayoutError("unsupported scenario schema version")
    parts: list[tuple[str, tuple[int, ...]]] = []
    for entry in data["parts"]:
        route = tuple(entry["route"])
        if len(route) < 1:
            raise LayoutError(f"part type {entry['type']!r} has an empty route")
        parts.extend((entry["type"], route) for _ in range(entry["qty"]))
    return parts


# ── Mutable run state ────────────────────────────────────────────────


@dataclass
class _Part:
    id: int
    route: tuple[int, ...]
    cursor: int = 0


@dataclass
class _Robot:
    id: int
    point: str
    queue: RobotQueue
    odometer: float = 0.0
    paused: bool = False
    # Interpolation data for the trip in progress: (start time, arrival
    # time, polyline point ids); None while stationary.
    trip: tuple[float, float, tuple[str, ...]] | None = None

    def position_at(self, t: float, graph: FloorGraph) -> tuple[float, float]:
        if self.trip is not None:
            t0, t1, pts = self.trip
            if t >= t1:
                p = graph.points[pts[-1]]
                return (p.x, p.y)
            if t > t0 and len(pts) > 1:
                total = left_sum(
                    graph.manhattan(a, b) for a, b in zip(pts, pts[1:])
                )
                gone = total * (t - t0) / (t1 - t0)
                for a, b in zip(pts, pts[1:]):
                    hop = graph.manhattan(a, b)
                    if gone <= hop or hop == 0.0:
                        pa, pb = graph.points[a], graph.points[b]
                        frac = 0.0 if hop == 0.0 else gone / hop
                        return (
                            pa.x + (pb.x - pa.x) * frac,
                            pa.y + (pb.y - pa.y) * frac,
                        )
                    gone -= hop
        p = graph.points[self.point]
        return (p.x, p.y)


@dataclass(frozen=True)
class _Repair:
    """A zone repair in progress; its participants pause as they go idle.
    SA and GA search at once and run load-share deliveries until every
    robot has paused, then adopt their design; ddz searches once its
    participants have all paused and adopts its design at ddz-end."""

    origin: int
    participants: frozenset[int]
    design: ZonePartition | None = None  # SA and GA: the design to adopt
    searched: bool = False  # ddz: the search has run


class Simulation:
    """Single deterministic run: run() returns the event log, from which
    compute_metrics derives the report."""

    def __init__(
        self,
        graph: FloorGraph,
        scenario_parts: Sequence[tuple[str, tuple[int, ...]]],
        config: SimConfig,
        start: ZonePartition | None = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.rng = random.Random(config.seed)
        self.partition = (
            start if start is not None else initial_partition(graph, config.n_robots)
        )
        if self.partition.graph is not graph:
            raise LayoutError("initial partition is bound to another floor graph")
        problems = validate_partition(self.partition)
        if problems:
            raise LayoutError("initial partition invalid: " + "; ".join(problems))

        for ptype, route in scenario_parts:
            for ws in route:
                if ws not in graph.workstations:
                    raise UnknownWorkstation(
                        f"part type {ptype!r} routes through workstation {ws}, "
                        "which the layout does not have"
                    )
        self.parts = {
            i + 1: _Part(i + 1, route)
            for i, (_, route) in enumerate(scenario_parts)
        }
        self.robots = {
            z.id: _Robot(
                z.id,
                graph.anchor_of(min(z.workstations)),
                RobotQueue(z.id, c_age=config.c_age, c_dist=config.c_dist),
            )
            for z in self.partition.zones
        }
        self.ws_queue: dict[int, deque[int]] = {w: deque() for w in graph.workstations}
        self.ws_busy: dict[int, int | None] = {w: None for w in graph.workstations}
        self.window = PartHistoryWindow(config.window_minutes)
        self.history: dict[int, list[tuple[float, float, float]]] = {
            r: [] for r in self.robots
        }
        self.latest_x: dict[int, float] = {r: 0.0 for r in self.robots}
        self.balanced = True
        self.repair: _Repair | None = None
        self.events: list[dict] = []
        self._done = 0
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._seq = 0
        self.now = 0.0

    # ── Event plumbing ───────────────────────────────────────────────

    def _schedule(self, t: float, kind: str, *payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, payload))

    def _log(self, kind: str, **payload) -> None:
        self.events.append({"t": round(self.now, 9), "kind": kind, **payload})
        if kind in _LOGGED_KINDS and (log := logger(__name__)):
            log.info("t=%.3f %s %s", self.now, kind, payload)

    # ── Run loop ─────────────────────────────────────────────────────

    def run(self) -> list[dict]:
        for part in self.parts.values():
            self._schedule(0.0, "arrival", part.id)
        if self.parts:
            self._schedule(self.config.t_ac, "consensus", )
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            if t > self.config.time_cap:
                self.now = self.config.time_cap
                self._log("time-cap", completed=self._done)
                break
            self.now = t
            getattr(self, "_on_" + kind.replace("-", "_"))(*payload)
            if self._done == len(self.parts):
                break
        else:
            if self._done < len(self.parts):
                if log := logger(__name__):
                    log.info("t=%.3f deadlock with %d parts in flight",
                             self.now, len(self.parts) - self._done)
                raise DeadlockDetected(
                    f"no schedulable event with "
                    f"{len(self.parts) - self._done} parts in flight"
                )
        return self.events

    # ── Workstations ─────────────────────────────────────────────────

    def _ws_start(self, ws: int) -> None:
        if self.ws_busy[ws] is None and self.ws_queue[ws]:
            pid = self.ws_queue[ws].popleft()
            self.ws_busy[ws] = pid
            duration = self.graph.workstation(ws).processing_time
            self._schedule(self.now + duration, "proc-done", ws, pid)

    def _on_arrival(self, pid: int) -> None:
        part = self.parts[pid]
        first = part.route[0]
        self._log("arrival", part=pid, ws=first)
        self.ws_queue[first].append(pid)
        self._ws_start(first)

    def _on_proc_done(self, ws: int, pid: int) -> None:
        part = self.parts[pid]
        self.ws_busy[ws] = None
        self._log("processing-done", part=pid, ws=ws)
        self._ws_start(ws)
        part.cursor += 1
        if part.cursor == len(part.route):
            self._done += 1
            self._log("part-done", part=pid)
            return
        self._dispatch_part(part, location=ws, age_start=self.now)

    # ── Dispatch and robot trips ─────────────────────────────────────

    def _dispatch_part(self, part: _Part, location: int, age_start: float) -> None:
        destination = part.route[part.cursor]
        legs = load_share_dispatch(
            self.partition, location, destination,
            balanced=self.repair is None or self.repair.design is None,
        )
        if not legs:
            # Degenerate hop: the next processing step is right here.
            self.ws_queue[destination].append(part.id)
            self._ws_start(destination)
            return
        pickup, dropoff, zone_id = legs[0]
        task = PartTask(part.id, pickup, dropoff, destination, age_start)
        self.robots[zone_id].queue.pending.append(task)
        self._poke(zone_id)

    def _poke(self, robot_id: int) -> None:
        robot = self.robots[robot_id]
        if robot.paused or robot.queue.selected is not None:
            return
        repair = self.repair
        if repair is not None and not repair.searched and robot_id in repair.participants:
            robot.paused = True
            self._check_repair_ready()
            return
        task = select_next(
            self.graph, robot.queue, robot.point, self.config.velocity, self.now
        )
        if task is None:
            return
        approach = self.graph.shortest_path_points(
            robot.point, {self.graph.anchor_of(task.pickup)}
        )
        if repair is not None and repair.design is not None:  # load-share delivery
            leg = self.graph.shortest_path(task.pickup, task.dropoff)
        else:
            try:
                leg = shortest_feasible_path(self.partition, task.pickup, task.dropoff)
            except NoFeasiblePath:
                leg = self.graph.shortest_path(task.pickup, task.dropoff)
        v = self.config.velocity
        t_arrive = self.now + approach.distance / v
        t_pick = t_arrive + self.config.handling.load
        t_drop = t_pick + leg.distance / v + self.config.handling.unload
        robot.trip = (self.now, t_arrive, approach.points)
        self._schedule(t_pick, "pickup", robot_id, task.part_id,
                       approach.distance, leg, t_pick)
        self._schedule(t_drop, "dropoff", robot_id, task.part_id, leg.distance)

    def _on_pickup(
        self, robot_id: int, pid: int, empty_distance: float, leg: Path, t_pick: float
    ) -> None:
        robot = self.robots[robot_id]
        robot.odometer += empty_distance
        robot.point = leg.points[0]
        robot.trip = (t_pick, t_pick + leg.distance / self.config.velocity, leg.points)
        self._log("pickup", robot=robot_id, part=pid,
                  ws=robot.queue.selected.pickup, distance=round(empty_distance, 9))

    def _on_dropoff(self, robot_id: int, pid: int, loaded_distance: float) -> None:
        robot = self.robots[robot_id]
        task = robot.queue.selected
        robot.odometer += loaded_distance
        robot.point = self.graph.anchor_of(task.dropoff)
        robot.trip = None
        robot.queue.selected = None
        self._log("dropoff", robot=robot_id, part=pid, ws=task.dropoff,
                  distance=round(loaded_distance, 9))
        self.window.add(pid, task.pickup, task.dropoff, self.now)
        self.window.prune(self.now)
        part = self.parts[pid]
        if task.dropoff == task.destination:
            self.ws_queue[task.destination].append(pid)
            self._ws_start(task.destination)
        else:
            self._dispatch_part(part, location=task.dropoff, age_start=task.age_start)
        self._poke(robot_id)

    # ── Balance monitoring and repair ────────────────────────────────

    def _queued_tasks(self) -> list[PartTask]:
        tasks = []
        for robot in self.robots.values():
            tasks.extend(robot.queue.pending)
            if robot.queue.selected is not None:
                tasks.append(robot.queue.selected)
        return tasks

    def _on_consensus(self) -> None:
        cfg = self.config
        ids = sorted(self.robots)
        loads = fleet_loads(self.partition, self._queued_tasks(), cfg.velocity, cfg.handling)
        mean = left_sum(loads.values()) / len(loads)
        if cfg.method == "ddz":
            positions = [self.robots[r].position_at(self.now, self.graph) for r in ids]
            res = run_consensus(
                [loads[r] for r in ids],
                positions,
                cfg.comm_range,
                eps=cfg.consensus_eps,
                max_steps=cfg.consensus_max_steps,
            )
            xs = dict(zip(ids, res.values))
        else:
            xs = {r: mean for r in ids}  # centralized monitor sees the true mean
        for r in ids:
            self.history[r].append((self.now, loads[r], xs[r]))
            self.latest_x[r] = xs[r]
        self._log(
            "consensus-round",
            loads={str(r): round(loads[r], 9) for r in ids},
            x={str(r): round(xs[r], 9) for r in ids},
        )
        balanced_now = max(abs(loads[r] - mean) for r in ids) <= cfg.l_tol
        if balanced_now != self.balanced:
            self.balanced = balanced_now
            self._log("balance-change", balanced=balanced_now)
        if self.repair is None:
            triggered = [
                r
                for r in ids
                if detect_imbalance(self.history[r], cfg.l_tol, cfg.t_lt, self.now)
            ]
            if triggered:
                self._start_repair(min(triggered))
        if self._done < len(self.parts):
            self._schedule(self.now + cfg.t_ac, "consensus")

    def _start_repair(self, origin: int) -> None:
        cfg = self.config
        self._log("imbalance-signal", origin=origin)
        if cfg.method == "ddz":
            participants = propagate_start(origin, self._links(self.robots))
            if len(participants) < 2:
                self._log("repair-rejected", reason="origin robot has no neighbors")
                self.history[origin].clear()
                return
            self.repair = _Repair(origin, participants)
        else:
            self._log("load-share", active=True)
            result = cfg.centralized_search(
                self.graph, self.window, cfg.n_robots, self.rng, start=self.partition
            )
            self.repair = _Repair(origin, frozenset(self.robots), result.partition)
        for r in sorted(self.repair.participants):
            if self.robots[r].queue.selected is None and not self.robots[r].paused:
                self.robots[r].paused = True
        self._check_repair_ready()

    def _links(self, robot_ids) -> dict[int, tuple[int, ...]]:
        """Who can talk to whom now, among the given robots."""
        at = {r: self.robots[r].position_at(self.now, self.graph) for r in robot_ids}
        return comm_graph(at, self.config.comm_range)

    def _check_repair_ready(self) -> None:
        repair = self.repair
        if repair is None or repair.searched:
            return
        if any(not self.robots[r].paused for r in repair.participants):
            return
        if repair.design is not None:
            self._apply_repair(repair.design)
            return
        cfg = self.config
        self._log("ddz-start", origin=repair.origin,
                  participants=sorted(repair.participants))
        try:
            result = ddz_optimize(
                self.partition,
                self._links(repair.participants),
                self._queued_tasks(),
                dict(self.latest_x),
                repair.origin,
                cfg.ddz,
                cfg.schedule,
                self.rng,
                cfg.velocity,
                cfg.handling,
            )
        except NoNeighbors:
            self._log("repair-rejected", reason="origin robot has no neighbors")
            self._finish_repair()
            return
        pause = result.iterations * cfg.ddz.iteration_minutes
        self.repair = replace(repair, searched=True)
        self._schedule(self.now + pause, "ddz-end", result.partition)

    def _on_ddz_end(self, partition: ZonePartition) -> None:
        self._log("ddz-end")
        self._apply_repair(partition)

    def _apply_repair(self, partition: ZonePartition) -> None:
        problems = validate_partition(partition)
        if problems:
            self._log("repair-rejected", reason="; ".join(problems))
        else:
            queues = {r: self.robots[r].queue for r in self.robots}
            rebuilt = requeue_after_repair(queues, partition)
            self.partition = partition
            for r, q in rebuilt.items():
                self.robots[r].queue = q
            self._log(
                "zone-repair-applied",
                zones={
                    str(z.id): list(z.workstations) for z in partition.zones
                },
            )
        self._finish_repair()

    def _finish_repair(self) -> None:
        self.repair = None
        for r in sorted(self.robots):
            self.history[r].clear()
            self.robots[r].paused = False
            self._poke(r)


# ── Metrics ──────────────────────────────────────────────────────────


@dataclass
class MetricsReport:
    method: str
    completed: int
    total_parts: int
    time_to_complete_minutes: float
    pct_time_in_balance: float
    balance_not_comparable: bool
    travel_by_robot: dict[int, float]
    avg_travel: float
    std_travel: float
    throughput: list[tuple[float, int]]  # (minutes, cumulative parts done)

    @property
    def time_to_complete_hours(self) -> float:
        return self.time_to_complete_minutes / 60.0

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "method": self.method,
            "completed": self.completed,
            "total_parts": self.total_parts,
            "time_to_complete_minutes": self.time_to_complete_minutes,
            "time_to_complete_hours": self.time_to_complete_hours,
            "pct_time_in_balance": self.pct_time_in_balance,
            "balance_not_comparable": self.balance_not_comparable,
            "travel_by_robot": {str(k): v for k, v in self.travel_by_robot.items()},
            "avg_travel_feet": self.avg_travel,
            "std_travel_feet": self.std_travel,
            "throughput": [[t, n] for t, n in self.throughput],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MetricsReport":
        return cls(
            method=data["method"],
            completed=data["completed"],
            total_parts=data["total_parts"],
            time_to_complete_minutes=data["time_to_complete_minutes"],
            pct_time_in_balance=data["pct_time_in_balance"],
            balance_not_comparable=data["balance_not_comparable"],
            travel_by_robot={int(k): v for k, v in data["travel_by_robot"].items()},
            avg_travel=data["avg_travel_feet"],
            std_travel=data["std_travel_feet"],
            throughput=[(t, n) for t, n in data["throughput"]],
        )


def compute_metrics(
    events: Sequence[Mapping],
    method: str,
    n_robots: int,
    total_parts: int,
) -> MetricsReport:
    """Derive the full report from an event log alone, so a replayed log
    yields byte-identical metrics."""
    travel = {r: 0.0 for r in range(1, n_robots + 1)}
    throughput: list[tuple[float, int]] = []
    done = 0
    end = 0.0
    flips: list[tuple[float, bool]] = []
    for e in events:
        kind = e["kind"]
        if kind in ("pickup", "dropoff"):
            travel[e["robot"]] += e["distance"]
        elif kind == "part-done":
            done += 1
            end = max(end, e["t"])
            throughput.append((e["t"], done))
        elif kind == "balance-change":
            flips.append((e["t"], e["balanced"]))
    balanced_time = 0.0
    state, since = True, 0.0
    for t, balanced in flips:
        if state:
            balanced_time += min(t, end) - since
        state, since = balanced, t
    if state and end > since:
        balanced_time += end - since
    pct = 100.0 * balanced_time / end if end > 0 else 0.0
    values = list(travel.values())
    return MetricsReport(
        method=method,
        completed=done,
        total_parts=total_parts,
        time_to_complete_minutes=end,
        pct_time_in_balance=pct,
        balance_not_comparable=method == "ddz",
        travel_by_robot=travel,
        avg_travel=left_sum(values) / len(values),
        std_travel=statistics.pstdev(values),
        throughput=throughput,
    )


def log_to_jsonl(events: Sequence[Mapping]) -> str:
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


def log_from_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]

"""Per-robot part queues: shortest-job-first with aging, and re-queueing
parts onto the right robots after a zone redesign.

Each queued task is one delivery leg — robots only ever see their next
pickup and dropoff. A task's score rewards waiting time and penalizes
travel time, so near jobs win early and starved jobs win eventually.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import OrphanPart, UnknownWorkstation, ZeroVelocity
from .floorgraph import FloorGraph
from .zoning import ZonePartition, plan_delivery


@dataclass(frozen=True)
class PartTask:
    """One delivery leg plus the hidden remainder of the part's route.

    pickup/dropoff are the leg the serving robot sees; destination is the
    next processing workstation the part must ultimately reach (equal to
    dropoff unless the leg ends at a transfer station). age_start is when
    the part finished processing and began waiting; the clock keeps
    running across transfer-station hand-offs and resets only when the
    part is processed again.
    """

    part_id: int
    pickup: int
    dropoff: int
    destination: int
    age_start: float

    def age(self, now: float) -> float:
        return max(0.0, now - self.age_start)


@dataclass
class RobotQueue:
    """Pending tasks of one robot plus the at-most-one selected task.

    The selected task is popped out of pending and pinned to this robot:
    a zone redesign never moves it, so the in-progress delivery finishes
    under the old assignment. c_age and c_dist weight waiting time and
    travel time in the selection score.
    """

    robot_id: int
    pending: list[PartTask] = field(default_factory=list)
    selected: PartTask | None = None
    c_age: float = 1.0
    c_dist: float = 1.0

    def __post_init__(self) -> None:
        if self.c_age < 0 or self.c_dist < 0:
            raise ValueError("c_age and c_dist must be >= 0")


def task_score(
    graph: FloorGraph,
    task: PartTask,
    position: str,
    velocity: float,
    now: float,
    c_age: float,
    c_dist: float,
) -> float:
    """c_age * waiting-minutes minus c_dist * travel-minutes for the job.

    Travel is the unrestricted shortest path from the robot's current
    point to the pickup, then pickup to dropoff — the route the robot
    would actually drive, ignoring zone boundaries.
    """
    if velocity <= 0:
        raise ZeroVelocity("velocity must be > 0")
    approach = graph.shortest_path_points(position, {graph.anchor_of(task.pickup)})
    if approach is None:
        raise UnknownWorkstation(f"pickup WS{task.pickup} unreachable from {position!r}")
    job_distance = approach.distance + graph.distance(task.pickup, task.dropoff)
    return c_age * task.age(now) - c_dist * job_distance / velocity


def score_and_rank(
    graph: FloorGraph,
    queue: RobotQueue,
    position: str,
    velocity: float,
    now: float,
) -> tuple[list[PartTask], PartTask | None]:
    """Pending tasks sorted best-first, plus the winner (None when empty).

    Score ties go to the task that has waited longest, then to the lower
    part id, so rankings are deterministic.
    """
    scored = [
        (
            -task_score(graph, task, position, velocity, now, queue.c_age, queue.c_dist),
            task.age_start,
            task.part_id,
            task,
        )
        for task in queue.pending
    ]
    scored.sort(key=lambda entry: entry[:3])
    ranked = [entry[3] for entry in scored]
    return ranked, ranked[0] if ranked else None


def select_next(
    graph: FloorGraph,
    queue: RobotQueue,
    position: str,
    velocity: float,
    now: float,
) -> PartTask | None:
    """Pop the best pending task into queue.selected; no-op when one is
    already selected or the queue is empty."""
    if queue.selected is not None:
        return queue.selected
    _, top = score_and_rank(graph, queue, position, velocity, now)
    if top is not None:
        queue.pending.remove(top)
        queue.selected = top
    return top


def plan_leg(
    partition: ZonePartition,
    task: PartTask,
) -> tuple[PartTask, int]:
    """Re-plan a waiting task's next leg under a partition.

    Returns the task with pickup/dropoff set to the first delivery leg
    from its current location toward its destination, plus the id of the
    zone (= robot) serving that leg. The age clock is untouched.
    """
    zone_id = partition.zone_of_ws(task.pickup)
    if zone_id is None:
        raise OrphanPart(f"part {task.part_id} waits at WS{task.pickup}, which is in no zone")
    legs = plan_delivery(partition, task.pickup, task.destination)
    if not legs:
        return replace(task, dropoff=task.destination), zone_id
    pickup, dropoff, serving_zone = legs[0]
    return replace(task, pickup=pickup, dropoff=dropoff), serving_zone


def requeue_after_repair(
    queues: Mapping[int, RobotQueue],
    partition: ZonePartition,
) -> dict[int, RobotQueue]:
    """Redistribute every pending task onto the robot whose new zone holds
    the part, with legs re-planned through the new transfer stations.

    Selected tasks stay pinned to their robots. Task count is conserved;
    a part sitting outside every zone raises OrphanPart rather than being
    dropped. Reassigned queues keep deterministic order (age start, id).
    """
    rebuilt = {
        rid: RobotQueue(rid, [], q.selected, q.c_age, q.c_dist)
        for rid, q in queues.items()
    }
    moved: list[tuple[int, PartTask]] = []
    for q in queues.values():
        for task in q.pending:
            new_task, serving_zone = plan_leg(partition, task)
            if serving_zone not in rebuilt:
                raise OrphanPart(
                    f"part {task.part_id} maps to zone {serving_zone} with no robot"
                )
            moved.append((serving_zone, new_task))
    moved.sort(key=lambda entry: (entry[1].age_start, entry[1].part_id))
    for serving_zone, task in moved:
        rebuilt[serving_zone].pending.append(task)
    return rebuilt

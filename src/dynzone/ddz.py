"""Decentralized dynamic zoning: imbalance detection, leader rotation, and
the per-leader annealing search over tip-workstation exchanges.

Each robot owns the zone with its own id. When a robot's load stays out of
tolerance against the consensus average for long enough, it signals its
neighbors, the signal floods through the communication graph, and the
robots it reached pause and run leader-rotating annealing: the leader
repeatedly trades a random tip workstation with a random neighbor,
re-queues the affected parts, and accepts or rejects the move against the
local load standard deviation under a geometric cooling schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import left_sum
from .errors import NoNeighbors
from .scheduler import PartTask
from .zoning import (
    FlowMatrix,
    HandlingTimes,
    TipMoves,
    ZonePartition,
    plan_delivery,
    zone_loads,
)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Geometric cooling from an initial to a freezing temperature."""

    t_initial: float = 10.0
    t_freeze: float = 0.1
    reductions: int = 60  # temperature steps from t_initial down to t_freeze
    k: float = 1.0  # weight temperature constant in the acceptance probability

    def __post_init__(self) -> None:
        if not (self.t_initial > self.t_freeze > 0):
            raise ValueError("require t_initial > t_freeze > 0")
        if self.reductions < 1:
            raise ValueError("reductions must be >= 1")
        if self.k <= 0:
            raise ValueError("k must be > 0")


def temperature(schedule: AnnealingSchedule, n: int, steps: int | None = None) -> float:
    """Temperature after n of steps cooling steps (default: the schedule's
    reductions); t_initial at n = 0, t_freeze at n = steps."""
    if n < 0:
        raise ValueError("iteration must be >= 0")
    return schedule.t_initial * (schedule.t_freeze / schedule.t_initial) ** (
        n / (schedule.reductions if steps is None else steps)
    )


def acceptance_probability(energy: float, k: float, t_c: float) -> float:
    """Metropolis probability of a move that lowers the objective by energy.

    k * t_c can underflow to zero; a worsening move at zero weighted
    temperature is never accepted.
    """
    if energy >= 0:
        return 1.0
    denom = k * t_c
    return math.exp(energy / denom) if denom > 0 else 0.0


def load_sigma(
    own_load: float,
    consensus_value: float,
    neighbor_loads: Sequence[float],
) -> float:
    """Standard deviation of the local loads against the consensus average.

    The own-load term is (own_load - consensus_value)^2, so a perfectly
    balanced neighborhood scores zero.
    """
    own = own_load - consensus_value
    total = own * own + left_sum((lj - consensus_value) ** 2 for lj in neighbor_loads)
    return math.sqrt(total / (len(neighbor_loads) + 1))


def detect_imbalance(
    history: Sequence[tuple[float, float, float]],
    l_tol: float,
    t_lt: float,
    now: float,
) -> bool:
    """True iff |load - consensus| > l_tol has held without interruption for
    the trailing t_lt minutes.

    history holds (time, load, consensus_value) samples in time order; any
    in-tolerance sample resets the violation timer.
    """
    streak_start: float | None = None
    for t, load, x in reversed(history):
        if t > now:
            continue
        if abs(load - x) > l_tol:
            streak_start = t
        else:
            break
    return streak_start is not None and now - streak_start >= t_lt


def propagate_start(origin: int, links: Mapping[int, Sequence[int]]) -> frozenset[int]:
    """Robots reached by flood-filling the start signal from origin over
    the peer lists of consensus.comm_graph."""
    reached = {origin}
    frontier = [origin]
    while frontier:
        for other in links[frontier.pop()]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    return frozenset(reached)


@dataclass(frozen=True)
class DdzConfig:
    """Search parameters; zeros mean "derive from the fleet and schedule"."""

    episodes: int = 0  # 0: one episode per participating robot
    iterations: int = 0  # 0: spread the cooling schedule across all episodes
    iteration_minutes: float = 0.02  # simulated communication cost per iteration
    temperature_resets_per_episode: bool = False

    def __post_init__(self) -> None:
        if self.episodes < 0 or self.iterations < 0 or self.iteration_minutes < 0:
            raise ValueError("episodes, iterations, iteration_minutes must be >= 0")


def queue_flows(
    partition: ZonePartition,
    tasks: Sequence[PartTask],
) -> dict[int, FlowMatrix]:
    """Per-zone flows from the parts currently waiting, re-queued under the
    given partition: each part contributes the next delivery leg from its
    pickup toward its destination to the zone serving that leg."""
    flows: dict[int, FlowMatrix] = {z.id: FlowMatrix() for z in partition.zones}
    for task in tasks:
        legs = plan_delivery(partition, task.pickup, task.destination)
        if legs:
            pickup, dropoff, zone_id = legs[0]
            flows[zone_id].add(pickup, dropoff, 1.0)
    return flows


def fleet_loads(
    partition: ZonePartition,
    tasks: Sequence[PartTask],
    velocity: float,
    handling: HandlingTimes,
) -> dict[int, float]:
    return zone_loads(partition, queue_flows(partition, tasks), velocity, handling)


@dataclass(frozen=True)
class SearchResult:
    """What a repair search (ddz, SA or GA) returns. The objectives score
    the starting and the returned design: ddz's local load sigma of the
    origin before and of the last episode's leader after, or SA's and GA's
    zone-load spread (GA's before is its starting population's best)."""

    partition: ZonePartition
    objective_before: float
    objective: float
    iterations: int
    # SA and GA: (step, best objective so far), one row per improvement
    progress: list[tuple[int, float]] = field(default_factory=list)
    # ddz and SA: one row per proposal; ddz adds one per episode adoption
    trace: list[dict] = field(default_factory=list)


def ddz_optimize(
    partition: ZonePartition,
    links: Mapping[int, Sequence[int]],
    tasks: Sequence[PartTask],
    consensus_values: Mapping[int, float],
    origin: int,
    config: DdzConfig,
    schedule: AnnealingSchedule,
    rng,
    velocity: float,
    handling: HandlingTimes,
) -> SearchResult:
    """Run the leader-rotating annealing search and return the adopted design.

    links holds each robot's peers (consensus.comm_graph) among the robots
    the repair paused. The robots the start signal reaches from origin over
    them take part, and each one's peers are its neighbors for the search.

    rng is the run's seeded random stream; every proposal, tip draw, and
    acceptance draw comes from it, so a fixed seed replays bit-identically.
    The trace records one entry per proposal with sigma before/after, the
    acceptance probability, and the drawn uniform, and one "episode-adopt"
    entry per episode naming its leader.
    """
    participants = sorted(propagate_start(origin, links))
    if len(participants) < 2:
        raise NoNeighbors(f"robot {origin} has no neighbors in range")

    episodes = config.episodes or len(participants)
    iterations = config.iterations or max(1, -(-(schedule.reductions + 1) // episodes))

    def loads_of(design: ZonePartition) -> dict[int, float]:
        return fleet_loads(design, tasks, velocity, handling)

    def sigma_at(robot: int, loads: Mapping[int, float]) -> float:
        return load_sigma(
            loads[robot],
            consensus_values[robot],
            [loads[j] for j in links[robot]],
        )

    moves = TipMoves(partition, loads_of(partition), loads_of, participants)
    sigma_initial = sigma_at(origin, moves.loads)
    trace: list[dict] = []
    leader = origin
    n_global = 0

    for episode in range(episodes):
        best = moves
        best_sigma = sigma_at(leader, moves.loads)
        for it in range(iterations):
            n = it if config.temperature_resets_per_episode else n_global
            n_global += 1
            loads = moves.loads
            sigma_cur = sigma_at(leader, loads)
            j = rng.choice(links[leader])
            giver, receiver = (leader, j) if loads[leader] >= loads[j] else (j, leader)
            proposal = moves.propose(giver, receiver, rng)
            if proposal is None:
                trace.append(
                    {
                        "episode": episode,
                        "leader": leader,
                        "kind": "invalid-move",
                        "giver": giver,
                        "receiver": receiver,
                    }
                )
                continue

            ws, moved, new_loads = proposal
            sigma_new = sigma_at(leader, new_loads)
            t_c = temperature(schedule, n)
            prob = acceptance_probability(sigma_cur - sigma_new, schedule.k, t_c)
            draw = rng.random()
            accepted = sigma_new <= sigma_cur or draw <= prob
            trace.append(
                {
                    "episode": episode,
                    "leader": leader,
                    "kind": "proposal",
                    "giver": giver,
                    "receiver": receiver,
                    "ws": ws,
                    "sigma_before": sigma_cur,
                    "sigma_after": sigma_new,
                    "temperature": t_c,
                    "p": prob,
                    "draw": draw,
                    "accepted": accepted,
                }
            )
            # The best design keeps its own TipMoves, so adopting it at the
            # end of the episode keeps the moves already built out of it.
            if accepted or sigma_new < best_sigma:
                state = TipMoves(moved, new_loads, loads_of, participants)
                if accepted:
                    moves = state
                if sigma_new < best_sigma:
                    best, best_sigma = state, sigma_new

        moves = best
        trace.append(
            {
                "episode": episode,
                "leader": leader,
                "kind": "episode-adopt",
                "sigma": best_sigma,
            }
        )
        leader = participants[(participants.index(leader) + 1) % len(participants)]

    return SearchResult(
        partition=moves.design,
        objective_before=sigma_initial,
        objective=sigma_at(trace[-1]["leader"], moves.loads),  # the last episode's leader
        iterations=n_global,
        trace=trace,
    )

"""Centralized zone-design baselines: simulated annealing and a genetic
algorithm over workstation-to-zone assignments, plus the load-sharing
dispatch mode they use while a redesign is pending.

Both optimizers minimize the population standard deviation of the zone
loads and recompute transfer stations after every candidate move, so
their outputs are directly comparable with the decentralized protocol.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import logger
from .ddz import SearchResult, acceptance_probability, temperature
from .errors import InfeasibleStart, OrphanPart
from .floorgraph import FloorGraph
from .zoning import (
    FlowMatrix,
    HandlingTimes,
    TipMoves,
    Zone,
    ZonePartition,
    assign_transfer_stations,
    plan_delivery,
    validate_partition,
    zone_loads,
)


# ── Delivery history ─────────────────────────────────────────────────


@dataclass
class PartHistoryWindow:
    """Completed deliveries kept for a trailing number of minutes."""

    window_minutes: float = 20.0
    records: list[tuple[int, int, int, float]] = field(default_factory=list)
    # each record: (part id, from WS, to WS, completion time in minutes)

    def add(self, part_id: int, src: int, dst: int, completed_at: float) -> None:
        self.records.append((part_id, src, dst, completed_at))

    def prune(self, now: float) -> None:
        cutoff = now - self.window_minutes
        self.records = [r for r in self.records if r[3] >= cutoff]


def flow_from_history(
    window: PartHistoryWindow,
    partition: ZonePartition,
) -> dict[int, FlowMatrix]:
    """Per-zone loaded-trip counts from the delivery history, re-attributed
    under the given partition: a cross-zone delivery credits one trip per
    leg, split at the transfer stations the partition would use."""
    flows = {z.id: FlowMatrix() for z in partition.zones}
    for _, src, dst, _ in window.records:
        for pickup, dropoff, zone_id in plan_delivery(partition, src, dst):
            flows[zone_id].add(pickup, dropoff, 1.0)
    return flows


# ── Shared evaluation ────────────────────────────────────────────────


def load_spread(
    partition: ZonePartition,
    window: PartHistoryWindow,
    velocity: float,
    handling: HandlingTimes,
) -> float:
    """Population standard deviation of the zone loads the window's
    deliveries put on the partition."""
    loads = zone_loads(partition, flow_from_history(window, partition), velocity, handling)
    return statistics.pstdev(loads.values())


# ── Initial design ───────────────────────────────────────────────────


@functools.lru_cache(maxsize=1)
def _ws_adjacency(graph: FloorGraph) -> dict[int, list[int]]:
    """Workstations connectable without driving past a third workstation.

    Depends on the graph alone, so it is computed once per graph; callers
    must not modify the result.
    """
    ws_ids = sorted(graph.workstations)
    anchors = {graph.anchor_of(w) for w in ws_ids}
    adj: dict[int, list[int]] = {w: [] for w in ws_ids}
    for i, u in enumerate(ws_ids):
        for v in ws_ids[i + 1 :]:
            keep_out = anchors - {graph.anchor_of(u), graph.anchor_of(v)}
            allowed = frozenset(
                s.id
                for s in graph.segments.values()
                if s.a not in keep_out and s.b not in keep_out
            )
            path = graph.shortest_path_points(
                graph.anchor_of(u), {graph.anchor_of(v)}, allowed
            )
            if path is not None:
                adj[u].append(v)
                adj[v].append(u)
    return adj


@functools.lru_cache(maxsize=1)
def initial_partition(graph: FloorGraph, nz: int) -> ZonePartition:
    """Deterministic starting design: grow nz zones segment by segment from
    seed workstations spread maximally far apart, keeping zone sizes even.

    Leftover aisles stay unassigned; transfer stations are recomputed at
    the end. Raises InfeasibleStart when nz connected zones covering every
    workstation cannot be built. Built once per graph and zone count, so a
    simulation and its GA repairs share one design.
    """
    ws_ids = sorted(graph.workstations)
    if nz < 1 or nz > len(ws_ids):
        raise InfeasibleStart(f"cannot build {nz} zones from {len(ws_ids)} workstations")
    if nz == 1:
        zone = Zone(1, tuple(ws_ids), frozenset(graph.segments))
        return assign_transfer_stations(ZonePartition(graph, (zone,)))

    # Farthest-point seeds, starting from one end of the graph diameter.
    dist = {
        (u, v): graph.distance(u, v) for u in ws_ids for v in ws_ids if u < v
    }

    def d(u: int, v: int) -> float:
        return 0.0 if u == v else dist[(min(u, v), max(u, v))]

    first = min(
        ws_ids,
        key=lambda u: (-max(d(u, v) for v in ws_ids), u),
    )
    seeds = [first]
    while len(seeds) < nz:
        seeds.append(
            max(
                (w for w in ws_ids if w not in seeds),
                key=lambda w: (min(d(w, s) for s in seeds), -w),
            )
        )
    seeds.sort()

    unclaimed_ws = set(ws_ids) - set(seeds)
    points: dict[int, set[str]] = {}
    segments: dict[int, set[str]] = {z: set() for z in range(1, nz + 1)}
    members: dict[int, list[int]] = {}
    for z, seed in enumerate(seeds, start=1):
        points[z] = {graph.anchor_of(seed)}
        members[z] = [seed]

    # Each round, the smallest zone annexes its nearest unassigned
    # workstation along aisles not owned by any other zone. Candidates come
    # in ascending id, so a later one wins only at a strictly shorter
    # distance, and its search stops at the best distance so far.
    rounds = searches = 0
    while unclaimed_ws:
        rounds += 1
        grew = False
        for z in sorted(members, key=lambda z: (len(members[z]), z)):
            others = set().union(
                *(segments[o] for o in segments if o != z)
            )
            allowed = frozenset(set(graph.segments) - others)
            best = None
            for w in sorted(unclaimed_ws):
                searches += 1
                path = graph.shortest_path_points(
                    graph.anchor_of(w), points[z], allowed,
                    below=None if best is None else best[0],
                )
                if path is not None:
                    best = (path.distance, w, path)
            if best is None:
                continue
            _, w, path = best
            unclaimed_ws.discard(w)
            members[z].append(w)
            segments[z].update(path.segments)
            points[z].update(path.points)
            grew = True
            break
        if not grew:
            raise InfeasibleStart("zone growth stalled before covering every workstation")

    zones = tuple(
        Zone(z, tuple(sorted(members[z])), frozenset(segments[z]))
        for z in sorted(members)
    )
    partition = assign_transfer_stations(ZonePartition(graph, zones))
    problems = validate_partition(partition)
    if problems:
        raise InfeasibleStart("; ".join(problems))
    if log := logger(__name__):
        log.debug(
            "initial design: zones %s after %d rounds and %d candidate searches",
            {z.id: z.workstations for z in zones}, rounds, searches,
        )
    return partition


# ── Simulated annealing ──────────────────────────────────────────────


def sa_optimize(
    graph: FloorGraph,
    window: PartHistoryWindow,
    nz: int,
    schedule,
    rng,
    velocity: float,
    handling: HandlingTimes,
    iterations: int = 200,
    start: ZonePartition | None = None,
) -> SearchResult:
    """Centralized annealing over tip-workstation transfers between zones.

    Objective is the population standard deviation of the zone loads the
    window's deliveries put on a design; transfer stations are recomputed
    after every move. Returns the best design seen. The trace holds one
    row per evaluated proposal with the objective before/after, the
    acceptance probability, the drawn uniform (None when the move
    improves), and the decision.
    """
    current = start if start is not None else initial_partition(graph, nz)

    def loads_of(design: ZonePartition) -> dict[int, float]:
        return zone_loads(design, flow_from_history(window, design), velocity, handling)

    moves = TipMoves(current, loads_of(current), loads_of)
    obj_cur = statistics.pstdev(moves.loads.values())
    best, obj_best = current, obj_cur
    progress = [(0, obj_best)]
    if nz == 1 or iterations < 1:
        return SearchResult(best, obj_best, obj_best, 0, progress)

    trace: list[dict] = []
    zone_ids = sorted(z.id for z in current.zones)
    denominator = max(1, iterations - 1)
    for it in range(iterations):
        t_c = temperature(schedule, it, denominator)
        loads = moves.loads
        pair = sorted(rng.sample(zone_ids, 2))
        giver, receiver = (
            pair if loads[pair[0]] >= loads[pair[1]] else (pair[1], pair[0])
        )
        proposal = moves.propose(giver, receiver, rng)
        if proposal is None:
            continue
        _, candidate, new_loads = proposal
        obj_new = statistics.pstdev(new_loads.values())
        if obj_new <= obj_cur:
            accepted, p, draw = True, 1.0, None
        else:
            p = acceptance_probability(obj_cur - obj_new, schedule.k, t_c)
            draw = rng.random()
            accepted = draw <= p
        trace.append(
            {
                "step": it,
                "obj_before": obj_cur,
                "obj_after": obj_new,
                "temperature": t_c,
                "p": p,
                "draw": draw,
                "accepted": accepted,
            }
        )
        if accepted:
            moves, obj_cur = TipMoves(candidate, new_loads, loads_of), obj_new
        if obj_new < obj_best:
            best, obj_best = candidate, obj_new
            progress.append((it + 1, obj_best))
    return SearchResult(best, progress[0][1], obj_best, iterations, progress, trace)


# ── Genetic algorithm ────────────────────────────────────────────────


@dataclass(frozen=True)
class GaConfig:
    population: int = 24
    generations: int = 40
    crossover: float = 0.8
    mutation: float = 0.15
    elitism: int = 2

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        for name in ("crossover", "mutation"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.elitism <= self.population:
            raise ValueError("elitism must be in [0, population]")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


def genome_of(partition: ZonePartition) -> tuple[int, ...]:
    """Workstation-to-zone vector in ascending workstation-id order."""
    pairs = sorted(
        (ws, z.id) for z in partition.zones for ws in z.workstations
    )
    return tuple(zone for _, zone in pairs)


def _repair_genome(
    genome: Sequence[int],
    ws_ids: Sequence[int],
    nz: int,
    adj: Mapping[int, Sequence[int]],
) -> tuple[int, ...] | None:
    """Make every zone non-empty and connected on the workstation graph.

    Keeps each zone's largest component (tie: the one holding the lowest
    workstation id) and regrows the rest by breadth-first adoption from
    the kept cores. Returns None when the workstation graph itself cannot
    host nz zones.
    """
    gene = {w: genome[i] for i, w in enumerate(ws_ids)}
    # Fill empty zones from the largest group.
    for z in range(1, nz + 1):
        if z not in gene.values():
            donor_zone = max(
                range(1, nz + 1),
                key=lambda d: (sum(1 for g in gene.values() if g == d), -d),
            )
            donors = [w for w, g in gene.items() if g == donor_zone]
            if len(donors) < 2:
                return None
            gene[max(donors)] = z

    def components(zone: int) -> list[list[int]]:
        todo = {w for w, g in gene.items() if g == zone}
        comps = []
        while todo:
            start = min(todo)
            comp, stack = {start}, [start]
            todo.remove(start)
            while stack:
                cur = stack.pop()
                for nbr in adj[cur]:
                    if nbr in todo:
                        todo.remove(nbr)
                        comp.add(nbr)
                        stack.append(nbr)
            comps.append(sorted(comp))
        return comps

    kept: dict[int, int] = {}
    for z in range(1, nz + 1):
        comps = components(z)
        core = max(comps, key=lambda c: (len(c), -c[0]))
        for w in core:
            kept[w] = z

    frontier = sorted(kept)
    assigned = dict(kept)
    while frontier:
        nxt = []
        for w in sorted(frontier):
            for nbr in adj[w]:
                if nbr not in assigned:
                    assigned[nbr] = assigned[w]
                    nxt.append(nbr)
        frontier = nxt
    if len(assigned) != len(ws_ids):
        return None
    return tuple(assigned[w] for w in ws_ids)


def decode_genome(
    graph: FloorGraph,
    genome: Sequence[int],
    nz: int,
) -> ZonePartition | None:
    """Turn a workstation-to-zone vector into a valid partition.

    The genome is first repaired to non-empty connected zones, then each
    zone claims the aisles of shortest paths linking its workstations,
    lowest zone id first. Returns None when no valid design results.
    """
    ws_ids = sorted(graph.workstations)
    repaired = _repair_genome(genome, ws_ids, nz, _ws_adjacency(graph))
    if repaired is None:
        return None
    groups: dict[int, list[int]] = {z: [] for z in range(1, nz + 1)}
    for w, z in zip(ws_ids, repaired):
        groups[z].append(w)

    claimed: set[str] = set()
    zones = []
    for z in sorted(groups):
        members = sorted(groups[z])
        segs: set[str] = set()
        root = graph.anchor_of(members[0])
        reached = {root}
        # The zone's own segments come from paths over unclaimed aisles, so
        # they never widen what it may use.
        allowed = frozenset(graph.segments) - claimed
        for w in members[1:]:
            path = graph.shortest_path_points(graph.anchor_of(w), reached, allowed)
            if path is None:
                return None
            segs.update(path.segments)
            reached.update(path.points)
        claimed.update(segs)
        zones.append(Zone(z, tuple(members), frozenset(segs)))

    partition = assign_transfer_stations(ZonePartition(graph, tuple(zones)))
    if validate_partition(partition):
        return None
    return partition


def ga_optimize(
    graph: FloorGraph,
    window: PartHistoryWindow,
    nz: int,
    config: GaConfig,
    rng,
    velocity: float,
    handling: HandlingTimes,
    initial_population: Sequence[tuple[int, ...]] | None = None,
) -> SearchResult:
    """Evolve workstation-to-zone vectors with tournament selection,
    single-point crossover, per-gene mutation, and elitism.

    Fitness is the negated load spread; invalid genomes score -inf and are
    never returned because the seed design is always valid and elitism (or
    final best-of-run selection) preserves the best valid individual.
    """
    ws_ids = sorted(graph.workstations)
    if nz < 1 or nz > len(ws_ids):
        raise InfeasibleStart(f"cannot build {nz} zones from {len(ws_ids)} workstations")

    def mutate(genome: tuple[int, ...], rate: float) -> tuple[int, ...]:
        return tuple(
            rng.randint(1, nz) if rng.random() < rate else g for g in genome
        )

    if initial_population is not None:
        population = [tuple(g) for g in initial_population]
    else:
        seed_genome = genome_of(initial_partition(graph, nz))
        population = [seed_genome] + [
            mutate(seed_genome, max(config.mutation, 0.2))
            for _ in range(config.population - 1)
        ]

    # Fitness and validity per genome. Decoded partitions are not kept:
    # decoding is deterministic, so the winner is decoded again at the end.
    cache: dict[tuple[int, ...], tuple[float, bool]] = {}

    def evaluate(genome: tuple[int, ...]) -> tuple[float, bool]:
        if genome not in cache:
            partition = decode_genome(graph, genome, nz)
            if partition is None:
                cache[genome] = (-math.inf, False)
            else:
                spread = load_spread(partition, window, velocity, handling)
                cache[genome] = (-spread, True)
        return cache[genome]

    def ranked(pop: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        return sorted(pop, key=lambda g: (-evaluate(g)[0], g))

    best_genome = ranked(population)[0]
    best_fit = evaluate(best_genome)[0]
    if best_fit == -math.inf:
        raise InfeasibleStart("no valid design in the initial population")
    progress = [(0, -best_fit)]

    for gen in range(config.generations):
        order = ranked(population)
        top = order[0]
        if evaluate(top)[0] > best_fit and evaluate(top)[1]:
            best_genome, best_fit = top, evaluate(top)[0]
            progress.append((gen, -best_fit))
        nxt = order[: config.elitism]
        while len(nxt) < config.population:
            def tournament() -> tuple[int, ...]:
                contenders = [
                    population[rng.randrange(len(population))] for _ in range(3)
                ]
                return max(contenders, key=lambda g: evaluate(g)[0])

            mom, dad = tournament(), tournament()
            if rng.random() < config.crossover and len(ws_ids) > 1:
                cut = rng.randrange(1, len(ws_ids))
                child = mom[:cut] + dad[cut:]
            else:
                child = mom
            nxt.append(mutate(child, config.mutation))
        population = nxt

    g = ranked(population)[0]
    fit, valid = evaluate(g)
    if valid and fit > best_fit:
        best_genome, best_fit = g, fit
        progress.append((config.generations, -best_fit))
    partition = decode_genome(graph, best_genome, nz)
    assert partition is not None
    return SearchResult(partition, progress[0][1], -best_fit, config.generations, progress)


# ── Load-sharing dispatch ────────────────────────────────────────────


def load_share_dispatch(
    partition: ZonePartition,
    location: int,
    destination: int,
    balanced: bool,
) -> list[tuple[int, int, int]]:
    """Delivery legs for a part: via transfer stations when balanced, or a
    single direct run by the holding zone's robot while a centralized
    redesign is pending."""
    if location == destination:
        return []
    if balanced:
        return plan_delivery(partition, location, destination)
    zone_id = partition.zone_of_ws(location)
    if zone_id is None:
        raise OrphanPart(f"WS{location} is in no zone")
    return [(location, destination, zone_id)]

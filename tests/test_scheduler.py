from __future__ import annotations

import random

import pytest

from dynzone.datafiles import load_layout
from dynzone.errors import OrphanPart, UnknownWorkstation
from dynzone.scheduler import (
    PartTask,
    RobotQueue,
    plan_leg,
    requeue_after_repair,
    score_and_rank,
    select_next,
    task_score,
)
from dynzone.zoning import Zone, ZonePartition, assign_transfer_stations


@pytest.fixture
def dumbbell():
    return load_layout("dumbbell")


@pytest.fixture
def three_zones(dumbbell):
    partition = ZonePartition(
        dumbbell,
        (
            Zone(1, (1, 2), frozenset({"W1|W2"})),
            Zone(2, (3, 4), frozenset({"W3|W4"})),
            Zone(3, (5, 6), frozenset({"W5|W6"})),
        )
    )
    return assign_transfer_stations(partition)


def _task(pid, pickup, dropoff, age_start, destination=None):
    return PartTask(pid, pickup, dropoff, destination or dropoff, age_start)


# ── Scoring and ranking ──────────────────────────────────────────────


def test_single_part_always_selected(dumbbell):
    q = RobotQueue(1, [_task(7, 3, 5, 0.0)], c_age=0.0, c_dist=99.0)
    ranked, top = score_and_rank(dumbbell, q, "W1", velocity=100.0, now=50.0)
    assert ranked == [q.pending[0]]
    assert top.part_id == 7


def test_empty_queue_selects_nothing(dumbbell):
    ranked, top = score_and_rank(dumbbell, RobotQueue(1), "W1", 100.0, 0.0)
    assert ranked == [] and top is None


def test_pure_shortest_job_first(dumbbell):
    # Robot at W1: job (W2 -> W3) totals 40 ft, job (W3 -> W6) totals 120 ft.
    near = _task(2, 2, 3, 0.0)
    far = _task(1, 3, 6, 0.0)
    q = RobotQueue(1, [far, near], c_age=0.0, c_dist=1.0)
    _, top = score_and_rank(dumbbell, q, "W1", velocity=100.0, now=10.0)
    assert top is near


def test_pure_fifo_when_distance_weight_zero(dumbbell):
    older = _task(5, 6, 5, 1.0)
    newer = _task(4, 2, 3, 3.0)
    q = RobotQueue(1, [newer, older], c_age=1.0, c_dist=0.0)
    _, top = score_and_rank(dumbbell, q, "W1", velocity=100.0, now=10.0)
    assert top is older


def test_direct_score_values(dumbbell):
    # From W1, pickup W2 (20 ft) + leg W2->W3 (20 ft) = 40 ft at 100 ft/min.
    t = _task(1, 2, 3, 2.0)
    score = task_score(dumbbell, t, "W1", 100.0, now=5.0, c_age=2.0, c_dist=10.0)
    assert score == pytest.approx(2.0 * 3.0 - 10.0 * 0.4)


def test_ranking_invariant_under_weight_rescale(dumbbell):
    rng = random.Random(7)
    tasks = [
        _task(i, rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0, 30))
        for i in range(40)
    ]
    a = RobotQueue(1, list(tasks), c_age=1.3, c_dist=0.7)
    b = RobotQueue(1, list(tasks), c_age=1.3 * 9.0, c_dist=0.7 * 9.0)
    ra, _ = score_and_rank(dumbbell, a, "W4", 130.0, now=31.0)
    rb, _ = score_and_rank(dumbbell, b, "W4", 130.0, now=31.0)
    assert [t.part_id for t in ra] == [t.part_id for t in rb]


def test_tie_break_older_then_lower_id(dumbbell):
    # Identical jobs: scores tie exactly.
    a = _task(9, 2, 3, 5.0)
    b = _task(3, 2, 3, 5.0)
    c = _task(6, 2, 3, 4.0)
    q = RobotQueue(1, [a, b, c], c_age=1.0, c_dist=1.0)
    ranked, top = score_and_rank(dumbbell, q, "W1", 100.0, now=8.0)
    assert top is c  # oldest wins
    assert [t.part_id for t in ranked] == [6, 3, 9]


def test_unknown_workstation_in_task(dumbbell):
    q = RobotQueue(1, [_task(1, 99, 3, 0.0)])
    with pytest.raises(UnknownWorkstation):
        score_and_rank(dumbbell, q, "W1", 100.0, 0.0)


def test_select_next_pops_and_pins(dumbbell):
    near = _task(2, 2, 3, 0.0)
    far = _task(1, 3, 6, 0.0)
    q = RobotQueue(1, [far, near], c_age=0.0, c_dist=1.0)
    top = select_next(dumbbell, q, "W1", 100.0, now=0.0)
    assert top is near
    assert q.selected is near and near not in q.pending
    # A second call is a no-op while a task is pinned.
    assert select_next(dumbbell, q, "W1", 100.0, now=0.0) is near
    assert q.pending == [far]


def test_no_starvation_under_aging(dumbbell):
    rng = random.Random(3)
    q = RobotQueue(1, c_age=1.0, c_dist=1.0)
    waited: dict[int, float] = {}
    next_id = 0
    for step in range(1200):
        now = float(step)
        if next_id < 500 and rng.random() < 0.8:
            q.pending.append(_task(next_id, rng.randint(1, 6), rng.randint(1, 6), now))
            next_id += 1
        picked = select_next(dumbbell, q, "W1", 100.0, now)
        if picked is not None:
            waited[picked.part_id] = now - picked.age_start
            q.selected = None
    assert next_id == 500
    assert len(waited) == 500  # every task was eventually selected
    assert max(waited.values()) < 100.0


# ── Re-queueing after zone repair ────────────────────────────────────


def _queues(three_zones, tasks_by_robot):
    return {
        z.id: RobotQueue(z.id, tasks_by_robot.get(z.id, []))
        for z in three_zones.zones
    }


def test_identity_repair_keeps_queues(dumbbell, three_zones):
    queues = _queues(three_zones, {1: [_task(1, 1, 2, 0.0)], 2: [_task(2, 4, 3, 1.0)]})
    rebuilt = requeue_after_repair(queues, three_zones)
    assert rebuilt[1].pending == queues[1].pending
    assert rebuilt[2].pending == queues[2].pending
    assert rebuilt[3].pending == []


def test_moved_workstation_moves_task(dumbbell, three_zones):
    # Same layout re-partitioned so W2 now belongs to zone 2.
    shifted = assign_transfer_stations(
        ZonePartition(
            dumbbell,
            (
                Zone(1, (1,), frozenset()),
                Zone(2, (2, 3, 4), frozenset({"W2|W3", "W3|W4"})),
                Zone(3, (5, 6), frozenset({"W5|W6"})),
            )
        ),
    )
    queues = _queues(three_zones, {1: [_task(1, 2, 2, 4.0)]})
    rebuilt = requeue_after_repair(queues, shifted)
    assert rebuilt[1].pending == []
    assert [t.part_id for t in rebuilt[2].pending] == [1]
    assert rebuilt[2].pending[0].age_start == 4.0  # age preserved


def test_cross_zone_task_splits_at_transfer_station(dumbbell, three_zones):
    task = _task(1, 1, 5, 0.0, destination=5)
    leg, zone = plan_leg(three_zones, task)
    assert zone == 1
    # First leg ends at the transfer station between zones 1 and 2.
    ts = three_zones.transfer_stations_between(1, 2)[0]
    assert leg.pickup == 1 and leg.dropoff == ts.ws
    assert leg.destination == 5


def test_selected_task_stays_pinned(dumbbell, three_zones):
    pinned = _task(8, 2, 1, 0.0)
    queues = _queues(three_zones, {})
    queues[1].selected = pinned
    shifted = assign_transfer_stations(
        ZonePartition(
            dumbbell,
            (
                Zone(1, (1,), frozenset()),
                Zone(2, (2, 3, 4), frozenset({"W2|W3", "W3|W4"})),
                Zone(3, (5, 6), frozenset({"W5|W6"})),
            )
        ),
    )
    rebuilt = requeue_after_repair(queues, shifted)
    assert rebuilt[1].selected is pinned


def test_orphan_part_raises(dumbbell, three_zones):
    partial = ZonePartition(
        dumbbell,
        (
            Zone(1, (1, 2), frozenset({"W1|W2"})),
            Zone(2, (3, 4), frozenset({"W3|W4"})),
            Zone(3, (5,), frozenset()),
        )
    )
    queues = _queues(three_zones, {3: [_task(1, 6, 5, 0.0)]})
    with pytest.raises(OrphanPart):
        requeue_after_repair(queues, partial)


def test_conservation_under_random_repairs(dumbbell, three_zones):
    rng = random.Random(19)
    queues = _queues(
        three_zones,
        {
            z.id: [
                _task(100 * z.id + i, ws, rng.randint(1, 6), rng.uniform(0, 10))
                for i, ws in enumerate(z.workstations)
            ]
            for z in three_zones.zones
        },
    )
    total = sum(len(q.pending) + (q.selected is not None) for q in queues.values())
    shifted = assign_transfer_stations(
        ZonePartition(
            dumbbell,
            (
                Zone(1, (1, 2, 3), frozenset({"W1|W2", "W2|W3"})),
                Zone(2, (4,), frozenset()),
                Zone(3, (5, 6), frozenset({"W5|W6"})),
            )
        ),
    )
    rebuilt = requeue_after_repair(queues, shifted)
    assert sum(len(q.pending) + (q.selected is not None) for q in rebuilt.values()) == total
    ids = sorted(t.part_id for q in rebuilt.values() for t in q.pending)
    assert ids == sorted(t.part_id for q in queues.values() for t in q.pending)

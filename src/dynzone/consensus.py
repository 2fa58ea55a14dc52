"""Weighted average consensus over a range-limited robot communication graph.

Robots within communication range exchange load estimates; each step mixes
a robot's value with its neighbors' using Metropolis weights, which keeps
the weight matrix symmetric and doubly stochastic so the fleet-wide mean
is preserved while every estimate converges toward it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import left_sum
from .errors import DimensionMismatch


def comm_graph(
    positions: Mapping[int, tuple[float, float]], comm_range: float
) -> dict[int, tuple[int, ...]]:
    """Each robot's peers, in id order: the robots at most comm_range feet
    away. This is the one range rule; consensus, the start signal and the
    ddz search all read these peer lists."""
    robots = sorted(positions.items())
    return {
        r: tuple(o for o, (ox, oy) in robots if o != r and math.hypot(ox - x, oy - y) <= comm_range)
        for r, (x, y) in robots
    }


def metropolis_weights(links: Mapping[int, Sequence[int]]) -> list[list[float]]:
    """Mixing matrix over the peer lists of robots 0..n-1, as rows w[i][j]:
    W_ij = 1/(1 + max(d_i, d_j)) between peers, where d is the length of a
    peer list; the diagonal fills each row to sum 1. Symmetric,
    row-stochastic, entrywise in [0, 1]."""
    n = len(links)
    w = [[0.0] * n for _ in range(n)]
    for i, peers in links.items():
        for j in peers:
            w[i][j] = 1.0 / (1.0 + max(len(peers), len(links[j])))
    for i, row in enumerate(w):
        row[i] = 1.0 - left_sum(row)
    return w


@dataclass(frozen=True)
class ConsensusResult:
    values: list[float]
    steps: int
    spread: float  # max |x_i - mean(initial loads)| at exit
    converged: bool


def run_consensus(
    loads: Sequence[float],
    positions: Sequence[Sequence[float]],
    comm_range: float,
    eps: float = 1e-4,
    max_steps: int = 500,
) -> ConsensusResult:
    """Iterate consensus steps over the fleet at fixed positions.

    The communication graph and its mixing matrix are built once for the
    round. Stops once every estimate is within eps of the true mean load,
    or at max_steps; non-convergence is reported through the returned
    spread, never raised. Each step sums its products left to right.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    values = [float(x) for x in loads]
    links = comm_graph(dict(enumerate(positions)), comm_range)
    if len(values) != len(links):
        raise DimensionMismatch(f"{len(values)} loads, {len(links)} positions")
    w = metropolis_weights(links)
    mean = left_sum(values) / len(values) if values else 0.0
    spread = max([abs(x - mean) for x in values], default=0.0)
    steps = 0
    while spread >= eps and steps < max_steps:
        values = [left_sum(map(operator.mul, row, values)) for row in w]
        steps += 1
        spread = max([abs(x - mean) for x in values])
    return ConsensusResult(values, steps, spread, spread < eps)

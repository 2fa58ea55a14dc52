"""Weighted average consensus over a range-limited robot communication graph.

Robots within communication range exchange load estimates; each step mixes
a robot's value with its neighbors' using Metropolis weights, which keeps
the weight matrix symmetric and doubly stochastic so the fleet-wide mean
is preserved while every estimate converges toward it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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


def metropolis_weights(links: Mapping[int, Sequence[int]]) -> np.ndarray:
    """Mixing matrix over the peer lists of robots 0..n-1:
    W_ij = 1/(1 + max(d_i, d_j)) between peers, where d is the length of a
    peer list; the diagonal fills each row to sum 1. Symmetric,
    row-stochastic, entrywise in [0, 1]."""
    n = len(links)
    w = np.zeros((n, n))
    for i, peers in links.items():
        for j in peers:
            w[i, j] = 1.0 / (1.0 + max(len(peers), len(links[j])))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


@dataclass(frozen=True)
class ConsensusResult:
    values: np.ndarray
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
    spread, never raised.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    values = np.asarray(loads, dtype=float)
    links = comm_graph(dict(enumerate(positions)), comm_range)
    if len(values) != len(links):
        raise DimensionMismatch(f"{len(values)} loads, {len(links)} positions")
    w = metropolis_weights(links)
    mean = float(values.mean()) if len(values) else 0.0
    spread = float(np.abs(values - mean).max()) if len(values) else 0.0
    steps = 0
    while spread >= eps and steps < max_steps:
        values = w @ values
        steps += 1
        spread = float(np.abs(values - mean).max())
    return ConsensusResult(values, steps, spread, spread < eps)

"""Weighted average consensus over a range-limited robot communication graph.

Robots within communication range exchange load estimates; each step mixes
a robot's value with its neighbors' using Metropolis weights, which keeps
the weight matrix symmetric and doubly stochastic so the fleet-wide mean
is preserved while every estimate converges toward it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class CommGraph:
    """Snapshot of who can talk to whom at one instant."""

    positions: np.ndarray  # shape (n, 2), feet
    range: float
    edges: tuple[tuple[int, int], ...]  # i < j pairs within range
    degrees: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.positions)


def comm_graph(positions: Sequence[Sequence[float]], comm_range: float) -> CommGraph:
    q = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = len(q)
    edges = []
    degrees = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(q[j] - q[i])) <= comm_range:
                edges.append((i, j))
                degrees[i] += 1
                degrees[j] += 1
    return CommGraph(q, float(comm_range), tuple(edges), tuple(degrees))


def metropolis_weights(graph: CommGraph) -> np.ndarray:
    """Mixing matrix: W_ij = 1/(1 + max(d_i, d_j)) on edges, diagonal fills
    each row to sum 1. Symmetric, row-stochastic, entrywise in [0, 1]."""
    n = graph.n
    w = np.zeros((n, n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(graph.degrees[i], graph.degrees[j]))
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
    graph = comm_graph(positions, comm_range)
    if len(values) != graph.n:
        raise DimensionMismatch(f"{len(values)} loads, {graph.n} positions")
    w = metropolis_weights(graph)
    mean = float(values.mean()) if len(values) else 0.0
    spread = float(np.abs(values - mean).max()) if len(values) else 0.0
    steps = 0
    while spread >= eps and steps < max_steps:
        values = w @ values
        steps += 1
        spread = float(np.abs(values - mean).max())
    return ConsensusResult(values, steps, spread, spread < eps)

from __future__ import annotations

import random

import pytest

from dynzone import left_sum
from dynzone.consensus import comm_graph, metropolis_weights, run_consensus
from dynzone.errors import DimensionMismatch
from tests.conftest import allclose, left_to_right, mix

LINE = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]  # A-B-C at range 10
TRIANGLE = [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]  # complete at range 12


def links(positions, comm_range):
    return comm_graph(dict(enumerate(positions)), comm_range)


def test_isolated_node_self_weight_one():
    g = links([(0.0, 0.0)], 5.0)
    w = metropolis_weights(g)
    assert len(w) == 1 and len(w[0]) == 1
    assert w[0][0] == 1.0


def test_line_graph_weights():
    g = links(LINE, 10.0)
    w = metropolis_weights(g)
    third = pytest.approx(1.0 / 3.0)
    assert w[0][1] == third and w[1][2] == third
    assert w[0][2] == 0.0
    assert w[0][0] == pytest.approx(2.0 / 3.0)
    assert w[1][1] == third
    assert w[2][2] == pytest.approx(2.0 / 3.0)


def test_complete_graph_weights():
    g = links(TRIANGLE, 12.0)
    w = metropolis_weights(g)
    assert len(w) == 3
    assert all(allclose(row, [1.0 / 3.0] * 3) for row in w)


def test_fixed_point_when_equal():
    g = links(TRIANGLE, 12.0)
    x = [7.0, 7.0, 7.0]
    after = mix(metropolis_weights(g), x)
    assert allclose(after, x)


def test_peers_exactly_in_range_off_axis():
    # 150-200-250 is a 3-4-5 triangle: the pair is exactly in range.
    g = links([(0.0, 0.0), (150.0, 200.0)], 250.0)
    assert g == {0: (1,), 1: (0,)}
    assert metropolis_weights(g)[0][1] == 0.5


def test_peer_lists_in_id_order():
    g = comm_graph({7: (0.0, 0.0), 3: (5.0, 0.0), 5: (2.0, 0.0), 9: (50.0, 0.0)}, 10.0)
    assert g == {3: (5, 7), 5: (3, 7), 7: (3, 5), 9: ()}


def test_line_graph_single_step():
    g = links(LINE, 10.0)
    after = mix(metropolis_weights(g), [0.0, 3.0, 6.0])
    assert allclose(after, [1.0, 3.0, 5.0])


def test_empty_edge_set_is_identity():
    g = links(LINE, 1.0)
    x = [4.0, 8.0, 1.0]
    after = mix(metropolis_weights(g), x)
    assert allclose(after, x)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        run_consensus([1.0, 2.0], LINE, comm_range=10.0)


def test_single_robot_immediate():
    res = run_consensus([12.5], [(0.0, 0.0)], comm_range=1.0)
    assert res.converged
    assert res.steps == 0
    assert res.values[0] == 12.5


def test_triangle_converges_to_mean():
    res = run_consensus(
        [10.0, 20.0, 60.0], TRIANGLE, comm_range=12.0, eps=1e-6
    )
    assert res.converged
    assert allclose(res.values, [30.0] * 3, atol=1e-6)


def test_disconnected_pair_keeps_values():
    res = run_consensus(
        [5.0, 25.0], [(0.0, 0.0), (100.0, 0.0)], comm_range=10.0, max_steps=50
    )
    assert not res.converged
    assert allclose(res.values, [5.0, 25.0])


def _random_geometric(rng, n):
    while True:
        pos = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        g = links(pos, 60.0)
        # connected check over the peer lists
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nbr in g[cur]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        if len(seen) == n:
            return pos, g


def test_weight_matrix_properties_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 12)
        _, g = _random_geometric(rng, n)
        w = metropolis_weights(g)
        assert len(w) == n and all(len(row) == n for row in w)
        assert all(allclose(row, col) for row, col in zip(w, zip(*w)))
        assert allclose([sum(row) for row in w], [1.0] * n)
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for row in w for v in row)


def _numpy_weights(np, links):
    """The weights as the numpy implementation built them."""
    n = len(links)
    w = np.zeros((n, n))
    for i, peers in links.items():
        for j in peers:
            w[i, j] = 1.0 / (1.0 + max(len(peers), len(links[j])))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


def test_weights_and_step_match_numpy_random_graphs():
    np = pytest.importorskip("numpy")
    rng = random.Random(11)  # the graphs of test_weight_matrix_properties_random_graphs
    load_rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(3, 12)
        pos, g = _random_geometric(rng, n)
        w = metropolis_weights(g)
        assert np.abs(np.asarray(w) - _numpy_weights(np, g)).max() <= 1e-15
        x = [load_rng.uniform(0, 60) for _ in range(n)]
        res = run_consensus(x, pos, comm_range=60.0, eps=1e-300, max_steps=1)
        assert res.steps == 1
        np.testing.assert_allclose(res.values, np.asarray(w) @ np.asarray(x), rtol=0, atol=1e-12)


def test_mean_preserved_under_time_varying_graphs():
    rng = random.Random(5)
    n = 6
    loads = [rng.uniform(0, 100) for _ in range(n)]
    mean0 = sum(loads) / n
    x = loads
    for _ in range(60):
        pos = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        x = mix(metropolis_weights(links(pos, 50.0)), x)
        assert sum(x) / n == pytest.approx(mean0, rel=1e-9)


def test_spread_monotone_on_static_connected_graph():
    rng = random.Random(23)
    pos, g = _random_geometric(rng, 7)
    x = [rng.uniform(0, 60) for _ in range(7)]
    w = metropolis_weights(g)
    spread = max(x) - min(x)
    for _ in range(400):
        x = mix(w, x)
        new_spread = max(x) - min(x)
        assert new_spread <= spread + 1e-12
        spread = new_spread
    assert spread < 1e-6


def test_left_sum_adds_strictly_left_to_right():
    # A compensated sum, as `sum()` is from CPython 3.12 on, gives 1.0 here.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert left_sum([]) == 0.0
    rng = random.Random(5)
    for _ in range(200):
        values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12) for _ in range(rng.randint(1, 12))]
        assert left_sum(values).hex() == float(left_to_right(values)).hex()

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_path
from spantreecover import oracle as oracle_mod
from spantreecover.cover import (
    CoverConfig,
    SpanningTree,
    TreeCover,
    cover_stretch,
    span_tree_cover,
)
from spantreecover.graphs import WeightedGraph, apsp, dijkstra, generate, root_tree
from spantreecover.oracle import (
    OracleIndex,
    TreeOracle,
    build_oracle,
    query_distance,
    query_path,
)


def weighted_path(n, weights):
    return WeightedGraph(n, [(i, i + 1, w) for i, w in enumerate(weights)])


def test_path_distances_are_prefix_sums():
    ws = [1.0, 2.5, 0.5, 4.0]
    g = weighted_path(5, ws)
    t = TreeOracle(5, [(i, i + 1) for i in range(4)], 0, g)
    prefix = [0.0]
    for w in ws:
        prefix.append(prefix[-1] + w)
    for u in range(5):
        for v in range(5):
            assert t.dist(u, v) == pytest.approx(abs(prefix[u] - prefix[v]))


def test_lca_self():
    g = generate("grid", {"k": 3})
    edges = [(0, 1), (1, 2), (0, 3), (3, 6), (6, 7), (7, 8), (1, 4), (4, 5)]
    t = TreeOracle(9, edges, 0, g)
    for u in range(9):
        assert t.lca(u, u) == u


def test_oracle_matches_dijkstra_seeded(grid8, grid8_cover):
    # 100 random pairs against a fresh dijkstra run on the tree subgraph
    t = grid8_cover.trees[0]
    tg = WeightedGraph(
        grid8.n, [(u, v, grid8.weight(u, v)) for u, v in t.edges]
    )
    oracle = TreeOracle(grid8.n, t.edges, t.root, grid8)
    rng = random.Random(12345)
    for _ in range(100):
        u = rng.randrange(grid8.n)
        v = rng.randrange(grid8.n)
        assert oracle.dist(u, v) == pytest.approx(
            dijkstra(tg, u).dist[v], abs=1e-9
        )


def test_dist_many_agrees_with_dist(grid8, grid8_cover):
    t = grid8_cover.trees[0]
    oracle = TreeOracle(grid8.n, t.edges, t.root, grid8)
    us = np.arange(grid8.n, dtype=np.int64)
    # the rolled pairs, then every u == v pair, whose preorder range is empty
    us, vs = np.concatenate([us, us]), np.concatenate([np.roll(us, 7), us])
    bulk = oracle.dist_many(us, vs)
    for i in range(len(us)):
        assert bulk[i] == pytest.approx(oracle.dist(int(us[i]), int(vs[i])))
    assert (bulk[grid8.n :] == 0.0).all()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_tree_oracle_exact(data):
    n = data.draw(st.integers(min_value=2, max_value=24))
    edges = []
    for v in range(1, n):
        p = data.draw(st.integers(min_value=0, max_value=v - 1))
        w = data.draw(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
        )
        edges.append((p, v, w))
    g = WeightedGraph(n, edges)
    t = TreeOracle(n, [(u, v) for u, v, _ in edges], 0, g)
    d = apsp(g)
    for u in range(n):
        for v in range(n):
            assert t.dist(u, v) == pytest.approx(d[u][v], abs=1e-9)


def test_tree_input_estimate_exact():
    g = weighted_path(6, [1.0, 3.0, 2.0, 1.5, 0.5])
    cover = span_tree_cover(g, CoverConfig())
    oracle = build_oracle(g, cover)
    d = apsp(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            est, idx = query_distance(oracle, u, v)
            assert est == pytest.approx(d[u][v], abs=1e-9)
            assert 0 <= idx < len(cover.trees)


def test_estimate_never_below_true_distance(grid8, grid8_cover):
    oracle = build_oracle(grid8, grid8_cover)
    d = apsp(grid8)
    for u in range(grid8.n):
        for v in range(u + 1, grid8.n):
            est, _ = query_distance(oracle, u, v)
            assert est >= d[u][v] - 1e-9


def test_estimate_matches_cover_stretch_max(grid8, grid8_cover):
    oracle = build_oracle(grid8, grid8_cover)
    d = apsp(grid8)
    pairs = [(u, v) for u in range(grid8.n) for v in range(u + 1, grid8.n)]
    st_report = cover_stretch(grid8, grid8_cover, pairs)
    worst = max(
        query_distance(oracle, u, v)[0] / d[u][v] for u, v in pairs
    )
    assert worst == pytest.approx(st_report["max"], abs=1e-9)


def test_query_distance_degenerate():
    g = unit_path(3)
    cover = span_tree_cover(g, CoverConfig())
    oracle = build_oracle(g, cover)
    assert query_distance(oracle, 1, 1) == (0.0, 0)


def test_query_path_properties(grid8, grid8_cover):
    oracle = build_oracle(grid8, grid8_cover)
    rng = random.Random(777)
    for _ in range(100):
        u = rng.randrange(grid8.n)
        v = rng.randrange(grid8.n)
        if u == v:
            continue
        est, _ = query_distance(oracle, u, v)
        path, pw, _ = query_path(oracle, grid8, u, v)
        assert pw == pytest.approx(est, abs=1e-9)
        assert path[0] == u and path[-1] == v
        w = 0.0
        for a, b in zip(path, path[1:]):
            assert grid8.has_edge(a, b)
            w += grid8.weight(a, b)
        assert w == pytest.approx(est, abs=1e-9)


def test_query_path_adjacent_single_edge():
    g = unit_path(4)
    cover = span_tree_cover(g, CoverConfig())
    oracle = build_oracle(g, cover)
    path, w, _ = query_path(oracle, g, 1, 2)
    assert path == [1, 2]
    assert w == pytest.approx(1.0)


def test_oracle_index_tree_count(grid8, grid8_cover):
    oracle = build_oracle(grid8, grid8_cover)
    assert len(oracle.trees) == len(grid8_cover.trees)


def test_oracle_table_covers_preorder_positions(grid8, grid8_cover):
    # one column per preorder position, not per Euler-tour position
    oracle = build_oracle(grid8, grid8_cover)
    t, n = len(grid8_cover.trees), grid8.n
    assert oracle.table.shape == (t, max(1, (n - 1).bit_length()), n)


def _reference_query(trees, u, v):
    """The per-tree loop: exact minimum, first tree attaining it."""
    ds = [t.dist(u, v) for t in trees]
    best = min(ds)
    return best, ds.index(best)


def test_batched_estimate_exact_grid8(grid8, grid8_cover):
    oracle = build_oracle(grid8, grid8_cover)
    fresh = [TreeOracle(grid8.n, t.edges, t.root, grid8) for t in grid8_cover.trees]
    for u in range(grid8.n):
        for v in range(grid8.n):
            if u != v:
                assert query_distance(oracle, u, v) == _reference_query(fresh, u, v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_estimate_exact_random_covers(data):
    # several random spanning trees with different roots over one vertex
    # set; few distinct weights, so that trees often tie
    n = data.draw(st.integers(min_value=1, max_value=24))
    count = data.draw(st.integers(min_value=1, max_value=5))
    weight = st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 1.5])
    weights: dict = {}
    trees = []
    for _ in range(count):
        order = data.draw(st.permutations(range(n)))
        edges = []
        for i in range(1, n):
            p = order[data.draw(st.integers(min_value=0, max_value=i - 1))]
            e = (min(p, order[i]), max(p, order[i]))
            if e not in weights:
                weights[e] = data.draw(weight)
            edges.append(e)
        root = data.draw(st.integers(min_value=0, max_value=n - 1))
        trees.append(SpanningTree(sorted(edges), root, (0, 0)))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(weights.items())])
    oracle = build_oracle(g, TreeCover(trees, {}, 1.0))
    fresh = [TreeOracle(n, t.edges, t.root, g) for t in trees]
    assert oracle.table.shape == (count, max(1, (n - 1).bit_length()), n)
    for u in range(n):
        assert query_distance(oracle, u, u) == (0.0, 0)
        for v in range(n):
            if u != v:
                assert query_distance(oracle, u, v) == _reference_query(fresh, u, v)


def test_near_tie_smaller_tree_wins():
    # the two trees' distances for (0, 2) differ by 5e-14, below any fixed
    # tolerance of 1e-12: the smaller one must still win
    g = WeightedGraph(3, [(0, 1, 1e-13), (1, 2, 1e-13), (0, 2, 1.5e-13)])
    long_first = SpanningTree([(0, 1), (1, 2)], 0, (0, 0))
    short = SpanningTree([(0, 1), (0, 2)], 0, (1, 0))
    cover = TreeCover([long_first, short], {}, 1.0)
    oracle = build_oracle(g, cover)
    assert query_distance(oracle, 0, 2) == (1.5e-13, 1)
    path, w, idx = query_path(oracle, g, 0, 2)
    assert (path, w, idx) == ([0, 2], 1.5e-13, 1)
    report = cover_stretch(g, cover, [(0, 2)])
    assert report["table"] == [(0, 2, 1.0, 1)]


@pytest.mark.parametrize("bad", [-1, 64])
def test_query_rejects_out_of_range_vertex(grid8, grid8_cover, bad):
    oracle = build_oracle(grid8, grid8_cover)
    for u, v in ((bad, 5), (5, bad), (bad, bad)):
        with pytest.raises(ValueError):
            query_distance(oracle, u, v)
        with pytest.raises(ValueError):
            query_path(oracle, grid8, u, v)
    assert oracle.trees_touched == 0


def test_tree_oracles_follow_the_graph_weights():
    cover = TreeCover([SpanningTree([(0, 1), (1, 2)], 0, (0, 0))], {}, 1.0)
    first = cover.tree_oracles(weighted_path(3, [1.0, 2.0]))
    assert first[0].dist(0, 2) == 3.0
    other = cover.tree_oracles(weighted_path(3, [1.0, 5.0]))
    assert other[0] is not first[0] and other[0].dist(0, 2) == 6.0
    with pytest.raises(ValueError, match=r"cover tree 0: edge \(1, 2\) is not in the graph"):
        cover.tree_oracles(WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0)]))


def test_tree_oracles_are_views_of_the_stack(grid8, grid8_cover):
    # each tree's LCA data lives once, in the stack: a TreeOracle holds no
    # list and reads only the stacked arrays
    oracle = build_oracle(grid8, grid8_cover)
    held = [getattr(t, name) for t in oracle.trees for name in TreeOracle.__slots__]
    assert not any(isinstance(x, (list, np.ndarray)) for x in held)
    names = ("first", "table", "order", "wdepth", "parent")
    for tree in oracle.trees:
        for name in names:
            read = getattr(tree._index, name)
            assert np.shares_memory(read, getattr(oracle, name)), name


def test_table_holds_parent_positions(grid8, grid8_cover):
    # the stack keeps each tree's preorder and, at table level 0, each
    # position's parent position; it keeps no depths
    oracle = build_oracle(grid8, grid8_cover)
    n = grid8.n
    for t in range(len(grid8_cover.trees)):
        order, first = oracle.order[t], oracle.first[:, t]
        assert np.array_equal(order[first], np.arange(n))
        assert np.array_equal(first[order], np.arange(n))
        parents = oracle.parent[t, order[1:]]
        assert np.array_equal(oracle.table[t, 0, 1:], first[parents])
    assert not hasattr(oracle, "depth")


def test_each_tree_rooted_once_per_graph(grid8, grid8_cover, monkeypatch):
    cover = TreeCover(grid8_cover.trees, dict(grid8_cover.params), grid8_cover.scale)
    calls = []

    def counting(*args):
        calls.append(args)
        return root_tree(*args)

    monkeypatch.setattr(oracle_mod, "root_tree", counting)
    cover.tree_oracles(grid8)
    build_oracle(grid8, cover)
    cover_stretch(grid8, cover, [(0, 9), (3, 60)])
    assert len(calls) == len(cover.trees)

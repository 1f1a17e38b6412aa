"""Graph core: parsing, shortest paths, spanner, nets, generators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantreecover import graphs
from spantreecover.cover import CoverConfig, span_tree_cover
from spantreecover.graphs import (
    DisconnectedGraphError,
    MalformedLineError,
    NonpositiveWeightError,
    WeightedGraph,
    apsp,
    dijkstra,
    generate,
    greedy_net,
    greedy_spanner,
    load_graph,
    mst_weight,
    root_tree,
    validate_graph,
)


def write_graph(tmp_path, text):
    p = tmp_path / "g.txt"
    p.write_text(text)
    return str(p)


def test_load_path_graph(tmp_path):
    g = load_graph(write_graph(tmp_path, "3 2\n0 1 1.0\n1 2 2.0\n"))
    assert g.n == 3
    assert g.total_weight() == pytest.approx(3.0)


@pytest.mark.parametrize("w", ["-1", "0", "nan", "inf"])
def test_load_rejects_nonpositive_weight(tmp_path, w):
    with pytest.raises(NonpositiveWeightError, match="finite and positive"):
        load_graph(write_graph(tmp_path, f"2 1\n0 1 {w}\n"))


def test_validate_rejects_overflowing_weight_ratio():
    with pytest.raises(graphs.WeightRangeError, match="weight ratio 1e\\+300 / 1e-300"):
        validate_graph(3, [(0, 1, 1e-300), (1, 2, 1e300)])
    # a wide but finite ratio is accepted
    assert validate_graph(3, [(0, 1, 1e-150), (1, 2, 1e150)]).m == 2


def test_load_rejects_negative_vertex_count(tmp_path):
    with pytest.raises(MalformedLineError, match="negative vertex count"):
        load_graph(write_graph(tmp_path, "-2 0\n"))


def test_load_rejects_disconnected(tmp_path):
    with pytest.raises(DisconnectedGraphError):
        load_graph(write_graph(tmp_path, "4 2\n0 1 1\n2 3 1\n"))


def test_load_rejects_duplicate_edge(tmp_path):
    with pytest.raises(graphs.DuplicateEdgeError):
        load_graph(write_graph(tmp_path, "2 2\n0 1 1\n1 0 2\n"))


def test_load_rejects_malformed(tmp_path):
    with pytest.raises(MalformedLineError):
        load_graph(write_graph(tmp_path, "2 1\n0 1\n"))


def test_load_skips_comments(tmp_path):
    g = load_graph(write_graph(tmp_path, "# hi\n2 1\n\n0 1 2.5 # inline\n"))
    assert g.m == 1 and g.weight(0, 1) == 2.5


def test_save_load_roundtrip(tmp_path):
    g = generate("grid", {"k": 3})
    p = tmp_path / "out.txt"
    graphs.save_graph(g, str(p))
    g2 = load_graph(str(p))
    assert g2.n == g.n and g2.edges == g.edges


def test_dijkstra_path():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert dijkstra(g, 0).dist == [0.0, 1.0, 3.0]


def test_dijkstra_triangle_direct_edge():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])
    assert dijkstra(g, 0).dist[2] == pytest.approx(1.9)


def test_dijkstra_restriction_cycle():
    # 4-cycle, restricted to one side: dist frozen by path enumeration
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    spt = dijkstra(g, 0, restrict={0, 1, 2})
    assert spt.dist[2] == pytest.approx(2.0)
    assert spt.dist[3] == math.inf


def test_dijkstra_source_out_of_restriction():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        dijkstra(g, 0, restrict={1})


def test_dijkstra_tiebreak_prefers_small_parent():
    # two equal-length routes to 3: via 1 and via 2
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    spt = dijkstra(g, 0)
    assert spt.parent[3] == 1
    assert spt.path_to(3) == [0, 1, 3]


def test_dijkstra_stop_nearest_target_smaller_id_on_tie():
    # 1 and 3 are both at distance 2 from 0, 4 is farther
    g = WeightedGraph(
        5, [(0, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (0, 4, 2.5)]
    )
    spt = dijkstra(g, 0, stop={3, 1, 4})
    assert spt.reached == 1
    assert spt.path_to(1) == [0, 2, 1]
    assert dijkstra(g, 0, stop={3, 4}).reached == 3
    assert dijkstra(g, 0, stop={9}).reached is None


def test_dijkstra_path_edges_extend_restriction():
    # restrict to {0, 1}; vertices 2 and 3 only through the path [1, 2, 3],
    # so the shortcut 0-3 outside restrict is not usable
    g = WeightedGraph(
        5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (3, 4, 1.0)]
    )
    spt = dijkstra(g, 0, restrict={0, 1}, paths=[[1, 2, 3]])
    assert spt.dist[:4] == [0.0, 1.0, 2.0, 3.0]
    assert spt.path_to(3) == [0, 1, 2, 3]
    assert spt.dist[4] == math.inf
    assert dijkstra(g, 0, restrict={0, 1}).dist[2] == math.inf


def test_dijkstra_source_on_path_outside_restriction():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0)])
    spt = dijkstra(g, 3, restrict={0, 1}, paths=[[3, 2, 1]], stop={0})
    assert spt.reached == 0
    assert spt.path_to(0) == [3, 2, 1, 0]
    with pytest.raises(ValueError):
        dijkstra(g, 3, restrict={0, 1}, paths=[[2, 1]])


@pytest.mark.parametrize("w, reached", [(1.2, None), (2.1, 3)])
def test_dijkstra_stop_and_cutoff_give_spanner_decision(w, reached):
    # the detour 0-1-2-3 has length 3; the greedy 1.5-spanner keeps the
    # edge (0, 3) of weight w iff the detour exceeds 1.5 * w. At w = 1.2 the
    # search stops at the cutoff 1.8 before it reaches 3.
    sp = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    bound = 1.5 * w
    spt = dijkstra(sp, 0, cutoff=bound, stop={3})
    assert spt.reached == reached
    kept = not spt.dist[3] <= bound + graphs.TOL
    assert kept == (reached is None)
    g = WeightedGraph(4, sp.edges + [(0, 3, w)])
    assert ((0, 3, w) in greedy_spanner(g, 0.5).edges) == kept


def test_apsp_path_max_entry():
    g = generate("path", {"n": 4})
    assert apsp(g).max() == pytest.approx(3.0)


def test_apsp_single_vertex():
    d = apsp(WeightedGraph(1, []))
    assert d.shape == (1, 1) and d[0, 0] == 0.0


def test_apsp_grid_corner():
    g = generate("grid", {"k": 5})
    assert apsp(g)[0, 24] == pytest.approx(8.0)


def test_apsp_cap():
    g = generate("path", {"n": 5})
    with pytest.raises(ValueError):
        apsp(g, cap=4)


def test_apsp_triangle_inequality():
    g = generate("random_geometric", {"n": 40}, seed=3)
    d = apsp(g)
    assert np.allclose(d, d.T)
    for i, j, k in itertools.product(range(0, 40, 7), repeat=3):
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


EQUIVALENCE_INSTANCES = [
    ("grid", {"k": 16}, 0),
    ("random_geometric", {"n": 64}, 1),
    ("random_geometric", {"n": 64}, 2),
    ("random_geometric", {"n": 64}, 3),
    ("random_geometric", {"n": 256}, 1),
]


@pytest.mark.parametrize(
    "kind,params,seed",
    EQUIVALENCE_INSTANCES,
    ids=["grid16", "rg64s1", "rg64s2", "rg64s3", "rg256s1"],
)
def test_csgraph_distances_equal_dijkstra_bitwise(kind, params, seed):
    # apsp and the in-cluster blocks come from scipy's csgraph; the path
    # searches from dijkstra. Covers stay byte-identical only if both give
    # the same floats, on every cluster of the built hierarchies.
    from spantreecover.hpf import build_hpf

    gs, _ = generate(kind, params, seed=seed).rescaled()
    full = apsp(gs)
    assert np.array_equal(full, [dijkstra(gs, s).dist for s in range(gs.n)])
    dists = graphs.ClusterDistances(gs, full)
    hpf = build_hpf(gs, 6.0, 24.0, 1.0, dists=dists)
    blocks = {c.members for h in hpf.hierarchies for c in h.clusters.values()}
    for members in blocks:
        idx = sorted(members)
        want = [np.asarray(dijkstra(gs, s, restrict=members).dist)[idx] for s in idx]
        block = dists.distances(members, idx, idx)
        assert np.array_equal(block, want)
        assert dists.diameter(members) == block.max()


PATH_INSTANCES = [
    ("grid", {"k": 16}, 0),
    ("random_geometric", {"n": 256}, 1),
    ("random_geometric", {"n": 512}, 1),
]


@pytest.mark.parametrize(
    "kind,params,seed", PATH_INSTANCES, ids=["grid16", "rg256s1", "rg512s1"]
)
def test_block_paths_equal_dijkstra_paths(kind, params, seed, monkeypatch):
    # the build reads its paths off the csgraph blocks: every tree path and
    # every search towards pi that a checks-off build makes must be the
    # path of dijkstra's tie rule
    tree_paths: dict[tuple[frozenset, int], dict[int, list]] = {}
    pi_paths: dict[tuple[frozenset, tuple, int], list] = {}
    path_to, path = graphs.ClusterTree.path_to, graphs.ClusterDistances.path

    def recorded_path_to(tree, v):
        out = path_to(tree, v)
        tree_paths.setdefault((frozenset(tree.idx.tolist()), tree.source), {})[v] = out
        return out

    def recorded_path(dists, chat, source, target):
        out = path(dists, chat, source, target)
        if isinstance(target, tuple):  # the search towards pi
            pi_paths[(chat, target, source)] = out
        return out

    monkeypatch.setattr(graphs.ClusterTree, "path_to", recorded_path_to)
    monkeypatch.setattr(graphs.ClusterDistances, "path", recorded_path)
    g = generate(kind, params, seed=seed)
    span_tree_cover(g, CoverConfig(check=False))
    gs, _ = g.rescaled()
    assert tree_paths and pi_paths
    for (members, source), paths in tree_paths.items():
        spt = dijkstra(gs, source, restrict=members)
        for v, path in paths.items():
            assert path == spt.path_to(v), (sorted(members), source, v)
    for (chat, pi, source), path in pi_paths.items():
        spt = dijkstra(gs, source, restrict=chat, paths=[list(pi)], stop=set(pi))
        assert path == spt.path_to(spt.reached), (sorted(chat), pi, source)


def test_checked_build_searches_each_cluster_once(monkeypatch):
    # ClusterDistances owns every in-cluster search of the build and its
    # checks: a checks-on build derives each (member set, source) tree once,
    # across hierarchies and copies, and makes no heap search
    import sys

    derived, searches = [], []
    make_tree, search = graphs.ClusterTree, graphs.dijkstra

    def counted_tree(source, idx, *rest):
        derived.append((frozenset(idx.tolist()), source))
        return make_tree(source, idx, *rest)

    def counted_search(g, source, restrict=None, cutoff=math.inf, stop=None, paths=()):
        paths = [list(p) for p in paths]
        searches.append((
            None if restrict is None else frozenset(restrict),
            source,
            tuple(tuple(p) for p in paths),
            None if stop is None else frozenset(stop),
        ))
        return search(g, source, restrict, cutoff, stop, paths)

    monkeypatch.setattr(graphs, "ClusterTree", counted_tree)
    for name, module in list(sys.modules.items()):
        if name.startswith("spantreecover") and getattr(module, "dijkstra", None) is search:
            monkeypatch.setattr(module, "dijkstra", counted_search)
    cover = span_tree_cover(generate("grid", {"k": 8}), CoverConfig())
    assert cover.diagnostics["nodes_checked"] == 719
    assert derived and not searches
    assert len(derived) == len(set(derived))
    assert len(searches) == len(set(searches))


def test_cluster_distances_sub_block_and_outside_vertex():
    g = generate("path", {"n": 5})
    dists = graphs.ClusterDistances(g)
    members = frozenset({1, 2, 3})
    assert dists.distances(members, [3, 1], [2]).tolist() == [[1.0], [1.0]]
    assert dists.diameter(members) == 2.0
    with pytest.raises(ValueError, match="outside the cluster"):
        dists.distances(members, [0], [2])


def test_mst_path_is_itself():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert mst_weight(g) == pytest.approx(3.0)


def test_mst_triangle_drops_heaviest():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])
    assert mst_weight(g) == pytest.approx(2.0)


def test_mst_grid():
    assert mst_weight(generate("grid", {"k": 4})) == pytest.approx(15.0)


def _brute_mst(g):
    best = math.inf
    for combo in itertools.combinations(range(g.m), g.n - 1):
        dsu = graphs._DSU(g.n)
        ok = all(dsu.union(g.edges[k][0], g.edges[k][1]) for k in combo)
        if ok:
            best = min(best, sum(g.edges[k][2] for k in combo))
    return best


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_mst_matches_bruteforce_small(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    edges = [(i - 1, i, float(rng.integers(1, 9))) for i in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if (v - u) > 1 and rng.random() < 0.4:
                edges.append((u, v, float(rng.integers(1, 9))))
    g = validate_graph(n, edges)
    assert mst_weight(g) == pytest.approx(_brute_mst(g))


def test_spanner_tree_unchanged():
    g = generate("path", {"n": 6})
    assert greedy_spanner(g, 0.3).edges == g.edges


def test_spanner_triangle_drops_long_edge():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])
    s = greedy_spanner(g, 0.1)
    assert not s.has_edge(0, 2) and s.m == 2


def test_spanner_triangle_keeps_all_small_eps():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.9)])
    assert greedy_spanner(g, 0.05).m == 3


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_spanner_stretch_property(seed):
    g = generate("random_geometric", {"n": 30}, seed=seed)
    eps = 0.25
    s = greedy_spanner(g, eps)
    for u, v, w in g.edges:
        _, d = graphs.shortest_path(s, u, v)
        assert d <= (1 + eps) * w + 1e-9


def test_net_path_example():
    g = generate("path", {"n": 3})
    assert greedy_net(g, [0, 1, 2], [], 1.0) == [0, 2]


def test_net_large_t_singleton():
    g = generate("path", {"n": 5})
    assert greedy_net(g, [2, 3, 4, 0, 1], [], 100.0) == [0]


def test_net_base_already_covers():
    g = generate("path", {"n": 3})
    assert greedy_net(g, [0, 1, 2], [1], 1.0) == [1]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_net_packing_and_covering(seed):
    g = generate("random_geometric", {"n": 25}, seed=seed)
    d = apsp(g)
    t = float(np.median(d))
    members = greedy_net(g, list(range(g.n)), [], t)
    added = members
    for a, b in itertools.combinations(added, 2):
        assert d[a, b] > t - 1e-9 or (a in members[:0])
    for c in range(g.n):
        assert min(d[c, m] for m in members) <= t + 1e-9


def test_net_packing_among_added_strict():
    g = generate("grid", {"k": 4})
    d = apsp(g)
    members = greedy_net(g, list(range(16)), [], 2.0)
    for a, b in itertools.combinations(members, 2):
        assert d[a, b] > 2.0 + 1e-9


def _greedy_net_loop(g, candidates, base, t):
    """Reference: the per-vertex minimum over every search's distances,
    one vertex at a time."""
    members = list(base)
    dmin = [math.inf] * g.n

    def absorb(source):
        dist = dijkstra(g, source, cutoff=t).dist
        for v in range(g.n):
            dmin[v] = min(dmin[v], dist[v])

    for b in members:
        absorb(b)
    for c in sorted(candidates):
        if dmin[c] > t + graphs.TOL:
            members.append(c)
            absorb(c)
    return members


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_net_matches_loop_reference(seed):
    g = generate("random_geometric", {"n": 30}, seed=seed)
    rng = np.random.default_rng(seed)
    d = apsp(g)
    t = float(rng.choice(d[d > 0]))  # a realised distance: the tie case
    base = rng.choice(g.n, size=2, replace=False).tolist()
    candidates = rng.permutation(g.n).tolist()
    assert greedy_net(g, candidates, base, t) == _greedy_net_loop(g, candidates, base, t)


def test_dijkstra_full_restriction_matches():
    g = generate("random_geometric", {"n": 20}, seed=1)
    for s in range(0, 20, 5):
        assert dijkstra(g, s).dist == dijkstra(g, s, restrict=set(range(20))).dist


def test_generate_grid3():
    g = generate("grid", {"k": 3})
    assert g.n == 9 and g.m == 12
    assert all(w == 1.0 for _, _, w in g.edges)


def test_generate_star_exponential():
    g = generate("star_exponential", {"n": 4})
    assert sorted(g.edges) == [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 4.0)]


def test_generate_uniform_line():
    g = generate("uniform_line", {"n": 8})
    assert g.edges == [(i, i + 1, 1.0) for i in range(7)]


def test_generate_geometric_deterministic():
    a = generate("random_geometric", {"n": 50}, seed=7)
    b = generate("random_geometric", {"n": 50}, seed=7)
    assert a.edges == b.edges


def test_rescaled_min_weight_one():
    g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 2.0)])
    gs, s = g.rescaled()
    assert s == pytest.approx(2.0)
    assert gs.min_weight() == pytest.approx(1.0)


def test_root_tree_preorder_by_weight_then_id():
    # root 2 has children 4 (w 1), 0 and 3 (both w 2, so by id); 0 has 1
    edges = [(2, 0, 2.0), (0, 1, 0.5), (3, 2, 2.0), (2, 4, 1.0)]
    order, parent, wd = root_tree(5, edges, 2)
    assert order == [2, 4, 0, 1, 3]
    assert parent == [2, 0, -1, 2, 2]
    assert wd == [2.0, 2.5, 0.0, 2.0, 1.0]
    with pytest.raises(AssertionError, match="does not span"):
        root_tree(5, edges[:3], 2)

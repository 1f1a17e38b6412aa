import pytest

from conftest import flat_hierarchy, unit_path
from spantreecover.graphs import WeightedGraph, generate
from spantreecover.hpf import build_hpf, offset_ell
from spantreecover.oracle import TreeOracle
from spantreecover.preservable import (
    build_preservable_set,
    build_sketch_graph,
    verify_preservable_lemma,
    verify_preservable_set,
)

EPS = 0.25
MU = 6.0


def test_single_vertex_cluster():
    g = WeightedGraph(1, [])
    hier = flat_hierarchy([[0]])
    pset = build_preservable_set(g, hier, 1, 1, 1, [0], None, MU, EPS)
    assert pset.paths == [[0]]
    assert pset.inter_cluster == []
    assert pset.highway == 0


def test_path4_singleton_clustering():
    # gluing walks each singleton onto the system by one crossing edge
    g = unit_path(4)
    hier = flat_hierarchy([[0], [1], [2], [3]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], None, MU, EPS)
    verify_preservable_set(g, pset, hier, 4, 1, 1)
    assert pset.paths == [[0], [1], [2], [3]]
    assert sorted(tuple(sorted(e)) for e in pset.inter_cluster) == [
        (0, 1),
        (1, 2),
        (2, 3),
    ]
    # every vertex covered, every singleton touched once
    assert sorted(v for p in pset.paths for v in p) == [0, 1, 2, 3]
    assert sorted(pset.touch) == [0, 1, 2, 3]


def test_pair_disjoint_case_path8():
    # pair clusters {4,5} and {6,7} are disjoint from the highway's cluster
    # {0,1}: the system keeps the pair path and the bridging subpath
    g = unit_path(8)
    hier = flat_hierarchy([[0, 1], [2, 3], [4, 5], [6, 7]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], (2, 3), MU, EPS)
    verify_preservable_set(g, pset, hier, 4, 1, 1)
    norm = sorted(tuple(p) for p in pset.paths)
    assert (4, 5, 6) in norm  # representative-to-representative pair path
    assert (3, 2) in norm or (2, 3) in norm  # bridge toward the highway
    inter = {tuple(sorted(e)) for e in pset.inter_cluster}
    assert (3, 4) in inter
    assert (1, 2) in inter


def test_pair_clusters_must_belong():
    g = unit_path(4)
    hier = flat_hierarchy([[0], [1], [2], [3]])
    with pytest.raises(KeyError):
        build_preservable_set(g, hier, 4, 1, 1, [0], (7, 9), MU, EPS)


def test_highway_must_touch_cluster():
    g = unit_path(2)
    hier = flat_hierarchy([[0], [1]])
    with pytest.raises(ValueError):
        build_preservable_set(g, hier, 2, 1, 1, [9], None, MU, EPS)


def test_highway_neither_meeting_nor_adjacent():
    g = unit_path(4)
    hier = flat_hierarchy([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="does not touch"):
        build_preservable_set(g, hier, 0, 0, 1, [3], None, MU, EPS)


def test_adjacent_highway_fails_touch_check():
    # pi = [2] is adjacent to the cluster {0, 1} without meeting it: G[C]
    # union pi has no edge onto pi, so the touch check rejects it up front
    g = unit_path(4)
    hier = flat_hierarchy([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="does not touch"):
        build_preservable_set(g, hier, 0, 0, 1, [2], None, MU, EPS)


def test_sketch_zero_fake_edges_when_all_on_paths():
    g = unit_path(4)
    hier = flat_hierarchy([[0], [1], [2], [3]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], None, MU, EPS)
    sketch = build_sketch_graph(g, pset, hier, 4, 1, 1, MU, EPS)
    assert sketch.fake_edges == []
    assert sketch.edge_count == len(sketch.vertices) - 1


def test_fake_edge_weight_bit_exact():
    g = unit_path(8)
    hier = flat_hierarchy([[0, 1], [2, 3], [4, 5], [6, 7]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], (2, 3), MU, EPS)
    sketch = build_sketch_graph(g, pset, hier, 4, 1, 1, MU, EPS)
    assert sketch.fake_edges, "expected off-path vertices"
    for _, _, w in sketch.fake_edges:
        assert w == 10.0 * EPS * MU  # exact float equality, not approx
    # off-path vertex 7 hangs from 6, the only on-path vertex of its cluster
    assert (7, 6, 10.0 * EPS * MU) in sketch.fake_edges


def test_sketch_is_tree_on_grid5():
    g = generate("grid", {"k": 5})
    hpf = build_hpf(g, MU, 24.0, 1.0)
    ell = offset_ell(MU, EPS)
    hier = hpf.hierarchies[0]
    top = hier.levels[hier.i_max][0]
    rep = hier.clusters[top].representative
    mu_i = MU**hier.i_max
    pset = build_preservable_set(
        g, hier, top, hier.i_max, ell, [rep], None, mu_i, EPS
    )
    verify_preservable_set(g, pset, hier, top, hier.i_max, ell)
    sketch = build_sketch_graph(g, pset, hier, top, hier.i_max, ell, mu_i, EPS)
    assert sketch.edge_count == len(sketch.vertices) - 1
    # the LCA oracle over the sketch's edges asserts that they span
    index = {v: i for i, v in enumerate(sketch.vertices)}
    edges = sketch.real_edges + sketch.fake_edges + sketch.inter_cluster
    TreeOracle(len(index), [(index[u], index[v], w) for u, v, w in edges], 0)


def test_lemma_report_grid6_with_pair():
    g = generate("grid", {"k": 6})
    hpf = build_hpf(g, MU, 24.0, 1.0)
    pp_pairs = [(0, g.n - 1), (0, 7), (3, 22)]
    from spantreecover.hpf import make_pair_preserving

    pp = make_pair_preserving(hpf, EPS, pp_pairs)
    assert pp.pair_records, "no pair got assigned"
    rec = pp.pair_records[0]
    copy = pp.copies[rec.copy]
    hier = copy.base
    mu_i = MU**rec.level
    rep = hier.clusters[rec.cluster].representative
    pset = build_preservable_set(
        g, hier, rec.cluster, rec.level, pp.ell, [rep],
        (rec.sub1, rec.sub2), mu_i, EPS,
    )
    verify_preservable_set(g, pset, hier, rec.cluster, rec.level, pp.ell)
    sketch = build_sketch_graph(
        g, pset, hier, rec.cluster, rec.level, pp.ell, mu_i, EPS
    )
    report = verify_preservable_lemma(
        g, sketch, pset, hier, rec.cluster, rec.level, pp.ell,
        (rec.sub1, rec.sub2), mu_i, EPS,
    )
    assert report["is_tree"]
    assert report["max_same_cluster"] <= 21.0 * EPS * mu_i + 1e-9
    assert report["pair_gap"] <= 44.0 * EPS * mu_i + 1e-9
    assert report["glue_ok"]
    assert report["diam_ratio"] > 0.0


def test_lemma_trivial_single_cluster():
    g = WeightedGraph(1, [])
    hier = flat_hierarchy([[0]])
    pset = build_preservable_set(g, hier, 1, 1, 1, [0], None, MU, EPS)
    sketch = build_sketch_graph(g, pset, hier, 1, 1, 1, MU, EPS)
    report = verify_preservable_lemma(
        g, sketch, pset, hier, 1, 1, 1, None, MU, EPS
    )
    assert report["is_tree"]
    assert "pair_gap" not in report

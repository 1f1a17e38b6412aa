import dataclasses

import numpy as np
import pytest

import spantreecover.cover as cover_mod
from conftest import flat_hierarchy, unit_path
from spantreecover.cover import CoverConfig, span_tree_cover
from spantreecover.graphs import TOL, ClusterDistances, WeightedGraph, dijkstra, generate
from spantreecover.hpf import build_hpf, offset_ell
from spantreecover.oracle import TreeOracle
from spantreecover.preservable import (
    _highway_distances,
    _sketch_walk,
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
    pset = build_preservable_set(g, hier, 1, 1, 1, [0], None)
    assert pset.paths == [[0]]
    assert pset.inter_cluster == []
    assert pset.highway == 0


def test_path4_singleton_clustering():
    # gluing walks each singleton onto the system by one crossing edge
    g = unit_path(4)
    hier = flat_hierarchy([[0], [1], [2], [3]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], None)
    verify_preservable_set(g, pset)
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
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], (2, 3))
    verify_preservable_set(g, pset)
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
        build_preservable_set(g, hier, 4, 1, 1, [0], (7, 9))


def test_highway_must_touch_cluster():
    g = unit_path(2)
    hier = flat_hierarchy([[0], [1]])
    with pytest.raises(ValueError):
        build_preservable_set(g, hier, 2, 1, 1, [9], None)


def test_highway_neither_meeting_nor_adjacent():
    g = unit_path(4)
    hier = flat_hierarchy([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="does not touch"):
        build_preservable_set(g, hier, 0, 0, 1, [3], None)


def test_adjacent_highway_fails_touch_check():
    # pi = [2] is adjacent to the cluster {0, 1} without meeting it: G[C]
    # union pi has no edge onto pi, so the touch check rejects it up front
    g = unit_path(4)
    hier = flat_hierarchy([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="does not touch"):
        build_preservable_set(g, hier, 0, 0, 1, [2], None)


def test_sketch_zero_fake_edges_when_all_on_paths():
    g = unit_path(4)
    hier = flat_hierarchy([[0], [1], [2], [3]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], None)
    sketch = build_sketch_graph(g, pset, MU, EPS)
    assert sketch.fake_edges == []
    assert sketch.edge_count == len(sketch.vertices) - 1


def test_fake_edge_weight_bit_exact():
    g = unit_path(8)
    hier = flat_hierarchy([[0, 1], [2, 3], [4, 5], [6, 7]])
    pset = build_preservable_set(g, hier, 4, 1, 1, [0], (2, 3))
    sketch = build_sketch_graph(g, pset, MU, EPS)
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
    pset = build_preservable_set(g, hier, top, hier.i_max, ell, [rep], None)
    verify_preservable_set(g, pset)
    sketch = build_sketch_graph(g, pset, mu_i, EPS)
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
        g, hier, rec.cluster, rec.level, pp.ell, [rep], (rec.sub1, rec.sub2)
    )
    verify_preservable_set(g, pset)
    sketch = build_sketch_graph(g, pset, mu_i, EPS)
    report = verify_preservable_lemma(g, sketch, pset, mu_i, EPS)
    assert report["is_tree"]
    assert report["max_same_cluster"] <= 21.0 * EPS * mu_i + 1e-9
    assert report["pair_gap"] <= 44.0 * EPS * mu_i + 1e-9
    assert report["glue_ok"]
    assert report["diam_ratio"] > 0.0


def test_lemma_trivial_single_cluster():
    g = WeightedGraph(1, [])
    hier = flat_hierarchy([[0]])
    pset = build_preservable_set(g, hier, 1, 1, 1, [0], None)
    sketch = build_sketch_graph(g, pset, MU, EPS)
    report = verify_preservable_lemma(g, sketch, pset, MU, EPS)
    assert report["is_tree"]
    assert "pair_gap" not in report


# linear-pass lemma check against the LCA-oracle reference -----------------


def reference_lemma(g, sketch, pset, mu_i, epsilon, theory_mode=False, dists=None):
    """The lemma's measurements from an LCA oracle over the sketch and
    batched queries over all pairs: (report, distance to pi per sketch
    vertex). Checks nothing."""
    hier, pair = pset.hier, pset.pair
    chat = hier.clusters[pset.cluster_id].members
    cof = hier.vmap[min(pset.sublevel, hier.i_max)]
    index = {v: i for i, v in enumerate(sketch.vertices)}
    edges = sketch.real_edges + sketch.fake_edges + sketch.inter_cluster
    tor = TreeOracle(len(index), [(index[u], index[v], w) for u, v, w in edges], 0)

    def ids_of(verts):
        return np.asarray([index[x] for x in verts], dtype=np.int64)

    report = {"is_tree": True}
    inside = sorted(chat)
    ids = ids_of(inside)
    sub = np.asarray([cof[v] for v in inside])
    iu, iv = np.triu_indices(len(inside), k=1)
    same = sub[iu] == sub[iv]
    d_same = tor.dist_many(ids[iu[same]], ids[iv[same]])
    report["max_same_cluster"] = float(d_same.max()) if len(d_same) else 0.0
    if pair is not None:
        m1 = sorted(hier.clusters[pair[0]].members)
        m2 = sorted(hier.clusters[pair[1]].members)
        i1, i2 = ids_of(m1), ids_of(m2)
        dh = tor.dist_many(np.repeat(i1, len(m2)), np.tile(i2, len(m1)))
        din = (dists or ClusterDistances(g)).distances(chat, m1, m2)
        report["pair_gap"] = float((dh.reshape(len(m1), len(m2)) - din).max())
    d_all = tor.dist_many(ids[iu], ids[iv])
    report["diam_ratio"] = (float(d_all.max()) if len(d_all) else 0.0) / mu_i
    report["glue_ok"] = True
    pids = ids_of(sorted(set(pset.paths[pset.highway])))
    aids = ids_of(sketch.vertices)
    near = tor.dist_many(np.repeat(pids, len(aids)), np.tile(aids, len(pids)))
    return report, near.reshape(len(pids), len(aids)).min(axis=0)


@pytest.mark.parametrize(
    "kind,params,seed",
    [("grid", {"k": 8}, 0), ("random_geometric", {"n": 64}, 1)],
    ids=["grid8", "rg64s1"],
)
def test_lemma_matches_oracle_reference_at_every_node(kind, params, seed, monkeypatch):
    # every report is bitwise equal to the reference's, and so is every
    # sketch vertex's distance to pi
    seen = {"nodes": 0, "pairs": 0}

    def checked(g, sketch, pset, *args, **kwargs):
        report = verify_preservable_lemma(g, sketch, pset, *args, **kwargs)
        ref, near = reference_lemma(g, sketch, pset, *args, **kwargs)
        assert report == ref
        walk = _sketch_walk(sketch)
        assert np.array_equal(np.asarray(_highway_distances(pset, *walk)), near)
        seen["nodes"] += 1
        seen["pairs"] += "pair_gap" in report
        return report

    monkeypatch.setattr(cover_mod, "verify_preservable_lemma", checked)
    cover = span_tree_cover(generate(kind, params, seed=seed), CoverConfig())
    assert seen["nodes"] == cover.diagnostics["nodes_checked"] > 0
    assert seen["pairs"] > 0


# block-read checks against the heap search -------------------------------


@pytest.mark.parametrize(
    "kind,params,seed",
    [("grid", {"k": 8}, 0), ("random_geometric", {"n": 64}, 1)],
    ids=["grid8", "rg64s1"],
)
def test_block_checks_match_heap_search_at_every_node(kind, params, seed, monkeypatch):
    # at every checked node, each path's block verdict is the verdict of a
    # heap search over G[C] union the path, and each anchor map is the one
    # built from heap searches out of the path's vertices in C
    seen = {"sets": 0, "sketches": 0, "pairs": 0, "anchors": 0}
    verify_set, build_sketch = cover_mod.verify_preservable_set, cover_mod.build_sketch_graph

    def subclusters(pset):
        hier = pset.hier
        cof = hier.vmap[min(pset.sublevel, hier.i_max)]
        return hier, cof, hier.clusters[pset.cluster_id].members

    def checked_set(g, pset, dists):
        hier, cof, chat = subclusters(pset)
        for p in pset.paths:
            along = np.cumsum([0.0] + [g.weight(a, b) for a, b in zip(p, p[1:])])
            for cid in sorted({cof[v] for v in p if v in chat}):
                members = hier.clusters[cid].members
                ks = [k for k, v in enumerate(p) if v in members]
                detour = dijkstra(g, p[0], restrict=members, paths=[p], stop={p[-1]}).dist[p[-1]]
                block = dists.shortcut(members, [p[k] for k in ks], along[ks]) <= TOL
                assert block == (abs(detour - along[-1]) <= TOL), (sorted(members), p)
                seen["pairs"] += len(ks) > 1
        seen["sets"] += 1
        return verify_set(g, pset, dists=dists)

    def checked_sketch(g, pset, mu_i, epsilon, dists):
        hier, cof, chat = subclusters(pset)
        for cid in sorted({cof[v] for v in chat}):
            members = hier.clusters[cid].members
            path = pset.paths[pset.touch[cid]]
            want = {}
            for a in sorted(members.intersection(path)):
                dist = dijkstra(g, a, restrict=members, paths=[path]).dist
                for v in members.difference(path):
                    if dist[v] < np.inf and (v not in want or dist[v] < want[v][0]):
                        want[v] = (dist[v], a)
            assert dists.anchors(members, path) == {v: a for v, (_, a) in want.items()}
            seen["anchors"] += len(want)
        seen["sketches"] += 1
        return build_sketch(g, pset, mu_i, epsilon, dists=dists)

    monkeypatch.setattr(cover_mod, "verify_preservable_set", checked_set)
    monkeypatch.setattr(cover_mod, "build_sketch_graph", checked_sketch)
    cover = span_tree_cover(generate(kind, params, seed=seed), CoverConfig())
    nodes = cover.diagnostics["nodes_checked"]
    assert seen["sets"] == seen["sketches"] == nodes > 0
    assert seen["pairs"] > 0 and seen["anchors"] > 0


@pytest.fixture(scope="module")
def grid5_top():
    """The top cluster of grid5's first hierarchy and its first and last
    subclusters, the pair of the pair-bound case."""
    g = generate("grid", {"k": 5})
    hier = build_hpf(g, MU, 24.0, 1.0).hierarchies[0]
    ell = offset_ell(MU, EPS)
    top, level = hier.levels[hier.i_max][0], hier.i_max
    cof = hier.vmap[min(max(level - ell, 0), hier.i_max)]
    subs = sorted({cof[v] for v in hier.clusters[top].members})
    return g, hier, top, level, ell, (subs[0], subs[-1])


def _lemma_on_grid5(grid5_top, with_pair, corrupt):
    """Build grid5's top sketch, pass it through ``corrupt`` and check it."""
    g, hier, top, level, ell, pair = grid5_top
    pair = pair if with_pair else None
    mu_i = MU**level
    rep = hier.clusters[top].representative
    pset = build_preservable_set(g, hier, top, level, ell, [rep], pair)
    sketch = build_sketch_graph(g, pset, mu_i, EPS)
    return verify_preservable_lemma(g, corrupt(sketch), pset, mu_i, EPS)


def _reweight(edges, u, v, w):
    assert any((a, b) == (u, v) for a, b, _ in edges), f"no edge ({u}, {v})"
    return [(a, b, w if (a, b) == (u, v) else x) for a, b, x in edges]


def test_lemma_grid5_uncorrupted_passes(grid5_top):
    # the corruptions below start from sketches that pass
    for with_pair in (False, True):
        report = _lemma_on_grid5(grid5_top, with_pair, lambda sk: sk)
        assert report["max_same_cluster"] == 20.0 * EPS * MU**2


def test_lemma_rejects_extra_edge(grid5_top):
    def corrupt(sk):
        return dataclasses.replace(sk, real_edges=sk.real_edges + [(1, 2, 1.0)])

    with pytest.raises(AssertionError, match="edges over"):
        _lemma_on_grid5(grid5_top, False, corrupt)


def test_lemma_rejects_disconnected_vertex(grid5_top):
    # vertex 1 loses its fake edge and another edge is doubled: still
    # nv - 1 edges, but 1 is unreachable
    def corrupt(sk):
        fake = [e for e in sk.fake_edges if e[0] != 1]
        return dataclasses.replace(sk, fake_edges=fake + [fake[0]])

    with pytest.raises(AssertionError, match="does not span"):
        _lemma_on_grid5(grid5_top, False, corrupt)


def test_lemma_rejects_stretched_fake_edge(grid5_top):
    # vertex 1 now hangs 21.5 eps mu^i from 0, in its own subcluster
    def corrupt(sk):
        w = 21.5 * EPS * MU**2
        return dataclasses.replace(sk, fake_edges=_reweight(sk.fake_edges, 1, 0, w))

    with pytest.raises(AssertionError, match="same-cluster distance"):
        _lemma_on_grid5(grid5_top, False, corrupt)


def test_lemma_rejects_pair_gap(grid5_top):
    # the inter-cluster edge 10-15 cuts the pair's subclusters apart and
    # no subcluster in two; 200 more on it pushes the gap (268) past 396
    def corrupt(sk):
        inter = _reweight(sk.inter_cluster, 10, 15, 201.0)
        return dataclasses.replace(sk, inter_cluster=inter)

    with pytest.raises(AssertionError, match="pair gap"):
        _lemma_on_grid5(grid5_top, True, corrupt)


def test_lemma_rejects_glue_monotonicity_breach(grid5_top):
    # 18 hangs from 14, the glued path of its subcluster, 5 farther than
    # 10 eps mu^i; its same-cluster distances stay under 21 eps mu^i
    def corrupt(sk):
        w = 10.0 * EPS * MU**2 + 5.0
        return dataclasses.replace(sk, fake_edges=_reweight(sk.fake_edges, 18, 14, w))

    with pytest.raises(AssertionError, match="glue monotonicity broken at vertex 18"):
        _lemma_on_grid5(grid5_top, False, corrupt)


# path-system structure ----------------------------------------------------


def _grid5_top_set(grid5_top):
    """grid5's top path system without a pair: one single-vertex path into
    each subcluster, [[0], [3], [7], [14], [15]]."""
    g, hier, top, level, ell, _ = grid5_top
    rep = hier.clusters[top].representative
    pset = build_preservable_set(g, hier, top, level, ell, [rep], None)
    assert pset.paths == [[0], [3], [7], [14], [15]]
    return g, pset


def _with_path(pset, idx, path):
    paths = [path if k == idx else p for k, p in enumerate(pset.paths)]
    return dataclasses.replace(pset, paths=paths)


def test_set_grid5_uncorrupted_passes(grid5_top):
    g, pset = _grid5_top_set(grid5_top)
    verify_preservable_set(g, pset)
    verify_preservable_set(g, _with_path(pset, 2, [7, 12, 17]))


def test_set_rejects_longer_detour(grid5_top):
    # 7 reaches 17 in two steps inside its subcluster {7, 11, 12, 13, 16,
    # 17, 22}; the path takes four
    g, pset = _grid5_top_set(grid5_top)
    with pytest.raises(AssertionError, match="path 2 not shortest within cluster"):
        verify_preservable_set(g, _with_path(pset, 2, [7, 12, 11, 16, 17]))


def test_set_rejects_shared_vertex(grid5_top):
    g, pset = _grid5_top_set(grid5_top)
    with pytest.raises(AssertionError, match="vertex 3 on paths 1 and 2"):
        verify_preservable_set(g, _with_path(pset, 2, [7, 8, 3]))


def test_set_rejects_subcluster_touched_twice(grid5_top):
    # 8 lies in the subcluster that path 1 ([3]) enters
    g, pset = _grid5_top_set(grid5_top)
    with pytest.raises(AssertionError, match=r"touched by \[1, 2\]"):
        verify_preservable_set(g, _with_path(pset, 2, [7, 8]))

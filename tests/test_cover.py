import copy as copymod
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import flat_hierarchy, unit_path
from spantreecover.cover import (
    CoverConfig,
    SpanningTree,
    TreeCover,
    cover_stats,
    cover_stretch,
    default_demand_pairs,
    light_tree_cover,
    load_cover,
    pair_guarantee_report,
    path_preserving_tree,
    save_cover,
    shared_best_trees,
    span_tree_cover,
    verify_spanning,
)
from spantreecover.graphs import (
    WeightedGraph,
    _DSU,
    apsp,
    generate,
    greedy_spanner,
    mst_weight,
)
from spantreecover.hpf import HierarchyCopy


def tree_graph():
    # a small tree with varied weights
    return WeightedGraph(
        7,
        [
            (0, 1, 2.0),
            (0, 2, 1.0),
            (1, 3, 0.5),
            (1, 4, 3.0),
            (2, 5, 1.5),
            (5, 6, 2.0),
        ],
    )


def test_tree_input_trees_equal_input():
    g = tree_graph()
    cover = span_tree_cover(g, CoverConfig())
    expected = sorted((min(u, v), max(u, v)) for u, v, _ in g.edges)
    for t in cover.trees:
        assert sorted(t.edges) == expected


def test_tree_count_formula():
    g = generate("grid", {"k": 4})
    cover = span_tree_cover(g, CoverConfig())
    ell = cover.params["ell"]
    copies = cover.params["num_copies"]
    assert len(cover.trees) == ell * copies


def test_path_preserving_tree_path4():
    g = unit_path(4)
    hier = flat_hierarchy([[0], [1], [2], [3]])
    hc = HierarchyCopy(0, hier, 0, {})
    edges, verts = path_preserving_tree(
        g, hc, 4, 1, [0], 1, 6.0, 0.25, check=False
    )
    assert verts == {0, 1, 2, 3}
    assert edges == {(0, 1), (1, 2), (2, 3)}


def test_path_preserving_tree_single_vertex():
    g = WeightedGraph(1, [])
    hier = flat_hierarchy([[0]])
    hc = HierarchyCopy(0, hier, 0, {})
    edges, verts = path_preserving_tree(
        g, hc, 0, 0, [0], 1, 6.0, 0.25, check=False
    )
    assert edges == set()
    assert verts == {0}


def test_pair_guarantee_grid8(grid8, grid8_cover):
    report = pair_guarantee_report(grid8, grid8_cover)
    assert report["unresolved"] == []
    assert report["failures"] == []
    assert report["worst_gap"] <= 1e-9
    assert report["pairs_checked"] > 0


def test_stretch_bound_grid8(grid8, grid8_cover):
    # every demanded pair meets 1 + 44 * rho_eff * eps with its recorded
    # assignment scale
    eps = grid8_cover.params["epsilon"]
    mu = grid8_cover.params["mu"]
    d = apsp(grid8)
    oracles = grid8_cover.tree_oracles(grid8)
    for rec in grid8_cover.hpf.pair_records:
        dg = d[rec.u][rec.v]
        best = min(t.dist(rec.u, rec.v) for t in oracles)
        rho_eff = mu**rec.level / dg
        assert best / dg <= 1.0 + 44.0 * rho_eff * eps + 1e-9


def test_stretch_ratios_at_least_one(grid8, grid8_cover):
    pairs = default_demand_pairs(grid8, 42)
    report = cover_stretch(grid8, grid8_cover, pairs)
    assert all(r >= 1.0 - 1e-9 for _, _, r, _ in report["table"])
    assert report["max"] >= report["mean"] >= 1.0 - 1e-9


def test_tree_distance_dominates_graph_distance(grid8, grid8_cover):
    # exhaustive lower-bound check, every tree, every pair
    d = apsp(grid8)
    n = grid8.n
    iu, iv = np.triu_indices(n, k=1)
    for t in grid8_cover.tree_oracles(grid8):
        dt = t.dist_many(iu, iv)
        assert (dt >= d[iu, iv] - 1e-9).all()


def test_cover_stretch_tree_input():
    g = tree_graph()
    cover = span_tree_cover(g, CoverConfig())
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    report = cover_stretch(g, cover, pairs)
    assert report["max"] == pytest.approx(1.0, abs=1e-9)


def test_verify_spanning_rejects_foreign_edge(grid8, grid8_cover):
    bad = copymod.deepcopy(grid8_cover)
    t = bad.trees[0]
    t.edges[0] = (0, 63)  # not a grid edge
    with pytest.raises(AssertionError):
        verify_spanning(grid8, bad)


def test_verify_spanning_rejects_cycle(grid8, grid8_cover):
    bad = copymod.deepcopy(grid8_cover)
    t = bad.trees[0]
    extra = next(
        (min(u, v), max(u, v))
        for u, v, _ in grid8.edges
        if (min(u, v), max(u, v)) not in set(t.edges)
    )
    t.edges.append(extra)  # n edges now: must trip the count or cycle check
    with pytest.raises(AssertionError):
        verify_spanning(grid8, bad)


def _verify_spanning_loop(g, cover):
    """Reference: every tree checked edge by edge, in order."""
    for idx, t in enumerate(cover.trees):
        for u, v in t.edges:
            assert g.has_edge(u, v), f"tree {idx}: edge ({u},{v}) not in graph"
        assert len(t.edges) == g.n - 1, (
            f"tree {idx}: {len(t.edges)} edges, expected {g.n - 1}"
        )
        dsu = _DSU(g.n)
        for u, v in t.edges:
            assert dsu.union(u, v), f"tree {idx}: cycle at edge ({u},{v})"


def _foreign_edge(g, edges):
    edges[5] = (0, 63)


def _edge_dropped(g, edges):
    del edges[7]


def _cycle_closed(g, edges):
    # swap a tree edge for a graph edge that closes a cycle, keeping the
    # count at n - 1: the tree no longer spans
    tree = set(edges)
    for u, v, _ in g.edges:
        if (u, v) in tree:
            continue
        for k in range(len(edges)):
            trial = edges[:k] + edges[k + 1 :] + [(u, v)]
            probe = TreeCover([SpanningTree(trial, 0, (0, 0))], {}, 1.0)
            try:
                _verify_spanning_loop(g, probe)
            except AssertionError as err:
                if "cycle" in str(err):
                    edges[:] = trial
                    return
    raise AssertionError("no cycle found")


@pytest.mark.parametrize("corrupt", [_foreign_edge, _edge_dropped, _cycle_closed])
@pytest.mark.parametrize("bad_trees", [(0,), (70, 100)], ids=["first", "later-chunk"])
def test_verify_spanning_messages_match_loop(grid8, grid8_cover, corrupt, bad_trees):
    trees = [SpanningTree(list(t.edges), t.root, t.provenance) for t in grid8_cover.trees]
    for j in bad_trees:
        corrupt(grid8, trees[j].edges)
    bad = TreeCover(trees, {}, 1.0)
    with pytest.raises(AssertionError) as want:
        _verify_spanning_loop(grid8, bad)
    # pytest appends its own explanation to an assert in a test module
    message = str(want.value).splitlines()[0]
    assert message.startswith(f"tree {bad_trees[0]}: ")
    with pytest.raises(AssertionError) as got:
        verify_spanning(grid8, bad)
    assert str(got.value) == message


def test_light_cover_uniform_line():
    g = generate("uniform_line", {"n": 64})
    cover = light_tree_cover(g, 0.25)
    assert cover.params["individual_lightness"] == pytest.approx(1.0, abs=1e-9)


def test_light_cover_tree_input():
    g = tree_graph()
    cover = light_tree_cover(g, 0.25)
    assert cover.params["individual_lightness"] == pytest.approx(1.0, abs=1e-9)


def test_light_cover_leaves_the_config_alone():
    config = CoverConfig(epsilon=0.5, check=False)
    cover = light_tree_cover(tree_graph(), 0.25, config)
    assert config == CoverConfig(epsilon=0.5, check=False)
    assert cover.params["epsilon"] == 0.25


def test_light_cover_bounded_by_spanner(grid8):
    cover = light_tree_cover(grid8, 0.25)
    spanner = greedy_spanner(grid8, 0.25)
    mst = mst_weight(grid8)
    assert cover.params["individual_lightness"] <= (
        spanner.total_weight() / mst + 1e-9
    )
    assert cover.params["spanner_lightness"] == pytest.approx(
        spanner.total_weight() / mst
    )


def test_save_load_round_trip(tmp_path, grid8, grid8_cover):
    p1 = tmp_path / "cover.json"
    p2 = tmp_path / "cover2.json"
    save_cover(grid8_cover, str(p1))
    loaded = load_cover(str(p1))
    assert [t.edges for t in loaded.trees] == [
        [tuple(e) for e in t.edges] for t in grid8_cover.trees
    ]
    save_cover(grid8_cover, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    verify_spanning(grid8, loaded)


@pytest.mark.parametrize("name", ["grid8", "rg64s1"])
def test_save_cover_writes_json_dump_bytes(tmp_path, grid8_cover, name):
    if name == "grid8":
        cover = grid8_cover
    else:
        cover = span_tree_cover(generate("random_geometric", {"n": 64}, seed=1), CoverConfig())
    doc = {
        "version": 1,
        "params": cover.params,
        "trees": [
            {
                "provenance": list(t.provenance),
                "root": t.root,
                "edges": [[u, v] for u, v in t.edges],
            }
            for t in cover.trees
        ],
    }
    path = tmp_path / "cover.json"
    save_cover(cover, str(path))
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_cover_stats_keys(grid8, grid8_cover):
    stats = cover_stats(grid8, grid8_cover)
    for key in (
        "num_trees",
        "max_stretch",
        "mean_stretch",
        "individual_lightness",
        "collective_lightness",
        "max_tree_degree",
    ):
        assert key in stats
    assert stats["num_trees"] == len(grid8_cover.trees)
    assert stats["max_tree_degree"] >= 2


def test_shared_best_trees_serve_stats_and_gate(grid8, grid8_cover):
    # one pass over the union answers both reports as their own passes do
    g, cover = grid8, grid8_cover
    pairs = default_demand_pairs(g, 42)
    best = shared_best_trees(g, cover, pairs)
    assert cover_stats(g, cover, pairs, best) == cover_stats(g, cover, pairs)
    assert pair_guarantee_report(g, cover, best) == pair_guarantee_report(g, cover)
    with pytest.raises(KeyError, match="outside"):
        best(np.array([0]), np.array([0]))


def test_config_validation():
    with pytest.raises(ValueError):
        CoverConfig(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        CoverConfig(mu=1.0).validate()
    with pytest.raises(ValueError):
        CoverConfig(mode="bogus").validate()
    with pytest.raises(ValueError):
        CoverConfig(mode="theory", rho=1.0).validate()


def test_default_demand_pairs_small_is_all_pairs():
    g = unit_path(10)
    pairs = default_demand_pairs(g, 42)
    assert len(pairs) == 45


def test_default_demand_pairs_large_contains_edges():
    g = generate("grid", {"k": 24})  # 576 > cap
    pairs = set(map(tuple, default_demand_pairs(g, 42, sample_size=2000).tolist()))
    for u, v, _ in g.edges:
        assert (min(u, v), max(u, v)) in pairs
    assert len(pairs) >= 2000


def test_array_demand_equals_list_demand():
    # a (P, 2) array demands what the same pairs as a list demand
    g = generate("grid", {"k": 5})
    pairs = [(0, 24), (3, 12), (7, 8), (20, 4), (6, 6)]
    from_list = span_tree_cover(g, CoverConfig(pairs=pairs))
    from_array = span_tree_cover(g, CoverConfig(pairs=np.array(pairs)))
    assert [t.edges for t in from_array.trees] == [t.edges for t in from_list.trees]
    assert len(from_array.hpf.pair_records) == 4
    assert cover_stats(g, from_array, np.array(pairs)) == cover_stats(g, from_list, pairs)
    assert cover_stats(g, from_array) == cover_stats(g, from_array, default_demand_pairs(g, 42))


def test_exhaustive_mode_tiny():
    g = unit_path(5)
    cover = span_tree_cover(g, CoverConfig(mode="exhaustive"))
    report = pair_guarantee_report(g, cover)
    assert report["failures"] == []
    expected = sorted((min(u, v), max(u, v)) for u, v, _ in g.edges)
    for t in cover.trees:
        assert sorted(t.edges) == expected


# pinned output ---------------------------------------------------------


def cover_digest(cover, tmp_path):
    """SHA-256 of the saved cover plus every cluster's strong diameter."""
    path = tmp_path / "cover.json"
    save_cover(cover, str(path))
    h = hashlib.sha256(path.read_bytes())
    for j, hier in enumerate(cover.hpf.hierarchies):
        for cid, cl in sorted(hier.clusters.items()):
            h.update(repr((j, cid, cl.diameter.hex())).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "kind,params,seed,digest",
    [
        ("grid", {"k": 16}, 0, "c0626843042f8d55e9c1d3ebf263913e421f220def9b5e5601755e581f3f1d93"),
        ("random_geometric", {"n": 64}, 1, "e0f5c29161a04edbc123568569c503d207ade2cfe35acdd752cc650ee5de544c"),
    ],
    ids=["grid16", "rg64s1"],
)
def test_cover_output_pinned(kind, params, seed, digest, tmp_path):
    g = generate(kind, params, seed=seed)
    cover = span_tree_cover(g, CoverConfig(check=False))
    assert cover_digest(cover, tmp_path) == digest

"""Hierarchical partition family: nets, subnets, aggregation, padding, pairs."""

import heapq
import itertools
import math

import numpy as np
import pytest

from spantreecover.graphs import (
    TOL,
    ClusterDistances,
    WeightedGraph,
    apsp,
    dijkstra,
    generate,
    leq,
)
from spantreecover.hpf import (
    PairRecord,
    aggregation_distortion,
    build_hpf,
    build_net_hierarchy,
    build_subnet_family,
    cluster_aggregation,
    make_pair_preserving,
    offset_ell,
    set_separation,
    strong_diameter,
    verify_padding,
)


def test_net_hierarchy_single_vertex():
    nh = build_net_hierarchy(WeightedGraph(1, []), 6.0, 1.0)
    assert nh.levels == [[0]]


def test_net_hierarchy_path8():
    g = generate("path", {"n": 9})
    nh = build_net_hierarchy(g, 6.0, 1.0)
    assert nh.delta[1] == pytest.approx(1.0)
    assert nh.delta[2] == pytest.approx(6.0)
    assert nh.levels[1] == [0, 2, 4, 6, 8]
    assert nh.levels[-1] == [0]


def test_net_hierarchy_packing_covering():
    g = generate("random_geometric", {"n": 40}, seed=5)
    gs, _ = g.rescaled()
    nh = build_net_hierarchy(gs, 6.0, 1.0)
    d = apsp(gs)
    for i in range(1, len(nh.levels)):
        net, prev, t = nh.levels[i], nh.levels[i - 1], nh.delta[i]
        for a, b in itertools.combinations(net, 2):
            assert d[a, b] > t - 1e-9
        for p in prev:
            assert min(d[p, q] for q in net) <= t + 1e-9
        assert set(net) <= set(prev)


def test_subnets_sigma_one_when_spread():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    fam = build_subnet_family(g, build_net_hierarchy(g, 6.0, 1.0), 6.0)
    assert fam.sigma == 1
    assert len(fam.subnets) == 1


def _check_subnet_invariants(g, mu, eta):
    d = apsp(g)
    nets = build_net_hierarchy(g, mu, eta)
    fam = build_subnet_family(g, nets, mu, dist=d)
    L = len(nets.levels) - 1
    for i in range(L + 1):
        covered = set().union(*(fam.subnets[j][i] for j in range(fam.sigma)))
        assert set(nets.levels[i]) <= covered
    for j in range(fam.sigma):
        assert fam.subnets[j][0] == sorted(range(g.n))
        for i in range(1, L + 1):
            cur, prev = fam.subnets[j][i], fam.subnets[j][i - 1]
            t = mu**i / 3.0
            assert set(cur) <= set(prev)
            for a, b in itertools.combinations(cur, 2):
                assert d[a, b] > t - 1e-9
            for p in prev:
                assert min(d[p, q] for q in cur) <= t + 1e-9
            radius = sum(mu**k / 3.0 for k in range(1, i + 1))
            for v in range(g.n):
                assert min(d[v, q] for q in cur) <= radius + 1e-9
    return fam


def test_subnet_invariants_grid5():
    _check_subnet_invariants(generate("grid", {"k": 5}), 6.0, 1.0)


def test_subnet_invariants_grid16_mu6():
    # the shared-root regression: carving must always find a free subset
    _check_subnet_invariants(generate("grid", {"k": 16}), 6.0, 1.0)


@pytest.mark.parametrize(
    "kind, params", [("grid", {"k": 8}), ("random_geometric", {"n": 64})]
)
def test_sigma_matches_loop_reference(kind, params):
    # the packing pre-pass counts with one numpy comparison per level; the
    # loop of leq calls it replaced must give the same sigma
    mu = 6.0
    g, _ = generate(kind, params, seed=1).rescaled()
    d = apsp(g)
    nets = build_net_hierarchy(g, mu, 1.0)
    sigma = 1
    for i in range(1, len(nets.levels)):
        ni = nets.levels[i]
        for p in ni:
            sigma = max(sigma, sum(1 for q in ni if leq(d[p, q], mu**i / 3.0)))
    assert sigma > 1
    assert build_subnet_family(g, nets, mu, dist=d).sigma == sigma


def test_subnet_level_zero_is_v():
    g = generate("grid", {"k": 4})
    fam = build_subnet_family(g, build_net_hierarchy(g, 6.0, 1.0), 6.0)
    for j in range(fam.sigma):
        assert fam.subnets[j][0] == list(range(16))


def test_aggregation_identity_when_all_seeded():
    g = generate("path", {"n": 4})
    clusters = [frozenset([i]) for i in range(4)]
    assert cluster_aggregation(g, clusters, [0, 1, 2, 3]) == [0, 1, 2, 3]


def test_aggregation_single_portal_floods():
    g = generate("path", {"n": 6})
    clusters = [frozenset([0, 1]), frozenset([2, 3]), frozenset([4, 5])]
    assert cluster_aggregation(g, clusters, [0]) == [0, 0, 0]


def test_aggregation_preimages_connected():
    g = generate("grid", {"k": 6})
    clusters = [frozenset([v]) for v in range(36)]
    portals = [0, 21, 35]
    label = cluster_aggregation(g, clusters, portals)
    for p in portals:
        verts = {v for v in range(36) if label[v] == p}
        spt = dijkstra(g, min(verts), restrict=verts)
        assert all(spt.dist[v] < math.inf for v in verts)


def test_aggregation_distortion_reported():
    g = generate("grid", {"k": 6})
    clusters = [frozenset([v]) for v in range(36)]
    portals = [0, 35]
    label = cluster_aggregation(g, clusters, portals)
    dist = aggregation_distortion(g, clusters, portals, label)
    assert math.isfinite(dist) and dist >= 0.0


def _distortion_loop(g, clusters, portals, assignment):
    """Reference: n + k heap searches, one per portal for the nearest-portal
    distances and one per preimage inside it."""
    pre = {}
    for idx, c in enumerate(clusters):
        pre.setdefault(assignment[idx], set()).update(c)
    near = [math.inf] * g.n
    for p in portals:
        spt = dijkstra(g, p)
        for v in range(g.n):
            near[v] = min(near[v], spt.dist[v])
    worst = 0.0
    for portal, verts in sorted(pre.items()):
        spt = dijkstra(g, portal, restrict=verts)
        for v in verts:
            worst = max(worst, spt.dist[v] - near[v])
    return worst


def test_aggregation_distortion_matches_heap_reference():
    g = generate("grid", {"k": 6})
    singletons = [frozenset([v]) for v in range(36)]
    rows = [frozenset(range(r, r + 6)) for r in range(0, 36, 6)]
    for clusters, portals in [
        (singletons, [0, 35]),
        (singletons, [0, 21, 35]),
        (singletons, [7, 14, 29, 30]),
        (rows, [0, 35]),
    ]:
        label = cluster_aggregation(g, clusters, portals)
        want = _distortion_loop(g, clusters, portals, label)
        assert aggregation_distortion(g, clusters, portals, label) == want


def _aggregation_loop(g, clusters, portals, diams):
    """Reference: the arc map from one dict update per edge, and seeds from
    testing every portal against every cluster."""
    cof = {v: idx for idx, c in enumerate(clusters) for v in c}
    arc = {}
    for u, v, w in g.edges:
        a, b = cof[u], cof[v]
        if a != b:
            for key in ((a, b), (b, a)):
                if key not in arc or w < arc[key]:
                    arc[key] = w
    out_arcs = [[] for _ in clusters]
    for (a, b), w in arc.items():
        out_arcs[a].append((b, w + diams[b]))
    for lst in out_arcs:
        lst.sort()
    label = [-1] * len(clusters)
    heap = []
    for idx, c in enumerate(clusters):
        inside = sorted(p for p in portals if p in c)
        if inside:
            heapq.heappush(heap, (0.0, inside[0], idx))
    while heap:
        cost, portal, idx = heapq.heappop(heap)
        if label[idx] != -1:
            continue
        label[idx] = portal
        for nb, w in out_arcs[idx]:
            if label[nb] == -1:
                heapq.heappush(heap, (cost + w, portal, nb))
    return label


@pytest.mark.parametrize(
    "kind,params", [("grid", {"k": 7}), ("random_geometric", {"n": 60})]
)
def test_aggregation_matches_loop_reference(kind, params):
    # random partitions, unsorted portal lists with repeats and several
    # portals per cluster; grid weights all tie, so do its diameters
    for seed in range(10):
        g = generate(kind, params, seed=seed)
        rng = np.random.default_rng(seed)
        group = rng.integers(0, g.n // 3, size=g.n)
        clusters = [frozenset(np.flatnonzero(group == k).tolist()) for k in np.unique(group)]
        portals = rng.choice(g.n, size=len(clusters) // 2 + 1).tolist()
        diams = (
            [1.0] * len(clusters) if kind == "grid" else rng.random(len(clusters)).tolist()
        )
        expected = _aggregation_loop(g, clusters, portals, diams)
        assert cluster_aggregation(g, clusters, portals, diams=diams) == expected


def test_aggregation_rejects_empty_portals():
    g = generate("path", {"n": 3})
    with pytest.raises(ValueError):
        cluster_aggregation(g, [frozenset([0, 1, 2])], [])


def test_hpf_single_vertex():
    hpf = build_hpf(WeightedGraph(1, []), 6.0, 24.0, 1.0)
    assert len(hpf.hierarchies) == 1
    assert hpf.hierarchies[0].i_max == 0


def test_hpf_hierarchy_count_is_sigma():
    g = generate("grid", {"k": 5})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    assert len(hpf.hierarchies) == hpf.subnets.sigma


def _check_hierarchy_structure(g, hpf):
    for h in hpf.hierarchies:
        assert len(h.levels[0]) == g.n
        assert len(h.levels[h.i_max]) == 1
        for i in range(1, h.i_max + 1):
            seen = set()
            for cid in h.levels[i]:
                c = h.clusters[cid]
                kids = [h.clusters[k] for k in c.children]
                union = frozenset().union(*(k.members for k in kids))
                assert union == c.members
                assert sum(len(k.members) for k in kids) == len(c.members)
                seen |= c.members
                # representative eccentricity within the cluster
                spt = dijkstra(g, c.representative, restrict=c.members)
                ecc = max(spt.dist[v] for v in c.members)
                assert ecc <= hpf.mu**i + 1e-9
            assert seen == set(range(g.n))


def test_hpf_structure_grid5():
    g = generate("grid", {"k": 5})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    _check_hierarchy_structure(g, hpf)
    assert hpf.diameter_violations == []


def test_hpf_structure_geometric():
    g, _ = generate("random_geometric", {"n": 48}, seed=11).rescaled()
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    _check_hierarchy_structure(g, hpf)


def test_padding_level0_and_top():
    g = generate("grid", {"k": 4})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    top = hpf.i_top
    sample = [(v, 0) for v in range(16)] + [(v, top) for v in range(16)]
    assert verify_padding(hpf, 24.0, sample) == []


def test_padding_grid5_all_levels():
    g = generate("grid", {"k": 5})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    sample = [(v, i) for v in range(25) for i in range(hpf.i_top + 1)]
    assert verify_padding(hpf, 24.0, sample) == []


def test_offset_ell():
    assert offset_ell(6.0, 0.25) == 1
    assert offset_ell(6.0, 1.0 / 36.0) == 2
    assert offset_ell(64.0, 1.0 / 64.0) == 1


def test_pairs_degenerate_rejected():
    g = generate("path", {"n": 4})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    pp = make_pair_preserving(hpf, 0.25, [(2, 2)])
    assert pp.pair_records == [] and pp.unresolved_pairs == []


def test_pairs_path8_endpoints():
    g = generate("path", {"n": 9})
    hpf = build_hpf(g, 4.0, 24.0, 1.0)
    pp = make_pair_preserving(hpf, 0.25, [(0, 7)])
    assert len(pp.pair_records) == 1
    rec = pp.pair_records[0]
    h = pp.hierarchies[rec.hierarchy]
    cl = h.clusters[rec.cluster].members
    assert 0 in cl and 7 in cl
    s1, s2 = h.clusters[rec.sub1].members, h.clusters[rec.sub2].members
    assert {0, 7} <= s1 | s2 and s1.isdisjoint(s2)


def test_pairs_assignments_well_formed():
    g = generate("grid", {"k": 5})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    pairs = [(u, v) for u in range(25) for v in range(u + 1, 25)]
    pp = make_pair_preserving(hpf, 0.25, pairs)
    assert pp.unresolved_pairs == []
    d = pp.dist
    for rec in pp.pair_records:
        h = pp.hierarchies[rec.hierarchy]
        isub = max(rec.level - pp.ell, 0)
        for cid in (rec.sub1, rec.sub2):
            assert h.clusters[cid].level == isub
        assert rec.sub1 != rec.sub2
        sep = set_separation(d, h.clusters[rec.sub1].members, h.clusters[rec.sub2].members)
        assert sep > pp.mu**rec.level / rec.rho_eff - 1e-9
        # cluster preserves the pair distance
        assert rec.d_in_cluster == pytest.approx(float(d[rec.u, rec.v]), abs=1e-9)
        cp = pp.copies[rec.copy]
        assert cp.pairs[(rec.level, rec.cluster)][:2] == (rec.sub1, rec.sub2)


def _pair_preserving_loop(hpf, epsilon, demanded_pairs, dists):
    """Reference: the demand mode one pair at a time, from a sorted set of
    pair tuples, with one record tuple per pair. Returns (copies as
    (hierarchy, slot, pairs) triples, records, unresolved pairs)."""
    ell = offset_ell(hpf.mu, epsilon)
    d = hpf.dist
    demands = [{} for _ in hpf.hierarchies]
    sep_cache = {}

    def separation(j, c1, c2, h):
        key = (j, min(c1, c2), max(c1, c2))
        if key not in sep_cache:
            sep_cache[key] = set_separation(d, h.clusters[c1].members, h.clusters[c2].members)
        return sep_cache[key]

    pairs = sorted({(min(p), max(p)) for p in demanded_pairs if p[0] != p[1]})
    us = np.asarray([u for u, _ in pairs], dtype=np.int64)
    vs = np.asarray([v for _, v in pairs], dtype=np.int64)
    hits = [None] * len(pairs)
    open_pairs = np.ones(len(pairs), dtype=bool)
    vmaps = [[np.asarray(vm) for vm in h.vmap] for h in hpf.hierarchies]
    top = max(h.i_max for h in hpf.hierarchies) + ell - 1
    for i in range(1, top + 1):
        isub = max(i - ell, 0)
        for j, h in enumerate(hpf.hierarchies):
            at_i = vmaps[j][min(i, h.i_max)]
            at_sub = vmaps[j][min(isub, h.i_max)]
            for k in np.flatnonzero(
                open_pairs & (at_i[us] == at_i[vs]) & (at_sub[us] != at_sub[vs])
            ):
                u, v = pairs[k]
                members = h.clusters[int(at_i[u])].members
                din = float(dists.distances(members, [u], [v])[0, 0])
                if abs(din - d[u, v]) > TOL:
                    continue
                c1, c2 = int(at_sub[u]), int(at_sub[v])
                sep = separation(j, c1, c2, h)
                hits[k] = (j, i, int(at_i[u]), c1, c2, hpf.mu**i / sep, din)
                open_pairs[k] = False
    records, unresolved = [], []
    for (u, v), hit in zip(pairs, hits):
        if hit is None:
            unresolved.append((u, v))
            continue
        j, i, cid, c1, c2, rho_eff, din = hit
        a, b = (c1, c2) if c1 < c2 else (c2, c1)
        slots = demands[j].setdefault((i, cid), {})
        pair = (a, b, rho_eff)
        t = slots.setdefault(pair, len(slots))
        records.append((u, v, j, (i, cid), pair, t, din))
    copies, copy_of = [], {}
    for j in range(len(hpf.hierarchies)):
        per_copy = [{}]
        for node, slots in demands[j].items():
            for pair, t in slots.items():
                if t == len(per_copy):
                    per_copy.append({})
                per_copy[t][node] = pair
        for t, cp in enumerate(per_copy):
            copy_of[(j, t)] = len(copies)
            copies.append((j, t, cp))
    recs = [
        PairRecord(u, v, j, copy_of[(j, t)], node[0], node[1], pair[0], pair[1], pair[2], din)
        for u, v, j, node, pair, t, din in records
    ]
    return copies, recs, unresolved


def _exact(x):
    """A value with its floats spelled out bit for bit."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return type(x)(_exact(y) for y in x)
    if isinstance(x, dict):
        return [(_exact(k), _exact(v)) for k, v in x.items()]
    return (type(x).__name__, x)


@pytest.mark.parametrize(
    "kind,params,seed",
    [("grid", {"k": 5}, 0), ("random_geometric", {"n": 64}, 1)],
    ids=["grid5", "rg64s1"],
)
def test_pair_columns_equal_loop_reference(kind, params, seed):
    # every field of every record (floats bitwise, ints as Python ints),
    # every copy's pairs in insertion order and the unresolved pairs;
    # the demand lists each pair twice, once reversed, plus self-pairs
    gs, _ = generate(kind, params, seed=seed).rescaled()
    dists = ClusterDistances(gs, apsp(gs))
    hpf = build_hpf(gs, 6.0, 24.0, 1.0, dists=dists)
    pairs = [(u, v) for u in range(gs.n) for v in range(gs.n)]
    pp = make_pair_preserving(hpf, 0.25, pairs, dists=dists)
    copies, records, unresolved = _pair_preserving_loop(hpf, 0.25, pairs, dists)
    assert len(pp.pair_records) + len(unresolved) == gs.n * (gs.n - 1) // 2
    assert [_exact(r.__dict__) for r in pp.pair_records] == [_exact(r.__dict__) for r in records]
    assert pp.pair_records == records
    assert [pp.pair_records[k] for k in range(-3, 3)] == records[-3:] + records[:3]
    assert pp.pair_records[5:40:7] == records[5:40:7]
    assert [(c.base_index, c.copy_index, _exact(c.pairs)) for c in pp.copies] == [
        (j, t, _exact(cp)) for j, t, cp in copies
    ]
    assert pp.unresolved_pairs == unresolved


def test_checks_off_build_runs_no_heap_search(monkeypatch):
    # distances and paths of a checks-off build all come from csgraph
    import sys

    from spantreecover import graphs
    from spantreecover.cover import CoverConfig, span_tree_cover

    calls = []
    original = graphs.dijkstra

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("spantreecover") and getattr(module, "dijkstra", None) is original:
            monkeypatch.setattr(module, "dijkstra", counted)
    cover = span_tree_cover(generate("grid", {"k": 8}), CoverConfig(check=False))
    assert len(cover.trees) == 116
    assert calls == []
    # a checked build makes no heap search either; the spanner's do
    graphs.greedy_spanner(generate("grid", {"k": 4}), 0.5)
    assert calls, "the spanner's searches go through the patched dijkstra"


def test_pairs_exhaustive_mode_small():
    g = generate("path", {"n": 8})
    hpf = build_hpf(g, 6.0, 24.0, 1.0)
    pp = make_pair_preserving(hpf, 0.25)
    assert len(pp.copies) >= len(pp.hierarchies)
    for cp in pp.copies:
        h = cp.base
        for (lvl, cid), (s1, s2, rho_eff) in cp.pairs.items():
            sep = set_separation(
                pp.dist, h.clusters[s1].members, h.clusters[s2].members
            )
            assert sep > pp.mu**lvl / rho_eff - 1e-9


def test_strong_diameter_helper():
    g = generate("path", {"n": 5})
    assert strong_diameter(g, frozenset([0, 1, 2])) == pytest.approx(2.0)
    assert strong_diameter(g, frozenset([3])) == 0.0

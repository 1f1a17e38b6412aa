"""Preservable path systems and their tree sketches for one cluster.

Given a level-i cluster, its clustering ell levels down, an incoming highway
path pi, and optionally a designated subcluster pair, this module builds a
set of vertex-disjoint shortest paths touching every subcluster exactly once
(plus the inter-cluster edges gluing them together), and condenses it into
a sketch tree whose fake edges carry the fixed weight 10 * epsilon * mu^i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graphs import INF, TOL, ClusterDistances, WeightedGraph, dijkstra, leq
from .hpf import Hierarchy


@dataclass
class PreservableSet:
    """Vertex-disjoint paths: paths[highway] is pi; touch maps each
    clustering cluster to the unique path index that enters it."""

    paths: list[list[int]]
    highway: int
    touch: dict[int, int]
    inter_cluster: list[tuple[int, int]]
    # per path: ("highway" | "pair-main" | "pair-bridge" | "glue", origin rep)
    origins: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class SketchGraph:
    vertices: list[int]
    real_edges: list[tuple[int, int, float]]
    fake_edges: list[tuple[int, int, float]]
    inter_cluster: list[tuple[int, int, float]]
    scale: float

    @property
    def edge_count(self) -> int:
        return len(self.real_edges) + len(self.fake_edges) + len(self.inter_cluster)


def member_clusters(
    hier: Hierarchy, cluster_id: int, level: int, cache: Optional[dict] = None
) -> dict[int, int]:
    """Map each member of the cluster to its level-``level`` cluster id,
    memoized per hierarchy in ``cache``."""
    key = ("clusters", cluster_id, level)
    cof = None if cache is None else cache.get(key)
    if cof is None:
        cof = {v: hier.cluster_at(v, level) for v in hier.clusters[cluster_id].members}
        if cache is not None:
            cache[key] = cof
    return cof


class PreservableError(AssertionError):
    pass


def build_preservable_set(
    g: WeightedGraph,
    hier: Hierarchy,
    cluster_id: int,
    level: int,
    ell: int,
    pi: list[int],
    pair: Optional[tuple[int, int]],
    mu_i: float,
    epsilon: float,
    cache: Optional[dict] = None,
    dists: Optional[ClusterDistances] = None,
) -> PreservableSet:
    """Step 1 routes the designated pair; Step 2 glues every remaining
    cluster onto the growing path system, one hierarchy level at a time.

    ``cache`` memoizes shortest paths that depend only on the hierarchy
    and the highway (pair paths, glue descents, searches towards pi), which
    repeat across hierarchy copies. ``dists`` shares the in-cluster
    shortest-path trees with the other hierarchies of the construction.
    """
    if cache is None:
        cache = {}
    if dists is None:
        dists = ClusterDistances(g)
    chat = hier.clusters[cluster_id].members
    pi_verts = set(pi)
    if pi_verts.isdisjoint(chat):
        raise ValueError("highway does not touch the cluster")
    isub = max(level - ell, 0)
    cof = member_clusters(hier, cluster_id, isub, cache)

    paths: list[list[int]] = [list(pi)]
    origins: list[tuple[str, int]] = [("highway", pi[0])]
    touch: dict[int, int] = {}
    onpath: set[int] = set(pi)
    inter: list[tuple[int, int]] = []

    def register(idx: int) -> None:
        for v in paths[idx]:
            c = cof.get(v)
            if c is not None and c not in touch:
                touch[c] = idx

    def add_path(seq: list[int], kind: str, rep: int) -> None:
        paths.append(list(seq))
        origins.append((kind, rep))
        onpath.update(seq)
        register(len(paths) - 1)

    def add_inter(a: int, b: int) -> None:
        e = (min(a, b), max(a, b))
        if e not in inter:
            inter.append(e)

    register(0)
    c_pi = {cof[v] for v in pi if v in cof}
    pi_key = tuple(pi)

    def path_to_pi(source: int) -> list[int]:
        """Shortest path inside G[C] union pi from source to the nearest
        vertex of pi (ties: smaller id)."""
        key = ("to-pi", cluster_id, pi_key, source)
        seq = cache.get(key)
        if seq is None:
            spt = dijkstra(g, source, restrict=chat, paths=[pi], stop=pi_verts)
            if spt.reached is None:
                raise ValueError("highway unreachable from the cluster")
            seq = cache[key] = spt.path_to(spt.reached)
        return seq

    if pair is not None:
        c1, c2 = hier.clusters[pair[0]], hier.clusters[pair[1]]
        if not (c1.members <= chat and c2.members <= chat):
            raise ValueError("pair clusters not inside the cluster")
        x, y = c1.representative, c2.representative
        pkey = ("pair", cluster_id, pair)
        pxy = cache.get(pkey)
        if pxy is None:
            pxy = cache[pkey] = dists.tree(chat, x).path_to(y)
        c_pxy = {cof[v] for v in pxy}
        if c_pxy.isdisjoint(c_pi):
            pprime = path_to_pi(x)
            j2 = next(
                t
                for t, v in enumerate(pprime)
                if cof.get(v) in c_pi or v in pi_verts
            )
            j1 = max(t for t in range(j2 + 1) if cof.get(pprime[t]) in c_pxy)
            bridge = pprime[j1 + 1 : j2]
            add_path(pxy, "pair-main", x)
            if bridge:
                add_path(bridge, "pair-bridge", x)
            add_inter(pprime[j1], pprime[j1 + 1])
            add_inter(pprime[j2 - 1], pprime[j2])
        else:
            j3 = next(
                t for t, v in enumerate(pxy) if cof.get(v) in c_pi or v in pi_verts
            )
            prefix = pxy[:j3]
            c_prefix = {cof[v] for v in prefix}
            stop = c_pi | c_prefix
            j4 = max(
                t for t, v in enumerate(pxy) if cof.get(v) in stop or v in pi_verts
            )
            suffix = pxy[j4 + 1 :]
            if prefix:
                add_path(prefix, "pair-main", x)
                add_inter(pxy[j3 - 1], pxy[j3])
            if suffix:
                add_path(suffix, "pair-main", y)
                add_inter(pxy[j4], pxy[j4 + 1])

    def glue(seq: list[int], rep: int) -> None:
        stop = next(
            (t for t, v in enumerate(seq) if cof.get(v) in touch or v in onpath),
            None,
        )
        if stop is None:
            raise PreservableError(f"glue path never meets the system: {seq}")
        if stop == 0:
            return
        add_path(seq[:stop], "glue", rep)
        add_inter(seq[stop - 1], seq[stop])

    # first iteration: the cluster's own representative reaches pi
    r0 = hier.clusters[cluster_id].representative
    glue(path_to_pi(r0), r0)

    for j in range(level - 1, isub - 1, -1):
        sub_ids = sorted(set(member_clusters(hier, cluster_id, j, cache).values()))
        for did in sub_ids:
            d = hier.clusters[did]
            pid = hier.cluster_at(d.representative, j + 1)
            p = hier.clusters[pid]
            r, rp = d.representative, p.representative
            if r == rp and (cof.get(r) in touch or r in onpath):
                continue
            gkey = ("glue", did)
            seq = cache.get(gkey)
            if seq is None:
                within = frozenset(p.members & chat | {r, rp})
                seq = cache[gkey] = dists.tree(within, r).path_to(rp)
            glue(seq, r)

    return PreservableSet(paths, 0, touch, inter, origins)


def build_sketch_graph(
    g: WeightedGraph,
    pset: PreservableSet,
    hier: Hierarchy,
    cluster_id: int,
    level: int,
    ell: int,
    mu_i: float,
    epsilon: float,
    cache: Optional[dict] = None,
) -> SketchGraph:
    """Condense the path system into a tree: path and inter-cluster edges
    stay real; off-path vertices hang by a fake edge of weight exactly
    10 * epsilon * mu^i from the nearest on-path vertex of their cluster.

    ``cache`` (shared with ``build_preservable_set``) memoizes the nearest
    anchors per (cluster, touching path), which repeat across copies.
    """
    if cache is None:
        cache = {}
    chat = hier.clusters[cluster_id].members
    isub = max(level - ell, 0)
    verts = sorted(chat | {v for p in pset.paths for v in p})
    onpath = {v for p in pset.paths for v in p}

    real: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for p in pset.paths:
        for a, b in zip(p, p[1:]):
            e = (min(a, b), max(a, b))
            if e not in seen:
                seen.add(e)
                real.append((e[0], e[1], g.weight(a, b)))
    inter = [(a, b, g.weight(a, b)) for a, b in pset.inter_cluster]

    fake: list[tuple[int, int, float]] = []
    wfake = 10.0 * epsilon * mu_i
    sub_ids = sorted(set(member_clusters(hier, cluster_id, isub, cache).values()))
    for cid in sub_ids:
        members = hier.clusters[cid].members
        if cid not in pset.touch:
            raise ValueError(f"cluster {cid} has no touching path")
        path = pset.paths[pset.touch[cid]]
        off = sorted(members - onpath)
        if not off:
            continue
        key = ("anchors", cid, tuple(path))
        best = cache.get(key)
        if best is None:
            best = cache[key] = _nearest_anchors(g, members, path)
        for v in off:
            if v not in best:
                raise ValueError(f"vertex {v} cannot reach its cluster path")
            fake.append((v, best[v][1], wfake))
    return SketchGraph(verts, real, fake, inter, mu_i)


def _nearest_anchors(
    g: WeightedGraph, members: frozenset[int], path: list[int]
) -> dict[int, tuple[float, int]]:
    """(distance, anchor) of the nearest path vertex inside ``members`` (ties:
    smaller id) for every other member, measured in G[members] union path."""
    on = set(path)
    off = members - on
    best: dict[int, tuple[float, int]] = {}
    for a in sorted(on & members):
        dist = dijkstra(g, a, restrict=members, paths=[path]).dist
        for v in off:
            if dist[v] < INF and (v not in best or (dist[v], a) < best[v]):
                best[v] = (dist[v], a)
    return best


def verify_preservable_set(
    g: WeightedGraph,
    pset: PreservableSet,
    hier: Hierarchy,
    cluster_id: int,
    level: int,
    ell: int,
    cache: Optional[dict] = None,
) -> None:
    """Assert the structural path-system properties.

    ``cache`` (shared with ``build_preservable_set``) memoizes the length
    of each path's shortest detour through a touched cluster.
    """
    if cache is None:
        cache = {}
    chat = hier.clusters[cluster_id].members
    isub = max(level - ell, 0)
    cof = member_clusters(hier, cluster_id, isub, cache)
    sub_ids = sorted(set(cof.values()))
    # pairwise vertex-disjoint
    seen: dict[int, int] = {}
    for idx, p in enumerate(pset.paths):
        assert len(set(p)) == len(p), f"path {idx} revisits a vertex"
        for v in p:
            assert v not in seen, f"vertex {v} on paths {seen[v]} and {idx}"
            seen[v] = idx
    # exactly-one-touch, recomputed from scratch (paths are disjoint, so
    # each on-path vertex names its one path)
    for cid in sub_ids:
        touching = sorted(
            {seen[v] for v in hier.clusters[cid].members if v in seen}
        )
        assert len(touching) == 1, f"cluster {cid} touched by {touching}"
        assert pset.touch[cid] == touching[0]
    assert pset.paths[pset.highway] is pset.paths[0]
    # each path is shortest in G[C] union itself, for every touched cluster C
    for idx, p in enumerate(pset.paths):
        if len(p) < 2:
            continue
        plen = sum(g.weight(a, b) for a, b in zip(p, p[1:]))
        for cid in sorted({cof[v] for v in p if v in cof}):
            key = ("span", cid, tuple(p))
            span = cache.get(key)
            if span is None:
                span = cache[key] = dijkstra(
                    g, p[0], restrict=hier.clusters[cid].members, paths=[p],
                    stop={p[-1]},
                ).dist[p[-1]]
            assert abs(span - plen) <= TOL, (
                f"path {idx} not shortest within cluster {cid}"
            )
    # inter-cluster edges are real edges crossing clusters (or reaching pi
    # vertices outside the cluster)
    for a, b in pset.inter_cluster:
        assert g.has_edge(a, b), f"inter-cluster edge ({a},{b}) not in graph"
        assert cof.get(a) != cof.get(b) or (a not in cof or b not in cof)


def _farthest_pair(tor, members) -> float:
    """Largest tree distance between two of ``members`` (0 for fewer than
    two), equal to the max of ``tor.dist_many`` over all their pairs.

    wd[u] + wd[v] - 2 wd[lca] is monotone in wd[u] and wd[v], in floating
    point too, so each vertex w only has to pair the two deepest members
    found in distinct branches below it (w itself is a branch): one
    bottom-up pass instead of a query per pair.
    """
    wd, depth, parent = tor.wdepth, tor.depth, tor.parent
    top1 = [-INF] * tor.n
    top2 = [-INF] * tor.n
    for v in members:
        top1[v] = wd[v]
    worst = 0.0
    for v in sorted(range(tor.n), key=depth.__getitem__, reverse=True):
        b = top1[v]
        if b == -INF:
            continue
        if top2[v] != -INF:
            worst = max(worst, (b + top2[v]) - 2.0 * wd[v])
        p = parent[v]
        if p < 0:
            continue
        if b > top1[p]:
            top1[p], top2[p] = b, top1[p]
        elif b > top2[p]:
            top2[p] = b
    return worst


def verify_preservable_lemma(
    g: WeightedGraph,
    sketch: SketchGraph,
    pset: PreservableSet,
    hier: Hierarchy,
    cluster_id: int,
    level: int,
    ell: int,
    pair: Optional[tuple[int, int]],
    mu_i: float,
    epsilon: float,
    theory_mode: bool = False,
    dists: Optional[ClusterDistances] = None,
    cache: Optional[dict] = None,
) -> dict:
    """Check the sketch-tree guarantees; returns a report of measurements.

    ``dists`` supplies the in-cluster distances of the pair bound and
    ``cache`` the per-hierarchy memo of ``build_preservable_set``; pass the
    construction's own to share their work.
    """
    import numpy as np

    from .oracle import TreeOracle

    chat = hier.clusters[cluster_id].members
    isub = max(level - ell, 0)
    cof = member_clusters(hier, cluster_id, isub, cache)
    report: dict = {}

    # tree-ness: nv - 1 edges, and the LCA oracle over the (relabeled)
    # sketch, used below for bulk distance queries, asserts it reaches
    # every vertex
    nv, ne = len(sketch.vertices), sketch.edge_count
    assert ne == nv - 1, f"sketch has {ne} edges over {nv} vertices"
    index = {v: i for i, v in enumerate(sketch.vertices)}
    tor = TreeOracle(
        nv,
        [
            (index[u], index[v], w)
            for u, v, w in sketch.real_edges + sketch.fake_edges + sketch.inter_cluster
        ],
        0,
    )
    report["is_tree"] = True

    def ids_of(verts) -> np.ndarray:
        return np.asarray([index[x] for x in verts], dtype=np.int64)

    # same-cluster bound, every cluster (one batched query over all pairs)
    key = ("same-cluster pairs", cluster_id, isub)
    same_pairs = None if cache is None else cache.get(key)
    if same_pairs is None:
        inside = sorted(chat)
        sub = np.asarray([cof[v] for v in inside], dtype=np.int64)
        iu, iv = np.triu_indices(len(inside), k=1)
        same = sub[iu] == sub[iv]
        same_pairs = (inside, iu[same], iv[same])
        if cache is not None:
            cache[key] = same_pairs
    inside, iu, iv = same_pairs
    ids = ids_of(inside)
    d_same = tor.dist_many(ids[iu], ids[iv])
    worst_same = float(d_same.max()) if len(d_same) else 0.0
    report["max_same_cluster"] = worst_same
    assert leq(worst_same, 21.0 * epsilon * mu_i), (
        f"same-cluster distance {worst_same} > 21 eps mu^i"
    )

    # pair bound
    if pair is not None:
        m1 = sorted(hier.clusters[pair[0]].members)
        m2 = sorted(hier.clusters[pair[1]].members)
        slack = 44.0 * epsilon * mu_i
        if dists is None:
            dists = ClusterDistances(g)
        i1, i2 = ids_of(m1), ids_of(m2)
        dh = tor.dist_many(
            np.repeat(i1, len(m2)), np.tile(i2, len(m1))
        ).reshape(len(m1), len(m2))
        din = dists.distances(chat, m1, m2)
        worst_gap = float((dh - din).max())
        report["pair_gap"] = worst_gap
        assert leq(worst_gap, slack), f"pair gap {worst_gap} > 44 eps mu^i"

    # diameter ratio (asserted only under theory-coupled parameters)
    worst = _farthest_pair(tor, ids)
    report["diam_ratio"] = worst / mu_i
    if theory_mode:
        assert leq(worst, 10.0 * mu_i), f"sketch diameter {worst} > 10 mu^i"

    # glue monotonicity: clusters touched by a glued path stay near pi
    pi_verts = sorted(set(pset.paths[pset.highway]))
    allv = sketch.vertices
    pids, aids = ids_of(pi_verts), ids_of(allv)
    near = (
        tor.dist_many(np.repeat(pids, len(aids)), np.tile(aids, len(pids)))
        .reshape(len(pids), len(aids))
        .min(axis=0)
    )
    near_pi = {v: float(near[i]) for i, v in enumerate(allv)}
    for idx, (kind, rep) in enumerate(pset.origins):
        if kind != "glue":
            continue
        bound = near_pi[rep] + 10.0 * epsilon * mu_i
        seen: set[int] = set()
        for v in pset.paths[idx]:
            if v not in chat:
                continue
            cid = cof[v]
            if cid in seen:
                continue
            seen.add(cid)
            for u in hier.clusters[cid].members:
                assert leq(near_pi[u], bound), (
                    f"glue monotonicity broken at vertex {u}"
                )
    report["glue_ok"] = True
    return report

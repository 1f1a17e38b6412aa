"""Preservable path systems and their tree sketches for one cluster.

Given a level-i cluster, its clustering ell levels down, an incoming highway
path pi, and optionally a designated subcluster pair, this module builds a
set of vertex-disjoint shortest paths touching every subcluster exactly once
(plus the inter-cluster edges gluing them together), and condenses it into
a sketch tree whose fake edges carry the fixed weight 10 * epsilon * mu^i.

The checks assert the path-system properties and the preservable lemma on the
sketch. The lemma check makes a fixed number of linear passes over the sketch
tree, plus one pass per member of the pair's first subcluster.

Every distance inside a cluster comes from the construction's
``ClusterDistances``, which computes one csgraph block per member set and
memoizes it: the build's pair paths, glue descents and searches towards pi
are read off the blocks, and so are the checks' answers. A path is shortest
within a subcluster when no two of its vertices there are closer in the
block than along the path (``ClusterDistances.shortcut``), and an off-path
vertex hangs from the path vertex nearest to it in the block
(``ClusterDistances.anchors``). No check runs a search of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import TOL, ClusterDistances, WeightedGraph, leq, root_tree
from .hpf import Hierarchy


@dataclass
class PreservableSet:
    """Vertex-disjoint paths: paths[highway] is pi; touch maps each
    clustering cluster to the unique path index that enters it.

    The set records the node it was built for: cluster ``cluster_id`` of
    ``hier``, its clustering at level ``sublevel`` and the designated
    subcluster pair, if any. The checks read the node from here."""

    paths: list[list[int]]
    highway: int
    touch: dict[int, int]
    inter_cluster: list[tuple[int, int]]
    # per path: ("highway" | "pair-main" | "pair-bridge" | "glue", origin rep)
    origins: list[tuple[str, int]]
    hier: Hierarchy
    cluster_id: int
    sublevel: int  # max(level - ell, 0)
    pair: Optional[tuple[int, int]]


@dataclass
class SketchGraph:
    vertices: list[int]
    real_edges: list[tuple[int, int, float]]
    fake_edges: list[tuple[int, int, float]]
    inter_cluster: list[tuple[int, int, float]]

    @property
    def edge_count(self) -> int:
        return len(self.real_edges) + len(self.fake_edges) + len(self.inter_cluster)


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
    dists: Optional[ClusterDistances] = None,
) -> PreservableSet:
    """Step 1 routes the designated pair; Step 2 glues every remaining
    cluster onto the growing path system, one hierarchy level at a time.

    Every path is a shortest path of ``dists``: pass the construction's
    own to share its searches with the other hierarchies and copies.
    """
    if dists is None:
        dists = ClusterDistances(g)
    chat = hier.clusters[cluster_id].members
    pi_verts = set(pi)
    if pi_verts.isdisjoint(chat):
        raise ValueError("highway does not touch the cluster")
    isub = max(level - ell, 0)
    # each vertex's level-isub cluster; laminarity makes that of a vertex
    # outside chat no subcluster of chat
    cof = hier.vmap[min(isub, hier.i_max)]

    paths: list[list[int]] = [list(pi)]
    origins: list[tuple[str, int]] = [("highway", pi[0])]
    touch: dict[int, int] = {}
    onpath: set[int] = set(pi)
    inter: list[tuple[int, int]] = []

    def register(idx: int) -> None:
        for v in paths[idx]:
            if v in chat:
                touch.setdefault(cof[v], idx)

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
    c_pi = {cof[v] for v in pi if v in chat}
    # as a path target, the search over G[chat] union pi that stops at pi
    pi_key = tuple(pi)

    if pair is not None:
        c1, c2 = hier.clusters[pair[0]], hier.clusters[pair[1]]
        if not (c1.members <= chat and c2.members <= chat):
            raise ValueError("pair clusters not inside the cluster")
        x, y = c1.representative, c2.representative
        pxy = dists.path(chat, x, y)
        c_pxy = {cof[v] for v in pxy}
        if c_pxy.isdisjoint(c_pi):
            pprime = dists.path(chat, x, pi_key)
            j2 = next(
                t
                for t, v in enumerate(pprime)
                if cof[v] in c_pi or v in pi_verts
            )
            j1 = max(t for t in range(j2 + 1) if cof[pprime[t]] in c_pxy)
            bridge = pprime[j1 + 1 : j2]
            add_path(pxy, "pair-main", x)
            if bridge:
                add_path(bridge, "pair-bridge", x)
            add_inter(pprime[j1], pprime[j1 + 1])
            add_inter(pprime[j2 - 1], pprime[j2])
        else:
            j3 = next(
                t for t, v in enumerate(pxy) if cof[v] in c_pi or v in pi_verts
            )
            prefix = pxy[:j3]
            c_prefix = {cof[v] for v in prefix}
            stop = c_pi | c_prefix
            j4 = max(
                t for t, v in enumerate(pxy) if cof[v] in stop or v in pi_verts
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
            (t for t, v in enumerate(seq) if cof[v] in touch or v in onpath),
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
    glue(dists.path(chat, r0, pi_key), r0)

    for j in range(level - 1, isub - 1, -1):
        vmap_j = hier.vmap[min(j, hier.i_max)]
        for did in sorted({vmap_j[v] for v in chat}):
            d = hier.clusters[did]
            pid = hier.cluster_at(d.representative, j + 1)
            p = hier.clusters[pid]
            r, rp = d.representative, p.representative
            if r == rp and (cof[r] in touch or r in onpath):
                continue
            # p lies inside chat and holds r and rp: the hierarchy is laminar
            glue(dists.path(p.members, r, rp), r)

    return PreservableSet(paths, 0, touch, inter, origins, hier, cluster_id, isub, pair)


def build_sketch_graph(
    g: WeightedGraph,
    pset: PreservableSet,
    mu_i: float,
    epsilon: float,
    dists: Optional[ClusterDistances] = None,
) -> SketchGraph:
    """Condense the path system into a tree: path and inter-cluster edges
    stay real; off-path vertices hang by a fake edge of weight exactly
    10 * epsilon * mu^i from the nearest on-path vertex of their cluster,
    as ``dists.anchors`` finds it.
    """
    if dists is None:
        dists = ClusterDistances(g)
    hier = pset.hier
    chat = hier.clusters[pset.cluster_id].members
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
    cof = hier.vmap[min(pset.sublevel, hier.i_max)]
    for cid in sorted({cof[v] for v in chat}):
        members = hier.clusters[cid].members
        if cid not in pset.touch:
            raise ValueError(f"cluster {cid} has no touching path")
        path = pset.paths[pset.touch[cid]]
        off = sorted(members - onpath)
        if not off:
            continue
        anchor = dists.anchors(members, path)
        for v in off:
            if v not in anchor:
                raise ValueError(f"vertex {v} cannot reach its cluster path")
            fake.append((v, anchor[v], wfake))
    return SketchGraph(verts, real, fake, inter)


def verify_preservable_set(
    g: WeightedGraph,
    pset: PreservableSet,
    dists: Optional[ClusterDistances] = None,
) -> None:
    """Assert the structural path-system properties. Each path is shortest
    in G[C] union itself for every subcluster C it touches when
    ``dists.shortcut`` finds no pair of its vertices in C that the block of
    C joins shorter, by more than TOL, than the path does.
    """
    if dists is None:
        dists = ClusterDistances(g)
    hier = pset.hier
    chat = hier.clusters[pset.cluster_id].members
    cof = hier.vmap[min(pset.sublevel, hier.i_max)]
    # pairwise vertex-disjoint
    seen: dict[int, int] = {}
    for idx, p in enumerate(pset.paths):
        assert len(set(p)) == len(p), f"path {idx} revisits a vertex"
        for v in p:
            assert v not in seen, f"vertex {v} on paths {seen[v]} and {idx}"
            seen[v] = idx
    # exactly-one-touch, recomputed from scratch (paths are disjoint, so
    # each on-path vertex names its one path)
    for cid in sorted({cof[v] for v in chat}):
        touching = sorted(
            {seen[v] for v in hier.clusters[cid].members if v in seen}
        )
        assert len(touching) == 1, f"cluster {cid} touched by {touching}"
        assert pset.touch[cid] == touching[0]
    assert pset.paths[pset.highway] is pset.paths[0]
    # each path is shortest in G[C] union itself, for every touched cluster
    # C; one that meets C in a single vertex is, as no excursion leaves it
    for idx, p in enumerate(pset.paths):
        at: dict[int, list[int]] = {}  # touched cluster -> its path positions
        for k, v in enumerate(p):
            if v in chat:
                at.setdefault(cof[v], []).append(k)
        runs = sorted((cid, ks) for cid, ks in at.items() if len(ks) > 1)
        if not runs:
            continue
        along = np.cumsum([0.0] + [g.weight(a, b) for a, b in zip(p, p[1:])])
        for cid, ks in runs:
            gain = dists.shortcut(hier.clusters[cid].members, [p[k] for k in ks], along[ks])
            assert gain <= TOL, f"path {idx} not shortest within cluster {cid}"
    # inter-cluster edges are real edges crossing clusters (or reaching pi
    # vertices outside the cluster)
    for a, b in pset.inter_cluster:
        assert g.has_edge(a, b), f"inter-cluster edge ({a},{b}) not in graph"
        assert a not in chat or b not in chat or cof[a] != cof[b]


def _sketch_walk(
    sketch: SketchGraph,
) -> tuple[dict[int, int], list[int], list[int], list[float]]:
    """Relabel the sketch onto 0 .. nv - 1 and root it at index 0 with
    ``root_tree``.

    Returns (index, parent, order, wd): ``order`` lists every vertex after
    its parent, and wd[v] sums the edge weights from the root down to v, in
    the order ``TreeOracle`` sums them. Asserts that the sketch is a tree.
    """
    nv, ne = len(sketch.vertices), sketch.edge_count
    assert ne == nv - 1, f"sketch has {ne} edges over {nv} vertices"
    index = {v: i for i, v in enumerate(sketch.vertices)}
    edges = sketch.real_edges + sketch.fake_edges + sketch.inter_cluster
    order, parent, wd = root_tree(nv, [(index[u], index[v], w) for u, v, w in edges], 0)
    return index, parent, order, wd


def verify_preservable_lemma(
    g: WeightedGraph,
    sketch: SketchGraph,
    pset: PreservableSet,
    mu_i: float,
    epsilon: float,
    theory_mode: bool = False,
    dists: Optional[ClusterDistances] = None,
) -> dict:
    """Check the sketch-tree guarantees; returns a report of measurements.

    Every bound is checked in linear passes over the sketch tree, and every
    tree distance is wd[u] + wd[v] - 2 wd[lca] over the root-path sums of
    ``_sketch_walk``. ``dists`` supplies the in-cluster distances of the
    pair bound; pass the construction's own to share its blocks.
    """
    hier, pair = pset.hier, pset.pair
    chat = hier.clusters[pset.cluster_id].members
    cof = hier.vmap[min(pset.sublevel, hier.i_max)]
    report: dict = {}

    index, parent, order, wd = _sketch_walk(sketch)
    nv = len(order)
    report["is_tree"] = True

    # same-cluster bound and diameter, in one bottom-up pass: each vertex
    # keeps the deepest wd below it of every subcluster (``deep``, merged
    # small into large) and of the whole cluster (``top``). Two members
    # meet at their LCA p, and (a + b) - 2 wd[p] is monotone in a and b, in
    # floating point too, so the deepest member of each branch gives the
    # largest distance through p.
    deep: list[dict[int, float]] = []
    top: list[Optional[float]] = []
    for i, v in enumerate(sketch.vertices):
        inside = v in chat
        deep.append({cof[v]: wd[i]} if inside else {})
        top.append(wd[i] if inside else None)
    worst_same = worst = 0.0
    for v in reversed(order[1:]):
        b = top[v]
        if b is None:
            continue  # no cluster member below v
        p = parent[v]
        a = top[p]
        if a is None:
            top[p], deep[p] = b, deep[v]
            continue
        twice = 2.0 * wd[p]
        d = (a + b) - twice
        if d > worst:
            worst = d
        if b > a:
            top[p] = b
        small, big = deep[v], deep[p]
        if len(small) > len(big):
            small, big = big, small
            deep[p] = big
        for c, b in small.items():
            a = big.get(c)
            if a is None:
                big[c] = b
                continue
            d = (a + b) - twice
            if d > worst_same:
                worst_same = d
            if b > a:
                big[c] = b
    report["max_same_cluster"] = worst_same
    assert leq(worst_same, 21.0 * epsilon * mu_i), (
        f"same-cluster distance {worst_same} > 21 eps mu^i"
    )

    # pair bound: the LCA of x and y lies on y's root path, so for each
    # member x of the first subcluster one pass over the root paths of the
    # second's members finds them all
    if pair is not None:
        m1 = sorted(hier.clusters[pair[0]].members)
        m2 = sorted(hier.clusters[pair[1]].members)
        slack = 44.0 * epsilon * mu_i
        if dists is None:
            dists = ClusterDistances(g)
        i1 = [index[x] for x in m1]
        i2 = [index[y] for y in m2]
        up = [False] * nv
        for y in i2:
            while y >= 0 and not up[y]:
                up[y] = True
                y = parent[y]
        span = [v for v in order if up[v]]
        rows = []
        for x in i1:
            lca = _lcas_with(x, parent, span)
            rows.append([lca[y] for y in i2])
        wda = np.asarray(wd)
        dh = wda[i1][:, None] + wda[i2] - 2.0 * wda[np.asarray(rows, dtype=np.int64)]
        din = dists.distances(chat, m1, m2)
        worst_gap = float((dh - din).max())
        report["pair_gap"] = worst_gap
        assert leq(worst_gap, slack), f"pair gap {worst_gap} > 44 eps mu^i"

    # diameter ratio (asserted only under theory-coupled parameters)
    report["diam_ratio"] = worst / mu_i
    if theory_mode:
        assert leq(worst, 10.0 * mu_i), f"sketch diameter {worst} > 10 mu^i"

    # glue monotonicity: clusters touched by a glued path stay near pi
    near = _highway_distances(pset, index, parent, order, wd)
    for idx, (kind, rep) in enumerate(pset.origins):
        if kind != "glue":
            continue
        bound = near[index[rep]] + 10.0 * epsilon * mu_i
        for cid in {cof[v] for v in pset.paths[idx] if v in chat}:
            members = hier.clusters[cid].members
            if leq(max(near[index[u]] for u in members), bound):
                continue
            u = min(u for u in members if not leq(near[index[u]], bound))
            raise PreservableError(f"glue monotonicity broken at vertex {u}")
    report["glue_ok"] = True
    return report


def _lcas_with(x: int, parent: list[int], order: list[int]) -> list[int]:
    """LCA of x and each vertex of ``order``, a parent-closed list of
    vertices with every vertex after its parent: the deepest vertex of x's
    root path above it. Entries of other vertices are 0."""
    on_path = [False] * len(parent)
    while x >= 0:
        on_path[x] = True
        x = parent[x]
    lca = [0] * len(parent)
    for v in order:
        lca[v] = v if on_path[v] else lca[parent[v]]
    return lca


def _highway_distances(
    pset: PreservableSet,
    index: dict[int, int],
    parent: list[int],
    order: list[int],
    wd: list[float],
) -> list[float]:
    """Sketch-tree distance from every sketch vertex to the nearest vertex
    of pi, in one top-down pass.

    pi is a connected subtree and the weights are positive, so the nearest
    highway vertex of v is its nearest pi ancestor, or, when v has none,
    the shallowest vertex s of pi, reached through the LCA of v and s.
    """
    nv = len(order)
    on_pi = [False] * nv
    for v in pset.paths[pset.highway]:
        on_pi[index[v]] = True
    s = next(v for v in order if on_pi[v])
    lca = _lcas_with(s, parent, order)
    hw = [-1] * nv  # nearest pi ancestor, -1 for none
    near = [0.0] * nv
    for v in order:
        p = parent[v]
        hw[v] = v if on_pi[v] else hw[p] if p >= 0 else -1
        a, m = (hw[v], hw[v]) if hw[v] >= 0 else (s, lca[v])
        near[v] = (wd[a] + wd[v]) - 2.0 * wd[m]
    return near

"""Spanning tree covers with (1 + eps) stretch for preserved pairs.

The recursion turns one hierarchy copy and one top level into a spanning
tree: each cluster builds its preservable path system, children recurse with
their touching path as the incoming highway, and the inter-cluster edges
stitch the child trees together. The top-level driver emits one tree per
(hierarchy copy, level offset) and carries verification hooks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .graphs import (
    TOL,
    ClusterDistances,
    WeightedGraph,
    _DSU,
    apsp,
    greedy_spanner,
    mst_weight,
)
from .hpf import HPFamily, HierarchyCopy, build_hpf, make_pair_preserving
from .oracle import OracleIndex, TreeOracle, stack_trees
from .preservable import (
    PreservableSet,
    build_preservable_set,
    build_sketch_graph,
    verify_preservable_lemma,
    verify_preservable_set,
)


@dataclass
class SpanningTree:
    edges: list[tuple[int, int]]  # (u, v) with u < v, sorted
    root: int
    provenance: tuple[int, int]  # (hierarchy copy index, top level)

    def weight(self, g: WeightedGraph) -> float:
        return sum(g.weight(u, v) for u, v in self.edges)

    def max_degree(self) -> int:
        deg: dict[int, int] = {}
        for u, v in self.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        return max(deg.values(), default=0)


@dataclass
class CoverConfig:
    epsilon: float = 0.25
    mu: float = 6.0
    rho: float = 24.0
    eta: float = 1.0
    mode: str = "demand"  # demand | exhaustive | theory
    pairs: Optional[np.ndarray] = None  # (P, 2) vertex ids; a list of pairs works too
    seed: int = 42
    check: bool = True

    def validate(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.mu < 2:
            raise ValueError("mu must be at least 2")
        if self.mode not in ("demand", "exhaustive", "theory"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "theory" and (self.rho < 24 or self.eta < 5):
            raise ValueError("theory mode requires rho >= 24 and eta >= 5")


@dataclass
class TreeCover:
    trees: list[SpanningTree]
    params: dict
    scale: float
    hpf: HPFamily = field(repr=False, default=None)
    diagnostics: dict = field(default_factory=dict)
    _index: Optional[OracleIndex] = field(default=None, repr=False)
    _index_graph: Optional[WeightedGraph] = field(default=None, repr=False)

    def oracle_index(self, g: WeightedGraph) -> OracleIndex:
        """The trees' stacked LCA data with edges weighted by ``g``, built
        once per graph object and kept for the last graph asked for. Raises
        ValueError naming a malformed tree (see ``oracle.stack_trees``)."""
        if self._index_graph is not g:
            trees = [(t.edges, t.root) for t in self.trees]
            self._index, self._index_graph = stack_trees(g.n, trees, g), g
        return self._index

    def tree_oracles(self, g: WeightedGraph) -> list[TreeOracle]:
        """One ``TreeOracle`` per tree: the views of ``oracle_index(g)``."""
        return self.oracle_index(g).trees


def default_demand_pairs(
    g: WeightedGraph, seed: int, sample_size: int = 10_000, cap: int = 512
) -> np.ndarray:
    """All pairs up to the cap; above it, a seeded sample plus every edge.
    Returns the sorted pairs (u, v), u < v, as a (P, 2) int64 array."""
    if g.n <= cap:
        return np.column_stack(np.triu_indices(g.n, 1)).astype(np.int64)
    rng = np.random.default_rng(seed)
    pairs = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
    sample_size = min(sample_size, g.n * (g.n - 1) // 2)
    while len(pairs) < sample_size:
        u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def path_preserving_tree(
    g: WeightedGraph,
    copy: HierarchyCopy,
    cluster_id: int,
    level: int,
    pi: list[int],
    ell: int,
    mu: float,
    epsilon: float,
    check: bool = True,
    theory_mode: bool = False,
    diagnostics: Optional[dict] = None,
    memo: Optional[dict] = None,
    dists: Optional[ClusterDistances] = None,
) -> tuple[set[tuple[int, int]], set[int]]:
    """Spanning tree of G[cluster] union pi, as (edge set, vertex set).

    ``memo`` and ``dists`` are those of ``_Recursion``; pass the same ones
    to several calls to share their work.
    """
    rec = _Recursion(
        g, ell, mu, epsilon, check, theory_mode, diagnostics,
        {} if memo is None else memo,
        ClusterDistances(g) if dists is None else dists,
    )
    codes = rec.tree(copy, _pairs_by_ancestor(copy), cluster_id, level, pi)
    edges = {divmod(c, g.n) for c in codes.tolist()}
    verts = set(copy.base.clusters[cluster_id].members).union(*edges)
    return edges, verts


def _pairs_by_ancestor(copy: HierarchyCopy) -> dict[int, list]:
    """Per cluster id, the copy's pair assignments at that cluster and at
    its descendants, as ((level, cluster id), (subcluster, subcluster))."""
    out: dict[int, list] = {}
    for node, entry in copy.pairs.items():
        c = node[1]
        while c is not None:
            out.setdefault(c, []).append((node, entry[:2]))
            c = copy.base.clusters[c].parent
    return out


@dataclass
class _Recursion:
    """The recursion of one construction and what its calls share.

    A subtree's edges are a sorted int64 array of codes u * n + v, u < v.
    ``memo`` keeps them across hierarchy copies: two copies that agree on
    the incoming highway and on every pair assigned inside the subtree
    produce identical trees, which is the common case away from the one
    cluster whose pair distinguishes the copies. ``dists`` runs and
    memoizes, by member set, every search inside a cluster that the path
    systems make: distances, shortest-path trees, pair paths, glue descents
    and searches towards pi. The checks read their nearest anchors and path
    shortcuts off the same blocks. ``checked`` holds the nodes whose path
    system was checked, so that each is checked once.
    """

    g: WeightedGraph
    ell: int
    mu: float
    epsilon: float
    check: bool
    theory_mode: bool
    diagnostics: Optional[dict]
    memo: dict
    dists: ClusterDistances
    checked: set = field(default_factory=set)

    def check_node(self, pset: PreservableSet, level: int, node: tuple) -> None:
        """Run the path-system and lemma checks on ``pset``, the path system
        of ``node`` (base hierarchy, cluster, level, pi, pair), unless that
        node was checked before: the memo key also carries the pairs below
        the node, so the same system is rebuilt under several keys."""
        if node in self.checked:
            return
        self.checked.add(node)
        g, dists = self.g, self.dists
        mu_i, epsilon = self.mu**level, self.epsilon
        verify_preservable_set(g, pset, dists=dists)
        sketch = build_sketch_graph(g, pset, mu_i, epsilon, dists=dists)
        report = verify_preservable_lemma(
            g, sketch, pset, mu_i, epsilon, theory_mode=self.theory_mode, dists=dists
        )
        diagnostics = self.diagnostics
        if diagnostics is not None:
            diagnostics.setdefault("nodes_checked", 0)
            diagnostics["nodes_checked"] += 1
            diagnostics["max_diam_ratio"] = max(
                diagnostics.get("max_diam_ratio", 0.0), report["diam_ratio"]
            )

    def path_codes(self, paths: Iterable[Sequence[int]]) -> list[int]:
        """Codes of the paths' edges; an edge (a, b) is a path too."""
        n = self.g.n
        return [a * n + b if a < b else b * n + a for p in paths for a, b in zip(p, p[1:])]

    def tree(
        self, copy: HierarchyCopy, by_ancestor: dict, cluster_id: int, level: int, pi: list[int]
    ) -> np.ndarray:
        """Edge codes of the spanning tree of G[cluster] union pi.
        ``by_ancestor`` is ``_pairs_by_ancestor(copy)``."""
        hier = copy.base
        cluster = hier.clusters[cluster_id]
        if not pi:
            pi = [cluster.representative]
        if len(cluster.members) == 1:
            return np.asarray(self.path_codes([pi]), dtype=np.int64)
        sig = tuple(sorted(x for x in by_ancestor.get(cluster_id, ()) if x[0][0] <= level))
        memo_key = (copy.base_index, cluster_id, level, tuple(pi), sig)
        hit = self.memo.get(memo_key)
        if hit is not None:
            return hit

        g, dists = self.g, self.dists
        pair_entry = copy.pairs.get((level, cluster_id))
        pair = pair_entry[:2] if pair_entry else None
        pset = build_preservable_set(g, hier, cluster_id, level, self.ell, pi, pair, dists=dists)
        if self.check:
            self.check_node(pset, level, (copy.base_index, cluster_id, level, tuple(pi), pair))

        # the children are the subclusters the paths touch; a singleton
        # subcluster's tree is its touching path, added once per path
        parts = []
        single_paths: set[int] = set()
        for cid, touch in sorted(pset.touch.items()):
            if len(hier.clusters[cid].members) == 1:
                single_paths.add(touch)
            else:
                parts.append(self.tree(copy, by_ancestor, cid, pset.sublevel, pset.paths[touch]))
        flat = self.path_codes(pset.paths[k] for k in sorted(single_paths))
        flat += self.path_codes(pset.inter_cluster)
        parts.append(np.asarray(flat, dtype=np.int64))
        codes = np.unique(np.concatenate(parts))

        members = cluster.members
        nverts = len(members) + len({v for p in pset.paths for v in p if v not in members})
        assert len(codes) == nverts - 1, (
            f"cluster {cluster_id}: {len(codes)} edges over {nverts} vertices"
        )
        self.memo[memo_key] = codes
        return codes


def span_tree_cover(g: WeightedGraph, config: CoverConfig) -> TreeCover:
    """One spanning tree per (hierarchy copy, top-level offset)."""
    config.validate()
    gs, scale = g.rescaled()
    dists = ClusterDistances(gs, apsp(gs))
    hpf = build_hpf(gs, config.mu, config.rho, config.eta, dists=dists)
    demand = config.pairs
    if config.mode == "exhaustive":
        demand = None
    elif demand is None:
        demand = default_demand_pairs(gs, config.seed)
    pp = make_pair_preserving(hpf, config.epsilon, demand, dists=dists)

    trees: list[SpanningTree] = []
    diagnostics: dict = {}
    rec = _Recursion(
        gs, pp.ell, pp.mu, pp.epsilon, config.check, config.mode == "theory",
        diagnostics, {}, dists,
    )
    # one (u, v) tuple per graph edge, shared by every tree's edge list; a
    # code that is no edge of g gets its own, for verify_spanning to report
    edge_of = {u * gs.n + v: (u, v) for u, v, _ in gs.edges}
    for copy_idx, copy in enumerate(pp.copies):
        by_ancestor = _pairs_by_ancestor(copy)
        top = copy.base.levels[copy.base.i_max][0]
        for level in pp.top_tree_levels(copy.base_index):
            codes = rec.tree(copy, by_ancestor, top, level, []).tolist()
            edges = [edge_of.get(c) or divmod(c, gs.n) for c in codes]
            trees.append(SpanningTree(edges, 0, (copy_idx, level)))

    params = {
        "epsilon": config.epsilon,
        "mu": config.mu,
        "rho": config.rho,
        "eta": config.eta,
        "mode": config.mode,
        "seed": config.seed,
        "ell": pp.ell,
        "scale": scale,
        "num_hierarchies": len(pp.hierarchies),
        "num_copies": len(pp.copies),
    }
    cover = TreeCover(trees, params, scale, hpf=pp, diagnostics=diagnostics)
    verify_spanning(g, cover)
    return cover


def light_tree_cover(
    g: WeightedGraph, epsilon: float, config: Optional[CoverConfig] = None
) -> TreeCover:
    """Cover over the greedy spanner; trees inherit its lightness."""
    config = replace(config or CoverConfig(), epsilon=epsilon)
    spanner = greedy_spanner(g, epsilon)
    cover = span_tree_cover(spanner, config)
    mst = mst_weight(g)
    weights = [t.weight(g) for t in cover.trees]
    cover.params["spanner_edges"] = spanner.m
    cover.params["spanner_lightness"] = spanner.total_weight() / mst
    cover.params["individual_lightness"] = max(weights) / mst
    cover.params["collective_lightness"] = sum(weights) / mst
    return cover


def _best_trees(
    oracles: Sequence[TreeOracle], us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, the minimum distance over the trees and the smallest tree
    index attaining it, as ``oracle.query_distance`` picks them."""
    best = np.full(len(us), math.inf)
    best_idx = np.full(len(us), -1, dtype=np.int64)
    for idx, t in enumerate(oracles):
        d = t.dist_many(us, vs)
        take = d < best
        best[take] = d[take]
        best_idx[take] = idx
    return best, best_idx


# per pair (us, vs), the best tree distance and index of _best_trees
BestTrees = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def shared_best_trees(g: WeightedGraph, cover: TreeCover, pairs) -> BestTrees:
    """``_best_trees`` for the (P, 2) ``pairs`` and the cover's pair
    records, from one pass over their union. Pass it as ``best`` to
    ``cover_stats`` and ``pair_guarantee_report`` to make one pass serve
    both; it raises KeyError for a pair outside that union."""
    n = g.n
    recs = cover.hpf.pair_records
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    us, vs = np.concatenate([ends[:, 0], recs.u]), np.concatenate([ends[:, 1], recs.v])
    codes = np.unique(np.minimum(us, vs) * n + np.maximum(us, vs))
    # tree distances are symmetric, bit for bit
    best, best_idx = _best_trees(cover.tree_oracles(g), codes // n, codes % n)

    def lookup(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        want = np.minimum(us, vs) * n + np.maximum(us, vs)
        k = np.minimum(codes.searchsorted(want), len(codes) - 1)
        if (codes[k] != want).any():
            raise KeyError("pair outside the shared best-tree pass")
        return best[k], best_idx[k]

    return lookup


def cover_stretch(
    g: WeightedGraph, cover: TreeCover, pairs, best: Optional[BestTrees] = None
) -> dict:
    """Min-over-trees stretch per pair of the (P, 2) ``pairs`` (or a list
    of pairs), with max/mean summary. Each pair's tree is the smallest
    index attaining the exact minimum, as in ``oracle.query_distance``.
    With no pair u != v, max and mean read 1.0 and the table is empty."""
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    ends = ends[ends[:, 0] != ends[:, 1]]
    if not len(ends):
        return {"max": 1.0, "mean": 1.0, "table": []}
    us, vs = ends.min(axis=1), ends.max(axis=1)
    best_d, best_idx = (best or partial(_best_trees, cover.tree_oracles(g)))(us, vs)
    ratios = (best_d / apsp(g)[us, vs]).tolist()
    table = list(zip(us.tolist(), vs.tolist(), ratios, best_idx.tolist()))
    return {
        "max": max(ratios),
        "mean": sum(ratios) / len(ratios),
        "table": table,
    }


def pair_guarantee_report(
    g: WeightedGraph, cover: TreeCover, best: Optional[BestTrees] = None
) -> dict:
    """Check the additive guarantee for every demanded pair's assignment:
    min-tree distance <= in-cluster distance + 44 eps mu^i (scaled units).
    ``worst_gap`` is None when no pair was checked."""
    pp = cover.hpf
    scale = cover.scale
    worst = None  # no pair checked
    failures = []
    recs = pp.pair_records
    if len(recs):
        best_d = (best or partial(_best_trees, cover.tree_oracles(g)))(recs.u, recs.v)[0] * scale
        levels, at = np.unique(recs.level, return_inverse=True)
        slack = np.asarray([44.0 * pp.epsilon * pp.mu**i for i in levels.tolist()])
        bound = recs.d_in_cluster + slack[at]
        gap = best_d - bound
        worst = float(gap.max())
        for k in np.flatnonzero(gap > TOL).tolist():
            failures.append((int(recs.u[k]), int(recs.v[k]), float(best_d[k]), float(bound[k])))
    return {
        "pairs_checked": len(pp.pair_records),
        "unresolved": list(pp.unresolved_pairs),
        "worst_gap": worst,
        "failures": failures,
    }


# tree vertices per numpy pass of verify_spanning: all trees of a large cover
# at once would hold every edge of every tree in a few arrays
_SPAN_VERTICES = 1 << 15


def verify_spanning(g: WeightedGraph, cover: TreeCover) -> dict:
    """Assert every tree is a spanning tree using only graph edges.

    A chunk of trees, about _SPAN_VERTICES tree vertices, is checked at a
    time in numpy: every edge against g's edges, the edge count, and one
    connected-components pass over the chunk's trees side by side. A tree
    that fails is checked again edge by edge, which words the failure."""
    n = g.n
    eu, ev, _ = g.edge_columns()
    graph_codes = eu * n + ev
    chunk = max(1, _SPAN_VERTICES // max(n, 1))
    for lo in range(0, len(cover.trees), chunk):
        trees = cover.trees[lo : lo + chunk]
        counts = np.asarray([len(t.edges) for t in trees], dtype=np.int64)
        ends = [e for t in trees for e in t.edges]
        ends = np.asarray(ends).reshape(-1, 2) if ends else np.empty((0, 2), dtype=np.int64)
        bad = counts != n - 1
        if ends.dtype.kind in "iu":
            owner = np.repeat(np.arange(len(trees)), counts)
            a, b = ends.min(axis=1), ends.max(axis=1)
            ok = (a >= 0) & (b < n) & np.isin(a * n + b, graph_codes)
            bad[owner[~ok]] = True
            off = owner[ok] * n
            side_by_side = csr_matrix(
                (np.ones(len(off)), (a[ok] + off, b[ok] + off)),
                shape=(len(trees) * n, len(trees) * n),
            )
            labels = csgraph.connected_components(side_by_side, directed=False)[1]
            labels = labels.reshape(len(trees), n)
            bad |= (labels != labels[:, :1]).any(axis=1)
        else:
            bad[:] = True  # ids that are not integers: check edge by edge
        for k in np.flatnonzero(bad).tolist():
            _check_tree(g, lo + k, trees[k])
    return {"trees": len(cover.trees), "spanning": True}


def _check_tree(g: WeightedGraph, idx: int, t: SpanningTree) -> None:
    """Assert tree ``idx`` is a spanning tree of g, edge by edge."""
    for u, v in t.edges:
        assert g.has_edge(u, v), f"tree {idx}: edge ({u},{v}) not in graph"
    assert len(t.edges) == g.n - 1, (
        f"tree {idx}: {len(t.edges)} edges, expected {g.n - 1}"
    )
    dsu = _DSU(g.n)
    for u, v in t.edges:
        joined = dsu.union(u, v)
        assert joined, f"tree {idx}: cycle at edge ({u},{v})"


def save_cover(cover: TreeCover, path: str) -> None:
    """Write the cover as JSON: the bytes of ``json.dump(doc, fh,
    sort_keys=True, indent=1)`` and a newline, for the document with keys
    params, trees (provenance, root, edges) and version. The tree lists
    are formatted here, which takes a tenth of json's time on a large
    cover."""

    def indented(obj, depth: int) -> str:
        return json.dumps(obj, sort_keys=True, indent=1).replace("\n", "\n" + " " * depth)

    def listed(items: list[str], depth: int) -> str:
        if not items:
            return "[]"
        return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"

    def tree_doc(t: SpanningTree) -> str:
        edges = [f"    [\n     {u},\n     {v}\n    ]" for u, v in t.edges]
        return (
            "  {\n"
            f'   "edges": {listed(edges, 3)},\n'
            f'   "provenance": {indented(list(t.provenance), 3)},\n'
            f'   "root": {t.root}\n'
            "  }"
        )

    trees = [tree_doc(t) for t in cover.trees]
    text = (
        "{\n"
        f' "params": {indented(cover.params, 1)},\n'
        f' "trees": {listed(trees, 1)},\n'
        ' "version": 1\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_cover(path: str) -> TreeCover:
    """Read a cover written by ``save_cover``. Raises ValueError naming the
    tree when a root or an edge end is not an integer vertex id."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    trees = []
    for j, t in enumerate(doc["trees"]):
        root, edges = t["root"], [tuple(e) for e in t["edges"]]
        if not _is_id(root):
            raise ValueError(f"cover tree {j}: root {root!r} is not an integer vertex id")
        for e in edges:
            if len(e) != 2 or not (_is_id(e[0]) and _is_id(e[1])):
                raise ValueError(
                    f"cover tree {j}: edge {list(e)} is not a pair of integer vertex ids"
                )
        trees.append(SpanningTree(edges, root, tuple(t["provenance"])))
    return TreeCover(trees, doc["params"], doc["params"].get("scale", 1.0))


def _is_id(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def stats_pairs(g: WeightedGraph, cover: TreeCover, pairs=None):
    """The pairs ``cover_stats`` measures: ``pairs``, or the default demand
    of the cover's seed when none are given."""
    if pairs is None or len(pairs) == 0:
        pairs = default_demand_pairs(g, int(cover.params.get("seed", 42)))
    return pairs


def cover_stats(
    g: WeightedGraph, cover: TreeCover, pairs=None, best: Optional[BestTrees] = None
) -> dict:
    stretch = cover_stretch(g, cover, stats_pairs(g, cover, pairs), best)
    mst = mst_weight(g)
    # with no edge, every tree weighs what the MST weighs: 0
    light = [t.weight(g) / mst if mst else 1.0 for t in cover.trees]
    return {
        "num_trees": len(cover.trees),
        "max_stretch": stretch["max"],
        "mean_stretch": stretch["mean"],
        "individual_lightness": max(light),
        "collective_lightness": sum(light),
        "max_tree_degree": max(t.max_degree() for t in cover.trees),
    }

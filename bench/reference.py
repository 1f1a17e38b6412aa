"""Independent reference for the benchmark's correctness checks.

Nothing here calls the program's shortest-path or tree-distance code
(``dijkstra``, ``apsp``, ``TreeOracle``, ``cover_stretch``): graph distances
come from a dense Floyd-Warshall, tree distances from a parent climb over the
tree's own edges. The ``check_*`` functions return a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def edge_weights(edges) -> dict[tuple[int, int], float]:
    """(u, v) -> w in both orientations, from (u, v, w) triples."""
    out = {}
    for u, v, w in edges:
        out[(u, v)] = out[(v, u)] = float(w)
    return out


def graph_distances(n: int, edges) -> np.ndarray:
    """All-pairs shortest-path matrix by Floyd-Warshall."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        if w < d[u, v]:
            d[u, v] = d[v, u] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def spanning_tree_problems(n: int, edges, weights) -> list[str]:
    """A spanning tree of G has n - 1 edges of G and no cycle."""
    problems = []
    if len(edges) != n - 1:
        problems.append(f"{len(edges)} edges, expected {n - 1}")
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edges:
        if (u, v) not in weights:
            problems.append(f"edge ({u},{v}) is not an edge of G")
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            problems.append(f"edge ({u},{v}) closes a cycle")
            continue
        root[rv] = ru
    return problems


class RootedTree:
    """Parent, hop depth and weighted depth of a spanning tree, from its root.

    Weighted depths are summed root to leaf, one edge at a time, so a tree
    distance wdepth[u] + wdepth[v] - 2 wdepth[lca] is the same float as any
    other root-anchored depth sum over the same edges.
    """

    def __init__(self, n: int, edges, weights, root: int = 0) -> None:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = [-1] * n
        depth = [0] * n
        wdepth = [0.0] * n
        seen = [False] * n
        seen[root] = True
        preorder = []
        stack = [root]
        while stack:
            u = stack.pop()
            preorder.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    wdepth[v] = wdepth[u] + weights[(u, v)]
                    stack.append(v)
        if len(preorder) != n:
            raise ValueError(f"tree reaches {len(preorder)} of {n} vertices")
        self.n = n
        self.root = root
        self.parent = np.asarray(parent, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.wdepth = np.asarray(wdepth)
        self.preorder = preorder
        self.weights = weights

    def distance(self, u: int, v: int) -> float:
        """Tree distance by climbing both ends to their lowest common ancestor."""
        parent, depth = self.parent, self.depth
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]
        wd = self.wdepth
        return float(wd[u] + wd[v] - 2.0 * wd[a])

    def distances(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``distance`` for aligned vertex arrays, climbing all pairs at once."""
        parent, depth = self.parent, self.depth
        a, b = us.copy(), vs.copy()
        for x, y in ((a, b), (b, a)):
            while True:
                up = depth[x] > depth[y]
                if not up.any():
                    break
                x[up] = parent[x[up]]
        while True:
            up = a != b
            if not up.any():
                break
            a[up] = parent[a[up]]
            b[up] = parent[b[up]]
        wd = self.wdepth
        return wd[us] + wd[vs] - 2.0 * wd[a]

    def all_distances(self) -> np.ndarray:
        """n x n tree-distance matrix. A child's row is its parent's row plus
        the edge weight, minus twice the weight over the child's own subtree,
        which is one contiguous block in DFS preorder."""
        n = self.n
        pre = np.asarray(self.preorder, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        pos[pre] = np.arange(n)
        size = np.ones(n, dtype=np.int64)
        parent = self.parent
        for v in reversed(self.preorder[1:]):
            size[parent[v]] += size[v]
        rows = np.empty((n, n))
        rows[0] = self.wdepth[pre]
        for i in range(1, n):
            v = self.preorder[i]
            w = self.weights[(v, int(parent[v]))]
            row = rows[i]
            np.add(rows[pos[parent[v]]], w, out=row)
            row[i : i + size[v]] -= 2.0 * w
        return rows[np.ix_(pos, pos)]


def walk_problems(seq, source: int, target: int, weights) -> tuple[list[str], float]:
    """A walk from source to target over G's edges; returns its weight."""
    problems = []
    if not seq or seq[0] != source or seq[-1] != target:
        ends = (seq[0], seq[-1]) if seq else None
        problems.append(f"walk ends at {ends}, expected ({source}, {target})")
    weight = 0.0
    for a, b in zip(seq, seq[1:]):
        w = weights.get((a, b))
        if w is None:
            problems.append(f"step ({a},{b}) is not an edge of G")
            continue
        weight += w
    return problems, weight


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def cover_problems(name: str, n: int, cover, weights, dist: np.ndarray, tick=None, ticks: int = 0):
    """Checks one cover against G; returns (problems, best tree distance matrix).

    Every tree is a spanning tree of G; no demanded pair is unresolved; every
    pair record meets min_T d_T <= d_G + 44 eps mu^level (in G's units); every
    pair has stretch >= 1. ``tick`` is called exactly ``ticks`` times, spread
    evenly over the trees, so a caller can interleave other work with the check.
    """
    problems = []
    best = np.full((n, n), np.inf)
    ticked = 0
    for idx, tree in enumerate(cover.trees):
        while ticked < ticks and idx * (ticks + 1) >= (ticked + 1) * len(cover.trees):
            tick()
            ticked += 1
        found = spanning_tree_problems(n, tree.edges, weights)
        if found:
            problems += [f"{name} tree {idx}: {p}" for p in found[:3]]
            continue
        np.minimum(best, RootedTree(n, tree.edges, weights, tree.root).all_distances(), out=best)
    for _ in range(ticked, ticks):
        tick()
    if problems:
        return problems, best
    pp = cover.hpf
    if pp.unresolved_pairs:
        problems.append(f"{name}: {len(pp.unresolved_pairs)} demanded pairs unresolved")
    recs = pp.pair_records
    if recs:
        us = np.asarray([r.u for r in recs], dtype=np.int64)
        vs = np.asarray([r.v for r in recs], dtype=np.int64)
        slack = np.asarray([44.0 * pp.epsilon * pp.mu**r.level for r in recs]) / cover.scale
        dg = dist[us, vs]
        over = best[us, vs] - (dg + slack) > REL_TOL * np.maximum(1.0, dg + slack)
        for k in np.flatnonzero(over)[:3]:
            problems.append(
                f"{name}: pair ({us[k]},{vs[k]}) at level {recs[k].level} has "
                f"min tree distance {best[us[k], vs[k]]} > {dg[k]} + {slack[k]}"
            )
    iu = np.triu_indices(n, 1)
    low = best[iu] < dist[iu] * (1.0 - REL_TOL)
    for k in np.flatnonzero(low)[:3]:
        u, v = iu[0][k], iu[1][k]
        problems.append(f"{name}: pair ({u},{v}) has stretch below 1")
    return problems, best


def stretch_max(best: np.ndarray, dist: np.ndarray) -> float:
    iu = np.triu_indices(dist.shape[0], 1)
    return float((best[iu] / dist[iu]).max())

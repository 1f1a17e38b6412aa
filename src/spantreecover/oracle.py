"""Distance oracle over a tree cover: exact per-tree LCA queries, min-over-
trees estimates, and path reporting by parent climbs in the argmin tree.

Each tree of n vertices has an Euler tour of length M = 2n - 1 and a sparse
table of L = bit_length(M) levels, whose entry [k, i] is the shallowest
vertex among tour positions i .. i + 2^k - 1; an LCA is the shallower of two
table reads. ``build_oracle`` stacks the tables of all T trees of a cover into
one (T, L, M) int32 array, T·L·M entries, and each tree's ``TreeOracle``
reads its own slice of it. ``query_distance`` then answers with one O(T) numpy
pass over all trees: a fixed number of operations on length-T vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import WeightedGraph


def _sparse_table(tour: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """(L, M) table; row k holds, from each tour position i, the shallowest
    vertex over the 2^k positions starting at i (the tail past M - 2^k is
    left unset and never read)."""
    m = len(tour)
    table = np.empty((m.bit_length(), m), dtype=np.int64)
    table[0] = tour
    for k in range(1, len(table)):
        prev, half = table[k - 1], 1 << (k - 1)
        width = m - (1 << k) + 1
        left, right = prev[:width], prev[half : half + width]
        table[k, :width] = np.where(depth[right] < depth[left], right, left)
    return table


class TreeOracle:
    """Euler tour + sparse-table RMQ: O(1) LCA and distance on one tree.

    Edges are (u, v) pairs weighted by the host graph ``g``, or (u, v, w)
    triples when no host graph is given.
    """

    __slots__ = (
        "n", "root", "parent", "wdepth", "depth", "_first", "_table", "_depth", "_wd",
    )

    def __init__(
        self,
        n: int,
        edges: Sequence[tuple],
        root: int,
        g: Optional[WeightedGraph] = None,
    ) -> None:
        self.n = n
        self.root = root
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for e in edges:
            u, v = e[0], e[1]
            w = g.weight(u, v) if g is not None else e[2]
            adj[u].append((v, w))
            adj[v].append((u, w))
        for lst in adj:
            lst.sort()
        parent = [-1] * n
        wdepth = [0.0] * n
        depth = [0] * n
        tour: list[int] = []
        first = [-1] * n
        # iterative DFS emitting an Euler tour
        visited = [False] * n
        visited[root] = True
        tour.append(root)
        first[root] = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            u, nbrs = stack[-1]
            for v, w in nbrs:
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    wdepth[v] = wdepth[u] + w
                    depth[v] = depth[u] + 1
                    first[v] = len(tour)
                    tour.append(v)
                    stack.append((v, iter(adj[v])))
                    break
            else:
                stack.pop()
                if stack:
                    tour.append(stack[-1][0])
        assert all(f >= 0 for f in first), "tree does not span all vertices"
        self.parent = parent
        self.wdepth = wdepth
        self.depth = depth
        self._wd = np.asarray(wdepth)
        self._first = np.asarray(first, dtype=np.int64)
        self._depth = np.asarray(depth, dtype=np.int64)
        self._table = _sparse_table(np.asarray(tour, dtype=np.int64), self._depth)

    def lca(self, u: int, v: int) -> int:
        a, b = int(self._first[u]), int(self._first[v])
        if a > b:
            a, b = b, a
        k = (b - a + 1).bit_length() - 1
        i, j = self._table[k, a], self._table[k, b - (1 << k) + 1]
        return int(i if self._depth[i] <= self._depth[j] else j)

    def dist(self, u: int, v: int) -> float:
        w = self.lca(u, v)
        return self.wdepth[u] + self.wdepth[v] - 2.0 * self.wdepth[w]

    def dist_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized tree distances for aligned vertex arrays."""
        a = self._first[us]
        b = self._first[vs]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        k = np.frexp(hi - lo + 1)[1] - 1
        i = self._table[k, lo]
        j = self._table[k, hi - np.left_shift(1, k) + 1]
        lca = np.where(self._depth[i] <= self._depth[j], i, j)
        return self._wd[us] + self._wd[vs] - 2.0 * self._wd[lca]

    def path(self, u: int, v: int) -> list[int]:
        w = self.lca(u, v)
        up = [u]
        while up[-1] != w:
            up.append(self.parent[up[-1]])
        down = [v]
        while down[-1] != w:
            down.append(self.parent[down[-1]])
        return up + down[-2::-1]


@dataclass
class OracleIndex:
    """The LCA data of all T trees of a cover, stacked: ``first``, ``depth``
    and ``wdepth`` are (n, T), so a vertex's values over all trees are one
    contiguous row, and ``table`` is (T, L, M). ``trees[t]`` reads column or
    slice t of these arrays."""

    trees: list[TreeOracle]
    first: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    wdepth: np.ndarray = field(repr=False)
    params: dict = field(default_factory=dict)
    trees_touched: int = 0  # query-cost instrumentation

    def __post_init__(self) -> None:
        t, levels, m = self.table.shape
        # per tree, the flat offset of its table; per span hi - lo, the
        # offset of level k = floor(log2(hi - lo + 1)) and 2^k - 1
        log = np.frexp(np.arange(1, m + 1))[1] - 1
        self._tree_off = np.arange(t, dtype=np.int64) * (levels * m)
        self._level_off = log * m
        self._back = (1 << log) - 1
        self._col = np.arange(t, dtype=np.int64)


def build_oracle(g: WeightedGraph, cover) -> OracleIndex:
    """Stacked LCA data of every cover tree over ``g``.

    The trees are ``cover.tree_oracles(g)``, so a cover whose oracles were
    built already (over ``g`` or over a spanner of it) keeps one set. Raises
    ValueError naming the tree and the edge when a tree does not have n - 1
    edges or has an edge that is not in ``g``."""
    n, t = g.n, len(cover.trees)
    for j, tree in enumerate(cover.trees):
        if len(tree.edges) != n - 1:
            raise ValueError(
                f"cover tree {j} has {len(tree.edges)} edges; a spanning "
                f"tree of the graph's {n} vertices has {n - 1}"
            )
    trees = cover.tree_oracles(g)
    m = 2 * n - 1
    first = np.empty((n, t), dtype=np.int32)
    table = np.empty((t, m.bit_length(), m), dtype=np.int32)
    depth = np.empty((n, t), dtype=np.int32)
    wdepth = np.empty((n, t))
    for j, tor in enumerate(trees):
        # copy the tree's arrays into the stack and point the tree at its
        # slice, so that only the stacked copy stays alive
        first[:, j], table[j], depth[:, j], wdepth[:, j] = (
            tor._first, tor._table, tor._depth, tor._wd
        )
        tor._first, tor._table, tor._depth, tor._wd = (
            first[:, j], table[j], depth[:, j], wdepth[:, j]
        )
    return OracleIndex(trees, first, table, depth, wdepth, dict(cover.params))


def query_distance(oracle: OracleIndex, u: int, v: int) -> tuple[float, int]:
    """Minimum tree distance and the smallest tree index attaining it,
    exactly: one numpy pass over all trees.

    Raises ValueError for a vertex id outside range(n)."""
    n = oracle.first.shape[0]
    for x in (u, v):
        if not 0 <= x < n:
            raise ValueError(f"vertex {x} outside range(0, {n})")
    if u == v:
        return 0.0, 0
    t = len(oracle.trees)
    oracle.trees_touched += t
    a, b = oracle.first[u], oracle.first[v]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    span = hi - lo
    row = oracle._tree_off + oracle._level_off[span]
    table = oracle.table.reshape(-1)
    # flat indices x*T + tree in the (n, T) arrays of the two candidates for
    # each tree's LCA; x*T stays below 2^31 in int32, since the (T, L, M)
    # table that fits in memory has more than n*T entries
    i = table[row + lo] * t + oracle._col
    j = table[row + hi - oracle._back[span]] * t + oracle._col
    depth = oracle.depth.reshape(-1)
    at_lca = np.where(depth[i] <= depth[j], i, j)
    wd = oracle.wdepth
    d = wd[u] + wd[v] - 2.0 * wd.reshape(-1)[at_lca]
    idx = int(np.argmin(d))
    return float(d[idx]), idx


def query_path(
    oracle: OracleIndex, g: WeightedGraph, u: int, v: int
) -> tuple[list[int], float, int]:
    """Path in G realizing the estimate, via the argmin tree."""
    est, idx = query_distance(oracle, u, v)
    if u == v:
        return [u], 0.0, idx
    path = oracle.trees[idx].path(u, v)
    for a, b in zip(path, path[1:]):
        assert g.has_edge(a, b), f"tree edge ({a},{b}) missing from graph"
    return path, est, idx

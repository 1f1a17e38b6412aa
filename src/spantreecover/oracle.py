"""Distance oracle over a tree cover: exact per-tree LCA queries, min-over-
trees estimates, and path reporting by parent climbs in the argmin tree.

Each tree of n vertices is rooted by ``graphs.root_tree``, and its sparse
table covers the n preorder positions in L = bit_length(n) levels: entry
[k, i] is the shallowest of the parents of the vertices at positions
i .. i + 2^k - 1. Two distinct vertices at positions a < b meet at the
shallowest parent over positions a + 1 .. b, so an LCA is the shallower of
two table reads. The shallowest vertices of a contiguous preorder range are
children of one vertex, so ties cannot change the answer. ``build_oracle``
stacks the tables of all T trees of a cover into one (T, L, n) int32 array,
T·L·n entries, and each tree's ``TreeOracle`` reads its own slice of it.
``query_distance`` then answers with one O(T) numpy pass over all trees: a
fixed number of operations on length-T vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import WeightedGraph, root_tree


def _sparse_table(up: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """(L, n) table; row k holds, from each preorder position i, the
    shallowest entry of ``up`` over the 2^k positions starting at i (the
    tail past n - 2^k, and position 0, the root's, are never read)."""
    n = len(up)
    table = np.empty((n.bit_length(), n), dtype=np.int64)
    table[0] = up
    for k in range(1, len(table)):
        prev, half = table[k - 1], 1 << (k - 1)
        width = n - (1 << k) + 1
        left, right = prev[:width], prev[half : half + width]
        table[k, :width] = np.where(depth[right] < depth[left], right, left)
    return table


class TreeOracle:
    """Preorder sparse-table RMQ: O(1) LCA and distance on one tree.

    Edges are (u, v) pairs weighted by the host graph ``g``, or (u, v, w)
    triples when no host graph is given.
    """

    __slots__ = ("n", "root", "parent", "wdepth", "_first", "_table", "_depth", "_wd")

    def __init__(
        self,
        n: int,
        edges: Sequence[tuple],
        root: int,
        g: Optional[WeightedGraph] = None,
    ) -> None:
        self.n = n
        self.root = root
        if g is not None:
            edges = [(u, v, g.weight(u, v)) for u, v in edges]
        order, parent, wdepth = root_tree(n, edges, root)
        depth = [0] * n
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        self.parent = parent
        self.wdepth = wdepth
        pre = np.asarray(order, dtype=np.int64)
        self._first = np.empty(n, dtype=np.int64)
        self._first[pre] = np.arange(n)
        self._depth = np.asarray(depth, dtype=np.int64)
        self._wd = np.asarray(wdepth)
        self._table = _sparse_table(np.asarray(parent, dtype=np.int64)[pre], self._depth)

    def lca(self, u: int, v: int) -> int:
        if u == v:
            return u
        a, b = int(self._first[u]), int(self._first[v])
        if a > b:
            a, b = b, a
        k = (b - a).bit_length() - 1
        i, j = self._table[k, a + 1], self._table[k, b - (1 << k) + 1]
        return int(i if self._depth[i] <= self._depth[j] else j)

    def dist(self, u: int, v: int) -> float:
        w = self.lca(u, v)
        return self.wdepth[u] + self.wdepth[v] - 2.0 * self.wdepth[w]

    def dist_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized tree distances for aligned vertex arrays; 0 where
        ``us == vs``."""
        a = self._first[us]
        b = self._first[vs]
        same = a == b
        # a pair u == v reads position a, in bounds, and keeps u
        lo = np.minimum(a, b) - same
        hi = np.maximum(a, b)
        k = np.frexp(hi - lo)[1] - 1
        i = self._table[k, lo + 1]
        j = self._table[k, hi - np.left_shift(1, k) + 1]
        lca = np.where(same, us, np.where(self._depth[i] <= self._depth[j], i, j))
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
    contiguous row, and ``table`` is (T, L, n). ``trees[t]`` reads column or
    slice t of these arrays."""

    trees: list[TreeOracle]
    first: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    wdepth: np.ndarray = field(repr=False)
    params: dict = field(default_factory=dict)
    trees_touched: int = 0  # query-cost instrumentation

    def __post_init__(self) -> None:
        t, levels, n = self.table.shape
        # per tree, the flat offset of its table; per span hi - lo > 0, the
        # offset of level k = floor(log2(hi - lo)) plus one and 2^k, so that
        # the two reads are at lo + 1 and hi - 2^k + 1
        log = np.frexp(np.arange(n))[1] - 1
        log[0] = 0  # span 0 is u == v, answered before any read
        self._tree_off = np.arange(t, dtype=np.int64) * (levels * n)
        self._level_off = log * n + 1
        self._back = 1 << log
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
    first = np.empty((n, t), dtype=np.int32)
    table = np.empty((t, n.bit_length(), n), dtype=np.int32)
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
    # each tree's LCA; x*T stays below 2^31 in int32, since the (T, L, n)
    # table that fits in memory has at least n*T entries
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

"""Distance oracle over a tree cover: exact per-tree LCA queries, min-over-
trees estimates, and path reporting by parent climbs in the argmin tree.

``stack_trees`` roots each of T trees once with ``graphs.root_tree`` and
writes it straight into the stack, the only copy of its data: preorder
positions and root-path sums as (n, T) arrays, so that a vertex's values over
all trees are one contiguous row; the preorder itself (``order``, position to
vertex) and parents as (T, n) int32; and sparse tables as (T, L, n) int32
with L = max(1, bit_length(n - 1)), the fewest levels that cover a span of
n - 1. Entry [t, k, i] is the smallest parent position of tree t's vertices
at preorder positions i .. i + 2^k - 1 (Bender & Farach-Colton's table over
positions, so no depths are kept). Two distinct vertices at positions a < b
meet at the vertex whose position is the smallest parent position over
a + 1 .. b: each vertex there lies below their LCA w, so its parent sits at
w or later, and w's child toward the second vertex lies in the range. So an
LCA is the minimum of two table reads. A ``TreeOracle`` is a view of one
tree's slices, and ``query_distance`` answers with one O(T) numpy pass.
The routing states read each tree's preorder, stamps, parents and root-path
sums off the same stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .graphs import WeightedGraph, root_tree


class TreeOracle:
    """O(1) LCA and distance on tree t of an ``OracleIndex``: a view that
    reads the tree's slices of the stack and holds no data of its own.

    ``TreeOracle(n, edges, root, g)`` stacks the one tree. Edges are (u, v)
    pairs weighted by the host graph ``g``, or (u, v, w) triples when no
    host graph is given.
    """

    __slots__ = ("_index", "_t")

    def __init__(
        self, n: int, edges: Sequence[tuple], root: int, g: Optional[WeightedGraph] = None
    ) -> None:
        self._index, self._t = stack_trees(n, [(edges, root)], g), 0

    def lca(self, u: int, v: int) -> int:
        if u == v:
            return u
        s, t = self._index, self._t
        a, b = s.first.item(u, t), s.first.item(v, t)
        if a > b:
            a, b = b, a
        k = (b - a).bit_length() - 1
        i, j = s.table.item(t, k, a + 1), s.table.item(t, k, b - (1 << k) + 1)
        return s.order.item(t, min(i, j))

    def dist(self, u: int, v: int) -> float:
        wd, t = self._index.wdepth.item, self._t
        return wd(u, t) + wd(v, t) - 2.0 * wd(self.lca(u, v), t)

    def dist_many(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized tree distances for aligned vertex arrays; 0 where
        ``us == vs``."""
        s, t = self._index, self._t
        a = s.first[us, t]
        b = s.first[vs, t]
        same = a == b
        # a pair u == v reads position a, in bounds, and keeps u
        lo = np.minimum(a, b) - same
        hi = np.maximum(a, b)
        k = np.frexp(hi - lo)[1] - 1
        i = s.table[t, k, lo + 1]
        j = s.table[t, k, hi - np.left_shift(1, k) + 1]
        lca = np.where(same, us, s.order[t, np.minimum(i, j)])
        wd = s.wdepth[:, t]
        return wd[us] + wd[vs] - 2.0 * wd[lca]

    def path(self, u: int, v: int) -> list[int]:
        w = self.lca(u, v)
        parent = memoryview(self._index.parent[self._t])  # reads Python ints
        up = [u]
        while up[-1] != w:
            up.append(parent[up[-1]])
        down = [v]
        while down[-1] != w:
            down.append(parent[down[-1]])
        return up + down[-2::-1]


@dataclass
class OracleIndex:
    """The stacked LCA data of T trees (see the module docstring);
    ``trees[j]`` is a view of tree j's slices, made unless given."""

    first: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    wdepth: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    trees_touched: int = 0  # query-cost instrumentation
    trees: Optional[list[TreeOracle]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        t, levels, n = self.table.shape
        # per tree, the flat offsets of its table and of its row of order;
        # per span hi - lo > 0, the offset of level k = floor(log2(hi - lo))
        # plus one and 2^k, so that the two reads are at lo + 1 and
        # hi - 2^k + 1
        log = np.frexp(np.arange(n))[1] - 1
        log[0] = 0  # span 0 is u == v, answered before any read
        self._col = np.arange(t, dtype=np.int64)
        self._tree_off = self._col * (levels * n)
        self._order_off = self._col * n
        self._level_off = log * n + 1
        self._back = 1 << log
        if self.trees is None:
            self.trees = [TreeOracle.__new__(TreeOracle) for _ in range(t)]
            for j, tree in enumerate(self.trees):
                tree._index, tree._t = self, j


def stack_trees(
    n: int, trees: Sequence[tuple[Sequence[tuple], int]], g: Optional[WeightedGraph] = None
) -> OracleIndex:
    """The stacked LCA data of ``trees``, (edges, root) pairs over 0 .. n - 1,
    with edges weighted as in ``TreeOracle``.

    Raises ValueError naming the tree when it does not have n - 1 edges, its
    root is outside range(n), an edge is not in ``g``, or its edges close a
    cycle."""
    t = len(trees)
    first = np.empty((n, t), dtype=np.int32)
    order = np.empty((t, n), dtype=np.int32)
    wdepth = np.empty((n, t))
    parent = np.empty((t, n), dtype=np.int32)
    table = np.empty((t, max(1, (n - 1).bit_length()), n), dtype=np.int32)
    for j, (edges, root) in enumerate(trees):
        if len(edges) != n - 1:
            raise ValueError(
                f"cover tree {j} has {len(edges)} edges; a spanning "
                f"tree of the graph's {n} vertices has {n - 1}"
            )
        if not 0 <= root < n:
            raise ValueError(f"cover tree {j}: root {root} outside range(0, {n})")
        if g is not None:
            try:
                edges = [(u, v, g.weight(u, v)) for u, v in edges]
            except KeyError:
                u, v = next(e for e in edges if not g.has_edge(*e))
                raise ValueError(
                    f"cover tree {j}: edge ({u}, {v}) is not in the graph"
                ) from None
        try:
            order[j], parent[j], wdepth[:, j] = root_tree(n, edges, root)
        except AssertionError as exc:  # n - 1 edges that miss a vertex
            raise ValueError(f"cover tree {j} has a cycle: {exc}") from None
        first[order[j], j] = np.arange(n)
        # the root's parent -1 reads first[-1]: a valid position, which no
        # LCA uses
        table[j, 0] = first[parent[j, order[j]], j]
    # level k from level k - 1 for all trees at once; the tail past
    # n - 2^k, and position 0, the root's, are never read
    for k in range(1, table.shape[1]):
        prev, half = table[:, k - 1], 1 << (k - 1)
        width = n - (1 << k) + 1
        np.minimum(prev[:, :width], prev[:, half : half + width], out=table[:, k, :width])
    return OracleIndex(first, table, order, wdepth, parent)


def build_oracle(g: WeightedGraph, cover) -> OracleIndex:
    """Stacked LCA data of every cover tree over ``g``: the index that
    ``cover.oracle_index(g)`` keeps, so no tree is rooted twice for one
    graph object, with its own query count.
    Raises ValueError for a malformed tree, as ``stack_trees`` does."""
    return replace(cover.oracle_index(g), trees_touched=0)


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
    # per tree, the LCA's position is the smaller of two table reads; its
    # vertex x reads wdepth at flat index x*T + tree, and x*T stays below
    # 2^31 in int32, since the (T, L, n) table that fits in memory has at
    # least n*T entries
    p = np.minimum(table[row + lo], table[row + hi - oracle._back[span]])
    lca = oracle.order.reshape(-1)[oracle._order_off + p]
    wd = oracle.wdepth
    d = wd[u] + wd[v] - 2.0 * wd.reshape(-1)[lca * t + oracle._col]
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

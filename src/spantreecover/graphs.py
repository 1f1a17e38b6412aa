"""Weighted-graph core: storage, I/O, shortest paths, rooted trees, spanners,
nets, generators.

Graphs are undirected with positive edge weights. Vertices are 0..n-1.
All algorithms here are deterministic, with a fixed absolute tolerance on
float comparisons. Two shortest-path kernels serve the package:

- ``scipy.sparse.csgraph.dijkstra`` computes every distance the
  construction and its checks read: ``apsp``, and the in-cluster blocks of
  ``ClusterDistances`` (strong diameters, pair distances, the path checks'
  shortcuts and the sketches' nearest anchors). Nets read rows of the
  all-pairs matrix. The paths that become tree edges are read off the
  same blocks: ``ClusterDistances.tree`` gives each vertex the smallest-id
  in-cluster neighbour that lies on a shortest path to it, which is the
  parent ``dijkstra``'s tie rule picks, and climbs those parents.
- ``dijkstra``, a heap search in Python, serves ``greedy_spanner``'s
  cut-off search, and the tests as the reference for the block reads. It
  settles vertices in (distance, vertex id) order, and of two equal-length
  parents (within tolerance) the one with the smaller vertex id wins, so
  its paths do not depend on heap order.

``ClusterDistances`` is the one place that runs and memoizes the searches
inside a cluster, keyed by its member set: the path systems' pair paths,
glue descents and searches towards pi, and the sketches' nearest anchors.
The sigma hierarchies rebuild the same clusters, so these repeat across
hierarchies and their copies.

csgraph takes the exact float minimum over paths, which is the sum
``dijkstra`` keeps on the graphs built here, so the choice of kernel cannot
change any output.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

TOL = 1e-9

DEFAULT_APSP_CAP = 2000

INF = math.inf


def gt(a: float, b: float) -> bool:
    """Strictly greater under the global tolerance."""
    return a > b + TOL


def leq(a: float, b: float) -> bool:
    """Less-or-equal under the global tolerance."""
    return a <= b + TOL


class GraphFormatError(ValueError):
    """Base class for graph-file parse and validation failures."""


class MalformedLineError(GraphFormatError):
    pass


class NonpositiveWeightError(GraphFormatError):
    pass


class DuplicateEdgeError(GraphFormatError):
    pass


class DisconnectedGraphError(GraphFormatError):
    pass


class WeightRangeError(GraphFormatError):
    pass


@dataclass
class WeightedGraph:
    """Undirected weighted graph with stable edge ids.

    ``edges[k] = (u, v, w)`` with u < v; ``adj[u]`` lists ``(v, w, k)``.
    """

    n: int
    edges: list[tuple[int, int, float]]
    adj: list[list[tuple[int, float, int]]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.adj:
            self.adj = [[] for _ in range(self.n)]
            for k, (u, v, w) in enumerate(self.edges):
                self.adj[u].append((v, w, k))
                self.adj[v].append((u, w, k))
        self._weight = {}
        for u, v, w in self.edges:
            self._weight[(u, v)] = w
            self._weight[(v, u)] = w
        self._columns: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``edges`` as (u, v, w) numpy columns, built on first use."""
        if self._columns is None:
            flat = itertools.chain.from_iterable(self.edges)
            e = np.fromiter(flat, dtype=np.float64, count=3 * self.m).reshape(-1, 3)
            self._columns = (e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2])
        return self._columns

    def weight(self, u: int, v: int) -> float:
        return self._weight[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._weight

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def min_weight(self) -> float:
        return min(w for _, _, w in self.edges) if self.edges else 1.0

    def rescaled(self) -> tuple["WeightedGraph", float]:
        """Scale weights so the minimum edge weight is exactly 1.

        Returns (scaled graph, scale factor s) with w' = s * w.
        """
        wmin = self.min_weight()
        s = 1.0 / wmin
        g = WeightedGraph(self.n, [(u, v, w * s) for u, v, w in self.edges])
        return g, s


def validate_graph(n: int, edges: list[tuple[int, int, float]]) -> WeightedGraph:
    if n < 1:
        raise GraphFormatError("graph has no vertices")
    seen: set[tuple[int, int]] = set()
    norm: list[tuple[int, int, float]] = []
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedLineError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise MalformedLineError(f"self-loop at vertex {u}")
        if not 0 < w < math.inf:  # nan fails too
            raise NonpositiveWeightError(
                f"edge ({u}, {v}) has weight {w}; weights must be finite and positive"
            )
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        norm.append((a, b, float(w)))
    if norm:
        wmin, wmax = min(w for *_, w in norm), max(w for *_, w in norm)
        if not wmax / wmin < math.inf:
            raise WeightRangeError(
                f"weight ratio {wmax!r} / {wmin!r} overflows; the largest weight "
                "divided by the smallest must be finite"
            )
    g = WeightedGraph(n, norm)
    if not _connected(g):
        raise DisconnectedGraphError("graph is not connected")
    return g


def _connected(g: WeightedGraph) -> bool:
    return csgraph.connected_components(graph_csr(g), directed=False)[0] == 1


def load_graph(path: str) -> WeightedGraph:
    """Read the text format: header ``n m``, then m lines ``u v w``.

    Blank lines and ``#`` comments are skipped.
    """
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append(line.split())
    if not rows:
        raise MalformedLineError("empty graph file")
    if len(rows[0]) != 2:
        raise MalformedLineError(f"bad header: {' '.join(rows[0])!r}")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except ValueError as exc:
        raise MalformedLineError(f"bad header: {' '.join(rows[0])!r}") from exc
    if n < 0:
        raise MalformedLineError(f"bad header: {' '.join(rows[0])!r} has a negative vertex count")
    if len(rows) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges: list[tuple[int, int, float]] = []
    for parts in rows[1:]:
        if len(parts) != 3:
            raise MalformedLineError(f"bad edge line: {' '.join(parts)!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise MalformedLineError(f"bad edge line: {' '.join(parts)!r}") from exc
        edges.append((u, v, w))
    return validate_graph(n, edges)


def save_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")


@dataclass
class ShortestPathTree:
    """Result of a single-source run: distances plus deterministic parents.

    ``reached`` is the vertex of ``stop`` the run ended at, or None.
    """

    source: int
    dist: list[float]
    parent: list[int]
    reached: Optional[int] = None

    def path_to(self, v: int) -> list[int]:
        """Vertex sequence source..v; raises if v is unreachable."""
        if self.dist[v] == INF:
            raise ValueError(f"vertex {v} not reached from {self.source}")
        out = [v]
        while out[-1] != self.source:
            out.append(self.parent[out[-1]])
        out.reverse()
        return out


def dijkstra(
    g: WeightedGraph,
    source: int,
    restrict: Optional[Iterable[int]] = None,
    cutoff: float = INF,
    stop: Optional[Container[int]] = None,
    paths: Iterable[Sequence[int]] = (),
) -> ShortestPathTree:
    """Single-source shortest paths with deterministic tie-breaking.

    When two paths to v tie in length (within tolerance), the parent with the
    smaller vertex id wins. ``restrict`` limits the search to the subgraph
    induced by a vertex subset; the edges of ``paths`` are usable besides it,
    so a path vertex outside ``restrict`` is entered and left only along its
    path. The source must lie in ``restrict`` or on one of ``paths``. The run
    ends at the first vertex of ``stop`` it settles, stored as ``reached``;
    vertices farther than ``cutoff`` are not expanded.
    """
    allowed = None if restrict is None else (restrict if isinstance(restrict, (set, frozenset)) else set(restrict))
    extra: dict[int, list[tuple[int, float, int]]] = {}
    for path in paths:
        for v in path:
            extra.setdefault(v, [])
        for a, b in zip(path, path[1:]):
            w = g.weight(a, b)
            extra[a].append((b, w, -1))
            extra[b].append((a, w, -1))
    if allowed is not None and source not in allowed and source not in extra:
        raise ValueError("source outside restriction set")
    dist = [INF] * g.n
    parent = [-1] * g.n
    dist[source] = 0.0
    done = [False] * g.n
    reached = None
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u] + TOL:
            continue
        done[u] = True
        if stop is not None and u in stop:
            reached = u
            break
        if d > cutoff + TOL:
            # every vertex still queued lies beyond the cutoff too
            break
        nbrs = g.adj[u]
        if extra:
            # a path vertex outside restrict has only its path edges
            nbrs = (nbrs if allowed is None or u in allowed else []) + extra.get(u, [])
        for v, w, k in nbrs:
            # path edges (id -1) may leave restrict
            if allowed is not None and v not in allowed and k >= 0:
                continue
            nd = d + w
            if nd < dist[v] - TOL:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd <= dist[v] + TOL and not done[v] and u < parent[v]:
                parent[v] = u
    return ShortestPathTree(source, dist, parent, reached)


def graph_csr(g: WeightedGraph) -> csr_matrix:
    """g's weights as a symmetric n x n CSR matrix, one entry per orientation
    of each edge."""
    if not g.edges:
        return csr_matrix((g.n, g.n))
    u, v, w = g.edge_columns()
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(g.n, g.n),
    )


def _positions(idx: np.ndarray, verts) -> np.ndarray:
    """Positions of ``verts`` in the sorted vertex array ``idx``."""
    verts = np.asarray(verts, dtype=np.int64)
    pos = np.minimum(idx.searchsorted(verts), len(idx) - 1)
    if (idx[pos] != verts).any():
        raise ValueError("vertex outside the cluster")
    return pos


def _position(idx: np.ndarray, v: int) -> int:
    """Position of the vertex v in the sorted vertex array ``idx``."""
    pos = int(idx.searchsorted(v))
    if pos == len(idx) or idx[pos] != v:
        raise ValueError("vertex outside the cluster")
    return pos


@dataclass
class ClusterTree:
    """A shortest-path tree of G[members] from one source, read off the
    cluster's distance block. ``idx`` holds the sorted members, and ``dist``
    and ``parent`` are indexed by position in it; ``parent`` is -1 at the
    source and at unreached vertices."""

    source: int
    idx: np.ndarray
    dist: np.ndarray
    parent: np.ndarray

    def path_to(self, v: int) -> list[int]:
        """Vertex sequence source..v; raises if v is unreachable."""
        pos = _position(self.idx, v)
        if self.dist[pos] == INF:
            raise ValueError(f"vertex {v} not reached from {self.source}")
        parent = self.parent
        out = [pos]
        while parent[out[-1]] >= 0:
            out.append(int(parent[out[-1]]))
        return self.idx[out[::-1]].tolist()

    def nearest(self, targets) -> Optional[int]:
        """The reached vertex of ``targets`` (members) with the smallest
        (distance, id), the one a search that stops at ``targets`` settles
        first; None when none is reached."""
        if not targets:
            return None
        t = np.asarray(sorted(targets), dtype=np.int64)
        dt = self.dist[_positions(self.idx, t)]
        k = int(np.argmin(dt))  # the first of equal minima has the smallest id
        return None if dt[k] == INF else int(t[k])


class ClusterDistances:
    """Distances, shortest-path trees and paths inside induced subgraphs
    G[members], and what the checks read off them.

    One instance serves one construction: the sigma hierarchies rebuild the
    same clusters, and strong diameters, pair assignment, the path systems,
    their checks and the pair-bound check all search the same clusters from
    the same sources. Blocks, trees, paths and anchor maps are memoized by
    the frozen member set, so no hierarchy or copy repeats a search another
    has made; a path check's shortcut is a read of the block. Distances come
    from one csgraph call per distinct member set: the |C| x |C| block of
    G[C], rows and columns in sorted member order. ``full`` (the all-pairs
    matrix of g, optional) is the block of the clusters that span the whole
    graph. Trees are read off the blocks.
    """

    def __init__(self, g: WeightedGraph, full: Optional[np.ndarray] = None) -> None:
        self.g = g
        self.full = full
        self.csr = graph_csr(g)
        self._blocks: dict[frozenset[int], tuple[np.ndarray, np.ndarray]] = {}
        self._arcs: dict[frozenset[int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._trees: dict[tuple[frozenset[int], int], ClusterTree] = {}
        self._paths: dict[tuple, list[int]] = {}
        self._anchors: dict[tuple, dict[int, int]] = {}

    def _block(self, members: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
        """(sorted members, all-pairs distances of G[members])."""
        hit = self._blocks.get(members)
        if hit is None:
            if self.full is not None and len(members) == self.g.n:
                idx, block = np.arange(self.g.n), self.full
            else:
                idx = np.sort(np.fromiter(members, dtype=np.int64, count=len(members)))
                block = csgraph.dijkstra(self.csr[idx][:, idx], directed=True)
            hit = self._blocks[members] = (idx, block)
        return hit

    def tree(self, members: frozenset[int], source: int) -> ClusterTree:
        """The tree of ``dijkstra(g, source, restrict=members)``: the parent
        of v is its smallest-id neighbour u in ``members`` with
        d(u) + w(u, v) <= d(v) + TOL and d(u) < d(v), distances from the
        block. Derived once per (members, source). Raises WeightRangeError
        when a reached vertex other than the source has no such neighbour,
        which happens only when the weight ratio is so wide that d(u) + w
        rounds to d(u)."""
        hit = self._trees.get((members, source))
        if hit is not None:
            return hit
        idx, block = self._block(members)
        arcs = self._arcs.get(members)
        if arcs is None:
            # (head, tail, weight) of each arc of G[members], over member
            # positions, sorted by head and then tail
            sub = self.csr[idx][:, idx]
            sub.sort_indices()
            heads = np.repeat(np.arange(len(idx), dtype=np.int32), np.diff(sub.indptr))
            arcs = self._arcs[members] = (heads, sub.indices, sub.data)
        heads, tails, w = arcs
        s = _position(idx, source)
        dist = block[s]
        # a parent is strictly closer, so the parents cannot form a cycle
        # when a sum rounds away a light edge
        ok = (dist[tails] + w <= dist[heads] + TOL) & (dist[tails] < dist[heads])
        h, t = heads[ok], tails[ok]
        # each head's first ok arc has the smallest-id tail
        first = np.ones(len(h), dtype=bool)
        first[1:] = h[1:] != h[:-1]
        parent = np.full(len(idx), -1, dtype=np.int32)
        parent[h[first]] = t[first]
        parent[dist == INF] = -1
        orphan = (parent == -1) & (dist < INF)
        orphan[s] = False
        if orphan.any():
            _, _, weights = self.g.edge_columns()
            raise WeightRangeError(
                f"weight ratio {weights.max() / weights.min():.6g} is too wide: "
                "a vertex is no closer to the source than its neighbours, "
                "as a sum of weights rounds a light edge away"
            )
        tree = self._trees[(members, source)] = ClusterTree(source, idx, dist, parent)
        return tree

    def path(self, members: frozenset[int], source: int, target) -> list[int]:
        """Shortest path inside G[members] from ``source`` to ``target``, as
        ``dijkstra(g, source, restrict=members)`` finds it; memoized.

        A tuple ``target`` lists candidate ends: the path ends at its member
        with the smallest (distance, id), the one a search that stops at the
        tuple settles first. A search over G[members] union a path that
        stops at that path's vertices ends there too, having walked no path
        edge. Raises ValueError when no end is reached.
        """
        key = (members, source, target)
        hit = self._paths.get(key)
        if hit is None:
            tree = self.tree(members, source)
            end = target
            if isinstance(target, tuple):
                end = tree.nearest(members.intersection(target))
            if end is None:
                raise ValueError(f"no target reachable from {source} inside the cluster")
            hit = self._paths[key] = tree.path_to(end)
        return hit

    def shortcut(self, members: frozenset[int], verts: Sequence[int], along: np.ndarray) -> float:
        """The most by which a walk inside G[members] undercuts a path
        between two of its vertices: the max over pairs a, b of ``verts``
        of (along[b] - along[a]) - d(a, b), with d the distance in
        G[members]. ``verts`` are the path's vertices in ``members``, in
        path order, and ``along`` their distances along it
        from its start. 0 when fewer than two vertices are given.

        The path is shortest in G[members] union itself when this is at
        most TOL. A walk there is made of path edges and of excursions
        inside G[members] between path vertices in ``members``: a path
        edge costs exactly the change in ``along`` it makes, and an
        excursion costs at least that change less the shortcut. So no walk
        between the path's ends is shorter than the path by more than TOL
        per excursion, and a heap search over G[members] union the path,
        which ignores a gain of at most TOL at each relaxation, can detect
        no more than that either.
        """
        if len(verts) < 2:
            return 0.0
        d = self.distances(members, verts, verts)
        return float((along[None, :] - along[:, None] - d).max())

    def anchors(self, members: frozenset[int], path: Sequence[int]) -> dict[int, int]:
        """The nearest vertex of ``path`` inside ``members`` (ties: smaller
        id) for every other member that reaches one, by distance in
        G[members]; memoized.

        This is the nearest in G[members] union ``path`` too: a walk from an
        off-path member first meets the path at a path vertex in
        ``members``, which is no farther than where the walk ends.
        """
        key = (members, tuple(path))
        hit = self._anchors.get(key)
        if hit is None:
            idx, block = self._block(members)
            on = np.isin(idx, path)
            d = block[on][:, ~on]
            hit = self._anchors[key] = {}
            if len(d):
                k = d.argmin(axis=0)  # the first of equal minima has the smallest id
                ok = d[k, np.arange(len(k))] < INF
                hit.update(zip(idx[~on][ok].tolist(), idx[on][k[ok]].tolist()))
        return hit

    def distances(self, members: frozenset[int], sources, targets) -> np.ndarray:
        """Distances inside G[members], one row per source and one column
        per target; raises ValueError for a vertex outside ``members``."""
        idx, block = self._block(members)
        return block[_positions(idx, sources)[:, None], _positions(idx, targets)]

    def diameter(self, members: frozenset[int]) -> float:
        """Max pairwise distance inside G[members] (inf if disconnected)."""
        if len(members) <= 1:
            return 0.0
        return float(self._block(members)[1].max())


def shortest_path(
    g: WeightedGraph, u: int, v: int, restrict: Optional[Iterable[int]] = None
) -> tuple[list[int], float]:
    spt = dijkstra(g, u, restrict=restrict)
    return spt.path_to(v), spt.dist[v]


def apsp(g: WeightedGraph, cap: Optional[int] = None) -> np.ndarray:
    """All-pairs distance matrix, one csgraph call over g's CSR.

    Refuses graphs above ``cap`` (default ``DEFAULT_APSP_CAP``).
    """
    if cap is None:
        cap = DEFAULT_APSP_CAP
    if g.n > cap:
        raise ValueError(f"graph has {g.n} vertices, above the all-pairs cap {cap}")
    return csgraph.dijkstra(graph_csr(g), directed=True)


def root_tree(
    n: int, edges: Iterable[tuple[int, int, float]], root: int
) -> tuple[list[int], list[int], list[float]]:
    """Root the tree of (u, v, w) triples over 0 .. n - 1 at ``root``.

    Returns (order, parent, wd): a preorder that visits each vertex's
    children in (weight, vertex id) order, each vertex's parent (-1 at the
    root), and wd[v], the edge weights from the root down to v summed in
    that order. Every caller that roots a tree uses this one walk. Raises
    AssertionError when the edges do not reach every vertex.
    """
    adj: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((w, v))
        adj[v].append((w, u))
    order: list[int] = []
    parent = [-1] * n
    wd = [0.0] * n
    seen = [False] * n
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        base = wd[u]
        nbrs = adj[u]
        nbrs.sort(reverse=True)  # the stack pops the lightest child first
        for w, v in nbrs:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                wd[v] = base + w
                stack.append(v)
    assert len(order) == n, (
        f"tree does not span: its edges reach {len(order)} of {n} vertices"
    )
    return order, parent, wd


class _DSU:
    def __init__(self, n: int) -> None:
        self.p = list(range(n))

    def find(self, x: int) -> int:
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[rb] = ra
        return True


def mst_weight(g: WeightedGraph) -> float:
    """Total weight of a minimum spanning tree (Kruskal, ties by edge id)."""
    dsu = _DSU(g.n)
    total = 0.0
    for k in sorted(range(g.m), key=lambda k: (g.edges[k][2], k)):
        u, v, w = g.edges[k]
        if dsu.union(u, v):
            total += w
    return total


def greedy_spanner(g: WeightedGraph, epsilon: float) -> WeightedGraph:
    """Greedy (1+epsilon)-spanner: scan edges by weight, keep an edge only
    if the spanner built so far does not already give stretch 1+epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    order = sorted(range(g.m), key=lambda k: (g.edges[k][2], k))
    sp = WeightedGraph(g.n, [])
    kept: list[tuple[int, int, float]] = []
    for k in order:
        u, v, w = g.edges[k]
        bound = (1.0 + epsilon) * w
        if dijkstra(sp, u, cutoff=bound, stop={v}).dist[v] <= bound + TOL:
            continue
        sp.adj[u].append((v, w, len(kept)))
        sp.adj[v].append((u, w, len(kept)))
        kept.append((u, v, w))
    kept.sort(key=lambda e: (e[0], e[1]))
    return WeightedGraph(g.n, kept)


def greedy_net(
    g: WeightedGraph,
    candidates: Sequence[int],
    base: Sequence[int],
    t: float,
    dist: Optional[np.ndarray] = None,
) -> list[int]:
    """Extend ``base`` to a t-net greedily over ``candidates`` in id order.

    A candidate joins iff its graph distance to every current member exceeds t.
    Returns the full member list (base followed by additions). Distances are
    rows of ``dist``, g's all-pairs matrix, computed when not given.
    """
    d = dist if dist is not None else apsp(g)
    members = list(base)
    dmin = d[members].min(axis=0) if members else np.full(g.n, INF)
    for c in sorted(candidates):
        if gt(dmin[c], t):
            members.append(c)
            np.minimum(dmin, d[c], out=dmin)
    return members


GENERATOR_KINDS = ("path", "uniform_line", "grid", "star_exponential", "random_geometric")


def generate(kind: str, params: dict, seed: int = 0) -> WeightedGraph:
    """Named test-instance families, deterministic in (params, seed). The
    size, ``n`` or the grid side ``k``, must be at least 1."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    size = int(params["k" if kind == "grid" else "n"])
    if size < 1:
        raise ValueError(f"{kind} size {size} is below 1")
    if kind in ("path", "uniform_line"):
        return WeightedGraph(size, [(i, i + 1, 1.0) for i in range(size - 1)])
    if kind == "grid":
        k = size
        edges = []
        for r in range(k):
            for c in range(k):
                u = r * k + c
                if c + 1 < k:
                    edges.append((u, u + 1, 1.0))
                if r + 1 < k:
                    edges.append((u, u + k, 1.0))
        return WeightedGraph(k * k, edges)
    if kind == "star_exponential":
        if size > 1025:
            raise ValueError(
                f"star_exponential size {size}: the weight 2^{size - 2} overflows a float"
            )
        return WeightedGraph(size, [(0, i, float(2 ** (i - 1))) for i in range(1, size)])
    return _random_geometric(
        size,
        int(params.get("dim", 2)),
        params.get("radius"),
        seed,
    )


def _random_geometric(
    n: int, dim: int, radius: Optional[float], seed: int
) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    r = radius if radius is not None else 1.8 * (math.log(max(n, 2)) / n) ** (1.0 / dim)
    for _ in range(200):
        pts = rng.random((n, dim))
        edges = []
        for i in range(n):
            d = np.sqrt(((pts[i + 1 :] - pts[i]) ** 2).sum(axis=1))
            for off in np.nonzero(d <= r)[0]:
                edges.append((i, i + 1 + int(off), float(d[off])))
        g = WeightedGraph(n, edges)
        if _connected(g):
            return g
        r *= 1.2
    raise RuntimeError("could not draw a connected geometric graph")

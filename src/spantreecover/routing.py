"""Fixed-port labeled routing over a spanning tree cover.

The scheme has two halves. Per tree, a DFS-interval router whose tables keep
only a bounded window of children and siblings; recovery headers (a single
port number) let a route backtrack through early children when the target
child fell outside the window. Across trees, per-vertex selection labels over
compressed cluster hierarchies identify, from the two endpoint labels alone,
a tree that approximately preserves the pair's distance.

Both halves are built in time linear in the output. A tree's routing state is
its DFS as flat per-vertex lists, read off the tree's rooted form in the
cover's oracle stack (its preorder, stamps, parents and root-path sums), with
all children in stamp order in one list; a vertex's table is read from these
lists, its children and sibling windows being two index ranges into the
children list. Each simulated route is checked against the tree distance
that the tree's oracle view reports.

Hierarchy copies share their base partition and differ only in their pair
assignments, so the compressed subhierarchy of each (base hierarchy, top
level) is built once as a template, whose one preorder walk gives the leaf
stamps, intervals, depths, heavy children and every vertex's apex list. A
label holds, per template, the vertex's leaf stamp and its apex list, each
record once; a record points to its node's table of the pairs that the
template's copies assign there, keyed by the unordered child pair and giving
the copy's subhierarchy index. Selection therefore finds the lowest common
cluster once per template and answers with one lookup, so its cost depends
on the template count, not on the tree count. No two copies of a template
assign one pair at one node, so a lookup finds at most one subhierarchy, and
the smallest index found over the templates is the first subhierarchy that
qualifies. Labels list the templates in order of their first subhierarchy,
whose index they store, so the scan stops at the first template that cannot
hold a smaller index. Records, apex lists and pair tables are shared between
labels and read-only. A tree's (copy, top level) comes from its provenance,
so the subhierarchy index is the tree index, and a copy adds only its pairs
to its template's tables: no copy's subhierarchy is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphs import TOL, WeightedGraph, greedy_spanner, leq
from .oracle import TreeOracle


class RoutingError(AssertionError):
    pass


class SelectionError(KeyError):
    """No subhierarchy satisfies the selection condition for the pair."""


def word_bits(n: int) -> int:
    """Fixed field width: every stored integer fits in ceil(2 log2 n) bits."""
    return max(1, math.ceil(2.0 * math.log2(max(n, 2))))


# ---------------------------------------------------------------------------
# ports


@dataclass
class PortAssignment:
    ports: dict[tuple[int, int], int]  # directed (u, v) -> port at u
    by_port: dict[tuple[int, int], int]  # (u, port) -> v
    bits: int


def assign_ports(g: WeightedGraph, seed: int = 42) -> PortAssignment:
    """Adversarial-stand-in port numbers: random, distinct per vertex,
    deterministic in the seed, each fitting in the fixed word width."""
    bits = word_bits(g.n)
    rng = np.random.default_rng(seed)
    ports: dict[tuple[int, int], int] = {}
    by_port: dict[tuple[int, int], int] = {}
    for u in range(g.n):
        nbrs = sorted({v for v, _, _ in g.adj[u]})
        if not nbrs:
            continue
        values = rng.choice(2**bits, size=len(nbrs), replace=False)
        for v, p in zip(nbrs, values):
            ports[(u, v)] = int(p)
            by_port[(u, int(p))] = v
    return PortAssignment(ports, by_port, bits)


# ---------------------------------------------------------------------------
# per-tree interval routing


def measure_alpha(spanner: WeightedGraph) -> int:
    """Largest number of edges at one vertex whose weights fit in a common
    factor-2 window, computed exactly by a sliding window per vertex."""
    alpha = 1
    for u in range(spanner.n):
        ws = sorted(w for _, w, _ in spanner.adj[u])
        j = 0
        for i in range(len(ws)):
            while j < len(ws) and ws[j] <= 2.0 * ws[i] + TOL:
                j += 1
            alpha = max(alpha, j - i)
    return alpha


def routing_beta(alpha: int, epsilon: float) -> int:
    return 2 * max(1, math.ceil(math.log2(1.0 / epsilon))) * alpha


@dataclass(slots=True)
class TreeRoutingState:
    """One tree's DFS as flat per-vertex lists, from which every table is
    read: a vertex's own interval ``(tstamp, hi)``, its port toward its
    parent, its parent's interval, and two windows of at most beta entries
    of ``kids``, which lists each vertex's children in stamp order. ``tree``
    is the tree's view of the oracle stack that the lists were read from."""

    tree: TreeOracle
    beta: int
    tstamp: list[int]
    hi: list[int]  # largest stamp in the subtree
    parent: list[int]  # -1 at the root
    up_port: list[int]  # port toward the parent, -1 at the root
    kids: list[int]  # children of u are kids[kid_start[u] : kid_start[u + 1]]
    kid_start: list[int]
    kid_port: list[int]  # the parent's port toward kids[i]
    pos: list[int]  # index of u in kids, -1 at the root

    def children_window(self, u: int) -> range:
        """Indices into ``kids`` of u's first beta children."""
        a = self.kid_start[u]
        return range(a, min(a + self.beta, self.kid_start[u + 1]))

    def sibling_window(self, u: int) -> range:
        """Indices into ``kids`` of the next beta siblings after u."""
        p = self.parent[u]
        if p == -1:
            return range(0)
        a = self.pos[u] + 1
        return range(a, min(a + self.beta, self.kid_start[p + 1]))


def build_tree_routing(
    tree: TreeOracle, ports: PortAssignment, beta: int
) -> TreeRoutingState:
    """DFS-interval routing state for one cover tree, read from the tree's
    rooted form in the oracle stack (``graphs.root_tree``'s walk, minimum-
    weight edge first), in time linear in n plus one sort of the children
    by parent."""
    index, t = tree._index, tree._t
    tstamp = index.first[:, t].tolist()
    parent = index.parent[t].tolist()
    n = len(parent)
    preorder = index.order[t].tolist()

    # subtree intervals: max descendant timestamp, children before parents
    hi = tstamp[:]
    for u in reversed(preorder):
        p = parent[u]
        if p != -1 and hi[u] > hi[p]:
            hi[p] = hi[u]

    # children grouped by parent; the sort is stable, so each group keeps
    # stamp order
    kids = sorted(preorder[1:], key=parent.__getitem__)
    kid_start = [0] * (n + 1)
    pos = [-1] * n
    # root-path weight of the last child seen under each vertex: child
    # (stamp) order must agree with nondecreasing edge weight, and siblings
    # add their edge weights to the same parent sum
    wd = index.wdepth[:, t].tolist()
    last_wd = [-math.inf] * n
    for i, c in enumerate(kids):
        p = parent[c]
        assert leq(last_wd[p], wd[c]), f"child weights out of order at vertex {p}"
        last_wd[p] = wd[c]
        pos[c] = i
        kid_start[p + 1] = i + 1
    for u in range(n):
        kid_start[u + 1] = max(kid_start[u + 1], kid_start[u])
    port = ports.ports
    kid_port = [port[(parent[c], c)] for c in kids]
    up_port = [port[(u, p)] if p != -1 else -1 for u, p in enumerate(parent)]
    return TreeRoutingState(
        tree, beta, tstamp, hi, parent, up_port, kids, kid_start, kid_port, pos
    )


def routing_decision(
    state: TreeRoutingState, u: int, dest_t: int, header: Optional[int]
) -> tuple[str, Optional[int], Optional[int]]:
    """One routing step at u: ("done", None, None) or ("forward", port,
    header), reading only u's table.

    Headers carry at most one port: emitted when the target hides behind a
    sibling window (so the parent can shortcut on arrival), consumed the
    moment the destination falls back inside the current subtree.
    """
    tstamp, hi = state.tstamp, state.hi
    a = tstamp[u]
    if dest_t == a:
        return ("done", None, None)
    if a <= dest_t <= hi[u]:
        kids = state.kids
        window = state.children_window(u)
        for i in window:
            c = kids[i]
            if tstamp[c] <= dest_t <= hi[c]:
                return ("forward", state.kid_port[i], None)
        if header is not None:
            return ("forward", header, None)
        if not window:
            raise RoutingError("destination inside a leaf interval")
        return ("forward", state.kid_port[window[0]], None)
    p = state.parent[u]
    if p == -1:
        raise RoutingError("destination outside the root interval")
    up = state.up_port[u]
    if not (tstamp[p] <= dest_t <= hi[p]):
        return ("forward", up, None)
    kids = state.kids
    window = state.sibling_window(u)
    for i in window:
        c = kids[i]
        if tstamp[c] <= dest_t <= hi[c]:
            return ("forward", up, state.kid_port[i])
    if dest_t < a or not window:
        # the target sits at or before the parent in DFS order, or no
        # sibling is stored; climbing with an empty header lets the parent
        # re-dispatch from the start
        return ("forward", up, None)
    return ("forward", up, state.kid_port[window[0]])


@dataclass
class RouteTrace:
    vertices: list[int]
    ports: list[int]
    weight: float
    hops: int
    done: bool


# ---------------------------------------------------------------------------
# tree selection labels


@dataclass(slots=True)
class SubNode:
    """One node of a compressed cluster hierarchy."""

    members: frozenset[int]
    children: list["SubNode"] = field(default_factory=list)
    leaf: Optional[int] = None
    tmin: int = -1
    tmax: int = -1
    depth: int = 0
    heavy: int = -1  # heavy child index, -1 when none


@dataclass(frozen=True, slots=True, eq=False)
class ApexRecord:
    """One light step of a template: the apex node, through child L1. The
    node's pairs over all copies of the template sit in ``pairs``, which
    every record of the node shares."""

    depth: int
    interval: tuple[int, int]
    child_of_x: int  # L1
    heavy_child: int  # L2, -1 when absent
    # L3: the node's copy pairs, unordered child pair -> (subhierarchy
    # index, the pair as assigned)
    pairs: dict[tuple[int, int], tuple[int, tuple[int, int]]]


@dataclass(slots=True)
class SelectionLabel:
    # per template: own leaf timestamp and the apex records, and the index
    # of the template's first subhierarchy; records, apex lists and ``first``
    # are shared between vertices, read-only
    stamps: list[int]
    apices: list[list[ApexRecord]]
    first: list[int]


class _Template:
    """The compressed subhierarchy of one (base hierarchy, top level) and
    the apex lists of its vertices, with every copy's pairs filed under
    the paired nodes.

    Copies share the base partition and differ only in their pairs, so the
    tree shape, stamps, depths, heavy children and each vertex's apex list
    are computed here once; ``instantiate`` adds one copy's pairs.
    """

    __slots__ = ("hier", "nodes", "index", "stamps", "apices", "pairs", "within")

    def __init__(self, hier, top_level: int, ell: int, n: int) -> None:
        """Keep every ell-th level below the given top, with single-child
        chains contracted away."""
        index: dict[tuple[int, int], SubNode] = {}

        def build(level: int, cid: int) -> SubNode:
            cluster = hier.clusters[cid]
            if len(cluster.members) == 1:
                (v,) = cluster.members
                return SubNode(cluster.members, leaf=v)
            isub = max(level - ell, 0)
            kid_ids = sorted({hier.cluster_at(v, isub) for v in cluster.members})
            kids = [build(isub, k) for k in kid_ids]
            if len(kids) == 1:
                return kids[0]
            node = SubNode(cluster.members, kids)
            index[(level, cid)] = node
            return node

        root = build(top_level, hier.levels[hier.i_max][0])

        # one preorder walk: internal nodes in preorder, each with its depth
        # and its heavy child (from member counts, known before the children
        # are visited); leaves stamped in visit order; per vertex, its leaf
        # stamp and the light steps (apex node, child index) from the root
        # down. A node's interval opens at the next stamp and closes when its
        # marker, a None trail, pops after its subtree.
        nodes: list[SubNode] = []
        num_leaves = 0
        stamps = [-1] * n
        trails: list[tuple[tuple[int, int], ...]] = [()] * n
        stack: list[tuple[SubNode, int, Optional[tuple]]] = [(root, 0, ())]
        while stack:
            node, depth, trail = stack.pop()
            if trail is None:
                node.tmax = num_leaves - 1
                continue
            node.depth, node.tmin = depth, num_leaves
            if node.leaf is not None:
                node.tmax = node.tmin
                stamps[node.leaf] = node.tmin
                num_leaves += 1
                trails[node.leaf] = trail
                continue
            k = len(nodes)
            nodes.append(node)
            size = len(node.members)
            node.heavy = next(
                (i for i, kid in enumerate(node.children) if 2 * len(kid.members) > size), -1
            )
            stack.append((node, depth, None))
            for i in range(len(node.children) - 1, -1, -1):
                step = trail if i == node.heavy else trail + ((k, i),)
                stack.append((node.children[i], depth + 1, step))
        for v in range(n):
            assert stamps[v] >= 0, f"vertex {v} missing from a subhierarchy"

        # one record per light step, shared by every vertex below it
        pairs: list[dict] = [{} for _ in nodes]
        records: dict[tuple[int, int], ApexRecord] = {}
        for k, i in set(itertools.chain.from_iterable(trails)):
            node = nodes[k]
            records[(k, i)] = ApexRecord(
                node.depth, (node.tmin, node.tmax), i, node.heavy, pairs[k]
            )

        at = {id(node): k for k, node in enumerate(nodes)}
        self.hier = hier
        self.nodes = nodes
        self.index = {key: at[id(node)] for key, node in index.items()}
        self.stamps = stamps
        self.apices = [[records[step] for step in trail] for trail in trails]
        self.pairs = pairs
        self.within: dict[tuple[int, int], int] = {}

    def child_within(self, k: int, sub: int) -> int:
        """Index of node k's child that lies inside subcluster ``sub``."""
        i = self.within.get((k, sub))
        if i is None:
            members = self.hier.clusters[sub].members
            kids = self.nodes[k].children
            i = next(j for j, kid in enumerate(kids) if kid.members <= members)
            self.within[(k, sub)] = i
        return i

    def instantiate(self, pairs: dict, idx: int) -> None:
        """Files each pair of the copy whose tree index is idx under its
        node."""
        for key, entry in pairs.items():
            k = self.index.get(key)
            if k is None:
                continue
            pair = (self.child_within(k, entry[0]), self.child_within(k, entry[1]))
            slot = (min(pair), max(pair))
            assert slot not in self.pairs[k], "two copies assign one pair at a node"
            self.pairs[k][slot] = (idx, pair)


def build_selection_labels(hpf, cover) -> list[SelectionLabel]:
    """Per-vertex leaf stamps and apex lists over every template. One
    template is built per (base hierarchy, top level), in order of first
    use in the cover's tree order, and each tree's copy, read from the
    tree's provenance, files its pairs in its template."""
    n = hpf.graph.n
    templates: dict[tuple[int, int], _Template] = {}
    first: list[int] = []
    for idx, tree in enumerate(cover.trees):
        c, level = tree.provenance
        copy = hpf.copies[c]
        tpl = templates.get((copy.base_index, level))
        if tpl is None:
            tpl = _Template(copy.base, level, hpf.ell, n)
            templates[(copy.base_index, level)] = tpl
            first.append(idx)
        tpl.instantiate(copy.pairs, idx)
    tpls = list(templates.values())
    return [
        SelectionLabel([t.stamps[v] for t in tpls], [t.apices[v] for t in tpls], first)
        for v in range(n)
    ]


def _deepest(recs: list[ApexRecord], lo: int, hi: int) -> Optional[ApexRecord]:
    """The deepest record whose interval holds both stamps lo <= hi. A list
    runs from the root down, so its intervals nest."""
    for r in reversed(recs):
        a, b = r.interval
        if a <= lo and hi <= b:
            return r
    return None


def template_choice(label_x: SelectionLabel, label_y: SelectionLabel, j: int) -> Optional[int]:
    """The index of template j's one subhierarchy whose lowest common
    cluster of the two leaves is assigned exactly their two child branches,
    or None. The lowest common cluster and the two branches are the same in
    every copy of a template, and no two copies assign one pair at one node,
    so this is one lookup."""
    tx, ty = label_x.stamps[j], label_y.stamps[j]
    lo, hi = (tx, ty) if tx < ty else (ty, tx)
    rx = _deepest(label_x.apices[j], lo, hi)
    ry = _deepest(label_y.apices[j], lo, hi)
    if rx is not None and (ry is None or rx.depth >= ry.depth):
        cx = rx.child_of_x
        cy = ry.child_of_x if ry is not None and ry.depth == rx.depth else rx.heavy_child
        pairs = rx.pairs
    elif ry is not None:
        cx, cy, pairs = ry.heavy_child, ry.child_of_x, ry.pairs
    else:
        return None
    hit = pairs.get((cx, cy) if cx < cy else (cy, cx))
    return None if hit is None else hit[0]


def select_tree(label_x: SelectionLabel, label_y: SelectionLabel) -> int:
    """First subhierarchy whose lowest common cluster of the two leaves is
    assigned exactly their two child branches; its index is the tree index.
    Templates come in order of their first subhierarchy, so the scan stops
    at the first template that cannot hold a smaller index."""
    if label_x.stamps == label_y.stamps:
        raise ValueError("degenerate query: identical labels")
    best = -1
    for j, first in enumerate(label_x.first):
        if 0 <= best < first:
            break
        idx = template_choice(label_x, label_y, j)
        if idx is not None and (best < 0 or idx < best):
            best = idx
    if best < 0:
        raise SelectionError("no subhierarchy preserves this pair")
    return best


# ---------------------------------------------------------------------------
# the full scheme


@dataclass
class RoutingScheme:
    graph: WeightedGraph
    spanner: WeightedGraph
    cover: object
    ports: PortAssignment
    states: list[TreeRoutingState]
    labels: list[SelectionLabel]
    epsilon: float
    alpha: int
    beta: int


def build_routing_scheme(g: WeightedGraph, config=None, seed: int = 42) -> RoutingScheme:
    """The scheme over a cover of g's greedy spanner; the spanner, the cover,
    beta and the route bound all use ``config``'s epsilon (a default
    ``CoverConfig()`` when none is given)."""
    from .cover import CoverConfig, span_tree_cover

    cfg = config if config is not None else CoverConfig()
    epsilon = cfg.epsilon
    spanner = greedy_spanner(g, epsilon)
    cover = span_tree_cover(spanner, cfg)
    ports = assign_ports(g, seed)
    alpha = measure_alpha(spanner)
    beta = routing_beta(alpha, epsilon)
    states = [build_tree_routing(t, ports, beta) for t in cover.tree_oracles(g)]
    labels = build_selection_labels(cover.hpf, cover)
    return RoutingScheme(
        g, spanner, cover, ports, states, labels, epsilon, alpha, beta
    )


def simulate_route(
    scheme: RoutingScheme, tree_idx: int, s: int, t: int
) -> RouteTrace:
    """Hop-by-hop simulation on one tree; each physical hop follows the
    chosen port. Successful routes are held to the (1 + eps) tree bound."""
    state = scheme.states[tree_idx]
    g = scheme.graph
    dest_t = state.tstamp[t]
    cur = s
    header: Optional[int] = None
    verts = [s]
    out_ports: list[int] = []
    weight = 0.0
    cap = 4 * g.n
    done = False
    for _ in range(cap):
        kind, port, header = routing_decision(state, cur, dest_t, header)
        if kind == "done":
            done = True
            break
        nxt = scheme.ports.by_port[(cur, port)]
        weight += g.weight(cur, nxt)
        out_ports.append(port)
        verts.append(nxt)
        cur = nxt
    trace = RouteTrace(verts, out_ports, weight, len(out_ports), done)
    if done:
        # the tree distance, independently of the walk
        dt = state.tree.dist(s, t)
        assert leq(weight, (1.0 + scheme.epsilon) * dt), (
            f"route weight {weight} exceeds (1+eps) * {dt}"
        )
    return trace


def route_end_to_end(
    scheme: RoutingScheme, s: int, t: int
) -> tuple[RouteTrace, int]:
    if s == t:
        return RouteTrace([s], [], 0.0, 0, True), 0
    idx = select_tree(scheme.labels[s], scheme.labels[t])
    return simulate_route(scheme, idx, s, t), idx


def measure_sizes(scheme: RoutingScheme) -> dict:
    """Exact bit accounting with fixed-width integer fields, counting what
    is stored."""
    w = word_bits(scheme.graph.n)
    num_trees = len(scheme.states)
    label_max = 0
    for lab in scheme.labels:
        # per tree: one timestamp; per template: the leaf timestamp and the
        # first subhierarchy index, then per apex record its depth,
        # interval, L1 and L2, and per copy pair at its node the
        # subhierarchy index and the two child indices
        words = num_trees + len(lab.stamps) + len(lab.first)
        for recs in lab.apices:
            words += sum(5 + 3 * len(r.pairs) for r in recs)
        label_max = max(label_max, words * w)
    # per tree and vertex: own interval, parent port and parent interval,
    # then interval and port of each child and sibling in the two windows
    window_entries = np.zeros(scheme.graph.n, dtype=np.int64)
    for state in scheme.states:
        start = np.asarray(state.kid_start)
        children = np.diff(start)
        # siblings after u: its parent's children past pos[u]; at the root,
        # parent -1 reads start[0] = 0 and pos -1 gives 0
        siblings = start[np.asarray(state.parent) + 1] - np.asarray(state.pos) - 1
        window_entries += np.minimum(children, state.beta)
        window_entries += np.minimum(siblings, state.beta)
    table_max = int(5 * w * num_trees + 3 * w * window_entries.max(initial=0))
    limit = 2**w
    for (u, _), p in scheme.ports.ports.items():
        assert 0 <= p < limit
    for state in scheme.states:
        assert all(0 <= t < limit for t in state.tstamp)
    return {
        "alpha": scheme.alpha,
        "beta": scheme.beta,
        "word_bits": w,
        "label_bits_max": label_max,
        "table_bits_max": table_max,
        "header_bits": w,
        "num_trees": num_trees,
    }

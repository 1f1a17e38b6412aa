"""Hierarchical partition families with strong diameter and padding.

Pipeline: a greedy net hierarchy, a small family of hierarchies of subnets,
then level-by-level cluster aggregation around the subnet points. The result
is a family of hierarchical partitions in which every ball of radius
mu^i / rho is padded inside some level-i cluster of some hierarchy, checked
empirically rather than via worst-case constants. A second pass augments the
family with per-cluster subcluster-pair assignments (materialized as
hierarchy copies) so that demanded vertex pairs are preserved.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import (
    TOL,
    ClusterDistances,
    WeightedGraph,
    apsp,
    greedy_net,
    gt,
    leq,
)


@dataclass
class NetHierarchy:
    """Nested greedy nets N_0 .. N_L with N_0 = V and |N_L| = 1."""

    levels: list[list[int]]
    delta: list[float]
    mu: float
    eta: float


@dataclass
class SubnetFamily:
    """sigma hierarchies of subnets; subnets[j][i] is level i of hierarchy j."""

    sigma: int
    subnets: list[list[list[int]]]
    mu: float


@dataclass
class Cluster:
    id: int
    level: int
    members: frozenset[int]
    portal: int
    representative: int
    parent: Optional[int] = None
    children: list[int] = field(default_factory=list)
    diameter: float = 0.0  # measured strong diameter inside G[members]


@dataclass
class Hierarchy:
    """One hierarchical partition: level 0 singletons up to a single cluster."""

    clusters: dict[int, Cluster]
    levels: list[list[int]]  # cluster ids per level
    vmap: list[list[int]]  # per level, vertex -> cluster id
    i_max: int

    def cluster_at(self, v: int, level: int) -> int:
        """Cluster id containing v; levels above the top clamp to the top."""
        return self.vmap[min(level, self.i_max)][v]

    def level_clusters(self, level: int) -> list[int]:
        return self.levels[min(level, self.i_max)]


@dataclass
class PairRecord:
    """One demanded vertex pair and where it was preserved."""

    u: int
    v: int
    hierarchy: int
    copy: int
    level: int
    cluster: int
    sub1: int
    sub2: int
    rho_eff: float
    d_in_cluster: float


@dataclass(eq=False)
class PairRecords(SequenceABC):
    """The demanded pairs' records as numpy columns, one per ``PairRecord``
    field, in (u, v) order. Reading an entry makes its ``PairRecord``; a
    slice is a list of them."""

    u: np.ndarray
    v: np.ndarray
    hierarchy: np.ndarray
    copy: np.ndarray
    level: np.ndarray
    cluster: np.ndarray
    sub1: np.ndarray
    sub2: np.ndarray
    rho_eff: np.ndarray
    d_in_cluster: np.ndarray

    @classmethod
    def empty(cls) -> "PairRecords":
        return cls(*[np.empty(0, dtype=np.int64)] * 8, np.empty(0), np.empty(0))

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return PairRecord(*(c[k].item() for c in self._columns()))

    def __iter__(self):
        # a block of rows at a time, so that no column is held as a list
        cols = self._columns()
        for lo in range(0, len(self), 4096):
            for row in zip(*(c[lo : lo + 4096].tolist() for c in cols)):
                yield PairRecord(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class HierarchyCopy:
    """A hierarchy copy: shares the base partition, owns pair assignments.

    ``pairs`` maps (level, cluster id) to (subcluster id, subcluster id,
    effective separation rho). Levels above base.i_max address the top
    cluster at virtual whole-graph levels.
    """

    base_index: int
    base: Hierarchy
    copy_index: int
    pairs: dict[tuple[int, int], tuple[int, int, float]]


@dataclass
class HPFamily:
    graph: WeightedGraph
    hierarchies: list[Hierarchy]
    mu: float
    rho: float
    eta: float
    nets: NetHierarchy
    subnets: SubnetFamily
    dist: np.ndarray = field(repr=False, default=None)
    epsilon: Optional[float] = None
    ell: Optional[int] = None
    copies: list[HierarchyCopy] = field(default_factory=list)
    pair_records: PairRecords = field(default_factory=PairRecords.empty)
    unresolved_pairs: list[tuple[int, int]] = field(default_factory=list)
    diameter_violations: list[tuple[int, int]] = field(default_factory=list)

    @property
    def i_top(self) -> int:
        return max(h.i_max for h in self.hierarchies)

    def top_tree_levels(self, hierarchy_index: int) -> list[int]:
        """Levels at which top-level trees are rooted: one per residue mod ell."""
        ell = self.ell or 1
        im = self.hierarchies[hierarchy_index].i_max
        return list(range(im, im + ell))


def offset_ell(mu: float, epsilon: float) -> int:
    """ceil(log_mu(1/epsilon)), at least 1."""
    return max(1, math.ceil(math.log(1.0 / epsilon) / math.log(mu) - 1e-12))


def build_net_hierarchy(
    g: WeightedGraph, mu: float, eta: float, dist: Optional[np.ndarray] = None
) -> NetHierarchy:
    """Greedy nets N_0 = V, N_i a (mu^i / 6 eta)-net of N_{i-1}, up to one
    point, over ``dist`` (g's all-pairs matrix, computed when not given)."""
    if mu < 2 or eta < 1:
        raise ValueError("need mu >= 2 and eta >= 1")
    d = dist if dist is not None else apsp(g)
    levels = [sorted(range(g.n))]
    delta = [0.0]
    i = 0
    while len(levels[-1]) > 1:
        i += 1
        t = mu**i / (6.0 * eta)
        levels.append(greedy_net(g, levels[-1], [], t, d))
        delta.append(t)
    return NetHierarchy(levels, delta, mu, eta)


def build_subnet_family(
    g: WeightedGraph, nets: NetHierarchy, mu: float, dist: Optional[np.ndarray] = None
) -> SubnetFamily:
    """Split the net hierarchy into sigma hierarchical subnets (two passes).

    Pass 1 (top-down) distributes each net level into disjoint subsets that
    stay mu^i/3-separated, carrying parents down so subsets nest. Pass 2
    (bottom-up) completes each subset chain into genuine mu^i/3-nets.
    sigma comes from a packing pre-pass and placement is asserted.
    """
    d = dist if dist is not None else apsp(g)
    L = len(nets.levels) - 1
    sigma = 1
    for i in range(1, L + 1):
        r = mu**i / 3.0
        ni = nets.levels[i]
        # per net point, the net points q with leq(d[p, q], r)
        near = d[np.ix_(ni, ni)] <= r + TOL
        sigma = max(sigma, int(near.sum(1).max()))

    # pass 1: top point seeds subset 0 only, keeping the subsets disjoint
    tilde: list[list[list[int]]] = [[[] for _ in range(L + 1)] for _ in range(sigma)]
    tilde[0][L] = list(nets.levels[L])
    for i in range(L - 1, -1, -1):
        r = mu**i / 3.0
        carried: set[int] = set()
        for j in range(sigma):
            tilde[j][i] = list(tilde[j][i + 1])
            carried.update(tilde[j][i])
        for p in sorted(set(nets.levels[i]) - carried):
            placed = False
            for j in range(sigma):
                if all(gt(d[p, q], r) for q in tilde[j][i]):
                    tilde[j][i].append(p)
                    placed = True
                    break
            assert placed, f"sigma pre-pass bound {sigma} insufficient at level {i}"

    # pass 2: complete each chain into nets, bottom-up
    subnets: list[list[list[int]]] = [[[] for _ in range(L + 1)] for _ in range(sigma)]
    for j in range(sigma):
        subnets[j][0] = sorted(range(g.n))
        for i in range(1, L + 1):
            subnets[j][i] = sorted(
                greedy_net(g, subnets[j][i - 1], sorted(tilde[j][i]), mu**i / 3.0, d)
            )
    return SubnetFamily(sigma, subnets, mu)


def strong_diameter(g: WeightedGraph, members: frozenset[int]) -> float:
    """Max pairwise distance inside the induced subgraph (inf if disconnected)."""
    return ClusterDistances(g).diameter(members)


def cluster_aggregation(
    g: WeightedGraph,
    clusters: Sequence[frozenset[int]],
    portals: Sequence[int],
    diams: Optional[Sequence[float]] = None,
) -> list[int]:
    """Assign every input cluster to a portal, preimages staying connected.

    Dijkstra forest on the cluster-adjacency graph: arc cost into a cluster is
    the best connecting edge weight plus that cluster's internal diameter;
    clusters holding a portal are seeds at cost zero.
    """
    if not portals:
        raise ValueError("portal set empty")
    if diams is None:
        diams = [strong_diameter(g, c) for c in clusters]
    k = len(clusters)
    sizes = [len(c) for c in clusters]
    cof = np.full(g.n, -1, dtype=np.int64)
    cof[np.fromiter(itertools.chain.from_iterable(clusters), np.int64, sum(sizes))] = (
        np.repeat(np.arange(k), sizes)
    )
    # one arc per ordered cluster pair joined by an edge, at the minimum
    # crossing weight: sort both orientations by (from, to, weight) and keep
    # the first of each (from, to) run
    eu, ev, ew = g.edge_columns()
    a, b = cof[eu], cof[ev]
    cross = a != b
    src = np.concatenate([a[cross], b[cross]])
    dst = np.concatenate([b[cross], a[cross]])
    wt = np.concatenate([ew[cross], ew[cross]])
    order = np.lexsort((wt, dst, src))
    src, dst, wt = src[order], dst[order], wt[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[first], dst[first]
    arc_cost = (wt[first] + np.asarray(diams, dtype=np.float64)[dst]).tolist()
    bounds = np.searchsorted(src, np.arange(k + 1)).tolist()
    dst = dst.tolist()
    # each list sorted by target id, as the (from, to) order leaves it
    out_arcs = [
        list(zip(dst[lo:hi], arc_cost[lo:hi])) for lo, hi in zip(bounds, bounds[1:])
    ]

    # each cluster holding a portal seeds the forest with its smallest one
    seed = [-1] * k
    for p, idx in zip(portals, cof[np.asarray(portals, dtype=np.int64)].tolist()):
        if idx >= 0 and (seed[idx] < 0 or p < seed[idx]):
            seed[idx] = p
    label = [-1] * k
    # best[c] is the smallest (cost, portal) offered to cluster c so far: a
    # larger offer would never be popped first, so it is not pushed
    best: list[Optional[tuple[float, int]]] = [None] * k
    heap = []
    for idx, p in enumerate(seed):
        if p >= 0:
            best[idx] = (0.0, p)
            heap.append((0.0, p, idx))
    heapq.heapify(heap)
    while heap:
        cost, portal, idx = heapq.heappop(heap)
        if label[idx] != -1:
            continue
        label[idx] = portal
        for nb, w in out_arcs[idx]:
            if label[nb] == -1:
                offer = (cost + w, portal)
                if best[nb] is None or offer < best[nb]:
                    best[nb] = offer
                    heapq.heappush(heap, (offer[0], portal, nb))
    assert all(p != -1 for p in label), "aggregation left a cluster unreached"
    return label


def aggregation_distortion(
    g: WeightedGraph,
    clusters: Sequence[frozenset[int]],
    portals: Sequence[int],
    assignment: Sequence[int],
) -> float:
    """Measured additive distortion: how much farther the assigned portal is
    inside the merged preimage than the nearest portal is in G.
    """
    pre: dict[int, set[int]] = {}
    for idx, c in enumerate(clusters):
        pre.setdefault(assignment[idx], set()).update(c)
    near = apsp(g)[list(portals)].min(axis=0)
    dists = ClusterDistances(g)
    worst = 0.0
    for portal, verts in sorted(pre.items()):
        vs = sorted(verts)
        gap = dists.distances(frozenset(verts), [portal], vs)[0] - near[vs]
        worst = max(worst, float(gap.max()))
    return worst


def build_hpf(
    g: WeightedGraph,
    mu: float,
    rho: float,
    eta: float,
    dists: Optional[ClusterDistances] = None,
) -> HPFamily:
    """Build one hierarchy per subnet chain by repeated cluster aggregation.

    ``dists`` carries the all-pairs matrix (computed when not given) and
    memoizes the strong diameters of clusters that several hierarchies share.
    """
    if dists is None:
        dists = ClusterDistances(g, apsp(g))
    d = dists.full if dists.full is not None else apsp(g)
    nets = build_net_hierarchy(g, mu, eta, dist=d)
    subnets = build_subnet_family(g, nets, mu, dist=d)
    hierarchies = []
    diam_violations: list[tuple[int, int]] = []
    for j in range(subnets.sigma):
        hierarchies.append(
            _build_hierarchy(g, mu, subnets.subnets[j], j, diam_violations, dists, d)
        )
    return HPFamily(
        g,
        hierarchies,
        mu,
        rho,
        eta,
        nets,
        subnets,
        dist=d,
        diameter_violations=diam_violations,
    )


def _build_hierarchy(
    g: WeightedGraph,
    mu: float,
    subnet_levels: list[list[int]],
    j: int,
    diam_violations: list[tuple[int, int]],
    dists: ClusterDistances,
    dist: np.ndarray,
) -> Hierarchy:
    clusters: dict[int, Cluster] = {}
    next_id = 0
    level_ids: list[list[int]] = [[]]
    vmap: list[list[int]] = []
    for v in range(g.n):
        clusters[next_id] = Cluster(next_id, 0, frozenset([v]), v, v)
        level_ids[0].append(next_id)
        next_id += 1
    vmap.append(list(range(g.n)))

    L = len(subnet_levels) - 1
    i = 0
    while len(level_ids[i]) > 1:
        i += 1
        if i <= L:
            portals = subnet_levels[i]
        else:
            # net hierarchy exhausted before the partition reached one
            # cluster: keep coarsening with fresh mu^i/3-nets of the
            # previous portals
            portals = greedy_net(g, portals, [], mu**i / 3.0, dist)
        prev_ids = level_ids[i - 1]
        prev = [clusters[c].members for c in prev_ids]
        diams = [clusters[c].diameter for c in prev_ids]
        assignment = cluster_aggregation(g, prev, portals, diams=diams)
        groups: dict[int, list[int]] = {}
        for idx, portal in enumerate(assignment):
            groups.setdefault(portal, []).append(prev_ids[idx])
        ids_here: list[int] = []
        vm = [0] * g.n
        for portal in sorted(groups):
            members = frozenset().union(*(clusters[c].members for c in groups[portal]))
            cl = Cluster(
                next_id,
                i,
                members,
                portal,
                min(members),
                children=sorted(groups[portal]),
                diameter=dists.diameter(members),
            )
            if gt(cl.diameter, mu**i):
                diam_violations.append((j, next_id))
            clusters[next_id] = cl
            for c in groups[portal]:
                clusters[c].parent = next_id
            for v in members:
                vm[v] = next_id
            ids_here.append(next_id)
            next_id += 1
        level_ids.append(ids_here)
        vmap.append(vm)
    return Hierarchy(clusters, level_ids, vmap, i)


def verify_padding(
    hpf: HPFamily, rho: float, sample: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Return the sampled (vertex, level) pairs whose mu^i/rho ball is not
    padded inside any hierarchy's level-i cluster.
    """
    d = hpf.dist
    failures = []
    for v, i in sample:
        r = hpf.mu**i / rho
        ball = {u for u in range(d.shape[0]) if leq(d[v, u], r)}
        ok = False
        for h in hpf.hierarchies:
            if ball <= h.clusters[h.cluster_at(v, i)].members:
                ok = True
                break
        if not ok:
            failures.append((v, i))
    return failures


def set_separation(dist: np.ndarray, a: frozenset[int], b: frozenset[int]) -> float:
    ia = np.fromiter(a, dtype=np.int64, count=len(a))
    ib = np.fromiter(b, dtype=np.int64, count=len(b))
    return float(dist[np.ix_(ia, ib)].min())


def make_pair_preserving(
    hpf: HPFamily,
    epsilon: float,
    pairs: Optional[np.ndarray] = None,
    dists: Optional[ClusterDistances] = None,
) -> HPFamily:
    """Augment the family with subcluster-pair assignments via copies.

    Demand mode: each demanded (u, v), a row of the (P, 2) ``pairs``, is
    matched to the lowest level and first hierarchy whose cluster contains
    both, keeps their distance, and separates them into distinct
    subclusters ell levels down. Exhaustive mode (``pairs`` None)
    enumerates every well-separated subcluster pair of every cluster.
    One copy per distinct pair demanded of the busiest cluster; a copy
    serves every vertex pair that shares its subcluster pair.
    ``dists`` supplies (and keeps) the in-cluster distances.
    """
    ell = offset_ell(hpf.mu, epsilon)
    d = hpf.dist
    if dists is None:
        dists = ClusterDistances(hpf.graph, d)
    # per hierarchy: (level, cluster id) -> distinct subcluster pairs, in
    # order of first demand, each mapped to its copy slot
    demands: list[dict[tuple[int, int], dict[tuple[int, int, float], int]]] = [
        {} for _ in hpf.hierarchies
    ]
    records = PairRecords.empty()
    unresolved: list[tuple[int, int]] = []

    if pairs is None:
        for j, h in enumerate(hpf.hierarchies):
            for i in range(1, h.i_max + ell):
                isub = max(i - ell, 0)
                for cid in h.level_clusters(i):
                    subs = sorted(
                        {h.cluster_at(v, isub) for v in h.clusters[cid].members}
                    )
                    entry = []
                    for a_i in range(len(subs)):
                        for b_i in range(a_i + 1, len(subs)):
                            sep = set_separation(
                                d,
                                h.clusters[subs[a_i]].members,
                                h.clusters[subs[b_i]].members,
                            )
                            if gt(sep, hpf.mu**i / hpf.rho):
                                entry.append(
                                    (subs[a_i], subs[b_i], hpf.mu**i / sep)
                                )
                    if entry:
                        demands[j][(i, cid)] = {p: t for t, p in enumerate(entry)}
    else:
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        records, unresolved = _assign_pairs(hpf, ell, ends, dists, demands)

    copies: list[HierarchyCopy] = []
    first_copy: list[int] = []  # per hierarchy, the global index of its copy 0
    for j, h in enumerate(hpf.hierarchies):
        # copy t takes the pair in slot t of every node that has one
        per_copy: list[dict] = [{}]
        for node, slots in demands[j].items():
            for pair, t in slots.items():
                if t == len(per_copy):
                    per_copy.append({})
                per_copy[t][node] = pair
        first_copy.append(len(copies))
        for t, chosen in enumerate(per_copy):
            copies.append(HierarchyCopy(j, h, t, chosen))
    # the records come back holding copy slots; make them copy indices
    records = replace(
        records, copy=np.asarray(first_copy, dtype=np.int64)[records.hierarchy] + records.copy
    )

    return replace(
        hpf,
        epsilon=epsilon,
        ell=ell,
        copies=copies,
        pair_records=records,
        unresolved_pairs=unresolved,
    )


def _assign_pairs(
    hpf: HPFamily,
    ell: int,
    ends: np.ndarray,
    dists: ClusterDistances,
    demands: list[dict],
) -> tuple[PairRecords, list[tuple[int, int]]]:
    """Demand mode of ``make_pair_preserving``: match each demanded pair, a
    row of ``ends``, to the first (level, hierarchy) in scan order that
    holds it, keeps its distance and splits it, and fill ``demands`` with
    the matched subcluster pairs. Returns the records, whose ``copy`` column holds the
    copy slot within the hierarchy, and the unmatched pairs."""
    d = hpf.dist
    n = hpf.graph.n
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    codes = np.unique(lo[lo != hi] * n + hi[lo != hi])
    us, vs = codes // n, codes % n
    # the match of each pair as columns; hit_j is -1 while a pair is open
    hit_j = np.full(len(us), -1, dtype=np.int64)
    hit_i, hit_cid, hit_a, hit_b = (np.zeros(len(us), dtype=np.int64) for _ in range(4))
    hit_rho, hit_din = np.zeros(len(us)), np.zeros(len(us))
    # (hierarchy, subcluster, subcluster) -> separation, measured with the
    # subclusters in the order of the pair that first met them
    sep_cache: dict[tuple[int, int, int], float] = {}
    vmaps = [[np.asarray(vm) for vm in h.vmap] for h in hpf.hierarchies]
    top = max(h.i_max for h in hpf.hierarchies) + ell - 1
    for i in range(1, top + 1):
        isub = max(i - ell, 0)
        for j, h in enumerate(hpf.hierarchies):
            at_i = vmaps[j][min(i, h.i_max)]
            at_sub = vmaps[j][min(isub, h.i_max)]
            cand = (hit_j < 0) & (at_i[us] == at_i[vs]) & (at_sub[us] != at_sub[vs])
            ks = np.flatnonzero(cand)
            if not len(ks):
                continue
            # in-cluster distances, one sub-block per cluster
            cids = at_i[us[ks]]
            order = np.argsort(cids, kind="stable")
            din = np.empty(len(ks))
            for grp in np.split(order, np.flatnonzero(np.diff(cids[order])) + 1):
                su, iu = np.unique(us[ks[grp]], return_inverse=True)
                sv, iv = np.unique(vs[ks[grp]], return_inverse=True)
                members = h.clusters[int(cids[grp[0]])].members
                din[grp] = dists.distances(members, su, sv)[iu, iv]
            keep = np.abs(din - d[us[ks], vs[ks]]) <= TOL
            ks = ks[keep]
            if not len(ks):
                continue
            c1, c2 = at_sub[us[ks]], at_sub[vs[ks]]
            a, b = np.minimum(c1, c2), np.maximum(c1, c2)
            _, first, inv = np.unique(
                a * len(h.clusters) + b, return_index=True, return_inverse=True
            )
            seps = np.empty(len(first))
            for t, f in enumerate(first.tolist()):
                key = (j, int(a[f]), int(b[f]))
                sep = sep_cache.get(key)
                if sep is None:
                    sep = sep_cache[key] = set_separation(
                        d, h.clusters[int(c1[f])].members, h.clusters[int(c2[f])].members
                    )
                seps[t] = sep
            hit_j[ks], hit_i[ks], hit_cid[ks] = j, i, at_i[us[ks]]
            hit_a[ks], hit_b[ks] = a, b
            hit_rho[ks] = hpf.mu**i / seps[inv]
            hit_din[ks] = din[keep]

    open_pairs = hit_j < 0
    unresolved = list(zip(us[open_pairs].tolist(), vs[open_pairs].tolist()))
    rk = np.flatnonzero(~open_pairs)
    # one group per (node, subcluster pair), keyed by (hierarchy, level,
    # subcluster pair), which fixes the node too; each group takes the next
    # free slot of its node, in order of first demand
    width = max(len(h.clusters) for h in hpf.hierarchies)
    key = ((hit_j[rk] * (top + 1) + hit_i[rk]) * width + hit_a[rk]) * width + hit_b[rk]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    by_demand = np.argsort(first)
    head = rk[first[by_demand]]
    group_slot = np.empty(len(first), dtype=np.int64)
    for g, j, i, cid, a, b, rho in zip(
        by_demand.tolist(),
        *(col[head].tolist() for col in (hit_j, hit_i, hit_cid, hit_a, hit_b, hit_rho)),
    ):
        slots = demands[j].setdefault((i, cid), {})
        group_slot[g] = slots.setdefault((a, b, rho), len(slots))
    records = PairRecords(
        us[rk], vs[rk], hit_j[rk], group_slot[inv], hit_i[rk],
        hit_cid[rk], hit_a[rk], hit_b[rk], hit_rho[rk], hit_din[rk],
    )
    return records, unresolved


def subnet_cover_radius(hpf: HPFamily) -> float:
    """Worst ratio max_v d(v, subnet_i^j) / mu^i over all chains and levels.

    The conditional claim (large mu) puts this at 5/12; practical parameter
    runs report the measured value instead.
    """
    d = hpf.dist
    worst = 0.0
    sub = hpf.subnets
    for j in range(sub.sigma):
        top = len(sub.subnets[j]) - 1
        for i in range(1, top + 1):
            pts = sub.subnets[j][i]
            reach = d[pts, :].min(axis=0).max()
            worst = max(worst, float(reach) / hpf.mu**i)
    return worst

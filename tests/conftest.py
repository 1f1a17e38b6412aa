"""Shared fixtures. Heavy covers are built once per session and reused."""

import pytest

from spantreecover.cover import CoverConfig, span_tree_cover
from spantreecover.graphs import WeightedGraph, generate
from spantreecover.hpf import Cluster, Hierarchy


@pytest.fixture(scope="session")
def grid8():
    return generate("grid", {"k": 8})


@pytest.fixture(scope="session")
def grid8_cover(grid8):
    # n = 64, so the default demand set is all pairs
    return span_tree_cover(grid8, CoverConfig())


def flat_hierarchy(groups: list[list[int]]) -> Hierarchy:
    """Two-level hierarchy: the given groups at level 0, their union at
    level 1. Handy for exercising one recursion step by hand."""
    n = sum(len(g) for g in groups)
    clusters = {}
    vmap0 = [0] * n
    for cid, grp in enumerate(groups):
        clusters[cid] = Cluster(
            id=cid,
            level=0,
            members=frozenset(grp),
            portal=min(grp),
            representative=min(grp),
            parent=len(groups),
        )
        for v in grp:
            vmap0[v] = cid
    top = len(groups)
    clusters[top] = Cluster(
        id=top,
        level=1,
        members=frozenset(range(n)),
        portal=0,
        representative=0,
        children=list(range(len(groups))),
    )
    return Hierarchy(
        clusters=clusters,
        levels=[list(range(len(groups))), [top]],
        vmap=[vmap0, [top] * n],
        i_max=1,
    )


def unit_path(n: int) -> WeightedGraph:
    return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def selection_holds(scheme, idx: int, x: int, y: int) -> bool:
    """Reference for tree selection, read off the hierarchy copies alone:
    whether tree idx's copy assigns, at the lowest cluster of the tree's
    level grid (top, top - ell, ..., 0) that holds both x and y, exactly
    the pair of their two subclusters one grid step down."""
    hpf = scheme.cover.hpf
    c, level = scheme.cover.trees[idx].provenance
    copy = hpf.copies[c]
    hier = copy.base
    while True:
        sub = max(level - hpf.ell, 0)
        cx, cy = hier.cluster_at(x, sub), hier.cluster_at(y, sub)
        if cx != cy:
            break
        level = sub
    entry = copy.pairs.get((level, hier.cluster_at(x, level)))
    return entry is not None and {entry[0], entry[1]} == {cx, cy}

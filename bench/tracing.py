"""Spans around the calls into each layer of the program, from outside it.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``spantreecover`` module namespace that holds it (methods on their
class), so calls between the program's modules are traced too. A span is
(name, start, end, parent span); spans stay in memory until ``save``.
Self time is a span's duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (layer.name, module, attribute); "Class.method" patches the class.
TRACED = [
    ("graphs.apsp", "graphs", "apsp"),
    ("graphs.dijkstra", "graphs", "dijkstra"),
    ("graphs.cluster_tree", "graphs", "ClusterDistances.tree"),
    ("graphs.diameter", "graphs", "ClusterDistances.diameter"),
    ("graphs.greedy_spanner", "graphs", "greedy_spanner"),
    ("hpf.build_hpf", "hpf", "build_hpf"),
    ("hpf.make_pair_preserving", "hpf", "make_pair_preserving"),
    ("preservable.build_preservable_set", "preservable", "build_preservable_set"),
    ("preservable.verify_preservable_set", "preservable", "verify_preservable_set"),
    ("preservable.build_sketch_graph", "preservable", "build_sketch_graph"),
    ("preservable.verify_preservable_lemma", "preservable", "verify_preservable_lemma"),
    ("cover.span_tree_cover", "cover", "span_tree_cover"),
    ("cover.path_preserving_tree", "cover", "path_preserving_tree"),
    ("cover.verify_spanning", "cover", "verify_spanning"),
    ("oracle.build_oracle", "oracle", "build_oracle"),
    ("oracle.query_path", "oracle", "query_path"),
    ("oracle.tree_path", "oracle", "TreeOracle.path"),
    ("routing.build_tree_routing", "routing", "build_tree_routing"),
    ("routing.build_selection_labels", "routing", "build_selection_labels"),
    ("routing.select_tree", "routing", "select_tree"),
    ("routing.simulate_route", "routing", "simulate_route"),
]


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, _, _ in TRACED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, observe=None):
        nid = self.names.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            ends[sid] = clock()
            stack.pop()
            if observe is not None:
                observe(self, args, result, None)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function in place, for the rest of the process."""
        modules = [m for k, m in sys.modules.items() if k.startswith("spantreecover")]
        for name, mod, attr in TRACED:
            owner = sys.modules[f"spantreecover.{mod}"]
            observe = OBSERVERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), observe))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return names, parents, dur, dur - child

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self) -> dict:
        """The per-layer metrics, from the spans and the observed counts."""
        names, parents, dur, self_time = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        mask = {name: names == i for name, i in ids.items()}
        c = self.counts

        def calls(name):
            return int(mask[name].sum())

        def total(name):
            return float(dur[mask[name]].sum())

        def median_us(name):
            # a median: one call stalled by the collector or the host can
            # outweigh thousands of others in a mean
            return float(np.median(dur[mask[name]])) * 1e6 if calls(name) else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        # a ClusterDistances.tree call is served from the memo when it runs
        # no search of its own
        tree_spans = np.flatnonzero(mask["graphs.cluster_tree"])
        searched = np.unique(parents[mask["graphs.dijkstra"]])
        tree_misses = int(np.isin(tree_spans, searched).sum())
        # a non-singleton path_preserving_tree call that builds no
        # preservable set returned from the subtree memo
        nonsingleton = calls("cover.path_preserving_tree") - c.get("singleton_calls", 0)
        builds = calls("preservable.build_preservable_set")
        cover_self = sum(
            float(self_time[mask[name]].sum())
            for name in ("cover.span_tree_cover", "cover.path_preserving_tree", "cover.verify_spanning")
        )
        selects = calls("routing.select_tree")
        routes_ok = c.get("routes_done", 0)
        return {
            "graphs.apsp_s": (total("graphs.apsp"), "s"),
            "graphs.dijkstra_calls": (calls("graphs.dijkstra"), "count"),
            "graphs.cluster_tree_calls": (len(tree_spans), "count"),
            "graphs.cluster_tree_hit_ratio": (ratio(len(tree_spans) - tree_misses, len(tree_spans)), "ratio"),
            "graphs.diameter_s": (total("graphs.diameter"), "s"),
            "graphs.diameter_calls": (calls("graphs.diameter"), "count"),
            "graphs.spanner_s": (total("graphs.greedy_spanner"), "s"),
            "hpf.build_hpf_s": (float(self_time[mask["hpf.build_hpf"]].sum()), "s"),
            "hpf.pair_preserving_s": (total("hpf.make_pair_preserving"), "s"),
            "hpf.hierarchies": (c.get("hierarchies", 0), "count"),
            "hpf.copies": (c.get("copies", 0), "count"),
            "hpf.busiest_cluster_pairs": (c.get("busiest_cluster_pairs", 0), "count"),
            "preservable.build_set_s": (total("preservable.build_preservable_set"), "s"),
            "preservable.build_set_calls": (builds, "count"),
            "preservable.verify_set_s": (total("preservable.verify_preservable_set"), "s"),
            "preservable.sketch_s": (total("preservable.build_sketch_graph"), "s"),
            "preservable.lemma_s": (total("preservable.verify_preservable_lemma"), "s"),
            "preservable.nodes_checked": (c.get("nodes_checked", 0), "count"),
            "cover.tree_calls": (calls("cover.path_preserving_tree"), "count"),
            "cover.memo_hit_ratio": (ratio(nonsingleton - builds, nonsingleton), "ratio"),
            "cover.self_s": (cover_self, "s"),
            "cover.verify_spanning_s": (total("cover.verify_spanning"), "s"),
            "oracle.build_s": (total("oracle.build_oracle"), "s"),
            "oracle.trees_scanned_per_query": (ratio(c.get("trees_touched", 0), calls("oracle.query_path")), "count"),
            "oracle.path_us": (median_us("oracle.tree_path"), "us"),
            "routing.tables_s": (total("routing.build_tree_routing"), "s"),
            "routing.labels_s": (total("routing.build_selection_labels"), "s"),
            "routing.select_us": (median_us("routing.select_tree"), "us"),
            "routing.subhierarchies_scanned": (ratio(c.get("subhierarchies_scanned", 0), selects), "count"),
            "routing.simulate_us": (median_us("routing.simulate_route"), "us"),
            "routing.hops_mean": (ratio(c.get("hops", 0), routes_ok), "count"),
        }


def _pair_preserving(tracer, args, family, exc):
    if family is None:
        return
    tracer.add("hierarchies", len(family.hierarchies))
    tracer.add("copies", len(family.copies))
    busiest = max((copy.copy_index + 1 for copy in family.copies), default=0)
    tracer.counts["busiest_cluster_pairs"] = max(tracer.counts.get("busiest_cluster_pairs", 0), busiest)


def _path_preserving_tree(tracer, args, result, exc):
    copy, cluster_id = args[1], args[2]
    if len(copy.base.clusters[cluster_id].members) == 1:
        tracer.add("singleton_calls")


def _span_tree_cover(tracer, args, cover, exc):
    if cover is not None:
        tracer.add("nodes_checked", cover.diagnostics.get("nodes_checked", 0))


def _select_tree(tracer, args, index, exc):
    # the selection scans subhierarchies in order; a failed one scans them all
    scanned = len(args[0].stamps) if exc is not None else index + 1
    tracer.add("subhierarchies_scanned", scanned)


def _simulate_route(tracer, args, trace, exc):
    if trace is not None and trace.done:
        tracer.add("routes_done")
        tracer.add("hops", trace.hops)


OBSERVERS = {
    "hpf.make_pair_preserving": _pair_preserving,
    "cover.path_preserving_tree": _path_preserving_tree,
    "cover.span_tree_cover": _span_tree_cover,
    "routing.select_tree": _select_tree,
    "routing.simulate_route": _simulate_route,
}

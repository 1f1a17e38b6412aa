"""Command-line driver.

Subcommands: generate, cover, verify, route, oracle. Every command is
deterministic in its inputs and seed; stats go to JSON, traces and query
results to CSV. Exit codes: 0 all gates pass, 1 verification failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cover import (
    CoverConfig,
    cover_stats,
    cover_stretch,
    default_demand_pairs,
    light_tree_cover,
    load_cover,
    pair_guarantee_report,
    save_cover,
    shared_best_trees,
    span_tree_cover,
    stats_pairs,
    verify_spanning,
)
from .graphs import TOL, WeightedGraph, apsp, generate, load_graph, save_graph
from .hpf import verify_padding
from .oracle import build_oracle, query_path
from .routing import (
    SelectionError,
    build_routing_scheme,
    measure_sizes,
    route_end_to_end,
)

SCHEMA = 1


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_pairs(spec: str | None, g: WeightedGraph, seed: int) -> np.ndarray:
    """The pairs of ``--pairs`` as a (P, 2) int64 array."""
    if spec is None or spec == "default":
        return default_demand_pairs(g, seed)
    if spec == "all":
        return default_demand_pairs(g, seed, cap=g.n)
    if spec.startswith("sample:"):
        k = int(spec.split(":", 1)[1])
        return default_demand_pairs(g, seed, sample_size=k, cap=0)
    pairs = []
    with open(spec, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = (int(x) for x in line.split()[:2])
            for x in (u, v):
                if not 0 <= x < g.n:
                    raise ValueError(f"pairs file: vertex {x} outside range(0, {g.n})")
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _config_from_args(args) -> CoverConfig:
    cfg = CoverConfig(
        epsilon=args.epsilon,
        mu=args.mu,
        rho=args.rho,
        eta=args.eta,
        mode=args.mode,
        seed=args.seed,
    )
    cfg.validate()
    return cfg


def cmd_generate(args) -> int:
    params: dict = {}
    if args.kind == "grid":
        params["k"] = args.size
    else:
        params["n"] = args.size
    g = generate(args.kind, params, seed=args.seed)
    if args.out:
        save_graph(g, args.out)
    else:
        sys.stdout.write(f"{g.n} {g.m}\n")
        for u, v, w in g.edges:
            sys.stdout.write(f"{u} {v} {w!r}\n")
    return 0


def cmd_cover(args) -> int:
    g = load_graph(args.graph)
    cfg = _config_from_args(args)
    if args.pairs:
        cfg.pairs = _parse_pairs(args.pairs, g, args.seed)
    if args.light:
        cover = light_tree_cover(g, cfg.epsilon, cfg)
    else:
        cover = span_tree_cover(g, cfg)
    if args.out:
        save_cover(cover, args.out)
    # one best-tree pass serves the pair gate and the stretch
    pairs = stats_pairs(g, cover, cfg.pairs)
    best = shared_best_trees(g, cover, pairs)
    report = pair_guarantee_report(g, cover, best)
    stats = {
        "schema": SCHEMA,
        **cover_stats(g, cover, pairs, best),
        "params": cover.params,
        "diagnostics": cover.diagnostics,
        "pairs_checked": report["pairs_checked"],
        "unresolved_pairs": report["unresolved"],
        "pair_gate_failures": len(report["failures"]),
    }
    _write_json(stats, args.stats)
    return 0 if not report["failures"] and not report["unresolved"] else 1


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    stored = load_cover(args.cover)
    families: dict[str, bool] = {}

    def gate(name: str, fn) -> None:
        try:
            fn()
            families[name] = True
        except AssertionError:
            families[name] = False

    gate("spanning", lambda: verify_spanning(g, stored))

    # rebuilding with the stored parameters re-runs every construction-time
    # check (padding, path-system structure, sketch bounds) and must land on
    # the same trees
    p = stored.params
    cfg = CoverConfig(
        epsilon=p["epsilon"], mu=p["mu"], rho=p["rho"], eta=p["eta"],
        mode=p["mode"], seed=int(p["seed"]), check=True,
    )
    rebuilt = span_tree_cover(g, cfg)
    gate(
        "reproducible",
        lambda: _assert_same_trees(stored, rebuilt),
    )
    hpf = rebuilt.hpf
    sample = [
        (v, i)
        for v in range(0, g.n, max(1, g.n // 32))
        for i in range(1, hpf.hierarchies[0].i_max + 1)
    ]
    families["padding"] = verify_padding(hpf, p["rho"], sample) == []
    report = pair_guarantee_report(g, rebuilt)
    families["pair_guarantee"] = not report["failures"]
    pairs = default_demand_pairs(g, int(p["seed"]))
    try:
        st = cover_stretch(g, stored, pairs)
        families["stretch_at_least_one"] = all(
            r >= 1.0 - TOL for _, _, r, _ in st["table"]
        )
        max_stretch = st["max"]
    except (AssertionError, ValueError):
        # a tree with a non-graph edge cannot even be measured
        families["stretch_at_least_one"] = False
        max_stretch = None
    doc = {
        "schema": SCHEMA,
        "families": families,
        "max_stretch": max_stretch,
        "worst_pair_gap": report["worst_gap"],
    }
    _write_json(doc, args.stats)
    return 0 if all(families.values()) else 1


def _assert_same_trees(a, b) -> None:
    ea = sorted(tuple(sorted(t.edges)) for t in a.trees)
    eb = sorted(tuple(sorted(t.edges)) for t in b.trees)
    assert ea == eb, "rebuilt cover differs from the stored one"


def cmd_route(args) -> int:
    g = load_graph(args.graph)
    cfg = _config_from_args(args)
    scheme = build_routing_scheme(g, cfg, seed=args.seed)
    pairs = _parse_pairs(args.pairs, g, args.seed)
    d = apsp(g)
    rows = []
    failures = []
    worst = 1.0
    for u, v in pairs.tolist():
        if u == v:
            continue
        try:
            trace, idx = route_end_to_end(scheme, u, v)
        except SelectionError:
            failures.append((u, v))
            continue
        stretch = trace.weight / float(d[u, v])
        worst = max(worst, stretch)
        rows.append((u, v, idx, trace.hops, trace.weight, stretch))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("u,v,tree,hops,weight,stretch\n")
            for u, v, idx, hops, w, s in rows:
                fh.write(f"{u},{v},{idx},{hops},{w!r},{s!r}\n")
    stats = {
        "schema": SCHEMA,
        **measure_sizes(scheme),
        "pairs_routed": len(rows),
        "selection_failures": failures,
        "stretch_max": worst,
    }
    _write_json(stats, args.stats)
    return 0


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    cover = load_cover(args.cover)
    oracle = build_oracle(g, cover)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("u,v,estimate,tree,path_len,path\n")
        with open(args.queries, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"malformed query line {lineno}: {line!r}")
                u, v = int(parts[0]), int(parts[1])
                path, est, idx = query_path(oracle, g, u, v)
                out.write(
                    f"{u},{v},{est!r},{idx},{len(path)},"
                    f"{'-'.join(map(str, path))}\n"
                )
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treecover",
        description="Spanning tree covers with near-exact stretch, plus "
        "routing and distance-oracle applications.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        """The graph, the cover configuration and the outputs."""
        p.add_argument("--graph", required=True)
        p.add_argument("--epsilon", type=float, default=0.25)
        p.add_argument("--mu", type=float, default=6.0)
        p.add_argument("--eta", type=float, default=1.0)
        p.add_argument("--rho", type=float, default=24.0)
        p.add_argument(
            "--mode",
            choices=["demand", "exhaustive", "theory"],
            default="demand",
        )
        p.add_argument("--pairs", default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None)
        p.add_argument("--stats", default=None)

    pg = sub.add_parser("generate", help="write a named test instance")
    pg.add_argument(
        "kind",
        choices=[
            "path",
            "uniform_line",
            "grid",
            "star_exponential",
            "random_geometric",
        ],
    )
    pg.add_argument("size", type=int)
    pg.add_argument("--seed", type=int, default=42)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_generate)

    pc = sub.add_parser("cover", help="build and verify a tree cover")
    common(pc)
    pc.add_argument("--light", action="store_true")
    pc.set_defaults(func=cmd_cover)

    # verify rebuilds from the parameters stored in the cover
    pv = sub.add_parser("verify", help="re-check a stored cover")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--cover", required=True)
    pv.add_argument("--stats", default=None)
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("route", help="build a routing scheme and simulate")
    common(pr)
    pr.set_defaults(func=cmd_route)

    po = sub.add_parser("oracle", help="answer distance/path queries")
    po.add_argument("--graph", required=True)
    po.add_argument("--cover", required=True)
    po.add_argument("--out", default=None)
    po.add_argument("--queries", required=True)
    po.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

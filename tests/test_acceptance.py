"""Acceptance suite: twelve numbered gates over the full instance corpus.

Each test prints one `criterion NN: PASS/FAIL` scorecard line (it bypasses
pytest capture, so a full run always shows the twelve lines). Tolerances are
absolute on distances and pinned per gate.
"""

import math
import sys
import time

import numpy as np
import pytest

from spantreecover.cli import main as cli_main
from spantreecover.cover import (
    CoverConfig,
    cover_stretch,
    light_tree_cover,
    pair_guarantee_report,
    span_tree_cover,
    verify_spanning,
)
from spantreecover.graphs import (
    WeightedGraph,
    apsp,
    dijkstra,
    generate,
    save_graph,
)
from spantreecover.hpf import (
    build_hpf,
    strong_diameter,
    subnet_cover_radius,
    verify_padding,
)
from spantreecover.oracle import build_oracle, query_distance, query_path
from spantreecover.routing import (
    SelectionError,
    build_routing_scheme,
    lca_condition_bruteforce,
    measure_sizes,
    route_end_to_end,
    select_tree,
    simulate_route,
)

TOL = 1e-9

CORPUS = (
    [(f"path{n}", "path", {"n": n}, 0) for n in (8, 64, 256)]
    + [(f"line{n}", "uniform_line", {"n": n}, 0) for n in (8, 64, 256)]
    + [(f"grid{k}", "grid", {"k": k}, 0) for k in (4, 8, 16)]
    + [
        (f"rg{n}s{s}", "random_geometric", {"n": n}, s)
        for n in (64, 256)
        for s in (1, 2, 3)
    ]
    + [(f"star{n}", "star_exponential", {"n": n}, 0) for n in (4, 16)]
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _scorecard(capfd):
    """Let the scorecard lines through pytest's output capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    msg = f"criterion {num:2d}: {tag}" + (f"  [{detail}]" if detail else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(msg, flush=True)
    else:
        print(msg, file=sys.stderr, flush=True)
    assert ok, msg


def _gate(num: int, body) -> None:
    """Run a check body, then emit exactly one scorecard line."""
    try:
        detail = body() or ""
    except AssertionError as exc:
        _report(num, False, str(exc).splitlines()[0][:100])
    else:
        _report(num, True, detail)


@pytest.fixture(scope="session")
def corpus():
    """Every corpus instance with its default-config cover, plus the total
    build wall time (criterion 1 bounds it)."""
    built = {}
    total = 0.0
    for name, kind, params, seed in CORPUS:
        g = generate(kind, params, seed=seed)
        t0 = time.perf_counter()
        cover = span_tree_cover(g, CoverConfig())
        total += time.perf_counter() - t0
        built[name] = (g, cover)
    return built, total


@pytest.fixture(scope="session")
def schemes(corpus):
    built, _ = corpus
    return {name: build_routing_scheme(g) for name, (g, _) in built.items()}


def test_criterion_01_spanning(corpus):
    built, total = corpus

    def body():
        trees = 0
        for name, (g, cover) in built.items():
            trees += verify_spanning(g, cover)["trees"]
        assert total < 120.0, f"corpus build took {total:.1f}s"
        return f"{len(built)} instances, {trees} trees, {total:.1f}s"

    _gate(1, body)


def test_criterion_02_pair_gate(corpus):
    built, _ = corpus

    def body():
        worst = -math.inf
        checked = 0
        for name, (g, cover) in built.items():
            rep = pair_guarantee_report(g, cover)
            assert not rep["unresolved"], f"{name}: unresolved {rep['unresolved'][:3]}"
            assert not rep["failures"], f"{name}: gate broken {rep['failures'][:3]}"
            worst = max(worst, rep["worst_gap"])
            checked += rep["pairs_checked"]
        return f"{checked} pairs, worst gap {worst:.3g}"

    _gate(2, body)


def test_criterion_03_lower_bound(corpus):
    built, _ = corpus

    def body():
        checked = 0
        for name, (g, cover) in built.items():
            if g.n > 128:
                continue
            d = apsp(g)
            us, vs = np.triu_indices(g.n, 1)
            dg = d[us, vs]
            for idx, t in enumerate(cover.tree_oracles(g)):
                dt = t.dist_many(us, vs)
                bad = dt < dg - TOL
                assert not bad.any(), (
                    f"{name} tree {idx}: d_T below d_G at pair "
                    f"({us[bad][0]},{vs[bad][0]})"
                )
                checked += len(us)
        return f"{checked} (tree, pair) checks"

    _gate(3, body)


def test_criterion_04_structure_checks(corpus):
    # the per-node structural asserts (exactly-one-touch, disjoint paths,
    # sketch tree-ness, fake-edge weight, same-cluster sketch bound) run
    # with zero tolerance inside every checked construction; the builds
    # above would have raised on any violation
    built, _ = corpus

    def body():
        nodes = 0
        for name, (_, cover) in built.items():
            n_checked = cover.diagnostics.get("nodes_checked", 0)
            assert n_checked > 0, f"{name}: no recursion nodes verified"
            nodes += n_checked
        return f"{nodes} recursion nodes verified in-build"

    _gate(4, body)


def test_criterion_05_hpf_structure(corpus):
    built, _ = corpus

    def body():
        for name, (g, cover) in built.items():
            hpf = cover.hpf
            assert not hpf.diameter_violations, (
                f"{name}: diameter violations {hpf.diameter_violations[:3]}"
            )
            for h in hpf.hierarchies:
                for i in range(1, h.i_max + 1):
                    for v in range(g.n):
                        lo = h.clusters[h.vmap[i - 1][v]]
                        hi = h.clusters[h.vmap[i][v]]
                        assert lo.members <= hi.members, (
                            f"{name}: refinement broken at v={v} level {i}"
                        )
        padded = 0
        for name in ("grid4", "grid8"):
            _, cover = built[name]
            hpf = cover.hpf
            for h in hpf.hierarchies:
                for cid, c in h.clusters.items():
                    diam = strong_diameter(hpf.graph, c.members)
                    assert diam <= hpf.mu**c.level + TOL, (
                        f"{name}: cluster {cid} diameter {diam}"
                    )
            sample = [
                (v, i)
                for v in range(hpf.graph.n)
                for i in range(hpf.i_top + 1)
            ]
            fails = verify_padding(hpf, 24.0, sample)
            assert not fails, f"{name}: padding failures {fails[:3]}"
            padded += len(sample)
        return f"refinement all instances, {padded} padded (v, i) samples"

    _gate(5, body)


def test_criterion_06_lightness(corpus):
    built, _ = corpus

    def body():
        line64 = None
        for name, (g, _) in built.items():
            if g.n > 64:
                continue
            lc = light_tree_cover(g, 0.25)
            il = lc.params["individual_lightness"]
            sl = lc.params["spanner_lightness"]
            assert il <= sl, f"{name}: tree lightness {il} > spanner {sl}"
            if name == "line64":
                line64 = il
        assert line64 is not None and abs(line64 - 1.0) <= TOL, (
            f"uniform line lightness {line64}"
        )
        return f"uniform_line(64) lightness {line64:.12f}"

    _gate(6, body)


def _recount_alpha(spanner: WeightedGraph) -> int:
    """Independent window recount: most incident weights within a factor 2."""
    incident = [[] for _ in range(spanner.n)]
    for u, v, w in spanner.edges:
        incident[u].append(w)
        incident[v].append(w)
    best = 1
    for ws in incident:
        ws.sort()
        for i, lo in enumerate(ws):
            best = max(
                best, sum(1 for w in ws[i:] if w <= 2.0 * lo + TOL)
            )
    return best


def test_criterion_07_tree_routing(schemes):
    def body():
        routes = 0
        for name, scheme in schemes.items():
            n = scheme.graph.n
            recount = _recount_alpha(scheme.spanner)
            assert recount == scheme.alpha, (
                f"{name}: alpha recount {recount} != {scheme.alpha}"
            )
            k = max(1, math.ceil(math.log2(1.0 / scheme.epsilon)))
            assert scheme.beta == 2 * k * scheme.alpha
            if n <= 128:
                pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
            else:
                rng = np.random.default_rng(7)
                pairs = []
                while len(pairs) < 100:
                    s, t = map(int, rng.integers(n, size=2))
                    if s != t:
                        pairs.append((s, t))
            for idx in range(len(scheme.states)):
                for s, t in pairs:
                    trace = simulate_route(scheme, idx, s, t)
                    assert trace.done, f"{name} tree {idx}: {s}->{t} lost"
                    routes += 1
        return f"{routes} routes, all within (1+eps) of d_T"

    _gate(7, body)


def test_criterion_08_tree_selection(schemes):
    def body():
        agreed = 0
        for name, scheme in schemes.items():
            n = scheme.graph.n
            if n <= 64:
                for x in range(n):
                    for y in range(x + 1, n):
                        try:
                            sel = select_tree(scheme.labels[x], scheme.labels[y])
                        except SelectionError:
                            sel = None
                        brute = next(
                            (
                                i
                                for i, root in enumerate(scheme.subhierarchies)
                                if lca_condition_bruteforce(root, x, y)[0]
                            ),
                            None,
                        )
                        assert sel == brute, (
                            f"{name}: pair ({x},{y}) label {sel} vs brute {brute}"
                        )
                        agreed += 1
            hpf = scheme.cover.hpf
            eps, scale = hpf.epsilon, scheme.cover.scale
            oracles = scheme.cover.tree_oracles(scheme.spanner)
            for rec in hpf.pair_records:
                idx = select_tree(scheme.labels[rec.u], scheme.labels[rec.v])
                d_sel = oracles[idx].dist(rec.u, rec.v) * scale
                bound = rec.d_in_cluster + 44.0 * eps * hpf.mu**rec.level
                assert d_sel <= bound + TOL, (
                    f"{name}: selected tree misses gate for ({rec.u},{rec.v})"
                )
        return f"{agreed} pairs agree with brute force"

    _gate(8, body)


def test_criterion_09_end_to_end(schemes):
    def body():
        worst = 0.0
        routed = 0
        for name, scheme in schemes.items():
            g = scheme.graph
            eps = scheme.epsilon
            records = scheme.cover.hpf.pair_records
            dist = {
                s: dijkstra(g, s).dist for s in sorted({r.u for r in records})
            }
            for rec in records:
                trace, _ = route_end_to_end(scheme, rec.u, rec.v)
                assert trace.done
                dg = dist[rec.u][rec.v]
                bound = (1.0 + eps) ** 2 * (1.0 + 44.0 * rec.rho_eff * eps) * dg
                assert trace.weight <= bound + TOL, (
                    f"{name}: route ({rec.u},{rec.v}) weight {trace.weight} "
                    f"> {bound}"
                )
                worst = max(worst, trace.weight / dg)
                routed += 1
            sizes = measure_sizes(scheme)
            assert sizes["header_bits"] <= math.ceil(2.0 * math.log2(g.n))
            assert 0 < sizes["label_bits_max"] < math.inf
            assert 0 < sizes["table_bits_max"] < math.inf
        return f"{routed} demanded pairs routed, worst measured stretch {worst:.2f}"

    _gate(9, body)


def _tree_climb_arrays(n, edges, root, g):
    """Root-anchored depth sums, built independently of the oracle code."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    depth = [0] * n
    wdepth = [0.0] * n
    order = [root]
    parent[root] = root
    for u in order:
        for v in adj[u]:
            if parent[v] < 0:
                parent[v] = u
                depth[v] = depth[u] + 1
                wdepth[v] = wdepth[u] + g.weight(u, v)
                order.append(v)
    parent[root] = -1
    return parent, depth, wdepth


def _climb_distance(arrays, u, v):
    parent, depth, wdepth = arrays
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return wdepth[u] + wdepth[v] - 2.0 * wdepth[a]


def test_criterion_10_oracle(corpus):
    built, _ = corpus

    def body():
        queried = 0
        for iname, (g, cover) in built.items():
            oracle = build_oracle(g, cover)
            us, vs = np.triu_indices(g.n, 1)
            stretch = cover_stretch(g, cover, list(zip(us, vs)))["max"]
            tree_graphs = [
                WeightedGraph(g.n, [(u, v, g.weight(u, v)) for u, v in t.edges])
                for t in cover.trees
            ]
            climb = [
                _tree_climb_arrays(g.n, t.edges, t.root, g) for t in cover.trees
            ]
            rng = np.random.default_rng(1000 + g.n)
            pairs = []
            while len(pairs) < 100:
                u, v = map(int, rng.integers(g.n, size=2))
                if u != v:
                    pairs.append((u, v))
            dg_cache = {}
            dij_cache = {}
            for u, v in pairs:
                est, idx = query_distance(oracle, u, v)
                path, pw, pidx = query_path(oracle, g, u, v)
                assert pidx == idx and pw == est
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
                assert path[0] == u and path[-1] == v
                assert _climb_distance(climb[idx], u, v) == est, (
                    f"{iname}: path weight != estimate for ({u},{v})"
                )
                if u not in dij_cache:
                    dij_cache[u] = [dijkstra(t, u).dist for t in tree_graphs]
                dd = min(row[v] for row in dij_cache[u])
                assert abs(dd - est) <= 1e-12, (
                    f"{iname}: dijkstra cross-check {dd} vs {est} at ({u},{v})"
                )
                if u not in dg_cache:
                    dg_cache[u] = dijkstra(g, u).dist
                dg = dg_cache[u][v]
                assert dg - TOL <= est <= stretch * dg + TOL, (
                    f"{iname}: estimate {est} outside [{dg}, {stretch * dg}]"
                )
                queried += 1
        return f"{queried} queries exact, paths realized, sandwich holds"

    _gate(10, body)


def test_criterion_11_determinism(corpus, tmp_path):
    built, _ = corpus

    def body():
        for name, (g, _) in built.items():
            gpath = str(tmp_path / f"{name}.graph")
            save_graph(g, gpath)
            blobs = []
            for run in (1, 2):
                out = str(tmp_path / f"{name}.run{run}.json")
                rc = cli_main(
                    ["cover", "--graph", gpath, "--out", out,
                     "--stats", out + ".stats"]
                )
                assert rc == 0, f"{name}: cover command exited {rc}"
                with open(out, "rb") as fh:
                    blobs.append(fh.read())
            assert blobs[0] == blobs[1], f"{name}: reruns differ"
        return f"{len(built)} instances byte-identical across reruns"

    _gate(11, body)


def test_criterion_12_theory_mode():
    def body():
        t0 = time.perf_counter()
        g = generate("path", {"n": 16}, seed=0)
        gs, _ = g.rescaled()
        hpf = build_hpf(gs, 64.0, 24.0, 5.0)
        radius = subnet_cover_radius(hpf)
        assert radius <= 5.0 / 12.0 + TOL, f"subnet cover radius {radius}"
        cfg = CoverConfig(
            epsilon=1.0 / 64.0, mu=64.0, rho=24.0, eta=5.0,
            mode="theory",
        )
        cover = span_tree_cover(g, cfg)
        ratio = cover.diagnostics["max_diam_ratio"]
        assert ratio <= 10.0 + TOL, f"sketch diameter ratio {ratio}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"theory spot check took {elapsed:.1f}s"
        return (
            f"radius {radius:.3f} <= 5/12, diam ratio {ratio:.3f}, "
            f"{elapsed:.1f}s"
        )

    _gate(12, body)

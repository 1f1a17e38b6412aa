import hashlib
import math
import sys

import pytest

from conftest import unit_path
from spantreecover import graphs
from spantreecover.cover import CoverConfig, SpanningTree
from spantreecover.graphs import WeightedGraph, apsp, generate, greedy_spanner
from spantreecover.oracle import TreeOracle, build_oracle
from spantreecover.routing import (
    RouteTrace,
    RoutingScheme,
    SelectionError,
    assign_ports,
    build_routing_scheme,
    build_selection_labels,
    build_tree_routing,
    lca_condition_bruteforce,
    measure_alpha,
    measure_sizes,
    route_end_to_end,
    routing_beta,
    routing_decision,
    select_tree,
    simulate_route,
    template_choice,
    word_bits,
)

EPS = 0.25


@pytest.fixture(scope="module")
def grid8_scheme(grid8):
    return build_routing_scheme(grid8)


@pytest.fixture(scope="module")
def rg64s1_scheme():
    return build_routing_scheme(generate("random_geometric", {"n": 64}, seed=1))


def star(weights):
    return WeightedGraph(
        len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)]
    )


# ports -----------------------------------------------------------------


def test_ports_distinct_and_deterministic(grid8):
    p1 = assign_ports(grid8, seed=7)
    p2 = assign_ports(grid8, seed=7)
    assert p1.ports == p2.ports
    per_vertex = {}
    for (u, _), port in p1.ports.items():
        assert port < 2**p1.bits
        per_vertex.setdefault(u, set())
        assert port not in per_vertex[u]
        per_vertex[u].add(port)


def test_ports_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    p = assign_ports(g, seed=0)
    assert set(p.ports) == {(0, 1), (1, 0)}
    assert p.by_port[(0, p.ports[(0, 1)])] == 1


# alpha -----------------------------------------------------------------


def test_alpha_unit_path():
    g = unit_path(8)
    assert measure_alpha(g) >= 2


def test_alpha_bounds_every_window():
    g = generate("star_exponential", {"n": 8})
    spanner = greedy_spanner(g, 0.2)
    alpha = measure_alpha(spanner)
    for u in range(spanner.n):
        ws = sorted(w for _, w, _ in spanner.adj[u])
        for i, lo in enumerate(ws):
            count = sum(1 for w in ws if lo <= w <= 2 * lo + 1e-9)
            assert count <= alpha


# per-tree tables -------------------------------------------------------


def table(state, u):
    """u's table as (interval, parent port, children, parent interval,
    siblings), each window entry an (interval, port) pair."""

    def window(rng):
        kids = state.kids
        return [
            ((state.tstamp[kids[i]], state.hi[kids[i]]), state.kid_port[i])
            for i in rng
        ]

    p = state.parent[u]
    return (
        (state.tstamp[u], state.hi[u]),
        state.up_port[u] if p != -1 else None,
        window(state.children_window(u)),
        (state.tstamp[p], state.hi[p]) if p != -1 else None,
        window(state.sibling_window(u)),
    )


def view(g, tree):
    """The tree's oracle view over g, as ``cover.tree_oracles`` makes it."""
    return TreeOracle(g.n, tree.edges, tree.root, g)


def path_state(n, beta=None):
    g = unit_path(n)
    tree = SpanningTree([(i, i + 1) for i in range(n - 1)], 0, (0, 0))
    ports = assign_ports(g, seed=3)
    if beta is None:
        beta = routing_beta(measure_alpha(g), EPS)
    return g, ports, build_tree_routing(view(g, tree), ports, beta)


def test_tree_edge_outside_spanner_rejected():
    g = unit_path(4)
    tree = SpanningTree([(0, 1), (1, 2), (1, 3)], 0, (0, 0))
    with pytest.raises(ValueError, match=r"edge \(1, 3\) is not in the graph"):
        build_tree_routing(view(g, tree), assign_ports(g, seed=3), 2)


def test_star_intervals_and_sibling_windows():
    # children stamped in weight order; each sibling window is the next
    # beta siblings, holding the parent's port toward each of them
    beta = 2
    g = star([float(i + 1) for i in range(5)])
    tree = SpanningTree(sorted((0, i) for i in range(1, g.n)), 0, (0, 0))
    ports = assign_ports(g, seed=5)
    state = build_tree_routing(view(g, tree), ports, beta)
    assert state.tstamp == list(range(6))
    assert table(state, 0)[0] == (0, 5)
    for c in range(1, 6):
        interval, _, _, parent_interval, siblings = table(state, c)
        assert interval == (c, c) and parent_interval == (0, 5)
        assert siblings == [
            ((s, s), ports.ports[(0, s)]) for s in range(c + 1, min(c + beta, 5) + 1)
        ]


def test_path_tables_single_child():
    g, ports, state = path_state(6)
    for v in range(5):
        assert len(state.children_window(v)) == 1
    assert table(state, 5)[2] == []


def test_star_item2_keeps_smallest_timestamps():
    beta = 3
    g = star([float(i + 1) for i in range(2 * beta + 3)])
    tree = SpanningTree(sorted((0, i) for i in range(1, g.n)), 0, (0, 0))
    ports = assign_ports(g, seed=5)
    state = build_tree_routing(view(g, tree), ports, beta)
    children = table(state, 0)[2]
    assert len(children) == beta
    # min-weight-first DFS: child timestamps follow the weight order, so the
    # stored children are exactly the beta lightest ones (stamps 1..beta)
    assert [iv[0] for iv, _ in children] == list(range(1, beta + 1))


def test_descendant_interval_test(grid8, grid8_scheme):
    state = grid8_scheme.states[0]
    n = grid8.n
    ancestors = [set() for _ in range(n)]
    for v in range(n):
        x = v
        while x != -1:
            ancestors[v].add(x)
            x = state.parent[x]
    for x in range(n):
        a, b = table(state, x)[0]
        for y in range(n):
            inside = a <= state.tstamp[y] <= b
            assert inside == (x in ancestors[y])


# decision cases --------------------------------------------------------


def test_decision_done():
    _, _, state = path_state(4)
    assert routing_decision(state, 2, state.tstamp[2], None) == (
        "done",
        None,
        None,
    )


def test_decision_child_interval():
    g, ports, state = path_state(4)
    kind, port, header = routing_decision(state, 0, state.tstamp[3], None)
    assert kind == "forward"
    assert ports.by_port[(0, port)] == 1
    assert header is None


def test_decision_outside_parent_goes_up():
    # a small caterpillar: dest outside both own and parent intervals
    g = WeightedGraph(
        5, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 2.0), (3, 4, 1.0)]
    )
    tree = SpanningTree(sorted((u, v) for u, v, _ in g.edges), 0, (0, 0))
    ports = assign_ports(g, seed=9)
    state = build_tree_routing(view(g, tree), ports, 2)
    # leaf 2 under child 1; dest in the other branch
    kind, port, header = routing_decision(state, 2, state.tstamp[4], None)
    assert kind == "forward"
    assert ports.by_port[(2, port)] == 1
    assert header is None


# simulation ------------------------------------------------------------


def manual_scheme(g, tree, beta, epsilon=0.5):
    ports = assign_ports(g, seed=11)
    state = build_tree_routing(view(g, tree), ports, beta)
    return RoutingScheme(g, g, None, ports, [state], [], [], epsilon, 0, beta)


def test_simulate_source_equals_target(grid8_scheme):
    trace, _ = route_end_to_end(grid8_scheme, 5, 5)
    assert trace.done and trace.weight == 0.0 and trace.hops == 0


def test_simulate_path_exact():
    g = unit_path(8)
    tree = SpanningTree([(i, i + 1) for i in range(7)], 0, (0, 0))
    scheme = manual_scheme(g, tree, beta=4)
    for s in range(8):
        for t in range(8):
            trace = simulate_route(scheme, 0, s, t)
            assert trace.done
            assert trace.weight == pytest.approx(abs(s - t), abs=1e-9)
            assert trace.hops == abs(s - t)


def test_simulate_wide_star_backtracks():
    # doubling weights keep alpha small, so the (1 + eps) bound survives
    # the detour through the early children
    eps = 0.5
    weights = [float(2**i) for i in range(8)]
    g = star(weights)
    tree = SpanningTree(sorted((0, i) for i in range(1, g.n)), 0, (0, 0))
    beta = routing_beta(measure_alpha(g), eps)
    assert beta < len(weights)
    scheme = manual_scheme(g, tree, beta=beta, epsilon=eps)
    last = g.n - 1  # heaviest child, beyond the stored window
    trace = simulate_route(scheme, 0, 0, last)
    assert trace.done
    assert trace.hops > 1  # backtracked before reaching the target
    dt = g.weight(0, last)
    assert trace.weight <= (1 + eps) * dt + 1e-9


def test_tree_distance_matches_tree_oracle(grid8_scheme):
    # the interval climb from s stops at the LCA of s and t in the spanner
    # tree, and the state's view over G gives that tree's distance bitwise:
    # the tree edges weigh the same in G and in the spanner
    state = grid8_scheme.states[0]
    tree = grid8_scheme.cover.trees[0]
    spanner = grid8_scheme.spanner
    oracle = TreeOracle(spanner.n, tree.edges, tree.root, spanner)
    for s in range(spanner.n):
        for t in range(spanner.n):
            a = s
            while not state.tstamp[a] <= state.tstamp[t] <= state.hi[a]:
                a = state.parent[a]
            assert a == oracle.lca(s, t), (s, t)
            assert state.tree.dist(s, t) == oracle.dist(s, t), (s, t)


def test_simulate_route_checks_tree_bound():
    # a route checked against a tree distance shrunk below the walk's weight
    # must fail the (1 + eps) assertion; the pair's LCA (2) is not the root
    g = unit_path(6)
    tree = SpanningTree([(i, i + 1) for i in range(5)], 0, (0, 0))
    scheme = manual_scheme(g, tree, beta=4)
    assert simulate_route(scheme, 0, 2, 5).done
    scheme.states[0].tree._index.wdepth[5, 0] = 2.5
    with pytest.raises(AssertionError, match="exceeds"):
        simulate_route(scheme, 0, 2, 5)


def test_scheme_and_oracle_root_each_tree_once(monkeypatch):
    # the routing states read the cover's oracle stack over G, and the
    # oracle over the same G reuses it: one root_tree walk per cover tree
    calls = []
    original = graphs.root_tree

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("spantreecover") and getattr(module, "root_tree", None) is original:
            monkeypatch.setattr(module, "root_tree", counted)
    g = generate("grid", {"k": 8})
    scheme = build_routing_scheme(g, config=CoverConfig(check=False))
    build_oracle(g, scheme.cover)
    assert len(scheme.cover.trees) == 116
    assert len(calls) == len(scheme.cover.trees)


def test_scheme_epsilon_follows_config():
    # the spanner, beta and the route bound use the cover's epsilon
    scheme = build_routing_scheme(
        generate("grid", {"k": 6}), config=CoverConfig(epsilon=0.5, check=False)
    )
    assert scheme.epsilon == scheme.cover.params["epsilon"] == 0.5
    assert scheme.beta == routing_beta(scheme.alpha, 0.5)


def test_trace_edges_are_real(grid8, grid8_scheme):
    trace, _ = route_end_to_end(grid8_scheme, 0, 63)
    w = 0.0
    for a, b in zip(trace.vertices, trace.vertices[1:]):
        assert grid8.has_edge(a, b)
        w += grid8.weight(a, b)
    assert w == pytest.approx(trace.weight, abs=1e-9)


# selection -------------------------------------------------------------


def test_select_rejects_identical(grid8_scheme):
    with pytest.raises(ValueError):
        select_tree(grid8_scheme.labels[3], grid8_scheme.labels[3])


def test_apex_count_logarithmic(grid8, grid8_scheme):
    limit = math.floor(math.log2(grid8.n)) + 1
    for lab in grid8_scheme.labels:
        for recs in lab.apices:
            assert len(recs) <= limit


def test_selection_decode_matches_bruteforce():
    g = generate("grid", {"k": 5})  # 25 <= 64: exhaustive pairs
    scheme = build_routing_scheme(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            # each subhierarchy index appears only in its own template's
            # lookups, so it is decoded iff its template chose it
            lu, lv = scheme.labels[u], scheme.labels[v]
            chosen = {template_choice(lu, lv, j) for j in range(len(lu.stamps))}
            for idx, root in enumerate(scheme.subhierarchies):
                holds, _ = lca_condition_bruteforce(root, u, v)
                decoded = idx in chosen
                assert decoded == holds, (idx, u, v)


def selection_digest(scheme):
    """SHA-256 of select_tree's answer on every ordered pair, -1 for a
    SelectionError."""
    n = scheme.graph.n
    out = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            try:
                out.append(select_tree(scheme.labels[x], scheme.labels[y]))
            except SelectionError:
                out.append(-1)
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_selection_pinned_grid8(grid8_scheme):
    assert selection_digest(grid8_scheme) == (
        "0b01409e72cbf078b52701bd49b9081dfffefce0e6be6ce9d6f3ec87c05cb87e"
    )


def test_selection_pinned_rg64s1(rg64s1_scheme):
    assert selection_digest(rg64s1_scheme) == (
        "857ae3db4c53e552e4228e1de3895b0bac7a730d1e56bf2cf78a3e26eaffad66"
    )


def test_selection_sound(grid8_scheme):
    # whenever an index is returned, the cluster tree genuinely satisfies
    # the condition
    labels = grid8_scheme.labels
    for u, v in [(0, 63), (1, 2), (10, 53), (7, 56), (31, 32)]:
        idx = select_tree(labels[u], labels[v])
        holds, _ = lca_condition_bruteforce(
            grid8_scheme.subhierarchies[idx], u, v
        )
        assert holds


def test_end_to_end_tree_input():
    g = unit_path(16)
    scheme = build_routing_scheme(g)
    d = apsp(g)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            trace, _ = route_end_to_end(scheme, s, t)
            assert trace.done
            assert trace.weight == pytest.approx(d[s][t], abs=1e-9)


def test_end_to_end_grid_bound(grid8, grid8_scheme):
    d = apsp(grid8)
    eps = grid8_scheme.epsilon
    for rec in grid8_scheme.cover.hpf.pair_records[::17]:
        trace, _ = route_end_to_end(grid8_scheme, rec.u, rec.v)
        assert trace.done
        bound = (1 + eps) ** 2 * (1 + 44.0 * rec.rho_eff * eps)
        assert trace.weight <= bound * d[rec.u][rec.v] + 1e-9


# sizes -----------------------------------------------------------------


def test_measure_sizes(grid8, grid8_scheme):
    stats = measure_sizes(grid8_scheme)
    assert stats["header_bits"] == word_bits(grid8.n) == 12
    assert stats["label_bits_max"] > 0
    assert stats["table_bits_max"] > 0
    assert stats["num_trees"] == len(grid8_scheme.states)


def test_path_tables_constant_size():
    _, _, state = path_state(32)
    for u in range(32):
        assert len(state.children_window(u)) <= 1
        assert len(state.sibling_window(u)) <= 1


# pinned output ---------------------------------------------------------


def subhierarchy_templates(hpf):
    """The label template of each subhierarchy: templates are numbered per
    (base hierarchy, top level) in order of first use."""
    keys = [(c.base_index, lv) for c in hpf.copies for lv in hpf.top_tree_levels(c.base_index)]
    order = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    return [order[key] for key in keys]


def routing_digest(scheme):
    """SHA-256 of a canonical dump of every tree's tables and every label,
    the labels decoded into per-subhierarchy leaf stamps and apex records
    that carry the subhierarchy's own pair."""
    h = hashlib.sha256()
    for st in scheme.states:
        tables = [table(st, u) for u in range(len(st.tstamp))]
        h.update(repr((st.tstamp, st.parent, tables)).encode())
    tpl_of = subhierarchy_templates(scheme.cover.hpf)

    def pair_in(r, idx):
        return next((pair for i, pair in r.pairs.values() if i == idx), None)

    for lab in scheme.labels:
        stamps = [lab.stamps[j] for j in tpl_of]
        apices = [
            [
                (r.depth, r.interval, r.child_of_x, r.heavy_child, pair_in(r, idx))
                for r in lab.apices[j]
            ]
            for idx, j in enumerate(tpl_of)
        ]
        h.update(repr((stamps, apices)).encode())
    return h.hexdigest()


def test_routing_output_pinned_grid8(grid8_scheme):
    assert routing_digest(grid8_scheme) == (
        "02ce4dc8579aa5ea8f3705efc9713c4e3aa8ed9fa93b1654f3c31f289969264c"
    )


def test_routing_output_pinned_rg64s1(rg64s1_scheme):
    assert routing_digest(rg64s1_scheme) == (
        "9d6513119f72d0ffab86e91f32094a6a9a76a69a4caeec0703ee65de0262dd16"
    )

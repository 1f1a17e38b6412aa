"""Route messages with compact labels over a tree cover.

Every vertex stores a small routing table per tree plus one selection label;
a message carries at most one port number in its header. Forwarding decisions
use only the local table, the destination label, and that header.

Run: python3 demos/demo_routing.py
"""

from spantreecover import (
    CoverConfig,
    build_routing_scheme,
    dijkstra,
    generate,
    measure_sizes,
    route_end_to_end,
)

g = generate("random_geometric", {"n": 64}, seed=1)
print(f"input: random geometric graph, {g.n} vertices, {g.m} edges")

scheme = build_routing_scheme(g, CoverConfig(epsilon=0.25))
sizes = measure_sizes(scheme)
print(
    f"scheme: {sizes['num_trees']} trees, alpha={sizes['alpha']}, "
    f"beta={sizes['beta']}, word={sizes['word_bits']} bits"
)
print(
    f"per-vertex sizes: label <= {sizes['label_bits_max']} bits, "
    f"tables <= {sizes['table_bits_max']} bits, "
    f"header = {sizes['header_bits']} bits"
)

# route every ordered pair and tally the realized stretch
worst = 0.0
hops = 0
for s in range(g.n):
    dist = dijkstra(g, s).dist
    for t in range(g.n):
        if s == t:
            continue
        trace, tree = route_end_to_end(scheme, s, t)
        assert trace.done
        worst = max(worst, trace.weight / dist[t])
        hops += trace.hops
pairs = g.n * (g.n - 1)
print(f"routed {pairs} pairs: worst stretch {worst:.3f}, avg hops {hops / pairs:.1f}")

# show one route in detail
s, t = 0, g.n - 1
trace, tree = route_end_to_end(scheme, s, t)
print(f"example {s} -> {t}: tree {tree}, ports {trace.ports}")
print(f"  visits {trace.vertices}")
print(f"  weight {trace.weight:.3f} vs shortest path {dijkstra(g, s).dist[t]:.3f}")

"""Self-test of the benchmark's checker: broken outputs must be rejected.

    python3 bench/selftest.py

Builds a grid4 cover and a grid8 routing scheme and oracle, confirms the
checker accepts their true outputs, then feeds it one broken output at a
time: a tree with a non-graph edge, a tree with a cycle, an oracle estimate
off by one edge weight, and a route that stops short of its target. Exits 1
if the checker accepts a broken output or rejects a true one.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from spantreecover import CoverConfig, generate, span_tree_cover  # noqa: E402


def cover_verdict(g, cover) -> list[str]:
    weights = ref.edge_weights(g.edges)
    problems, _ = ref.cover_problems("grid4", g.n, cover, weights, ref.graph_distances(g.n, g.edges))
    return problems


def serve_verdict(served, answers) -> list[str]:
    res = wl.Result()
    wl.check_answers(served, answers, res)
    return res.problems


def main() -> int:
    ok = True

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        nonlocal ok
        good = bool(problems) == rejected
        ok &= good
        verdict = "rejected" if problems else "accepted"
        first = f": {problems[0]}" if problems else ""
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}{first}")

    g = generate("grid", {"k": 4})
    cover = span_tree_cover(g, CoverConfig())
    expect("true cover", cover_verdict(g, cover), rejected=False)

    # grid4 vertex r*4+c; (0, 5) is a diagonal, not an edge of G
    tree = cover.trees[0]
    broken = copy.deepcopy(cover)
    broken.trees[0].edges = [e for e in tree.edges if e != tree.edges[0]] + [(0, 5)]
    expect("tree with a non-graph edge", cover_verdict(g, broken), rejected=True)

    in_tree = set(tree.edges)
    extra = next((u, v) for u, v, _ in g.edges if (u, v) not in in_tree)
    # the tree path u..v plus (u, v) is a cycle; drop a tree edge off that path
    u, v = extra
    on_path = set(path_vertices(ref.RootedTree(g.n, tree.edges, ref.edge_weights(g.edges)), u, v))
    off_path = next((x, y) for x, y in tree.edges if not {x, y} <= on_path)
    broken = copy.deepcopy(cover)
    broken.trees[0].edges = [e for e in tree.edges if e != off_path] + [extra]
    expect("tree with a cycle", cover_verdict(g, broken), rejected=True)

    graphs = wl.generate_all(wl.PROBE)
    serving = wl.Serving([wl.Served(name, g, None, None, [(0, 63), (5, 42), (17, 3)]) for name, g in graphs.items()], 0)
    for s in serving.served:
        wl.build(s)
    serving.run(serving.order)
    served, answers = serving.served, serving.answers
    expect("true oracle answers and routes", serve_verdict(served, answers), rejected=False)

    i, k, path, est, idx, routed = answers[0]
    w = served[i].g.weight(path[0], path[1])
    bad = [(i, k, path, est + w, idx, routed)] + answers[1:]
    expect("oracle estimate off by one edge weight", serve_verdict(served, bad), rejected=True)

    trace, tidx = routed
    short = copy.deepcopy(trace)
    short.vertices = short.vertices[:-1]
    short.ports = short.ports[:-1]
    short.hops -= 1
    short.weight -= served[i].g.weight(trace.vertices[-2], trace.vertices[-1])
    bad = [(i, k, path, est, idx, (short, tidx))] + answers[1:]
    expect("route that stops short of its target", serve_verdict(served, bad), rejected=True)

    print("checker self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def path_vertices(tree: "ref.RootedTree", u: int, v: int) -> list[int]:
    """Vertices of the tree path between u and v."""
    up, down = [u], [v]
    while up[-1] != down[-1]:
        if tree.depth[up[-1]] >= tree.depth[down[-1]]:
            up.append(int(tree.parent[up[-1]]))
        else:
            down.append(int(tree.parent[down[-1]]))
    return up + down[-2::-1]


if __name__ == "__main__":
    sys.exit(main())

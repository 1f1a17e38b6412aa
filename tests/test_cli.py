import json
import signal

import pytest

from spantreecover.cli import main
from spantreecover.graphs import load_graph


@pytest.fixture()
def grid4_file(tmp_path):
    p = tmp_path / "grid4.txt"
    assert main(["generate", "grid", "4", "--out", str(p)]) == 0
    return str(p)


@pytest.fixture()
def path8_file(tmp_path):
    p = tmp_path / "path8.txt"
    assert main(["generate", "path", "8", "--out", str(p)]) == 0
    return str(p)


def test_generate_grid(grid4_file):
    g = load_graph(grid4_file)
    assert g.n == 16 and g.m == 24


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generate", "random_geometric", "32", "--seed", "5", "--out", str(a)])
    main(["generate", "random_geometric", "32", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_star_weights(tmp_path):
    p = tmp_path / "star.txt"
    main(["generate", "star_exponential", "5", "--out", str(p)])
    g = load_graph(p)
    assert sorted(w for _, _, w in g.edges) == [1.0, 2.0, 4.0, 8.0]


def test_cover_tree_input_stats(tmp_path, path8_file):
    stats_p = tmp_path / "stats.json"
    rc = main(
        ["cover", "--graph", path8_file, "--stats", str(stats_p)]
    )
    assert rc == 0
    stats = json.loads(stats_p.read_text())
    assert stats["max_stretch"] == pytest.approx(1.0, abs=1e-9)
    assert stats["individual_lightness"] == pytest.approx(1.0, abs=1e-9)
    assert stats["pair_gate_failures"] == 0


def test_cover_rerun_byte_identical(tmp_path, grid4_file):
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["cover", "--graph", grid4_file, "--out", str(c1)]) == 0
    assert main(["cover", "--graph", grid4_file, "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_verify_pass_and_fail(tmp_path, grid4_file):
    cov = tmp_path / "cover.json"
    rep = tmp_path / "verify.json"
    assert main(["cover", "--graph", grid4_file, "--out", str(cov)]) == 0
    rc = main(
        ["verify", "--graph", grid4_file, "--cover", str(cov),
         "--stats", str(rep)]
    )
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert all(doc["families"].values())

    # corrupt one tree edge: spanning must fail, exit code 1
    broken = json.loads(cov.read_text())
    broken["trees"][0]["edges"][0] = [0, 15]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken))
    rc = main(["verify", "--graph", grid4_file, "--cover", str(bad)])
    assert rc == 1


def test_route_path_graph(tmp_path, path8_file):
    stats_p = tmp_path / "route.json"
    out_p = tmp_path / "traces.csv"
    rc = main(
        ["route", "--graph", path8_file, "--pairs", "all",
         "--out", str(out_p), "--stats", str(stats_p)]
    )
    assert rc == 0
    stats = json.loads(stats_p.read_text())
    assert stats["selection_failures"] == []
    assert stats["stretch_max"] == pytest.approx(1.0, abs=1e-9)
    for key in ("alpha", "beta", "label_bits_max", "table_bits_max",
                "header_bits"):
        assert key in stats
    lines = out_p.read_text().strip().splitlines()
    assert lines[0] == "u,v,tree,hops,weight,stretch"
    assert len(lines) == 1 + 28  # all pairs of 8 vertices


def test_route_grid_terminates(tmp_path, grid4_file):
    stats_p = tmp_path / "route.json"
    rc = main(
        ["route", "--graph", grid4_file, "--stats", str(stats_p)]
    )
    assert rc == 0
    stats = json.loads(stats_p.read_text())
    assert stats["pairs_routed"] == 120
    assert stats["selection_failures"] == []


def test_oracle_queries(tmp_path, grid4_file):
    cov = tmp_path / "cover.json"
    main(["cover", "--graph", grid4_file, "--out", str(cov)])
    q = tmp_path / "q.txt"
    q.write_text("0 15\n3 12\n")
    out = tmp_path / "ans.csv"
    rc = main(
        ["oracle", "--graph", grid4_file, "--cover", str(cov),
         "--queries", str(q), "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,v,estimate,tree,path_len,path"
    assert len(lines) == 3
    u, v, est, tree, plen, path = lines[1].split(",")
    assert (u, v) == ("0", "15")
    assert float(est) >= 6.0 - 1e-9
    assert len(path.split("-")) == int(plen)


def test_oracle_malformed_query(tmp_path, grid4_file):
    cov = tmp_path / "cover.json"
    main(["cover", "--graph", grid4_file, "--out", str(cov)])
    q = tmp_path / "q.txt"
    q.write_text("0 1 2\n")
    rc = main(
        ["oracle", "--graph", grid4_file, "--cover", str(cov),
         "--queries", str(q)]
    )
    assert rc == 2


@pytest.mark.parametrize("bad", [-1, 16])
def test_oracle_out_of_range_query(tmp_path, grid4_file, capsys, bad):
    cov = tmp_path / "cover.json"
    main(["cover", "--graph", grid4_file, "--out", str(cov)])
    q = tmp_path / "q.txt"
    q.write_text(f"0 15\n{bad} 5\n")
    rc = main(
        ["oracle", "--graph", grid4_file, "--cover", str(cov),
         "--queries", str(q), "--out", str(tmp_path / "ans.csv")]
    )
    assert rc == 2
    assert f"vertex {bad} outside range(0, 16)" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [-1, 16])
def test_route_pairs_file_out_of_range(tmp_path, grid4_file, capsys, bad):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"0 15\n5 {bad}\n")
    rc = main(["route", "--graph", grid4_file, "--pairs", str(pairs)])
    assert rc == 2
    assert f"vertex {bad} outside range(0, 16)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("0\n", "pairs file line 1: not enough values to unpack"),
        ("0 15\n# comment\n\n3 x\n", "pairs file line 4: invalid literal"),
        ("0 15\n5 16\n", "pairs file line 2: vertex 16 outside range(0, 16)"),
    ],
    ids=["one_value", "not_an_integer", "out_of_range"],
)
def test_route_pairs_file_bad_line_named(tmp_path, grid4_file, capsys, text, message):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(text)
    assert main(["route", "--graph", grid4_file, "--pairs", str(pairs)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_usage_errors(tmp_path, grid4_file):
    assert main(["cover", "--graph", grid4_file, "--epsilon", "2.0"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["cover", "--graph", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("cover_k,graph_k", [(3, 4), (4, 3)])
def test_oracle_cover_graph_mismatch(tmp_path, capsys, cover_k, graph_k):
    files = {}
    for k in {cover_k, graph_k}:
        files[k] = tmp_path / f"grid{k}.txt"
        assert main(["generate", "grid", str(k), "--out", str(files[k])]) == 0
    cov = tmp_path / "cover.json"
    assert main(["cover", "--graph", str(files[cover_k]), "--out", str(cov)]) == 0
    q = tmp_path / "q.txt"
    q.write_text("0 1\n")
    rc = main(
        ["oracle", "--graph", str(files[graph_k]), "--cover", str(cov),
         "--queries", str(q)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    n = graph_k * graph_k
    assert f"error: cover tree 0 has {cover_k * cover_k - 1} edges" in err
    assert f"graph's {n} vertices has {n - 1}" in err


def test_oracle_tree_edge_not_in_graph(tmp_path, capsys, grid4_file):
    cov = tmp_path / "cover.json"
    assert main(["cover", "--graph", grid4_file, "--out", str(cov)]) == 0
    doc = json.loads(cov.read_text())
    doc["trees"][2]["edges"][0] = [0, 5]  # a diagonal: not a grid edge
    cov.write_text(json.dumps(doc))
    q = tmp_path / "q.txt"
    q.write_text("0 1\n")
    rc = main(
        ["oracle", "--graph", grid4_file, "--cover", str(cov), "--queries", str(q)]
    )
    assert rc == 2
    assert "error: cover tree 2: edge (0, 5) is not in the graph" in capsys.readouterr().err


def _oracle_on_broken_tree(tmp_path, grid4_file, edit):
    """Exit code of ``oracle`` over a grid4 cover whose tree 1 ``edit``
    changes in place."""
    cov = tmp_path / "cover.json"
    assert main(["cover", "--graph", grid4_file, "--out", str(cov)]) == 0
    doc = json.loads(cov.read_text())
    edit(doc["trees"][1])
    cov.write_text(json.dumps(doc))
    q = tmp_path / "q.txt"
    q.write_text("0 15\n")
    return main(
        ["oracle", "--graph", grid4_file, "--cover", str(cov), "--queries", str(q)]
    )


def test_oracle_tree_root_out_of_range(tmp_path, capsys, grid4_file):
    rc = _oracle_on_broken_tree(tmp_path, grid4_file, lambda t: t.update(root=16))
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: cover tree 1: root 16 outside range(0, 16)" in err
    assert "Traceback" not in err


def test_oracle_tree_with_cycle(tmp_path, capsys, grid4_file):
    # 15 grid edges: the four rows, two verticals joining rows 0-2, and a
    # third vertical closing the cycle 0-1-5-4; row 3 is left unreached
    rows = [[4 * r + c, 4 * r + c + 1] for r in range(4) for c in range(3)]
    cycle = rows + [[0, 4], [4, 8], [1, 5]]
    rc = _oracle_on_broken_tree(tmp_path, grid4_file, lambda t: t.update(edges=cycle))
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: cover tree 1 has a cycle" in err
    assert "Traceback" not in err


def test_route_config_flags_validated(grid4_file, capsys):
    assert main(["route", "--graph", grid4_file, "--mu", "1"]) == 2
    assert "mu must be at least 2" in capsys.readouterr().err


def test_route_config_flags_take_effect(tmp_path, grid4_file):
    stats = {}
    for mode in ("demand", "exhaustive"):
        p = tmp_path / f"{mode}.json"
        rc = main(["route", "--graph", grid4_file, "--mode", mode, "--stats", str(p)])
        assert rc == 0
        stats[mode] = json.loads(p.read_text())
    assert stats["demand"]["num_trees"] != stats["exhaustive"]["num_trees"]


def test_oracle_rejects_cover_flags(tmp_path, grid4_file, capsys):
    cov = tmp_path / "cover.json"
    assert main(["cover", "--graph", grid4_file, "--out", str(cov)]) == 0
    q = tmp_path / "q.txt"
    q.write_text("0 15\n")
    rc = main(
        ["oracle", "--graph", grid4_file, "--cover", str(cov), "--queries", str(q),
         "--mu", "8"]
    )
    assert rc == 2
    assert "unrecognized arguments: --mu 8" in capsys.readouterr().err


def test_verify_rejects_cover_flags(tmp_path, grid4_file, capsys):
    # verify rebuilds from the stored cover's parameters, so it takes none
    cov = tmp_path / "cover.json"
    assert main(["cover", "--graph", grid4_file, "--out", str(cov)]) == 0
    rc = main(["verify", "--graph", grid4_file, "--cover", str(cov), "--mu", "1"])
    assert rc == 2
    assert "unrecognized arguments: --mu 1" in capsys.readouterr().err


def test_oracle_tree_root_not_an_integer(tmp_path, capsys, grid4_file):
    rc = _oracle_on_broken_tree(tmp_path, grid4_file, lambda t: t.update(root=0.5))
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: cover tree 1: root 0.5 is not an integer vertex id" in err
    assert "Traceback" not in err


def test_oracle_tree_edge_not_integers(tmp_path, capsys, grid4_file):
    def edit(tree):
        tree["edges"][0] = [0.0, 1.0]

    rc = _oracle_on_broken_tree(tmp_path, grid4_file, edit)
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: cover tree 1: edge [0.0, 1.0] is not a pair of integer vertex ids" in err
    assert "Traceback" not in err


def test_cover_self_pairs_only(tmp_path, grid4_file):
    # a pairs file with no pair u != v leaves nothing to measure: stretch
    # reads 1.0, as route --stats does with no pair routed
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("3 3\n")
    stats = tmp_path / "stats.json"
    rc = main(["cover", "--graph", grid4_file, "--pairs", str(pairs), "--stats", str(stats)])
    assert rc == 0
    doc = json.loads(stats.read_text())
    assert doc["max_stretch"] == doc["mean_stretch"] == 1.0


@pytest.fixture()
def one_vertex_file(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("1 0\n")
    return str(p)


def test_cover_one_vertex(tmp_path, one_vertex_file):
    cov, stats = tmp_path / "cover.json", tmp_path / "stats.json"
    rc = main(["cover", "--graph", one_vertex_file, "--out", str(cov), "--stats", str(stats)])
    assert rc == 0
    doc = json.loads(stats.read_text())
    assert doc["num_trees"] == 1
    assert doc["max_stretch"] == doc["mean_stretch"] == 1.0
    assert doc["individual_lightness"] == doc["collective_lightness"] == 1.0


def test_verify_one_vertex(tmp_path, one_vertex_file):
    cov, rep = tmp_path / "cover.json", tmp_path / "verify.json"
    main(["cover", "--graph", one_vertex_file, "--out", str(cov)])
    rc = main(["verify", "--graph", one_vertex_file, "--cover", str(cov), "--stats", str(rep)])
    assert rc == 0
    # strict JSON: no -Infinity or NaN constant for the gap of no pair
    doc = json.loads(rep.read_text(), parse_constant=_reject_constant)
    assert all(doc["families"].values())
    assert doc["max_stretch"] == 1.0
    assert doc["worst_pair_gap"] is None


@pytest.mark.parametrize("command", ["cover", "route"])
def test_empty_graph_rejected(tmp_path, capsys, command):
    p = tmp_path / "empty.txt"
    p.write_text("0 0\n")
    assert main([command, "--graph", str(p)]) == 2
    assert "error: graph has no vertices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,size",
    [
        ("path", "-5"),
        ("path", "0"),
        ("grid", "-3"),
        ("random_geometric", "0"),
        ("star_exponential", "2000"),
    ],
)
def test_generate_rejects_bad_size(tmp_path, capsys, kind, size):
    out = tmp_path / "g.txt"
    assert main(["generate", kind, size, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_generate_one_vertex_geometric(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["generate", "random_geometric", "1", "--out", str(out)]) == 0
    g = load_graph(str(out))
    assert (g.n, g.m) == (1, 0)


def test_generate_largest_star(tmp_path):
    # the largest star whose heaviest weight, 2^1023, is a finite float
    out = tmp_path / "star.txt"
    assert main(["generate", "star_exponential", "1025", "--out", str(out)]) == 0
    assert max(w for _, _, w in load_graph(str(out)).edges) == 2.0**1023


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_cover_rejects_infinite_weight(tmp_path, capsys):
    p = tmp_path / "inf.txt"
    p.write_text("2 1\n0 1 inf\n")
    assert main(["cover", "--graph", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cover_rejects_overflowing_weight_ratio(tmp_path, capsys):
    p = tmp_path / "ratio.txt"
    p.write_text("3 2\n0 1 1e-300\n1 2 1e300\n")
    assert main(["cover", "--graph", str(p)]) == 2
    assert "error: weight ratio" in capsys.readouterr().err


def _joined_grids(weight):
    """Two 6x6 unit grids joined by one edge of the given weight."""
    def vid(g, r, c):
        return 36 * g + 6 * r + c

    edges = [(vid(0, 5, 5), vid(1, 0, 0), weight)]
    for g in range(2):
        for r in range(6):
            for c in range(6):
                if c < 5:
                    edges.append((vid(g, r, c), vid(g, r, c + 1), 1.0))
                if r < 5:
                    edges.append((vid(g, r, c), vid(g, r + 1, c), 1.0))
    return f"72 {len(edges)}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)


def _timeout(signum, frame):
    raise TimeoutError("cover build ran past its time budget")


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0 1 1\n1 2 1e16\n",
        "3 2\n0 1 1\n1 2 1e30\n",
        "3 2\n0 1 1\n1 2 1e300\n",
        _joined_grids(1e16),
    ],
    ids=["path1e16", "path1e30", "path1e300", "joined_grids1e16"],
)
def test_cover_rejects_weight_ratio_that_rounds_away_an_edge(tmp_path, capsys, text):
    # a sum of weights that rounds a light edge away once made two vertices
    # each other's parent, and the build looped; it must exit 2 in time
    p = tmp_path / "wide.txt"
    p.write_text(text)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        rc = main(["cover", "--graph", str(p), "--out", str(tmp_path / "c.json")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == 2
    assert "error: weight ratio" in capsys.readouterr().err

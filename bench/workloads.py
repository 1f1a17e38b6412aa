"""The benchmark's workloads: corpus, large and serve.

Each workload returns a ``Result``: operations attempted and failed, the
problems its checks found, and its end-to-end metrics. The instances and
query pairs are fixed, so tree counts, stretch maxima, bit sizes and the
failed share repeat exactly; the seed sets the order of builds and queries.
Program functions are looked up on their modules at call time, so a
``Tracer`` installed before the workload runs sees every call.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from spantreecover import cover as cover_mod
from spantreecover import graphs as graphs_mod
from spantreecover import oracle as oracle_mod
from spantreecover import routing as routing_mod

clock = time.perf_counter

# tests/test_acceptance.py::CORPUS: (name, generator kind, params, seed)
CORPUS = (
    [(f"path{n}", "path", {"n": n}, 0) for n in (8, 64, 256)]
    + [(f"line{n}", "uniform_line", {"n": n}, 0) for n in (8, 64, 256)]
    + [(f"grid{k}", "grid", {"k": k}, 0) for k in (4, 8, 16)]
    + [(f"rg{n}s{s}", "random_geometric", {"n": n}, s) for n in (64, 256) for s in (1, 2, 3)]
    + [(f"star{n}", "star_exponential", {"n": n}, 0) for n in (4, 16)]
)
LARGE = [("rg512s1", "random_geometric", {"n": 512}, 1), ("grid24", "grid", {"k": 24}, 0)]
SERVE = [("grid24", "grid", {"k": 24}, 0), ("rg256s1", "random_geometric", {"n": 256}, 1)]
# Every workload reports every end-to-end metric, so corpus and large also
# serve fixed pairs of this instance, four times per round of builds, in
# shares spread between the builds and their checks.
PROBE = [("grid8", "grid", {"k": 8}, 0)]
PROBE_PAIRS = 1008
PROBE_REPEATS = 4
# at least this many probe shares per round: a workload with few builds
# also serves shares from within each cover's check
PROBE_SHARES = 16

SETUP_REPEATS = 16  # at least this many set-up repeats per run
# untimed sends that refill the caches a build or a check has evicted,
# before the timed sends of a share begin
WARMUP_SENDS = 10
SERVE_PAIRS = 1000  # ordered pairs u != v per serve instance
PAIR_SEED = 20260  # the serve pairs do not depend on --seed
# query_distance keeps the first tree that beats the running best by more
# than this, so an estimate may exceed the minimum over trees by up to it
ORACLE_TIE = 1e-12


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    details: dict = field(default_factory=dict)


def generate_all(instances) -> dict:
    return {
        name: graphs_mod.generate(kind, params, seed=seed)
        for name, kind, params, seed in instances
    }


class Setup:
    """The workload's set-up, timed once at the start and repeated at times
    spread over the run. The host's speed drifts in stretches of seconds, so
    repeats made only at the start would all see the start's speed; the
    median of repeats spread over the run follows it as the other times do.
    The first repeat's result is the one used."""

    def __init__(self, make) -> None:
        self.make = make
        self.times: list[float] = []
        self.value = self.again()

    def again(self, repeats: int = 1):
        for _ in range(repeats):
            t0 = clock()
            out = self.make()
            self.times.append(clock() - t0)
        return out

    def seconds(self) -> float:
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# serving: oracle queries and routes


@dataclass
class Served:
    name: str
    g: object
    scheme: object
    oracle: object
    pairs: list


def draw_pairs(n: int, count: int, rng) -> list[tuple[int, int]]:
    pairs, seen = [], set()
    while len(pairs) < count:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    return pairs


def build(s: Served) -> float:
    """Routing scheme, then the oracle over the scheme's light cover; returns
    the wall time of the two builds. The scheme's cover is built without
    in-build checks: corpus measures those."""
    t0 = clock()
    s.scheme = routing_mod.build_routing_scheme(s.g, config=cover_mod.CoverConfig(check=False))
    s.oracle = oracle_mod.build_oracle(s.g, s.scheme.cover)
    return clock() - t0


def timed(fn, *args) -> float:
    t0 = clock()
    fn(*args)
    return clock() - t0


class Serving:
    """Closed loop from one caller over fixed pairs, in one seeded order:
    each pair is one query_path and one route_end_to_end operation.

    Every pair is sent several times in a run, at different times spread
    over the run, and its latency is the median of its repeats. The host's
    speed drifts in stretches of seconds: the median of repeats spread over
    the run follows the share of slow time in it, where the fastest repeat
    jumps between the fast and the slow speed from run to run, and a single
    stalled send does not move it, as it would move a mean. Each share
    of sends starts with WARMUP_SENDS untimed ones, so that the caches a
    build has evicted are not counted in the first timed sends.
    """

    def __init__(self, served: list[Served], seed: int) -> None:
        self.served = served
        self.build_s = 0.0
        ops = [(i, k) for i, s in enumerate(served) for k in range(len(s.pairs))]
        perm = np.random.default_rng(seed).permutation(len(ops))
        self.order = [ops[j] for j in perm]
        # per pair, the latency of each send; for routes, of each success
        self.q_lat = [[[] for _ in s.pairs] for s in served]
        self.r_lat = [[[] for _ in s.pairs] for s in served]
        self.answers = []

    def run(self, ops) -> None:
        query_path = oracle_mod.query_path
        route = routing_mod.route_end_to_end
        selection_error = routing_mod.SelectionError
        ops = list(ops)
        for i, k in ops[:WARMUP_SENDS]:
            s = self.served[i]
            query_path(s.oracle, s.g, *s.pairs[k])
            try:
                route(s.scheme, *s.pairs[k])
            except selection_error:
                pass
        for i, k in ops:
            s = self.served[i]
            u, v = s.pairs[k]
            t0 = clock()
            path, est, idx = query_path(s.oracle, s.g, u, v)
            t1 = clock()
            try:
                trace, tidx = route(s.scheme, u, v)
            except selection_error:
                routed = None
            else:
                self.r_lat[i][k].append(clock() - t1)
                routed = (trace, tidx)
            self.q_lat[i][k].append(t1 - t0)
            self.answers.append((i, k, path, est, idx, routed))

    def share(self, i: int) -> list[tuple[int, int]]:
        """Instance i's sends of one round, in the round's order."""
        return [op for op in self.order if op[0] == i]

    def report(self, res: Result, tracer=None, refs=None) -> float:
        """Counts, latency and size metrics, after checking every answer;
        returns the largest oracle stretch over the queried pairs."""
        res.attempted += 2 * len(self.answers)
        res.failed += sum(1 for a in self.answers if a[5] is None)
        if tracer is not None:
            tracer.add("trees_touched", sum(s.oracle.trees_touched for s in self.served))
        stretch, route_stretch = check_answers(self.served, self.answers, res, refs)
        sizes = [routing_mod.measure_sizes(s.scheme) for s in self.served]

        # each pair's median latency in µs (routed pairs only, for routes)
        def per_pair(lat):
            return [np.array([np.median(x) for x in ls if x]) * 1e6 for ls in lat]

        q_pair, r_pair = per_pair(self.q_lat), per_pair(self.r_lat)

        # percentiles over pairs, taken per instance and averaged over the
        # instances
        def mean_of(pairs_us, q):
            return float(np.mean([np.percentile(x, q) for x in pairs_us]))

        res.metrics.update(
            oracle_query_us=(mean_of(q_pair, 50), "us"),
            oracle_query_p99_us=(mean_of(q_pair, 99), "us"),
            route_us=(mean_of(r_pair, 50), "us"),
            route_p99_us=(mean_of(r_pair, 99), "us"),
            route_stretch_max=(route_stretch, "ratio"),
            label_bits_max=(max(x["label_bits_max"] for x in sizes), "bits"),
            table_bits_max=(max(x["table_bits_max"] for x in sizes), "bits"),
        )
        res.details.update(
            served=[s.name for s in self.served],
            serve_build_s=self.build_s,
            sends_per_pair=len(self.answers) / sum(len(s.pairs) for s in self.served),
            query_us_by_instance=[float(np.median(x)) for x in q_pair],
            route_us_by_instance=[float(np.median(x)) for x in r_pair],
            routed_pairs=[len(x) for x in r_pair],
        )
        return stretch


def reference_for(s: Served):
    """G's weights and distances, the rooted cover trees, and each pair's
    minimum tree distance, all from the reference."""
    g = s.g
    weights = ref.edge_weights(g.edges)
    dist = ref.graph_distances(g.n, g.edges)
    trees = [ref.RootedTree(g.n, t.edges, weights, t.root) for t in s.scheme.cover.trees]
    us = np.asarray([u for u, _ in s.pairs], dtype=np.int64)
    vs = np.asarray([v for _, v in s.pairs], dtype=np.int64)
    best = np.full(len(s.pairs), np.inf)
    for t in trees:
        np.minimum(best, t.distances(us, vs), out=best)
    return weights, dist, trees, best


def check_answers(served: list[Served], answers, res: Result, refs=None) -> tuple[float, float]:
    """Checks every oracle answer and route against the reference; returns
    the largest oracle stretch and the largest route stretch."""
    per = refs or [reference_for(s) for s in served]

    stretch = route_stretch = 0.0
    above_min = 0
    sends: dict[tuple[int, int], list[int]] = {}  # pair -> [sent, unrouted]
    for i, k, path, est, idx, routed in answers:
        s = served[i]
        u, v = s.pairs[k]
        weights, dist, trees, best = per[i]
        tag = f"{s.name} ({u},{v})"
        if trees[idx].distance(u, v) != est or not best[k] <= est <= best[k] + ORACLE_TIE:
            res.problems.append(f"{tag}: oracle estimate {est}, reference {best[k]}")
        elif est != best[k]:
            above_min += 1
        found, weight = ref.walk_problems(path, u, v, weights)
        if not ref.close(weight, est):
            found.append(f"path weight {weight} != estimate {est}")
        res.problems += [f"{tag} path: {p}" for p in found]
        dg = dist[u, v]
        stretch = max(stretch, est / dg)
        count = sends.setdefault((i, k), [0, 0])
        count[0] += 1
        if routed is None:
            count[1] += 1
            continue
        trace, tidx = routed
        found, weight = ref.walk_problems(trace.vertices, u, v, weights)
        if not trace.done:
            found.append("route did not arrive")
        if not ref.close(weight, trace.weight):
            found.append(f"walk weight {weight} != reported {trace.weight}")
        bound = (1.0 + s.scheme.epsilon) * trees[tidx].distance(u, v)
        if not (dg * (1 - ref.REL_TOL) <= weight <= bound * (1 + ref.REL_TOL)):
            found.append(f"weight {weight} outside [{dg}, {bound}]")
        res.problems += [f"{tag} route: {p}" for p in found]
        route_stretch = max(route_stretch, weight / dg)
    if any(0 < failed < sent for sent, failed in sends.values()):
        res.problems.append("a pair failed to route in some repeats only")
    res.details["estimates_above_min"] = above_min
    res.details["unrouted_pairs"] = sorted(
        (served[i].name, *served[i].pairs[k]) for (i, k), (_, failed) in sends.items() if failed
    )
    return stretch, route_stretch


# ---------------------------------------------------------------------------
# cover builds: corpus and large


def build_covers(instances, config: dict, seed, seconds, tracer, res: Result):
    """Whole rounds of one span_tree_cover call per instance, in seeded order,
    until ``seconds`` have passed; every cover is checked against the
    reference after its build, outside the timed call. The probe serves one
    share of its sends before the first build, one after each build and one
    after each check; with fewer than PROBE_SHARES / 2 instances it also
    serves shares from within each check, so that its sends still spread over
    the run. The set-up is repeated after each build of the first round."""
    setup = Setup(lambda: generate_all(instances))
    graphs = setup.value
    setup_repeats = -(-SETUP_REPEATS // len(instances))
    graph_refs = {}
    for name, g in graphs.items():
        graph_refs[name] = (ref.edge_weights(g.edges), ref.graph_distances(g.n, g.edges))
    pair_rng = np.random.default_rng(PAIR_SEED)
    probe = Serving(
        [Served(name, g, None, None, draw_pairs(g.n, PROBE_PAIRS, pair_rng)) for name, g in generate_all(PROBE).items()],
        seed,
    )
    for s in probe.served:
        probe.build_s += build(s)
    rng = np.random.default_rng(seed)
    round_times, round_trees, stretch = [], [], 0.0
    start = clock()
    probe_ops = probe.order * PROBE_REPEATS
    check_ticks = max(0, -(-PROBE_SHARES // len(instances)) - 2)
    while True:
        build_s, trees = 0.0, 0
        shares = iter(np.array_split(np.arange(len(probe_ops)), 1 + (2 + check_ticks) * len(instances)))

        def send_share():
            probe.run(probe_ops[j] for j in next(shares))

        send_share()
        for i in rng.permutation(len(instances)):
            name = instances[i][0]
            g = graphs[name]
            cfg = cover_mod.CoverConfig(**config)
            t0 = clock()
            cover = cover_mod.span_tree_cover(g, cfg)
            build_s += clock() - t0
            send_share()
            res.attempted += 1
            trees += len(cover.trees)
            weights, dist = graph_refs[name]
            problems, best = ref.cover_problems(name, g.n, cover, weights, dist, send_share, check_ticks)
            if cfg.check and not cover.diagnostics.get("nodes_checked", 0) > 0:
                problems.append(f"{name}: cover reports no checked recursion node")
            res.problems += problems
            if not problems:
                stretch = max(stretch, ref.stretch_max(best, dist))
            del cover, best
            send_share()
            if not round_times:
                setup.again(setup_repeats)
        round_times.append(build_s)
        round_trees.append(trees)
        if clock() - start >= seconds:
            break
    if len(set(round_trees)) != 1:
        res.problems.append(f"tree counts differ between rounds: {round_trees}")
    probe.report(res, tracer)
    res.metrics.update(
        setup_s=(setup.seconds(), "s"),
        build_s=(statistics.median(round_times), "s"),
        trees=(round_trees[0], "count"),
        stretch_max=(stretch, "ratio"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )
    res.details.update(rounds=len(round_times), round_build_s=round_times)


# ---------------------------------------------------------------------------
# the workloads


def corpus(seed: int, seconds: float, tracer) -> Result:
    res = Result()
    build_covers(CORPUS, {}, seed, seconds, tracer, res)
    return res


def large(seed: int, seconds: float, tracer) -> Result:
    res = Result()
    build_covers(LARGE, {"check": False}, seed, seconds, tracer, res)
    return res


def serve(seed: int, seconds: float, tracer) -> Result:
    res = Result()

    def make():
        graphs = generate_all(SERVE)
        rng = np.random.default_rng(PAIR_SEED)
        return graphs, {name: draw_pairs(g.n, SERVE_PAIRS, rng) for name, g in graphs.items()}

    # the set-up is repeated after each build and each round
    setup = Setup(make)
    graphs, pairs = setup.value
    setup_repeats = SETUP_REPEATS // 4
    serving = Serving([Served(name, graphs[name], None, None, pairs[name]) for name, *_ in SERVE], seed)
    # The first round sends each instance's pairs right after its build, and
    # the checks' reference work runs between later rounds, so that the
    # sends spread over the whole run.
    sending = 0.0
    for i, s in enumerate(serving.served):
        serving.build_s += build(s)
        setup.again(setup_repeats)
        sending += timed(serving.run, serving.share(i))
    refs, pending = [], list(serving.served)
    while sending < seconds:
        sending += timed(serving.run, serving.order)
        setup.again(setup_repeats)
        if pending:
            refs.append(reference_for(pending.pop(0)))
    refs += [reference_for(s) for s in pending]
    stretch = serving.report(res, tracer, refs)
    res.metrics.update(
        setup_s=(setup.seconds(), "s"),
        build_s=(serving.build_s, "s"),
        trees=(sum(len(s.scheme.cover.trees) for s in serving.served), "count"),
        stretch_max=(stretch, "ratio"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )
    return res


WORKLOADS = {"corpus": corpus, "large": large, "serve": serve}

"""Seeded inputs and output checks for the three workloads.

A workload is a *round*: a fixed list of queries, each one ``gslogic``
command line ending in ``--format json``, with a check that compares the
parsed output against ``oracles``. A run repeats whole rounds. The program
receives only what is built here: edge-list files written into the input
directory, generator specs and pattern strings.

Query costs of the current program vary by two orders of magnitude between
random graphs of the same size (branch-and-bound search, short-circuiting
quantifiers), so a round built only from seeded random graphs would move
its medians by far more than any bound between two seeds. Each round
therefore keeps the inputs whose cost depends on the draw at a fixed size
or in a fixed corpus, and lets the seed vary the inputs whose cost does not
depend on the draw: the rank-width corpus is drawn once from CORPUS_SEED,
while the seed draws random trees, measurement orders and bases, cover
choices, the random graphs of the logic workload, and the query order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

# Seed of the fixed G(n, 1/2) corpus of the rankwidth workload.
CORPUS_SEED = 20061003

Rerun = Callable[[list], dict]


@dataclass
class Query:
    kind: str
    argv: list
    check: Callable[[dict, Rerun], list]


class _Inputs:
    """Writes edge-list files into one directory, one file per graph."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, graph) -> str:
        path = self.directory / f"g{self.count:03d}.edges"
        self.count += 1
        path.write_text(oracles.edge_list_text(graph), encoding="utf-8")
        return str(path)


def _shape_errors(out: dict, graph) -> list:
    errors = []
    if out.get("n") != graph[0]:
        errors.append(f"n={out.get('n')}, expected {graph[0]}")
    if "m" in out and out["m"] != oracles.edge_count(graph):
        errors.append(f"m={out['m']}, expected {oracles.edge_count(graph)}")
    return errors


def _tree_errors(out: dict, graph) -> list:
    try:
        width = oracles.tree_width(graph, out["decomposition"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"invalid decomposition: {exc}"]
    if width != out["width"]:
        return [f"decomposition has width {width}, reported {out['width']}"]
    return []


# --------------------------------------------------------------- rankwidth

def _exact_query(kind: str, source: str, graph) -> Query:
    def check(out, rerun):
        errors = _shape_errors(out, graph)
        if out.get("method") != "exact":
            errors.append(f"method {out.get('method')!r}")
        width = oracles.dp_rankwidth(graph)
        if out.get("width") != width:
            errors.append(f"width {out.get('width')}, subset DP gives {width}")
        return errors + _tree_errors(out, graph)

    return Query(kind, ["rankwidth", source, "--format", "json"], check)


def _greedy_query(k: int) -> Query:
    graph = oracles.lattice("grid", k)

    def check(out, rerun):
        errors = _shape_errors(out, graph)
        if out.get("method") != "greedy":
            errors.append(f"method {out.get('method')!r}")
        # the k x k grid has rank-width k - 1
        if not isinstance(out.get("width"), int) or out["width"] < k - 1:
            errors.append(f"greedy width {out.get('width')} below rank-width {k - 1}")
        return errors + _tree_errors(out, graph)

    return Query("greedy", ["rankwidth", f"grid:{k}", "--greedy", "--format", "json"], check)


def _random_tree(n: int, rng: random.Random):
    # each vertex hangs from a random earlier one; relabelling these trees
    # at random would make the search cost range from 30 ms to 7 s
    return oracles.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def rankwidth(seed: int, inputs: _Inputs) -> list:
    queries = []
    # exact search on small lattice patches and cycles: fixed, about 1 ms each
    for spec in ("cycle:7", "cycle:10", "cycle:12", "path:12", "grid:3",
                 "triangular:3", "hexagonal:3", "binary_tree:2"):
        queries.append(_exact_query("lattice", spec, oracles.from_spec(spec)))
    # exact search on the fixed G(n, 1/2) corpus, n = 10 and 11
    corpus = random.Random(CORPUS_SEED)
    for i in range(24):
        graph = oracles.random_graph(11 if i % 3 == 2 else 10, 0.5, corpus)
        queries.append(_exact_query("corpus", inputs.write(graph), graph))
    rng = random.Random(seed)
    # exact search on seeded random trees of 12 vertices (width 1)
    for _ in range(6):
        graph = _random_tree(12, rng)
        queries.append(_exact_query("tree", inputs.write(graph), graph))
    # greedy upper bound on 12 x 12 to 16 x 16 grids
    for k in range(12, 17):
        queries.append(_greedy_query(k))
    rng.shuffle(queries)
    return queries


# -------------------------------------------------------------------- mbqc

def _echo_errors(out: dict, graph, pattern: list) -> list:
    errors = _shape_errors(out, graph)
    got = [(r["qubit"], r["basis"]) for r in out["transcript"]]
    if got != pattern:
        errors.append("transcript does not follow the pattern")
    for r in out["transcript"]:
        if r["outcome"] not in (1, -1) or r["probability"] not in (0.5, 1.0):
            errors.append(f"qubit {r['qubit']}: outcome {r['outcome']} "
                          f"probability {r['probability']}")
            break
    return errors


def _pattern_text(pattern: list) -> str:
    return ",".join(f"{q}:{b}" for q, b in pattern)


def _bases(count: int, letters: str, rng: random.Random) -> list:
    """``count`` bases in equal shares of ``letters``, in a seeded order:
    the shares stay fixed so that the seed moves the order, not the cost."""
    bases = [letters[i * len(letters) // count] for i in range(count)]
    rng.shuffle(bases)
    return bases


def _random_pattern_query(source: str, graph, rng: random.Random) -> Query:
    order = list(range(graph[0]))
    rng.shuffle(order)
    pattern = list(zip(order, _bases(len(order), "XYZ", rng)))
    sim_seed = rng.randrange(1 << 30)

    def argv(seed: int) -> list:
        return ["simulate", source, "--pattern", _pattern_text(pattern),
                "--seed", str(seed), "--format", "json"]

    def check(out, rerun):
        errors = _echo_errors(out, graph, pattern)
        # whether an outcome is random depends only on the stabilizer group,
        # never on earlier outcomes, so a second seed gives the same sequence
        other = rerun(argv(sim_seed + 1))
        if [r["probability"] for r in other["transcript"]] != \
                [r["probability"] for r in out["transcript"]]:
            errors.append("probability sequence differs under a second seed")
        return errors

    return Query("random", argv(sim_seed), check)


def _carve_query(source: str, graph, k: int, colours: int, rng: random.Random) -> Query:
    """Z on a vertex cover, then X or Y on the independent rest. The rest is
    one colour class of the proper colouring (r + c) mod ``colours``."""
    keep = rng.randrange(colours)
    cover = [v for v in range(graph[0]) if sum(divmod(v, k)) % colours != keep]
    rest = [v for v in range(graph[0]) if sum(divmod(v, k)) % colours == keep]
    rng.shuffle(cover)
    rng.shuffle(rest)
    pattern = [(v, "Z") for v in cover] + list(zip(rest, _bases(len(rest), "XXY", rng)))
    argv = ["simulate", source, "--pattern", _pattern_text(pattern),
            "--seed", str(rng.randrange(1 << 30)), "--format", "json"]

    def check(out, rerun):
        return _echo_errors(out, graph, pattern) + oracles.carve_errors(graph, out["transcript"])

    return Query("carve", argv, check)


def mbqc(seed: int, inputs: _Inputs) -> list:
    rng = random.Random(seed)
    queries = []
    for kind in ("grid", "triangular", "hexagonal"):
        for k in range(16, 29, 2):
            graph = oracles.lattice(kind, k)
            spec = f"{kind}:{k}"
            queries.append(_random_pattern_query(spec, graph, rng))
            colours = 3 if kind == "triangular" else 2
            queries.append(_carve_query(inputs.write(graph), graph, k, colours, rng))
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------------- logic

# User formulas: vertex quantifiers nested inside set quantifiers.
USER_FORMULAS = {
    # every vertex has even degree: some even set equals its neighbourhood
    "even_degrees": "forall x. exists X. Even(X) & (forall y. (y in X & edge(x, y))"
                    " | (!(y in X) & !edge(x, y)))",
    # some vertex set meets every closed neighbourhood exactly once
    "perfect_code": "exists X. forall x. (exists y. y in X & (y = x | edge(x, y)))"
                    " & (forall y. forall z. !(y in X & z in X & (y = x | edge(x, y))"
                    " & (z = x | edge(x, z))) | y = z)",
}


def _check_query(name: str, sources: list, graphs: list) -> Query:
    if name in USER_FORMULAS:
        argv = ["check", USER_FORMULAS[name], *sources, "--format", "json"]
    else:
        argv = ["check", "--named", name, *sources, "--format", "json"]
    want = [oracles.VERDICTS[name](g) for g in graphs]

    def check(out, rerun):
        errors = []
        if out.get("verdicts") != want:
            errors.append(f"{name}: verdicts {out.get('verdicts')}, expected {want}")
        if out.get("holds") != all(want):
            errors.append(f"{name}: holds {out.get('holds')}")
        witness = None if all(want) else want.index(False)
        if out.get("witness_index") != witness:
            errors.append(f"{name}: witness_index {out.get('witness_index')}, expected {witness}")
        return errors

    return Query(name, argv, check)


def _random_connected(n: int, extra: int, rng: random.Random):
    """A random spanning tree plus ``extra`` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return oracles.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def logic(seed: int, inputs: _Inputs) -> list:
    queries = []
    spec_queries = [
        ("two_colorable", ["cycle:8", "cycle:9"]),
        ("two_colorable", ["grid:3"]),
        ("two_colorable", ["hexagonal:3"]),
        ("two_colorable", ["triangular:3"]),
        ("two_colorable", ["path:9"]),
        ("two_colorable", ["binary_tree:2", "cycle:7"]),
        ("two_colorable", ["complete:3", "path:9"]),
        ("two_colorable", ["path:8", "cycle:8"]),
        ("two_colorable", ["cycle:6", "cycle:7", "cycle:8"]),
        ("connected", ["path:14"]),
        ("connected", ["cycle:12", "grid:3"]),
        ("connected", ["complete:12"]),
        ("connected", ["cycle:13"]),
        ("connected", ["path:13"]),
        ("connected", ["binary_tree:2", "path:12"]),
        ("connected", ["hexagonal:3", "cycle:11"]),
        ("connected", ["grid:3", "triangular:3", "path:10"]),
        ("perfect_code", ["cycle:9", "cycle:10"]),
        ("perfect_code", ["path:10"]),
        ("perfect_code", ["complete:6", "cycle:12"]),
        ("perfect_code", ["grid:3"]),
        ("perfect_code", ["cycle:11"]),
        ("perfect_code", ["path:11"]),
        ("perfect_code", ["cycle:12"]),
        ("perfect_code", ["path:12"]),
        ("perfect_code", ["hexagonal:3"]),
        ("perfect_code", ["binary_tree:2", "path:9"]),
        ("even_degrees", ["grid:3"]),
        ("even_degrees", ["cycle:11", "complete:9"]),
        ("even_degrees", ["complete:11", "path:5"]),
        ("even_degrees", ["cycle:14"]),
        ("even_degrees", ["triangular:3"]),
        ("even_order", ["path:14", "cycle:13"]),
        ("even_order", ["complete:14"]),
        ("even_order", ["cycle:12", "path:11"]),
        ("path2", ["complete:3", "path:1"]),
        ("path2", ["path:1", "path:2"]),
    ]
    for name, specs in spec_queries:
        queries.append(_check_query(name, specs, [oracles.from_spec(s) for s in specs]))
    rng = random.Random(seed)
    # seeded random graphs, small enough that every one of them costs less
    # than any fixed query above the fastest few, so the draw cannot move the
    # queries that set the median and the tail
    for _ in range(4):
        graphs = [_random_connected(n, n // 2, rng) for n in (9, 10)]
        queries.append(_check_query("connected", [inputs.write(g) for g in graphs], graphs))
    for _ in range(4):
        graphs = [oracles.random_graph(n, 0.5, rng) for n in (12, 13)]
        queries.append(_check_query("even_order", [inputs.write(g) for g in graphs], graphs))
    rng.shuffle(queries)
    return queries


BUILDERS = {"rankwidth": rankwidth, "mbqc": mbqc, "logic": logic}


# Every round has at least this many queries, so that the 75th percentile
# of a round has ten queries beyond it.
MIN_ROUND = 40


def build(workload: str, seed: int, directory: Path) -> list:
    """The round of queries for a workload and seed; edge-list files go
    into ``directory``."""
    queries = BUILDERS[workload](seed, _Inputs(directory))
    assert len(queries) >= MIN_ROUND, f"{workload} round has {len(queries)} queries"
    return queries


if __name__ == "__main__":
    import argparse
    import shlex

    ap = argparse.ArgumentParser(description="Write a workload's input files and "
                                 "print its round as gslogic command lines.")
    ap.add_argument("--workload", required=True, choices=BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, default=Path(".bench_runs/inputs"))
    args = ap.parse_args()
    for q in build(args.workload, args.seed, args.out / f"{args.workload}-{args.seed}"):
        print("gslogic " + " ".join(shlex.quote(a) for a in q.argv))

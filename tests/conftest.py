"""Shared helpers: the small graph corpus, random-graph utilities and
independent reference implementations used as test oracles."""

import itertools
import random

from gslogic import Graph, generate
from gslogic.logic import (
    And,
    Edge,
    Eq,
    Even,
    Exists,
    Forall,
    In,
    Not,
    Or,
)


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges, name=f"random({n})")


def small_corpus() -> list[Graph]:
    """Graphs with n <= 8 shared by the cut-rank, simulator, and acceptance
    suites. Mix of families, densities, and a couple of seeded random ones."""
    rng = random.Random(20240811)
    return [
        generate("path", 2),
        generate("path", 3),
        generate("path", 5),
        generate("path", 8),
        generate("cycle", 3),
        generate("cycle", 4),
        generate("cycle", 6),
        generate("cycle", 8),
        generate("grid", 2),
        generate("complete", 4),
        generate("complete", 5),
        generate("binary_tree", 1),
        generate("binary_tree", 2),
        generate("triangular", 2),
        generate("hexagonal", 2),
        Graph.from_edges(4, [], name="edgeless(4)"),
        random_graph(7, rng),
        random_graph(8, rng),
    ]


def all_graphs(n: int):
    """Every labeled simple graph on n vertices (2^binom(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        yield Graph.from_edges(n, edges)


def reference_cut_rank(g: Graph, side) -> int:
    """GF(2) rank of the adjacency block between ``side`` and the rest.

    The rows come from `g.edges()`: row a, for a in side, has bit b set for
    each edge (a, b) that crosses the cut. They are reduced against an xor
    basis kept sorted by leading bit, the method of `bench/oracles.py`, where
    `gslogic.gf2` pivots on the lowest bit through a dict; nothing here is
    shared with the package.
    """
    side = set(side)
    rows = dict.fromkeys(side, 0)
    for u, v in g.edges():
        if (u in side) != (v in side):
            a, b = (u, v) if u in side else (v, u)
            rows[a] |= 1 << b
    basis: list[int] = []  # decreasing leading bit
    for row in rows.values():
        for b in basis:
            # b's leading bit is set in row exactly when xor lowers row
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def exhaustive_rankwidth(g: Graph) -> int:
    """Rank-width by walking all (2n-5)!! subcubic trees (n >= 2).

    Leaf k = 2..n-1 is inserted into every edge of each tree on leaves
    0..k-1. Each edge is kept as its far side (the leaves away from leaf 0),
    and the cut-ranks come from `reference_cut_rank`, so nothing here is
    shared with the subset DP of `exact_rankwidth`.
    """
    n = g.n
    cut_ranks = [
        reference_cut_rank(g, [v for v in range(n) if (mask >> v) & 1])
        for mask in range(1 << n)
    ]

    def insert(far: list[int], i: int, bit: int) -> list[int]:
        # edge i keeps the half towards leaf 0; the other half and the new
        # leaf's edge are appended; every edge between leaf 0 and edge i
        # gains the leaf
        m = far[i]
        child = [(f | bit) if (m | f) == f else f for f in far]
        child[i] = m | bit
        child.append(m)
        child.append(bit)
        return child

    def best(far: list[int], k: int) -> int:
        if k == n:
            return max(cut_ranks[f] for f in far)
        return min(best(insert(far, i, 1 << k), k + 1) for i in range(len(far)))

    return best([2], 2)


def reference_greedy_order(g: Graph) -> list[int]:
    """The vertex order of `greedy_decomposition`, by its definition.

    Each step appends the unplaced vertex whose prefix has the smallest
    cut-rank, ties to the smallest index. Every prefix cut-rank is taken
    afresh from `reference_cut_rank`, so none of the incremental basis
    updates of `greedy_decomposition` is used here.
    """
    order: list[int] = []
    unplaced = list(range(g.n))
    while unplaced:
        best = min(unplaced, key=lambda v: reference_cut_rank(g, order + [v]))
        order.append(best)
        unplaced.remove(best)
    return order


def reference_evaluate(g: Graph, f, env: dict | None = None) -> bool:
    """Truth of a formula on g by the textbook recursive definition.

    This is the evaluator's former semantics, kept as an oracle. Every
    binding makes a fresh dict, quantifiers are `any`/`all` over the domain,
    set values are frozensets and edges come from `g.edges()`, so nothing
    here is shared with the compiled closures of `gslogic.logic.evaluate`.
    """
    env = {} if env is None else env
    if isinstance(f, (Exists, Forall)):
        if f.var[0].isupper():
            domain = (
                frozenset(c)
                for k in range(g.n + 1)
                for c in itertools.combinations(range(g.n), k)
            )
        else:
            domain = range(g.n)
        values = (reference_evaluate(g, f.body, {**env, f.var: d}) for d in domain)
        return any(values) if isinstance(f, Exists) else all(values)
    if isinstance(f, Not):
        return not reference_evaluate(g, f.body, env)
    if isinstance(f, And):
        return reference_evaluate(g, f.left, env) and reference_evaluate(g, f.right, env)
    if isinstance(f, Or):
        return reference_evaluate(g, f.left, env) or reference_evaluate(g, f.right, env)
    if isinstance(f, Edge):
        u, v = env[f.x], env[f.y]
        return (min(u, v), max(u, v)) in g.edges()
    if isinstance(f, In):
        return env[f.x] in env[f.set_var]
    if isinstance(f, Even):
        return len(env[f.set_var]) % 2 == 0
    if isinstance(f, Eq):
        return env[f.x] == env[f.y]
    raise TypeError(f"not a formula node: {f!r}")


def reference_free_variables(f, bound: frozenset = frozenset()) -> tuple[set, set]:
    """Free vertex and free set variables of a formula, by recursion.

    Each name is sorted by its place in its atom: the operands of `edge` and
    `=` and the left side of `in` are vertex places, the right side of `in`
    and the argument of `Even` are set places. Nothing is shared with the
    compile walk of `gslogic.logic.free_variables`.
    """
    if isinstance(f, (Exists, Forall)):
        return reference_free_variables(f.body, bound | {f.var})
    if isinstance(f, Not):
        return reference_free_variables(f.body, bound)
    if isinstance(f, (And, Or)):
        left_v, left_s = reference_free_variables(f.left, bound)
        right_v, right_s = reference_free_variables(f.right, bound)
        return left_v | right_v, left_s | right_s
    if isinstance(f, (Edge, Eq)):
        return {f.x, f.y} - bound, set()
    if isinstance(f, In):
        return {f.x} - bound, {f.set_var} - bound
    if isinstance(f, Even):
        return set(), {f.set_var} - bound
    raise TypeError(f"not a formula node: {f!r}")

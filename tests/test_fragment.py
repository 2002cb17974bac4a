"""The vertex-order DP for fragment formulas, against exhaustive evaluation."""

import hashlib
import importlib.util
import json
import random
import sys
from collections import deque
from itertools import product
from pathlib import Path

import pytest

import gslogic.cli
import gslogic.fragment
import gslogic.logic
from conftest import all_graphs, random_graph
from gslogic import (
    Graph,
    SizeLimitError,
    evaluate,
    free_variables,
    generate,
    named_formula,
    parse_formula,
    pretty,
    relabel,
    serialize,
)
from gslogic.fragment import decide, recognize, theory_member, theory_member_witness
from gslogic.gf2 import cut_rank_masks, gf2_reduce
from gslogic.logic import NAMED_FORMULA_SOURCES, And, Edge, Eq, Even, Exists, Forall, In, Not, Or
from test_logic import EVEN_DEGREES, PERFECT_CODE, TINY_GRAPHS, _closed, _random_body

BENCH = Path(__file__).resolve().parent.parent / "bench"

# X is a clique with an odd number of vertices, at least two: the graph has
# a triangle. Only the non-edges constrain beta, so a DP that forgets the
# placed vertices without later neighbours gets it wrong.
ODD_CLIQUE = (
    "exists X. (forall x. forall y. x = y | edge(x, y) | !(x in X & y in X))"
    " & !Even(X) & (exists x. exists y. x in X & y in X & !(x = y))"
)

FRAGMENT_FORMULAS = {
    "two_colorable": named_formula("two_colorable"),
    "connected": named_formula("connected"),
    "even_order": named_formula("even_order"),
    "odd_clique": parse_formula(ODD_CLIQUE),
    "perfect_code": parse_formula(PERFECT_CODE),
    "even_degrees": parse_formula(EVEN_DEGREES),
}


def _decide(g, f):
    fragment = recognize(f)
    assert fragment is not None, pretty(f)
    return decide(g, fragment)


@pytest.mark.parametrize("name", sorted(FRAGMENT_FORMULAS))
def test_decide_matches_evaluate_on_every_small_graph(name):
    f = FRAGMENT_FORMULAS[name]
    for n in range(6):
        for g in all_graphs(n):
            assert _decide(g, f) == evaluate(g, f), (name, g)


def _qf(rng: random.Random, names: str):
    """A quantifier-free body from _random_body over the vertex ``names``
    and the sets S and T, without Even."""
    while True:
        body = _random_body(rng, 2, quantifiers=False)
        vertices, _ = free_variables(body)
        if vertices <= set(names) and "Even" not in pretty(body):
            return body


def _random_piece(rng: random.Random):
    pick = rng.randrange(5)
    if pick == 0:
        return Even(rng.choice("ST"))
    maker = rng.choice((Exists, Forall))
    if pick == 1:
        return maker("x", _qf(rng, "x"))
    inner = maker("y", _qf(rng, "xy"))
    if pick == 2:
        # forall x. !exists y. beta is forall x. forall y. !beta
        inner = Not(Forall("y", inner.body) if maker is Exists else Exists("y", inner.body))
    return maker("x", inner)


def _random_psi(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _random_piece(rng)
    pick = rng.randrange(3)
    if pick == 0:
        return Not(_random_psi(rng, depth - 1))
    maker = rng.choice((And, Or))
    return maker(_random_psi(rng, depth - 1), _random_psi(rng, depth - 1))


def _negated_set_prefix(rng: random.Random, psi):
    """psi under exists or forall S and T, in either order, with up to two
    negations before each quantifier and before psi; and whether the two
    quantifiers have one kind once the negations are pushed inward."""
    plan = [(rng.randrange(3), rng.choice((Exists, Forall)), name) for name in rng.sample("ST", 2)]
    f = psi
    for _ in range(rng.randrange(3)):
        f = Not(f)
    for negations, maker, name in reversed(plan):
        f = maker(name, f)
        for _ in range(negations):
            f = Not(f)
    kinds, negated = set(), False
    for negations, maker, _ in plan:
        negated ^= negations % 2 == 1
        kinds.add((maker is Forall) != negated)
    return f, len(kinds) == 1


def test_decide_matches_evaluate_on_random_fragment_formulas():
    # e.g. exists S. !forall T. psi is exists S. exists T. !psi, and
    # !exists S. !exists T. psi is forall S. exists T. psi, which alternates
    rng = random.Random(31)
    graphs = [random_graph(n, rng, 0.5) for n in (3, 4, 4, 5)]
    alternating = 0
    for i in range(480):
        f, one_kind = _negated_set_prefix(rng, _random_psi(rng, 2))
        if not one_kind:
            assert recognize(f) is None, pretty(f)
            alternating += 1
            continue
        for g in [graphs[i % len(graphs)], *TINY_GRAPHS]:
            assert _decide(g, f) == evaluate(g, f), (g, pretty(f))
    assert 120 < alternating < 360


def _rename(f, old: str, new: str):
    """The quantifier-free f with vertex name ``old`` replaced by ``new``."""
    if isinstance(f, Not):
        return Not(_rename(f.body, old, new))
    if isinstance(f, (And, Or)):
        return type(f)(_rename(f.left, old, new), _rename(f.right, old, new))
    swap = lambda name: new if name == old else name
    if isinstance(f, In):
        return In(swap(f.x), f.set_var)
    return type(f)(swap(f.x), swap(f.y))


def _random_count(rng: random.Random):
    """A count atom on x of a random shape, beta from _qf."""
    beta = _qf(rng, "xy")
    pick = rng.randrange(4)
    if pick < 2:
        return (Exists, Forall)[pick]("y", beta)
    if pick == 2:
        pair = Not(And(beta, _rename(beta, "y", "z")))
        return Forall("y", Forall("z", Or(pair, Eq("y", "z"))))
    pinned = Or(And(In("y", "U"), beta), And(Not(In("y", "U")), Not(beta)))
    even = Even("U") if rng.random() < 0.5 else Not(Even("U"))
    return Exists("U", And(even, Forall("y", pinned)))


def _random_gamma(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.4:
        return _random_count(rng) if rng.random() < 0.75 else _qf(rng, "x")
    if rng.randrange(3) == 0:
        return Not(_random_gamma(rng, depth - 1))
    maker = rng.choice((And, Or))
    return maker(_random_gamma(rng, depth - 1), _random_gamma(rng, depth - 1))


def test_decide_matches_evaluate_on_random_counting_formulas():
    rng = random.Random(19)
    graphs = [random_graph(n, rng, p) for n, p in ((3, 0.5), (4, 0.5), (4, 0.3), (4, 0.7))]
    for i in range(150):
        psi = rng.choice((Exists, Forall))("x", _random_gamma(rng, 2))
        if i % 2:
            psi = rng.choice((And, Or))(psi, _random_piece(rng))
        f = _closed(psi, rng.choice(("ESET", "FSFT", "ETES")))
        if i % 3 == 0:
            f = Not(f)
        assert recognize(f) is not None, pretty(f)
        for g in [graphs[i % len(graphs)], *TINY_GRAPHS]:
            assert _decide(g, f) == evaluate(g, f), (g, pretty(f))


def test_count_atoms_with_two_bodies_are_refused_unless_the_bodies_agree():
    # "at most one" with y-half a and z-half b, every other one without its
    # y = z, "even" with a when y is in U and b when not: the recognizer
    # must see whether they fit the shape
    rng = random.Random(23)
    graphs = [random_graph(n, rng, 0.5) for n in (3, 4, 4)]
    refused = 0
    for i in range(200):
        a, b = _qf(rng, "xy"), _qf(rng, "xy")
        if i % 2:
            atom = Not(And(a, _rename(b, "y", "z")))
            if i % 4 == 1:
                atom = Or(atom, Eq("y", "z"))
            atom = Forall("y", Forall("z", atom))
        else:
            pinned = Or(And(In("y", "U"), a), And(Not(In("y", "U")), b))
            atom = Exists("U", And(Even("U"), Forall("y", pinned)))
        f = _closed(Forall("x", atom), "ESET")
        if recognize(f) is None:
            refused += 1
            continue
        for g in [graphs[i % len(graphs)], *TINY_GRAPHS]:
            assert _decide(g, f) == evaluate(g, f), (g, pretty(f))
    assert 20 < refused < 180


def _shaped_qf(rng: random.Random, vertices: str, depth: int, loose: float):
    """A quantifier-free body of depth at most ``depth`` over ``vertices``
    and the sets X and Y; with probability ``loose`` an atom's vertex is
    any of x, y and z instead."""
    if depth <= 1 or rng.random() < 0.4:
        names = [rng.choice("xyz" if rng.random() < loose else vertices) for _ in range(2)]
        pick = rng.randrange(3)
        return In(names[0], rng.choice("XY")) if pick == 2 else (Edge, Eq)[pick](*names)
    if rng.randrange(3) == 0:
        return Not(_shaped_qf(rng, vertices, depth - 1, loose))
    return rng.choice((And, Or))(_shaped_qf(rng, vertices, depth - 1, loose),
                                 _shaped_qf(rng, vertices, depth - 1, loose))


def _shaped_count(rng: random.Random, x: str, depth: int, loose: float):
    """A count atom on x of a shape that fits in ``depth``; its y and z may
    be x, and the set of "even" may shadow X or Y."""
    y, z = rng.choice("xyz"), rng.choice("xyz")
    pick = rng.randrange(4) if depth >= 6 else rng.randrange(3) if depth >= 4 else 0
    if pick < 2:
        return (Exists, Forall)[pick](y, _shaped_qf(rng, x + y, depth - 1, loose))
    beta = _shaped_qf(rng, x + y, depth - 4, loose)
    if pick == 2:
        other = _shaped_qf(rng, x + z, depth - 4, loose)
        return Forall(y, Forall(z, Or(Not(And(beta, other)), Eq(y, z))))
    s = rng.choice("XY")
    pinned = Or(And(In(y, s), beta), And(Not(In(y, s)), Not(beta)))
    even = Even(s) if rng.random() < 0.5 else Not(Even(s))
    return Exists(s, And(even, Forall(y, pinned)))


def _shaped_gamma(rng: random.Random, x: str, depth: int, loose: float):
    if depth <= 2 or rng.random() < 0.5:
        if rng.random() < 0.7:
            return _shaped_count(rng, x, depth, loose)
        return _shaped_qf(rng, x, depth, loose)
    if rng.randrange(3) == 0:
        return Not(_shaped_gamma(rng, x, depth - 1, loose))
    return rng.choice((And, Or))(_shaped_gamma(rng, x, depth - 1, loose),
                                 _shaped_gamma(rng, x, depth - 1, loose))


def _shaped_piece(rng: random.Random, depth: int, loose: float):
    """Even, a counting piece, or one to three vertex quantifiers of one
    kind over a body; the names may repeat."""
    pick = rng.randrange(5)
    if pick == 0 or depth <= 1:
        return Even(rng.choice("XY"))
    maker = rng.choice((Exists, Forall))
    if pick == 4:
        x = rng.choice("xyz")
        return maker(x, _shaped_gamma(rng, x, depth - 1, loose))
    names = [rng.choice("xyz") for _ in range(min(pick, depth - 1))]
    f = _shaped_qf(rng, "".join(names), depth - len(names), loose)
    for name in reversed(names):
        f = maker(name, f)
    return f


def _shaped_psi(rng: random.Random, depth: int, loose: float):
    if depth <= 3 or rng.random() < 0.4:
        return _shaped_piece(rng, depth, loose)
    if rng.randrange(3) == 0:
        return Not(_shaped_psi(rng, depth - 1, loose))
    return rng.choice((And, Or))(_shaped_psi(rng, depth - 1, loose),
                                 _shaped_psi(rng, depth - 1, loose))


def _shaped_formula(rng: random.Random):
    """A psi of depth at most 6 under exists or forall X and Y, each maybe
    negated. About 30% are open: the prefix binds X twice, or an atom
    names a vertex no quantifier binds."""
    f = _shaped_psi(rng, 6, rng.choice((0.0, 0.25)))
    for name in rng.choice(("XY", "YX", "XY", "YX", "XX")):
        f = rng.choice((Exists, Forall))(name, f)
        if rng.random() < 0.2:
            f = Not(f)
    return f


def test_recognition_and_verdicts_of_shaped_formulas_are_pinned(monkeypatch):
    # 2,000 formulas near the fragment's shapes, open ones and shadowed
    # names among them; the digest pins which are recognized, and decide's
    # verdict on each graph. A cap of 32 states keeps each decide short on
    # grid:3 and pins where it is passed.
    monkeypatch.setattr(gslogic.fragment, "MAX_STATES", 32)
    graphs = [generate(*spec) for spec in (("cycle", 5), ("grid", 3), ("path", 4), ("complete", 4))]

    def verdict(g, fragment):
        try:
            return decide(g, fragment)
        except SizeLimitError:
            return "limit"

    rng = random.Random(34)
    digest = hashlib.sha256()
    counts = {"open": 0, "recognized": 0, "limit": 0}
    for _ in range(2000):
        f = _shaped_formula(rng)
        fragment = recognize(f)
        verdicts = "refused" if fragment is None else [verdict(g, fragment) for g in graphs]
        digest.update(repr((pretty(f), fragment is None, verdicts)).encode())
        counts["open"] += any(free_variables(f))
        counts["recognized"] += fragment is not None
        counts["limit"] += "limit" in verdicts
    assert counts == {"open": 575, "recognized": 528, "limit": 59}
    assert digest.hexdigest() == "d9f558dc287a98e627b8cf14fdc5417d4622317211d86ea90fba7fac1abcc3ce"


@pytest.mark.parametrize("name", ["perfect_code", "even_degrees"])
def test_counting_formulas_match_evaluate_on_the_logic_workload(name):
    f = FRAGMENT_FORMULAS[name]
    for source in sorted({source for sources in LOGIC_WORKLOAD_LISTS for source in sources}):
        g = gslogic.cli.load_graph(source)
        assert _decide(g, f) == evaluate(g, f), source


def test_counting_closed_forms_past_a_thousand_vertices():
    perfect_code, even_degrees = FRAGMENT_FORMULAS["perfect_code"], FRAGMENT_FORMULAS["even_degrees"]
    # cycle:n has a perfect code exactly when 3 divides n; every path has one
    for n in range(3, 31):
        assert _decide(generate("cycle", n), perfect_code) == (n % 3 == 0), n
        assert _decide(generate("path", n), perfect_code), n
    assert _decide(generate("cycle", 999), perfect_code)
    assert not _decide(generate("cycle", 1000), perfect_code)
    assert _decide(generate("path", 1000), perfect_code)
    assert _decide(generate("cycle", 1000), even_degrees)
    assert not _decide(generate("grid", 32), even_degrees)
    assert _decide(generate("complete", 41), even_degrees)
    assert not _decide(generate("complete", 40), even_degrees)


THREE_COLOURS = (
    "exists X. exists Y. exists Z. (forall x. x in X | x in Y | x in Z)"
    " & (forall x. forall y. !edge(x, y) | !((x in X & y in X) | (x in Y & y in Y)"
    " | (x in Z & y in Z)))"
)


def test_three_colourability_drops_the_classes_no_later_vertex_sees():
    # beta only constrains edges, so a class without unplaced neighbours
    # is dropped; keeping them all passed MAX_STATES on grid:5
    f = parse_formula(THREE_COLOURS)
    for n in range(5):
        for g in all_graphs(n):
            assert _decide(g, f) == evaluate(g, f), g
    # every cycle and path is 3-colourable, and so is the triangular
    # lattice, coloured (r, c) -> (r + c) mod 3
    for kind, size, holds in [("grid", 5, True), ("triangular", 12, True), ("cycle", 301, True),
                              ("path", 300, True), ("complete", 4, False), ("cycle", 1000, True),
                              ("cycle", 1001, True), ("path", 1000, True), ("triangular", 32, True)]:
        assert _decide(generate(kind, size), f) == holds, (kind, size)


def test_three_colourability_matches_a_brute_force_colouring():
    fragment = recognize(parse_formula(THREE_COLOURS))
    colourings = list(product(range(3), repeat=5))
    for g in all_graphs(5):
        edges = g.edges()
        want = any(all(c[u] != c[v] for u, v in edges) for c in colourings)
        assert decide(g, fragment) == want, edges


def _reference_breadth_first(g):
    """The vertices in breadth-first order, each component from its lowest
    unplaced vertex and each vertex's new neighbours in increasing order."""
    order, queue = [], deque()
    for root in range(g.n):
        if root in order:
            continue
        order.append(root)
        queue.append(root)
        while queue:
            v = queue.popleft()
            for u in range(g.n):
                if g.adj[v] >> u & 1 and u not in order:
                    order.append(u)
                    queue.append(u)
    return order


def test_outside_rows_have_the_cut_rank_of_their_prefix():
    # a state sums the placed vertices up by their outside rows; along the
    # order those rows have the GF(2) rank of the prefix's cut, so a step
    # sees at most 2^rank distinct ones, and the rank sets the states
    rng = random.Random(8)
    specs = (("grid", 6), ("triangular", 5), ("hexagonal", 6), ("binary_tree", 5), ("cycle", 20))
    graphs = [generate(*spec) for spec in specs]
    graphs += [random_graph(rng.randrange(6, 19), rng, 0.3) for _ in range(15)]
    prefixes = 0
    for g in graphs:
        order = _reference_breadth_first(g)
        place = {v: i for i, v in enumerate(order)}
        rows = list(gslogic.fragment._outside_rows(g))
        # each row holds the later neighbours of its vertex in this order
        assert rows == [sum(1 << g.n - 1 - place[u] for u in range(g.n)
                            if g.adj[v] >> u & 1 and place[u] > place[v])
                        for v in order], g.name
        placed = 0
        for i, v in enumerate(order, 1):
            placed |= 1 << v
            # the i-th vertex of the order is bit n - i of a row
            outside = [row & (1 << g.n - i) - 1 for row in rows[:i]]
            pivots: dict[int, int] = {}
            for row in outside:
                row = gf2_reduce(pivots, row)
                if row:
                    pivots[row & -row] = row
            rank = cut_rank_masks(g.adj, placed, (1 << g.n) - 1 ^ placed)
            assert len(pivots) == rank, (g.name, i)
            assert len(set(outside)) <= 1 << rank, (g.name, i)
            prefixes += 1
    assert prefixes == 340


def test_one_check_builds_the_formula_tables_once(monkeypatch, capsys):
    # recognize builds the tables decide reads; nothing is kept across
    # recognize calls, so every query builds its own
    builds = []
    build = gslogic.fragment._program
    monkeypatch.setattr(gslogic.fragment, "_program", lambda *args: builds.append(args) or build(*args))
    assert gslogic.cli.main(["check", "--named", "two_colorable", "path:3", "cycle:4", "grid:2"]) == 0
    assert "true" in capsys.readouterr().out
    assert len(builds) == 1
    f = named_formula("two_colorable")
    assert theory_member([generate("path", 3), generate("cycle", 5)], f) is False
    assert recognize(f) is not None
    assert len(builds) == 3


def test_closed_forms_at_a_thousand_vertices(tmp_path):
    two_colorable, even_order = named_formula("two_colorable"), named_formula("even_order")
    assert _decide(generate("cycle", 1000), two_colorable)
    assert not _decide(generate("cycle", 1001), two_colorable)
    assert _decide(generate("path", 1000), even_order)
    assert not _decide(generate("path", 1001), even_order)
    # two paths of 600 vertices, the second numbered first
    edges = [(v, v + 1) for v in range(599)] + [(v, v + 1) for v in range(600, 1199)]
    text = f"1200 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    path = tmp_path / "two_paths.edges"
    path.write_text(text)
    g = gslogic.cli.load_graph(str(path))
    assert not _decide(g, named_formula("connected"))
    assert _decide(generate("path", 1000), named_formula("connected"))


def test_verdict_does_not_depend_on_the_vertex_order():
    rng = random.Random(17)
    graphs = [generate("grid", 6), generate("hexagonal", 6)]
    graphs += [random_graph(n, rng, p) for n, p in ((12, 0.5), (20, 0.15), (30, 0.07))]
    for g in graphs:
        for name, f in FRAGMENT_FORMULAS.items():
            want = _decide(g, f)
            for seed in range(3):
                perm = list(range(g.n))
                random.Random(seed).shuffle(perm)
                assert _decide(relabel(g, perm), f) == want, (g.n, name, seed)


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


@pytest.mark.parametrize(
    "source", ["grid:16", "hexagonal:10", "triangular:10", "binary_tree:6", "cycle:101", "path:200"]
)
def test_a_small_state_cap_answers_on_shuffled_numberings(monkeypatch, source):
    # the order comes from the graph, so a relabelling costs no extra states
    monkeypatch.setattr(gslogic.fragment, "MAX_STATES", 8)
    kind, size = source.split(":")
    g = generate(kind, int(size))
    for name in ("two_colorable", "connected", "even_order"):
        f = named_formula(name)
        want = _decide(g, f)
        for seed in range(5):
            assert _decide(_shuffled(g, seed), f) == want, (source, name, seed)


def _mixed_union(g, h, seed):
    """The disjoint union of g and h, its vertex ids shuffled across both."""
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return _shuffled(Graph.from_edges(g.n + h.n, edges), seed)


def test_components_interleaved_in_the_numbering():
    g = _mixed_union(_shuffled(generate("grid", 8), 1), generate("path", 50), 2)
    assert not _decide(g, named_formula("connected"))
    assert _decide(g, named_formula("two_colorable"))
    assert _decide(g, named_formula("even_order")) == (g.n % 2 == 0)
    small = [("grid", 2, "path", 3), ("cycle", 3, "path", 2), ("path", 1, "cycle", 5),
             ("path", 2, "triangular", 2)]
    for seed, (a, i, b, j) in enumerate(small):
        g = _mixed_union(generate(a, i), generate(b, j), seed)
        for name, f in FRAGMENT_FORMULAS.items():
            assert _decide(g, f) == evaluate(g, f), (a, i, b, j, name)


RECOGNIZED = [
    "exists X. exists Y. (forall z. z in X | z in Y) & !Even(Y)",
    "forall X. Even(X)",
    "!(exists X. !Even(X))",
    "forall X. forall Y. Even(X) | Even(Y)",
    "exists X. !(forall Y. (exists x. x in X) & Even(Y))",
    "exists X. !!(exists Y. forall x. x in X | x in Y)",
    "exists x. x = x",
    "exists x. exists y. edge(x, y)",
    "forall x. !(exists y. edge(x, y) & x = y)",
    "exists X. forall x. forall x. x in X",
    "exists S. exists S. Even(S) & (forall x. x in S)",
    "exists X. (exists x. x in X & edge(x, x)) | !(forall x. forall y. x = y)",
    # counting pieces
    PERFECT_CODE,
    EVEN_DEGREES,
    "forall x. exists y. edge(x, y)",
    "forall x. !(forall y. edge(x, y))",
    "exists X. forall x. x in X | !(exists y. y in X & edge(x, y))",
    "forall x. !(exists X. !Even(X) & (forall y. !(y in X) & edge(x, y) | !edge(x, y) & y in X))",
    "exists x. exists y. exists z. !(edge(x, y) | x = y) & !(edge(x, z) | x = z) & !(y = z)",
    "exists X. exists x. !(x in X) & (forall y. forall z. !(edge(x, y) & edge(x, z)) | y = z)",
]

NOT_RECOGNIZED = [
    "exists x. exists y. exists z. edge(x, y) & edge(y, z)",
    "exists X. forall Y. Even(X) | Even(Y)",
    "forall X. exists Y. Even(X) | Even(Y)",
    "exists X. !(exists Y. Even(X) | Even(Y))",
    "exists X. forall x. Even(X) | x in X",
    "exists X. forall x. forall y. Even(X) | edge(x, y)",
    "exists X. forall x. exists X. x in X",
    "exists X. exists x. exists y. exists z. edge(x, y) | z in X",
    "exists X. forall x. edge(x, y)",
    "exists X. forall x. x in Y",
    "exists X. Even(Y)",
    "exists X. x in X",
    "exists x. exists X. x in X",
    # "at most one" without its y = z: no vertex has a neighbour, and its
    # negation, some vertex has one
    "forall x. forall y. forall z. !(edge(x, y) & edge(x, z))",
    "exists x. exists y. exists z. edge(x, y) & edge(x, z)",
    # "at most one" whose y-half and z-half differ
    "exists X. forall x. forall y. forall z. !(y in X & edge(x, y) & z in X"
    " & (z = x | edge(x, z))) | y = z",
    # count bodies that relate y to a third vertex
    "forall x. forall y. forall z. !(edge(x, y) & edge(x, z)) | edge(y, z)",
    "forall x. exists y. edge(x, y) & (exists z. edge(y, z) & !(z = x))",
    # an Even(X) whose X the body does not pin to the neighbours
    "forall x. exists X. Even(X) & (forall y. !(y in X) | edge(x, y))",
    "forall x. exists X. Even(X) & (exists y. y in X & edge(x, y))",
    "forall x. exists X. Even(X) & (forall y. y in X & edge(x, y) | !(x in X) & !edge(x, y))",
    # a count body naming five sets, more than MAX_COUNT_SETS
    "exists A. exists B. exists C. exists D. exists E. forall x. exists y."
    " y in A & y in B & y in C & y in D & y in E & edge(x, y)",
    # 13 sets named in psi, one more than the labels of a vertex may take
    "".join(f"exists X{i}. " for i in range(13)) + " & ".join(f"Even(X{i})" for i in range(13)),
]


@pytest.mark.parametrize("source", RECOGNIZED)
def test_recognizer_accepts(source):
    f = parse_formula(source)
    assert recognize(f) is not None
    for g in TINY_GRAPHS + [generate("path", 3), generate("cycle", 4)]:
        assert _decide(g, f) == evaluate(g, f), g


@pytest.mark.parametrize("source", NOT_RECOGNIZED)
def test_recognizer_refuses(source):
    assert recognize(parse_formula(source)) is None


def test_twelve_set_variables_are_the_most_the_fragment_takes(monkeypatch):
    # psi names every set, so each takes a label bit
    def named(k):
        evens = " & ".join(f"Even(X{i})" for i in range(1, k))
        return parse_formula("".join(f"exists X{i}. " for i in range(k))
                             + f"(forall x. x in X0) & {evens}")

    one = generate("path", 1)
    assert _decide(one, named(12)) and evaluate(one, named(12))
    assert recognize(named(13)) is None and evaluate(one, named(13))
    # the label limit is its own, not the state limit of decide
    monkeypatch.setattr(gslogic.fragment, "MAX_STATES", 8)
    assert recognize(named(12)) is not None


# some vertex has no neighbour in Y; its X and the outer ones are named
# nowhere
UNUSED_SET = "exists X. exists Y. exists y. forall x. !x in Y | edge(x, y)"


def test_a_set_psi_does_not_name_takes_no_label():
    f = parse_formula(UNUSED_SET)
    # 13 set quantifiers, two of them named, leave 4 labels
    many = parse_formula("".join(f"exists X{i}. " for i in range(11)) + UNUSED_SET)
    for g in (generate("grid", 3), generate("cycle", 9)):
        assert decide(g, recognize(f)) == decide(g, recognize(many)) == evaluate(g, f), g


@pytest.mark.parametrize("source", [
    # Y is named only in the beta of a count atom, X only in the body of
    # "even", where an inner X shadows the outer one
    "exists Y. exists Z. Even(Z) & (forall x. exists y. y in Y & edge(x, y))",
    "exists X. exists Y. forall x. !(exists X. Even(X) & (forall y. y in X & y in Y"
    " & edge(x, y) | !(y in X) & !(y in Y & edge(x, y))))",
])
def test_a_set_named_only_inside_gamma_keeps_its_label(source):
    f = parse_formula(source)
    assert recognize(f) is not None
    for g in TINY_GRAPHS + [generate("path", 4), generate("cycle", 5), generate("grid", 2)]:
        assert decide(g, recognize(f)) == evaluate(g, f), g


def test_library_formulas_split_by_shape():
    assert recognize(named_formula("path2")) is None
    for name in ("two_colorable", "connected", "even_order"):
        assert recognize(named_formula(name)) is not None


@pytest.mark.parametrize(
    "f",
    [
        Exists("X", Edge("X", "X")),
        Exists("X", Eq("X", "X")),
        Exists("x", In("x", "x")),
        Exists("x", Even("x")),
        Exists("X", Forall("x", In("x", "x"))),
        Exists("X", Forall("", Eq("", ""))),
        Exists("", Forall("x", Eq("x", "x"))),
        Exists("X", Even("x")),
    ],
    ids=pretty,
)
def test_a_name_of_the_wrong_sort_goes_to_evaluate(f):
    # evaluate raises the one ValueError for these on both paths of check
    assert recognize(f) is None
    with pytest.raises(ValueError, match="variable"):
        evaluate(generate("path", 3), f)


def test_state_limit_refuses_after_the_work(monkeypatch, capsys):
    # some vertex set is independent
    text = "exists X. forall x. forall y. !(x in X & y in X & edge(x, y))"
    f, g = parse_formula(text), random_graph(24, random.Random(2), 0.5)
    assert _decide(g, f)
    monkeypatch.setattr(gslogic.fragment, "MAX_STATES", 8)
    with pytest.raises(SizeLimitError, match=r"more than 8 states at vertex \d+ of 24"):
        _decide(g, f)
    assert gslogic.cli.main(["check", text, "grid:6"]) == 3
    assert "more than 8 states at vertex" in capsys.readouterr().err


def _walk(g, fragment):
    """The verdict and the most states of one step, stepping the states by
    hand along decide's order and outside rows."""
    states, peak = {(frozenset(), 0)}, 1
    for i, row in enumerate(gslogic.fragment._outside_rows(g), 1):
        states = {after for state in states for after in fragment.step(state, row, 1 << g.n - i)}
        peak = max(peak, len(states))
    return any(map(fragment.accepts, states)) != fragment.negated, peak


@pytest.mark.parametrize("source", RECOGNIZED)
def test_stepping_by_hand_gives_the_verdict_of_decide(source):
    # the successor function a caller other than decide steps on its own
    fragment = recognize(parse_formula(source))
    for g in TINY_GRAPHS + [_shuffled(generate("grid", 3), 4)]:
        assert _walk(g, fragment)[0] == decide(g, fragment), g


def test_a_step_may_hold_exactly_max_states(monkeypatch):
    # some vertex set is independent: 22 states at its peak here
    text = "exists X. forall x. forall y. !(x in X & y in X & edge(x, y))"
    fragment, g = recognize(parse_formula(text)), random_graph(14, random.Random(2), 0.5)
    want, peak = _walk(g, fragment)

    def answers(limit):
        monkeypatch.setattr(gslogic.fragment, "MAX_STATES", limit)
        try:
            assert decide(g, fragment) == want
        except SizeLimitError:
            return False
        return True

    low, high = 1, gslogic.fragment.MAX_STATES  # refused at low, answered at high
    assert answers(high) and not answers(low)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if answers(mid) else (mid, high)
    # the least limit decide answers under is the most states a step holds
    assert high == peak == 22
    monkeypatch.setattr(gslogic.fragment, "MAX_STATES", peak - 1)
    with pytest.raises(SizeLimitError, match=f"more than {peak - 1} states"):
        decide(g, fragment)


def test_empty_graph_and_single_vertex():
    empty, one = Graph(0, ()), generate("path", 1)
    for f in FRAGMENT_FORMULAS.values():
        assert _decide(empty, f) == evaluate(empty, f)
        assert _decide(one, f) == evaluate(one, f)


def test_check_reports_the_method_of_every_library_formula(capsys):
    methods = {"two_colorable": "decomposition", "connected": "decomposition",
               "even_order": "decomposition", "path2": "exhaustive"}
    assert set(methods) == set(NAMED_FORMULA_SOURCES)
    for name, method in methods.items():
        assert gslogic.cli.main(["check", "--named", name, "path:4", "cycle:4",
                                 "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["methods"] == [method, method]
        assert gslogic.cli.main(["check", "--named", name, "path:4"]) == 0
        assert f"graph[0] path:4 (n=4): true ({method})" in capsys.readouterr().out
    for text in (EVEN_DEGREES, PERFECT_CODE):
        assert gslogic.cli.main(["check", text, "path:3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["methods"] == ["decomposition"]


def test_check_open_formula_is_a_usage_error_on_either_path(capsys):
    for text in ("exists X. forall x. x in Y", "exists X. forall x. forall y. edge(x, z)"):
        assert gslogic.cli.main(["check", text, "path:3"]) == 2
        assert "unbound variables" in capsys.readouterr().err


# Counting pieces that _pieces refuses deep inside gamma, one refusal each
FIVE_SETS = "exists A. exists B. exists C. exists D. exists E. "
CLOSED_REFUSED_COUNTS = [
    # a count atom whose vertex prefix alternates
    "exists X. forall x. x in X | (exists y. forall z. edge(y, z))",
    # a count atom that binds x again
    "exists X. forall x. x in X | (exists x. edge(x, x))",
    # a set quantifier in gamma with no Even conjunct
    "exists X. forall x. x in X | (exists Y. x in Y & (forall y. y in Y))",
    # "odd" over a beta that reads five sets
    FIVE_SETS + "forall x. exists Y. !Even(Y) & (forall y. (y in Y & edge(x, y) & x in A"
    " & x in B & x in C & x in D & x in E) | (!(y in Y) & !(edge(x, y) & x in A & x in B"
    " & x in C & x in D & x in E)))",
    # "two" over a beta that reads five sets
    FIVE_SETS + "exists x. exists y. exists z. edge(x, y) & edge(x, z) & y in A & z in A"
    " & y in B & z in B & y in C & z in C & y in D & z in D & y in E & z in E & !(y = z)",
]
OPEN_REFUSED_COUNTS = [
    # a one-vertex atom of gamma with a free vertex
    "exists X. forall x. edge(x, w) | (exists y. x in X & edge(x, y))",
    # the body of "even" with a free vertex
    "exists X. forall x. x in X | (exists Y. Even(Y) & (forall y. (y in Y & edge(x, y))"
    " | (!(y in Y) & !edge(w, y))))",
    # the body of "at most one" with a free vertex
    "exists X. forall x. x in X | (forall y. forall z. !(edge(x, y) & edge(x, z)"
    " & edge(w, y)) | y = z)",
]


@pytest.mark.parametrize("text", CLOSED_REFUSED_COUNTS)
def test_refused_counting_pieces_are_checked_exhaustively(text, capsys):
    f = parse_formula(text)
    assert recognize(f) is None
    graphs = ["path:1", "path:2", "path:3"]
    want = [evaluate(generate("path", n), f) for n in (1, 2, 3)]
    assert gslogic.cli.main(["check", text, *graphs, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["methods"] == ["exhaustive"] * 3
    assert out["verdicts"] == want


@pytest.mark.parametrize("text", OPEN_REFUSED_COUNTS)
def test_open_counting_pieces_are_a_usage_error(text, capsys):
    assert recognize(parse_formula(text)) is None
    assert gslogic.cli.main(["check", text, "path:3"]) == 2
    assert "unbound variables: w" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["&", "|"])
def test_a_connective_over_one_refused_piece_is_refused(op):
    # Even(X) is a piece, "some path of length two" is not
    f = parse_formula(f"exists X. Even(X) {op} (exists x. exists y. exists z."
                      f" edge(x, y) & edge(y, z))")
    assert recognize(f) is None
    for g in TINY_GRAPHS + [generate("path", 3)]:
        assert theory_member([g], f) == evaluate(g, f)


# X and Y placed apart from each other: a pair body over seven sets, one
# more than _far tries label by label
SEVEN_SETS_APART = (
    "exists A. exists B. exists C. exists D. exists E. exists F. exists G."
    " (exists x. exists y. x in A & y in B & x in C & y in D & x in E & y in F & x in G"
    " & !edge(x, y) & !(x = y)) & (forall x. x in A)"
)


def test_a_pair_body_over_seven_sets_is_far_at_every_label(monkeypatch):
    f = parse_formula(SEVEN_SETS_APART)
    # a body read over seven sets, even one that never holds, is taken to
    # hold on a non-adjacent pair at every label
    assert gslogic.fragment._far([(lambda *_: False, 0x7F)], range(128)) == frozenset(range(128))
    monkeypatch.setattr(gslogic.fragment, "MAX_STATES", 1 << 16)
    fragment = recognize(f)
    assert fragment is not None
    apart, joined = Graph.from_edges(2, []), generate("path", 2)
    assert decide(apart, fragment) == evaluate(apart, f) is True
    assert decide(joined, fragment) == evaluate(joined, f) is False
    # with no far label the two vertices never meet, and the witness is lost
    monkeypatch.setattr(gslogic.fragment, "_far", lambda bodies, labels: frozenset())
    assert decide(apart, recognize(f)) is False


def test_theory_member_decides_a_thousand_vertex_cycle():
    # evaluate alone refuses this: its first loop is over 2^1001 sets
    assert not theory_member([generate("cycle", 1001)], named_formula("two_colorable"))


def test_theory_member_witness_is_the_first_failure():
    graphs = [generate("path", 3), generate("cycle", 5), generate("path", 4)]
    assert theory_member_witness(graphs, named_formula("two_colorable")) == (False, 1)
    # the exhaustive path stops there too: complete:40 would be refused
    graphs = [generate("cycle", 5), generate("complete", 40)]
    f = parse_formula("exists X. forall Y. Even(X) & !Even(Y)")
    assert recognize(f) is None
    assert theory_member_witness(graphs, f) == (False, 0)


def test_theory_member_walks_the_names_at_most_twice(monkeypatch):
    # one walk finds f closed and one reads psi's names in recognize; the
    # graphs that evaluate answers (path2 holds on all five) add none
    walks = []
    real = gslogic.logic.free_variables

    def counted(f):
        walks.append(f)
        return real(f)
    monkeypatch.setattr(gslogic.logic, "free_variables", counted)
    monkeypatch.setattr(gslogic.fragment, "free_variables", counted)
    graphs = [generate(kind, k) for kind, k in
              [("path", 3), ("cycle", 4), ("grid", 2), ("complete", 4), ("binary_tree", 2)]]
    for name, verdict in [("path2", (True, None)), ("two_colorable", (False, 3))]:
        walks.clear()
        assert theory_member_witness(graphs, named_formula(name)) == verdict
        assert 0 < len(walks) <= 2, name


@pytest.mark.parametrize("name", ["connected", "even_order"])
def test_theory_member_on_a_nine_hundred_vertex_grid(name):
    assert theory_member([generate("grid", 30)], named_formula(name))


@pytest.mark.parametrize("text", ["x = x", "exists X. Even(Y)"])
def test_open_formula_is_refused_on_no_graphs(text):
    for member in (theory_member, theory_member_witness):
        with pytest.raises(ValueError, match="formula has unbound variables: "):
            member([], parse_formula(text))


# the generator lists of the logic workload in bench/workloads.py
LOGIC_WORKLOAD_LISTS = [
    ["cycle:8", "cycle:9"], ["grid:3"], ["hexagonal:3"], ["triangular:3"], ["path:9"],
    ["binary_tree:2", "cycle:7"], ["complete:3", "path:9"], ["path:8", "cycle:8"],
    ["cycle:6", "cycle:7", "cycle:8"], ["path:14"], ["cycle:12", "grid:3"],
    ["complete:12"], ["cycle:13"], ["path:13"], ["binary_tree:2", "path:12"],
    ["hexagonal:3", "cycle:11"], ["grid:3", "triangular:3", "path:10"],
    ["cycle:9", "cycle:10"], ["path:10"], ["complete:6", "cycle:12"], ["cycle:11"],
    ["path:11"], ["cycle:12"], ["path:12"], ["binary_tree:2", "path:9"],
    ["cycle:11", "complete:9"], ["complete:11", "path:5"], ["cycle:14"],
    ["path:14", "cycle:13"], ["complete:14"], ["cycle:12", "path:11"],
    ["complete:3", "path:1"], ["path:1", "path:2"],
]


def test_theory_member_witness_agrees_with_check(tmp_path, capsys):
    # the workload also draws random lists of 9-10 and 12-13 vertices
    rng = random.Random(16)
    lists = list(LOGIC_WORKLOAD_LISTS)
    for i, sizes in enumerate([(9, 10), (12, 13)] * 2):
        lists.append([])
        for n in sizes:
            path = tmp_path / f"g{i}_{n}.edges"
            path.write_text(serialize(random_graph(n, rng)), encoding="utf-8")
            lists[-1].append(str(path))
    texts = {**NAMED_FORMULA_SOURCES, "perfect_code": PERFECT_CODE, "even_degrees": EVEN_DEGREES}
    for text in texts.values():
        f = parse_formula(text)
        for sources in lists:
            assert gslogic.cli.main(["check", text, *sources, "--format", "json"]) == 0
            out = json.loads(capsys.readouterr().out)
            graphs = [gslogic.cli.load_graph(source) for source in sources]
            assert theory_member_witness(graphs, f) == (out["holds"], out["witness_index"]), sources


def _bench_module(monkeypatch, name: str):
    """bench/<name>.py, loaded from its file and seen in sys.modules under
    its own name for this test only."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_the_logic_workload_formulas_stay_in_the_fragment(monkeypatch):
    # bench/workloads.py times these formulas through check; one that left
    # the fragment would move the logic workload onto evaluate
    _bench_module(monkeypatch, "oracles")
    workloads = _bench_module(monkeypatch, "workloads")
    for text in workloads.USER_FORMULAS.values():
        assert recognize(parse_formula(text)) is not None, text
    for name in NAMED_FORMULA_SOURCES:
        assert (recognize(named_formula(name)) is None) == (name == "path2"), name


def test_reading_names_compiles_nothing(monkeypatch):
    # free_variables walks the AST; recognize reads psi's names with it and
    # compiles only bodies, through _pieces' own reference to _compile,
    # whose recursion, and only that, reaches the patched name
    _bench_module(monkeypatch, "oracles")
    workloads = _bench_module(monkeypatch, "workloads")
    calls = []
    compile_ = gslogic.logic._compile

    def counted(*args):
        if sys._getframe(1).f_code is not compile_.__code__:
            calls.append(args[0])
        return compile_(*args)
    monkeypatch.setattr(gslogic.logic, "_compile", counted)
    formulas = [named_formula(name) for name in NAMED_FORMULA_SOURCES]
    formulas += [parse_formula(text) for text in workloads.USER_FORMULAS.values()]
    for f in formulas:
        free_variables(f)
        recognize(f)
    assert len(formulas) == 6 and not calls

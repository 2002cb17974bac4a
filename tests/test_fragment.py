"""The vertex-order DP for fragment formulas, against exhaustive evaluation."""

import json
import random

import pytest

import gslogic.cli
import gslogic.fragment
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
)
from gslogic.fragment import decide, recognize
from gslogic.logic import NAMED_FORMULA_SOURCES, And, Edge, Eq, Even, Exists, Forall, In, Not, Or
from test_logic import EVEN_DEGREES, PERFECT_CODE, TINY_GRAPHS, _closed, _random_body

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


def test_decide_matches_evaluate_on_random_fragment_formulas():
    rng = random.Random(31)
    graphs = [random_graph(n, rng, 0.5) for n in (3, 4, 4, 5)]
    for i in range(240):
        f = _closed(_random_psi(rng, 2), rng.choice(("ESET", "FSFT", "ETES")))
        if i % 3 == 0:
            f = Not(f)
        for g in [graphs[i % len(graphs)], *TINY_GRAPHS]:
            assert _decide(g, f) == evaluate(g, f), (g, pretty(f))


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
]

NOT_RECOGNIZED = [
    "exists x. exists y. exists z. edge(x, y) & edge(y, z)",
    PERFECT_CODE,
    EVEN_DEGREES,
    "exists X. forall Y. Even(X) | Even(Y)",
    "forall X. exists Y. Even(X) | Even(Y)",
    "exists X. !(exists Y. Even(X) | Even(Y))",
    "exists X. forall x. Even(X) | x in X",
    "exists X. forall x. forall y. Even(X) | edge(x, y)",
    "forall x. exists y. edge(x, y)",
    "forall x. !(forall y. edge(x, y))",
    "exists X. forall x. exists X. x in X",
    "exists X. exists x. exists y. exists z. edge(x, y) | z in X",
    "exists X. forall x. edge(x, y)",
    "exists X. forall x. x in Y",
    "exists X. Even(Y)",
    "exists X. x in X",
    "exists x. exists X. x in X",
    # 2^13 labels for one vertex, more than MAX_STATES
    "".join(f"exists X{i}. " for i in range(13)) + "Even(X0)",
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


def test_twelve_set_variables_are_the_most_the_fragment_takes():
    body = "(forall x. x in X0) & Even(X11)"
    f = parse_formula("".join(f"exists X{i}. " for i in range(12)) + body)
    one = generate("path", 1)
    assert _decide(one, f) and evaluate(one, f)
    f = parse_formula("".join(f"exists X{i}. " for i in range(13)) + body)
    assert recognize(f) is None and evaluate(one, f)


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
        assert json.loads(capsys.readouterr().out)["methods"] == ["exhaustive"]


def test_check_open_formula_is_a_usage_error_on_either_path(capsys):
    for text in ("exists X. forall x. x in Y", "exists X. forall x. forall y. edge(x, z)"):
        assert gslogic.cli.main(["check", text, "path:3"]) == 2
        assert "unbound variables" in capsys.readouterr().err

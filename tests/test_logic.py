"""Formula parsing, printing, and exhaustive model checking."""

import itertools
import random

import pytest

import gslogic.logic
from conftest import all_graphs, random_graph, reference_evaluate, reference_free_variables
from gslogic import (
    FormulaParseError,
    Graph,
    SizeLimitError,
    evaluate,
    free_variables,
    generate,
    named_formula,
    neighbors,
    parse_formula,
    pretty,
    theory_member,
    theory_member_witness,
)
from gslogic.fragment import recognize
from gslogic.logic import (
    MAX_NESTING,
    NAMED_FORMULA_SOURCES,
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

# ------------------------------------------------------------------ oracles


def bipartite_oracle(g: Graph) -> bool:
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in neighbors(g, u):
                if v not in color:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def connected_oracle(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neighbors(g, u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


# ------------------------------------------------------------------ parsing


def test_parse_simple_exists():
    f = parse_formula("exists x. exists y. edge(x, y)")
    assert f == Exists("x", Exists("y", Edge("x", "y")))


def test_parse_set_quantifier_by_case():
    f = parse_formula("forall X. Even(X)")
    assert f == Forall("X", Even("X"))
    f = parse_formula("exists s. s = s")
    assert f == Exists("s", Eq("s", "s"))


def test_precedence_not_and_or():
    f = parse_formula("x = x | x = y & !y = y")
    assert f == Or(Eq("x", "x"), And(Eq("x", "y"), Not(Eq("y", "y"))))
    f = parse_formula("!x in X & Even(X)")
    assert f == And(Not(In("x", "X")), Even("X"))


def test_connectives_associate_left():
    f = parse_formula("x = x & y = y & x = y")
    assert f == And(And(Eq("x", "x"), Eq("y", "y")), Eq("x", "y"))


def test_quantifier_scope_extends_right():
    f = parse_formula("forall x. x = x & edge(x, x)")
    assert f == Forall("x", And(Eq("x", "x"), Edge("x", "x")))


def test_parenthesized_quantifiers():
    f = parse_formula("(exists x. x = x) & (forall Y. Even(Y))")
    assert f == And(Exists("x", Eq("x", "x")), Forall("Y", Even("Y")))


def test_double_negation_parses():
    f = parse_formula("!!x = x")
    assert f == Not(Not(Eq("x", "x")))


def test_parse_errors_and_positions():
    with pytest.raises(FormulaParseError) as info:
        parse_formula("edge(X, y)")
    assert info.value.position == 5
    with pytest.raises(FormulaParseError, match="uppercase"):
        parse_formula("exists x. x in y")
    with pytest.raises(FormulaParseError, match="uppercase"):
        parse_formula("Even(x)")
    with pytest.raises(FormulaParseError, match="keyword"):
        parse_formula("exists edge. edge = edge")
    with pytest.raises(FormulaParseError, match="stand alone"):
        parse_formula("exists X. X")
    with pytest.raises(FormulaParseError, match="trailing"):
        parse_formula("x = y)")
    with pytest.raises(FormulaParseError, match="end of input"):
        parse_formula("(x = y")
    with pytest.raises(FormulaParseError, match="end of input"):
        parse_formula("")
    with pytest.raises(FormulaParseError, match="unexpected character"):
        parse_formula("x @ y")
    with pytest.raises(FormulaParseError, match="'in' or '='"):
        parse_formula("exists x. x")
    with pytest.raises(FormulaParseError, match="expected ','"):
        parse_formula("edge(x y)")
    # too deep to parse, print or evaluate within Python's recursion limit
    with pytest.raises(FormulaParseError, match="nests deeper") as info:
        parse_formula("exists x. " + "(" * 250 + "x = x" + ")" * 250)
    assert info.value.position == len("exists x. ") + MAX_NESTING - 2
    with pytest.raises(FormulaParseError, match="nests deeper") as info:
        parse_formula(" & ".join(["x = x"] * 1500))
    assert info.value.position == len("x = x & " * MAX_NESTING) - 2
    with pytest.raises(FormulaParseError, match="nests deeper") as info:
        parse_formula("!" * 1200 + "x = x")
    assert info.value.position == MAX_NESTING - 1


def test_formula_at_the_nesting_bound():
    # quantifier, 24 negations, 24 parentheses and a chain of k operands
    def nested(k):
        chain = " & ".join(["x = x"] * k)
        return "exists x. " + "!(" * 24 + chain + ")" * 24
    f = parse_formula(nested(MAX_NESTING - 49))
    assert parse_formula(pretty(f)) == f
    assert evaluate(generate("path", 2), f) is True
    with pytest.raises(FormulaParseError, match="nests deeper"):
        parse_formula(nested(MAX_NESTING - 48))


def test_deep_hand_built_formula_is_refused():
    # the parser bounds nesting; a hand-built AST is bounded when it is built
    chain = Eq("x", "x")
    for _ in range(MAX_NESTING - 2):
        chain = And(chain, Eq("x", "x"))
    f = Exists("x", chain)
    assert f.height == MAX_NESTING
    assert evaluate(generate("path", 2), f) is True
    for build in (lambda: Exists("x", f), lambda: Not(f), lambda: And(f, Eq("x", "x")),
                  lambda: Or(Eq("x", "x"), f)):
        with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
            build()
    with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
        for _ in range(2000):
            chain = And(chain, Eq("x", "x"))


def test_parsed_formula_at_the_height_bound_prints_hashes_and_evaluates():
    # a quantifier over a chain of MAX_NESTING - 1 operands: MAX_NESTING
    # nodes on its deepest path and no parentheses
    text = "exists x. " + " & ".join(["x = x"] * (MAX_NESTING - 1))
    f = parse_formula(text)
    assert f.height == MAX_NESTING
    assert pretty(f) == text
    assert parse_formula(pretty(f)) == f
    assert hash(f) == hash(parse_formula(text))
    assert repr(f).startswith("Exists(var='x', body=And(left=And(")
    assert repr(f).count("Eq(x='x', y='x')") == MAX_NESTING - 1
    assert evaluate(generate("path", 2), f) is True
    with pytest.raises(FormulaParseError, match="nests deeper"):
        parse_formula(text + " & x = x")


def test_environment_holds_every_binder_at_the_height_bound():
    # 98 vertex binders and a set binder need 99 slots; the set quantifier
    # always loops and writes its slot, the last one
    text = "".join(f"exists x{i}. " for i in range(98)) + "exists X. x97 in X"
    f = parse_formula(text)
    assert f.height == MAX_NESTING
    assert evaluate(generate("path", 1), f) is True


def test_positions_are_offsets():
    try:
        parse_formula("exists x. x in y")
    except FormulaParseError as err:
        assert err.position == len("exists x. x in ")
    else:
        pytest.fail("expected a parse error")


def test_trailing_spaces_are_ignored():
    assert parse_formula("x = y   ") == parse_formula("x = y")


def test_any_unicode_whitespace_separates_tokens():
    want = parse_formula("exists x. x = x")
    for space in ("\t", "\n", "\u3000", " \r\n\t "):
        assert parse_formula(f"{space}exists{space}x.{space}x{space}={space}x{space}") == want
    with pytest.raises(FormulaParseError) as info:
        parse_formula("exists\u3000x.\u3000x\u3000=")
    assert info.value.position == len("exists x. x =")


@pytest.mark.parametrize("text, position, message", [
    ("exists . x = x", 7, "expected quantified variable"),
    ("x = y & )", 8, "unexpected ')'"),
    # one row per place the parser raises
    ("x @ y", 2, "unexpected character '@'"),
    ("  \u00e9", 2, "unexpected character '\u00e9'"),
    ("x = y @", 6, "unexpected character '@'"),
    ("1 = x", 0, "unexpected character '1'"),
    ("(x = y", 6, "unexpected end of input"),
    ("edge(x, y", 9, "unexpected end of input"),
    ("x in", 4, "unexpected end of input"),
    ("x", 1, "expected 'in' or '=' after 'x'"),
    ("exists X. X", 10, "set variable 'X' cannot stand alone"),
    ("exists in. x = x", 7, "keyword 'in' cannot be a variable"),
    ("exists (. x = x", 7, "expected quantified variable, found '('"),
    ("edge(x y)", 7, "expected ',', found 'y'"),
    ("exists x x = x", 9, "expected '.', found 'x'"),
    ("x in y", 5, "membership set must start uppercase, got 'y'"),
    ("x = Y", 4, "equality operand must start lowercase, got 'Y'"),
    ("x = y)", 5, "unexpected trailing ')'"),
    ("x = y & in", 8, "unexpected 'in'"),
])
def test_a_missing_operand_is_refused_where_it_should_stand(text, position, message):
    with pytest.raises(FormulaParseError) as info:
        parse_formula(text)
    assert info.value.position == position
    assert message in str(info.value)


# ----------------------------------------------------------------- printing


def _random_body(rng: random.Random, depth: int, quantifiers: bool = True):
    if depth == 0 or rng.random() < 0.35:
        pick = rng.randrange(4)
        if pick == 0:
            return Edge(rng.choice("xy"), rng.choice("xy"))
        if pick == 1:
            return Eq(rng.choice("xy"), rng.choice("xy"))
        if pick == 2:
            return In(rng.choice("xy"), rng.choice("ST"))
        return Even(rng.choice("ST"))
    pick = rng.randrange(7 if quantifiers else 3)
    if pick == 0:
        return Not(_random_body(rng, depth - 1, quantifiers))
    if pick == 1:
        return And(_random_body(rng, depth - 1, quantifiers),
                   _random_body(rng, depth - 1, quantifiers))
    if pick == 2:
        return Or(_random_body(rng, depth - 1, quantifiers),
                  _random_body(rng, depth - 1, quantifiers))
    maker = Exists if pick in (3, 5) else Forall
    var = rng.choice("xy") if pick < 5 else rng.choice("ST")
    return maker(var, _random_body(rng, depth - 1))


def _closed(body, prefix):
    """``body`` under a quantifier prefix, outermost first, e.g. "ExFyESFT"."""
    for i in range(len(prefix) - 2, -1, -2):
        body = (Exists if prefix[i] == "E" else Forall)(prefix[i + 1], body)
    return body


def _random_closed(rng: random.Random, depth: int = 3):
    return _closed(_random_body(rng, depth), "ExFyESFT")


def test_pretty_round_trips_named_formulas():
    for name, source in NAMED_FORMULA_SOURCES.items():
        f = parse_formula(source)
        assert parse_formula(pretty(f)) == f, name


def test_pretty_round_trips_random_formulas():
    rng = random.Random(42)
    for _ in range(300):
        f = _random_body(rng, 4)
        assert parse_formula(pretty(f)) == f


def test_pretty_drops_redundant_parens():
    assert pretty(parse_formula("((x = y))")) == "x = y"
    assert str(parse_formula("x = y | (x = x)")) == "x = y | x = x"


def test_pretty_keeps_required_parens():
    f = Not(Or(Eq("x", "x"), Eq("y", "y")))
    assert pretty(f) == "!(x = x | y = y)"
    g = And(Exists("x", Eq("x", "x")), Eq("y", "y"))
    assert pretty(g) == "(exists x. x = x) & y = y"


# --------------------------------------------------------------- semantics


def test_free_variables():
    f = parse_formula("exists x. x in X | edge(x, y)")
    assert free_variables(f) == ({"y"}, {"X"})
    closed = named_formula("connected")
    assert free_variables(closed) == (set(), set())
    rng = random.Random(10)
    for _ in range(300):
        f = _random_body(rng, 4)
        assert free_variables(f) == reference_free_variables(f), pretty(f)


def test_evaluate_rejects_open_formulas():
    with pytest.raises(ValueError, match="unbound"):
        evaluate(generate("path", 2), parse_formula("x in X"))


# hand-built formulas with a name of the wrong sort, each to its first bad name
WRONG_SORT = {
    Exists("X", Edge("X", "X")): "X",
    Exists("X", Eq("X", "X")): "X",
    Exists("x", In("x", "x")): "x",
    Exists("x", Even("x")): "x",
    Exists("", Eq("", "")): "",
    Exists("", Forall("x", Eq("x", "x"))): "",
    # under a set prefix, where recognize reads the names of the body
    Exists("X", Forall("x", In("X", "X"))): "X",
    Exists("X", Even("x")): "x",
    # two bad names: the walk meets the left one first
    Exists("X", Forall("x", And(Even("x"), Edge("X", "x")))): "x",
}


@pytest.mark.parametrize("f", WRONG_SORT, ids=pretty)
def test_evaluate_rejects_a_name_of_the_wrong_sort(f):
    # the parser refuses these by position; hand-built ASTs reach every walk
    g = generate("path", 3)
    for walk in (lambda f: evaluate(g, f), free_variables, lambda f: theory_member([g], f)):
        with pytest.raises(ValueError, match=f"variable '{WRONG_SORT[f]}'"):
            walk(f)
    assert recognize(f) is None


def test_adjacency_is_symmetric_and_irreflexive():
    sym = parse_formula("forall x. forall y. !edge(x, y) | edge(y, x)")
    irref = parse_formula("forall x. !edge(x, x)")
    rng = random.Random(6)
    for _ in range(10):
        g = random_graph(5, rng)
        assert evaluate(g, sym)
        assert evaluate(g, irref)


def test_equality_semantics():
    all_equal = parse_formula("forall x. forall y. x = y")
    assert evaluate(Graph.from_edges(0, []), all_equal)
    assert evaluate(Graph.from_edges(1, []), all_equal)
    assert not evaluate(Graph.from_edges(2, []), all_equal)


def test_even_counts_full_vertex_set():
    f = named_formula("even_order")
    for n in range(7):
        assert evaluate(Graph.from_edges(n, []), f) == (n % 2 == 0)


def test_even_on_subsets():
    # singletons are odd, so no single-vertex set passes Even
    f = parse_formula("forall X. !((exists x. x in X) & (forall x. forall y. "
                      "!(x in X) | !(y in X) | x = y)) | !Even(X)")
    assert evaluate(generate("path", 3), f)


def test_path2_formula():
    f = named_formula("path2")
    assert evaluate(generate("path", 3), f)
    assert not evaluate(Graph.from_edges(3, []), f)
    # no distinctness clause, so z may revisit x: one edge already satisfies it
    assert evaluate(Graph.from_edges(4, [(0, 1), (2, 3)]), f)
    assert evaluate(Graph.from_edges(2, [(0, 1)]), f)
    assert evaluate(generate("binary_tree", 1), f)


def test_two_colorable_matches_oracle_exhaustively():
    for n in range(5):
        f = named_formula("two_colorable")
        for g in all_graphs(n):
            assert evaluate(g, f) == bipartite_oracle(g)


def test_connected_matches_oracle_exhaustively():
    f = named_formula("connected")
    for n in range(5):
        for g in all_graphs(n):
            assert evaluate(g, f) == connected_oracle(g)


def test_de_morgan_on_random_formulas():
    rng = random.Random(7)
    graphs = [random_graph(3, rng), random_graph(4, rng)]
    for _ in range(40):
        f = _random_closed(rng)
        g = _random_closed(rng)
        for graph in graphs:
            lhs = evaluate(graph, Not(And(f, g)))
            rhs = evaluate(graph, Or(Not(f), Not(g)))
            assert lhs == rhs


def test_quantifier_duality_on_random_formulas():
    rng = random.Random(8)
    graphs = [random_graph(3, rng), random_graph(4, rng)]
    for _ in range(40):
        rest = Forall(
            "y", Exists("S", Forall("T", _random_body(rng, 3)))
        )
        for graph in graphs:
            assert evaluate(graph, Not(Exists("x", rest))) == evaluate(
                graph, Forall("x", Not(rest))
            )
            assert evaluate(graph, Not(Exists("U", Even("U")))) == evaluate(
                graph, Forall("U", Not(Even("U")))
            )


# graphs whose vertex masks have 0, 1 and 2 bits: full is 0 on the empty graph
TINY_GRAPHS = [Graph(0, ()), generate("path", 1), Graph.from_edges(2, []), generate("path", 2)]


def test_evaluate_matches_reference_on_random_formulas():
    # the bodies rebind x, y, S and T inside the closed prefix, so this also
    # checks that a shadowing binding never overwrites one still in use
    rng = random.Random(9)
    graphs = [random_graph(4, rng) for _ in range(5)]
    for i in range(300):
        f = _random_closed(rng)
        for g in [graphs[i % len(graphs)], *TINY_GRAPHS]:
            assert evaluate(g, f) == reference_evaluate(g, f), (g.n, pretty(f))


MASK_CASES = [
    # edge(x, x) is the empty mask, x = x the full one
    ("exists x. edge(x, x)", False),
    ("forall x. !edge(x, x)", True),
    ("forall x. x = x", True),
    ("exists x. !(x = x)", False),
    # atoms that do not mention the masked y are all vertices or none
    ("forall x. exists y. x = x & (edge(y, x) | !edge(x, x))", True),
    ("forall x. exists y. !(x = x) | y = x", True),
    ("exists X. forall y. Even(X) & !(y in X)", True),
    ("forall X. exists y. !Even(X) | y in X", None),
    ("exists x. forall y. edge(x, y) | x = y", None),
    # a masked quantifier rebinds an outer name: inner x is a fresh slot
    ("forall x. exists y. (exists x. edge(x, y) & !(x = y)) | x = y", None),
    ("forall x. forall y. x = y | ((exists x. x = y) & !(forall x. !(x = y)))", True),
    ("forall x. exists x. x = x", True),
    # a set quantifier inside a vertex quantifier, shaped like even_degrees
    ("exists x. forall X. !(x in X) | Even(X) | (exists y. y in X & edge(x, y))", None),
]


@pytest.mark.parametrize("source, expected", MASK_CASES)
def test_mask_rules_match_reference(source, expected):
    f = parse_formula(source)
    rng = random.Random(13)
    graphs = TINY_GRAPHS + [generate("path", 3), generate("cycle", 4), generate("complete", 3)]
    graphs += [random_graph(n, rng) for n in (5, 6, 7)]
    for g in graphs:
        got = evaluate(g, f)
        assert got == reference_evaluate(g, f), g
        if expected is not None and g.n > 0:
            assert got == expected, g


def test_masked_bodies_match_reference_on_wider_graphs():
    # quantifier-free bodies under a masked forall y, with masks of 7-8 bits
    rng = random.Random(14)
    for i in range(100):
        g = random_graph(7 + i % 2, rng)
        f = _closed(_random_body(rng, 3, quantifiers=False), "ESFTExFy")
        assert evaluate(g, f) == reference_evaluate(g, f), pretty(f)


def test_shadowing_inner_binding_wins():
    # inner exists x rebinds; outer x = y comparison must still see the outer x
    f = parse_formula(
        "forall x. forall y. !(x = y) | ((exists x. !(x = y)) & x = y)"
    )
    assert evaluate(generate("path", 3), f)


# the two user formulas of the benchmark's logic workload
EVEN_DEGREES = (
    "forall x. exists X. Even(X) & (forall y. (y in X & edge(x, y))"
    " | (!(y in X) & !edge(x, y)))"
)
PERFECT_CODE = (
    "exists X. forall x. (exists y. y in X & (y = x | edge(x, y)))"
    " & (forall y. forall z. !(y in X & z in X & (y = x | edge(x, y))"
    " & (z = x | edge(x, z))) | y = z)"
)


def even_degrees_oracle(g: Graph) -> bool:
    return all(len(neighbors(g, v)) % 2 == 0 for v in range(g.n))


def perfect_code_oracle(g: Graph) -> bool:
    balls = [neighbors(g, v) | {v} for v in range(g.n)]
    return any(
        all(len(ball.intersection(code)) == 1 for ball in balls)
        for k in range(g.n + 1)
        for code in itertools.combinations(range(g.n), k)
    )


def test_workload_user_formulas_match_oracles_exhaustively():
    even_degrees, perfect_code = parse_formula(EVEN_DEGREES), parse_formula(PERFECT_CODE)
    for n in range(6):
        for g in all_graphs(n):
            assert evaluate(g, even_degrees) == even_degrees_oracle(g), g
            assert evaluate(g, perfect_code) == perfect_code_oracle(g), g


def test_theory_member_and_witness():
    fam = [generate("path", k) for k in (2, 3, 4)]
    f = named_formula("two_colorable")
    assert theory_member(fam, f)
    assert theory_member_witness(fam, f) == (True, None)
    fam2 = [generate("path", 3), generate("cycle", 3), generate("cycle", 5)]
    assert not theory_member(fam2, f)
    assert theory_member_witness(fam2, f) == (False, 1)


def test_theory_member_empty_family_is_vacuous():
    assert theory_member([], named_formula("connected"))


def _least_work_limit(g, f, monkeypatch) -> int:
    """The least work limit under which evaluate answers f on g, found by
    bisection; evaluate gives the same verdict under every limit it answers."""
    verdicts = set()

    def answers(limit):
        monkeypatch.setattr(gslogic.logic, "_WORK_LIMIT", limit)
        try:
            verdicts.add(evaluate(g, f))
        except SizeLimitError:
            return False
        return True

    low, high = -1, 1 << 25  # refused at low, answered at high
    assert answers(high) and not answers(low)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if answers(mid) else (mid, high)
    assert len(verdicts) == 1
    return high


# the work evaluate does on path:n for n = 0, 1, 3, 10: each loop charges
# its domain size when it starts, n for a vertex, N = 2^n for a set, and a
# masked vertex quantifier charges 1 each time it runs. By hand:
#   alternating  2N: X = {} comes first, then one full loop over Y
#   connected    every X is tried, as the graph is connected: N for the X
#                loop, then per X the masked exists x; for X = {} that is
#                all. For the N - 2 other X short of V, the forall x loop, n,
#                and a masked forall y for each x up to the first in X with
#                a neighbour outside X: there are k + 1 of them for k the
#                least such vertex, which sums to 5N/2 - 2n - 3 over these X
#                (the X without one of 0..j-1 are those that miss 0..j-1 or
#                hold 0..j). For X = V, 1 + 2n and the masked forall z. In
#                all 7N/2 + (N - 2)(n + 1), or 2 at n = 0, where {} is V
#   even_order   2N: the X loop runs to the full set, the last, and charges
#                the masked forall y at every X
#   path2        2n + min(n, 2): the x loop, then at x = 0 the y loop and the
#                masked exists z at y = 0 and, if n > 1, y = 1, which finds z
ALTERNATING = "exists X. forall Y. Even(X) | Even(Y)"
WORK = {
    "alternating": lambda n: 2 << n,
    "connected": lambda n: (7 << n >> 1) + ((1 << n) - 2) * (n + 1) if n else 2,
    "even_order": lambda n: 2 << n,
    "path2": lambda n: 2 * n + min(n, 2),
}


@pytest.mark.parametrize("name", sorted(WORK))
def test_evaluate_answers_under_exactly_its_work(name, monkeypatch):
    f = parse_formula(ALTERNATING) if name == "alternating" else named_formula(name)
    for n in (0, 1, 3, 10):
        g = generate("path", n) if n else Graph(0, ())
        assert _least_work_limit(g, f, monkeypatch) == WORK[name](n), n


def test_a_refusal_names_the_limit_and_the_loop(monkeypatch):
    f, n = parse_formula(ALTERNATING), 10
    monkeypatch.setattr(gslogic.logic, "_WORK_LIMIT", (2 << n) - 1)
    # the Y loop is the one that passes: the X loop started first
    with pytest.raises(SizeLimitError, match="work limit of 2,047 at a set loop of size 1,024;"):
        evaluate(generate("path", n), f)
    monkeypatch.setattr(gslogic.logic, "_WORK_LIMIT", 5)
    with pytest.raises(SizeLimitError, match="work limit of 5 at a vertex loop of size 3;"):
        evaluate(generate("path", 3), named_formula("path2"))
    # the x and y loops take 6, and the masked exists z the seventh
    monkeypatch.setattr(gslogic.logic, "_WORK_LIMIT", 6)
    with pytest.raises(SizeLimitError, match="work limit of 6 at a masked vertex quantifier;"):
        evaluate(generate("path", 3), named_formula("path2"))
    # 30 masked quantifiers under one set loop charge 31 * 2^14 on path:14:
    # the limit of 2^18 stops the loop halfway, where charging the loop
    # alone would let it finish
    masked = " & ".join(f"(forall x{i}. x{i} in X | !x{i} in X)" for i in range(30))
    f = parse_formula(f"forall X. !({masked}) | Even(X) | !Even(X)")
    monkeypatch.setattr(gslogic.logic, "_WORK_LIMIT", 1 << 18)
    with pytest.raises(SizeLimitError, match="work limit of 262,144 at a masked vertex quantifier;"):
        evaluate(generate("path", 14), f)
    # the default refuses a first loop over 2^40 sets before it starts
    monkeypatch.undo()
    with pytest.raises(SizeLimitError, match="at a set loop of size 1,099,511,627,776;"):
        evaluate(generate("complete", 40), named_formula("two_colorable"))


def test_named_formula_library():
    assert named_formula("connected") is named_formula("connected")
    assert named_formula("path2") is named_formula("path2")
    # an unknown name is refused on every call, not only the first
    for _ in range(2):
        with pytest.raises(KeyError, match="unknown formula 'nope'"):
            named_formula("nope")
    for source in NAMED_FORMULA_SOURCES.values():
        parse_formula(source)


def test_a_non_formula_is_refused_by_every_walk():
    g = generate("path", 2)
    for walk in (pretty, free_variables, lambda f: evaluate(g, f)):
        with pytest.raises(TypeError, match="not a formula node: 'x'"):
            walk("x")
        with pytest.raises(TypeError, match="not a formula node"):
            walk(Not(None))

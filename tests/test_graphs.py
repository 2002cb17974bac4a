"""Graph model, edge-list format, and the family generators."""

import random

import pytest

from conftest import random_graph, run_with_memory_limit, small_corpus
from gslogic import (
    GENERATOR_KINDS,
    Graph,
    GraphParseError,
    generate,
    neighbors,
    parse_edge_list,
    relabel,
    serialize,
)


def test_from_edges_basic():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count == 2
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_from_edges_collapses_duplicates():
    g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_constructor_validates_symmetry():
    # row 0 says 0-1 is an edge, row 1 disagrees
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, (0b10, 0b00))


def test_constructor_validates_diagonal_and_width():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="references vertices"):
        Graph(1, (0b10,))


def test_constructor_validates_row_count():
    with pytest.raises(ValueError, match="row count does not match vertex count"):
        Graph(2, (0b10,))
    with pytest.raises(ValueError, match="row count does not match vertex count"):
        Graph(1, (0, 0))


def test_from_edges_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -1"):
        Graph.from_edges(-1, [])


def test_constructor_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -1"):
        Graph(-1, ())


def test_built_graphs_skip_the_row_checks_that_the_constructor_runs(monkeypatch):
    # generators and the parser build rows through from_edges, which holds
    # them symmetric by construction; only Graph(n, adj) checks rows
    calls = 0
    real = Graph.__post_init__

    def counting(self):
        nonlocal calls
        calls += 1
        real(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    for kind in GENERATOR_KINDS:
        generate(kind, 3)
    g = parse_edge_list(serialize(generate("triangular", 4)))
    assert calls == 0
    Graph(g.n, g.adj)
    assert calls == 1


def test_generated_graphs_pass_the_constructor_checks():
    for kind in GENERATOR_KINDS:
        for size in range(3 if kind == "cycle" else 1, 7):
            g = generate(kind, size)
            assert Graph(g.n, g.adj) == g, (kind, size)


def test_empty_graph():
    g = Graph.from_edges(0, [])
    assert g.n == 0 and g.edges() == []


def test_name_not_compared():
    a = Graph.from_edges(2, [(0, 1)], name="a")
    b = Graph.from_edges(2, [(0, 1)], name="b")
    assert a == b


def test_neighbors():
    g = generate("cycle", 4)
    assert neighbors(g, 0) == {1, 3}
    with pytest.raises(ValueError):
        neighbors(g, 4)


def test_serialize_parse_round_trip():
    for g in small_corpus():
        assert parse_edge_list(serialize(g)) == g


def test_parse_accepts_comments_and_blanks():
    text = "# a triangle\n\n3 3\n0 1\n# middle\n1 2\n\n0 2\n"
    g = parse_edge_list(text)
    assert g == generate("cycle", 3)


def test_parse_accepts_either_endpoint_order():
    assert parse_edge_list("2 1\n1 0\n") == Graph.from_edges(2, [(0, 1)])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("")
    with pytest.raises(GraphParseError, match="header"):
        parse_edge_list("3\n")
    err = None
    try:
        parse_edge_list("3 2\n0 1\n1 x\n")
    except GraphParseError as e:
        err = e
    assert err is not None and err.line == 3
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_edge_list("3 1\n2 2\n")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_edge_list("3 1\n0 3\n")
    with pytest.raises(GraphParseError, match="declared 2 edges but found 1"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(GraphParseError, match="expected edge"):
        parse_edge_list("3 1\n0 1 2\n")


def test_parse_rejects_bad_header_values_on_their_line():
    with pytest.raises(GraphParseError, match="^line 2: header values must be integers$"):
        parse_edge_list("# a comment\n3 two\n0 1\n0 2\n")
    with pytest.raises(GraphParseError, match="^line 3: header values must be non-negative$"):
        parse_edge_list("\n# a comment\n3 -1\n")
    with pytest.raises(GraphParseError, match="^line 1: header values must be non-negative$"):
        parse_edge_list("-3 0\n")


def test_path_generator():
    g = generate("path", 5)
    assert (g.n, g.edge_count) == (5, 4)
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert generate("path", 1).edge_count == 0


def test_cycle_generator():
    g = generate("cycle", 3)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(ValueError):
        generate("cycle", 2)


def test_grid_generator():
    g = generate("grid", 3)
    assert (g.n, g.edge_count) == (9, 12)
    # center of a 3x3 grid touches all four sides
    assert neighbors(g, 4) == {1, 3, 5, 7}
    assert generate("grid", 1).n == 1


def test_triangular_generator():
    g = generate("triangular", 2)
    assert (g.n, g.edge_count) == (4, 5)
    assert g.has_edge(0, 3)
    g3 = generate("triangular", 3)
    assert g3.edge_count == 12 + 4


@pytest.mark.parametrize("k", range(1, 13))
def test_triangular_is_grid_plus_diagonals(k):
    # the lattice from coordinates: right, down and down-right neighbours
    want = set()
    for r in range(k):
        for c in range(k):
            for dr, dc in ((0, 1), (1, 0), (1, 1)):
                if r + dr < k and c + dc < k:
                    want.add((r * k + c, (r + dr) * k + c + dc))
    g = generate("triangular", k)
    assert g.n == k * k
    assert g.edges() == sorted(want)
    diagonals = {(e[0], e[0] + k + 1) for e in want if e[1] == e[0] + k + 1}
    assert set(g.edges()) == set(generate("grid", k).edges()) | diagonals


@pytest.mark.parametrize("kind", ["grid", "hexagonal"])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_square_and_brick_lattices_from_coordinates(kind, k):
    # right neighbours always; down neighbours everywhere on the grid and
    # only where r + c is even on the brick wall
    want = set()
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                want.add((v, v + 1))
            if r + 1 < k and (kind == "grid" or (r + c) % 2 == 0):
                want.add((v, v + k))
    g = generate(kind, k)
    assert (g.n, g.name) == (k * k, f"{kind}({k})")
    assert g.edges() == sorted(want)


def test_edges_match_adjacency_scan():
    rng = random.Random(31)
    for n in (0, 1, 5, 17, 40, 70):
        g = random_graph(n, rng, 0.3)
        want = [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
        assert g.edges() == want


def test_hexagonal_generator():
    g = generate("hexagonal", 2)
    assert (g.n, g.edge_count) == (4, 3)
    for k in (2, 3, 4, 5):
        gk = generate("hexagonal", k)
        assert max(gk.degree(v) for v in range(gk.n)) <= 3


def test_complete_generator():
    g = generate("complete", 4)
    assert g.edge_count == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_binary_tree_generator():
    g = generate("binary_tree", 2)
    assert (g.n, g.edge_count) == (7, 6)
    assert neighbors(g, 0) == {1, 2}
    assert neighbors(g, 1) == {0, 3, 4}


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown graph kind"):
        generate("moebius", 3)
    for kind in GENERATOR_KINDS:
        with pytest.raises(ValueError):
            generate(kind, 0)


REFUSALS = r"""
from gslogic import Graph, SizeLimitError, generate, parse_edge_list
rows = "vertices exceed the limit of 65,536; their adjacency rows would take about"
cases = [
    (lambda: generate("path", 65537), "65,537 " + rows + " 256 MiB"),
    (lambda: generate("cycle", 10**9), "1,000,000,000 " + rows),
    (lambda: generate("grid", 257), "66,049 " + rows),
    (lambda: generate("hexagonal", 99999999), rows),
    (lambda: Graph.from_edges(65537, []), rows),
    (lambda: parse_edge_list("65537 0\n"), rows),
    (lambda: parse_edge_list("# too many\n1000000000 1\n0 1\n"), rows),
    (lambda: generate("complete", 2049), "2,098,176 edges exceed the limit of 2,097,152"),
    (lambda: generate("binary_tree", 16), "131,071 " + rows),
    (lambda: generate("binary_tree", 10**10), "binary_tree(10000000000) exceeds the limit"),
]
for make, message in cases:
    try:
        make()
    except SizeLimitError as exc:
        assert message in str(exc), (str(exc), message)
    else:
        raise AssertionError(message)
# at the limit: an edgeless graph of 65,536 vertices has no row memory
assert parse_edge_list("65536 0\n").n == 65536
"""


def test_graphs_too_large_to_build_are_refused_first():
    # every refusal comes before a row or an edge is made; under a 512 MiB
    # address space a missing one fails with MemoryError
    res = run_with_memory_limit(["-c", REFUSALS])
    assert res.returncode == 0, res.stderr[-1000:]


def test_relabel_matches_manual():
    g = generate("path", 3)
    h = relabel(g, [2, 0, 1])  # vertex 0 becomes 2, 1 becomes 0, 2 becomes 1
    assert h.edges() == [(0, 1), (0, 2)]


def test_relabel_preserves_degree_multiset():
    rng = random.Random(5)
    g = random_graph(7, rng)
    perm = list(range(7))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert sorted(g.degree(v) for v in range(7)) == sorted(
        h.degree(v) for v in range(7)
    )
    assert h.degree(perm[3]) == g.degree(3)


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(generate("path", 3), [0, 0, 1])

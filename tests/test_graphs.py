"""Graph model, edge-list format, and the family generators."""

import random

import pytest

from conftest import random_graph, small_corpus
from gslogic import (
    GENERATOR_KINDS,
    Graph,
    GraphFamily,
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


def test_family_container():
    fam = GraphFamily.of(generate("path", k) for k in (2, 3, 4))
    assert len(fam) == 3
    assert fam[1].n == 3
    assert [g.n for g in fam] == [2, 3, 4]

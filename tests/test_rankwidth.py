"""Subcubic trees, decompositions, and the exact rank-width search."""

import hashlib
import json
import random

import pytest

from conftest import (
    all_graphs,
    exhaustive_rankwidth,
    random_graph,
    reference_cut_rank,
    reference_greedy_order,
    small_corpus,
)
from gslogic import (
    Graph,
    SizeLimitError,
    SubcubicTree,
    count_subcubic_trees,
    cut_rank,
    decomposition_width,
    enumerate_subcubic_trees,
    exact_rankwidth,
    generate,
    greedy_decomposition,
    relabel,
    tree_edge_bipartition,
)
import gslogic.rankwidth
from gslogic import _kernels
from gslogic.gf2 import _cut_rank_table
from gslogic.rankwidth import _caterpillar, tree_from_choices


def double_factorial_count(n: int) -> int:
    # (2n-5)!! computed directly, as the independent reference
    value = 1
    for odd in range(1, 2 * n - 4, 2):
        value *= odd
    return value


def test_count_matches_double_factorial():
    for n in range(2, 12):
        assert count_subcubic_trees(n) == double_factorial_count(n)
    assert count_subcubic_trees(2) == 1
    with pytest.raises(ValueError):
        count_subcubic_trees(1)


def test_enumeration_counts_and_distinctness():
    for n in range(2, 8):
        trees = list(enumerate_subcubic_trees(n))
        assert len(trees) == count_subcubic_trees(n)
        assert len(set(trees)) == len(trees)


def test_enumerated_trees_have_correct_shape():
    for tree in enumerate_subcubic_trees(5):
        assert len(tree.edges) == 2 * 5 - 3
        masks = tree.leaf_masks()
        assert len(masks) == len(tree.edges)
        full = (1 << 5) - 1
        assert all(0 < m < full for m in masks)


def test_tree_from_choices_small():
    t = tree_from_choices(2, [])
    assert t.edges == ((0, 1),)
    t = tree_from_choices(3, [0])
    assert sorted(u if v == 3 else v for u, v in t.edges if 3 in (u, v)) == [0, 1, 2]
    with pytest.raises(ValueError, match="out of range"):
        tree_from_choices(4, [0, 5])
    with pytest.raises(ValueError, match="choices"):
        tree_from_choices(4, [0])


def test_one_leaf_has_no_tree():
    with pytest.raises(ValueError, match="at least 2 leaves, got 1"):
        tree_from_choices(1, ())
    with pytest.raises(ValueError, match="at least 2 leaves, got 1"):
        list(enumerate_subcubic_trees(1))


def test_choices_encoding_matches_incremental_masks():
    """Replaying the insertion far-mask update must reproduce, edge for
    edge, the leaf partitions of the reconstructed tree."""
    n = 5

    def replay(choices):
        far = [2]
        for k in range(2, n):
            i = choices[k - 2]
            bit = 1 << k
            m = far[i]
            far = [(f | bit) if (m | f) == f else f for f in far]
            far[i] = m | bit
            far.append(m)
            far.append(bit)
        return far

    def rec(prefix, k):
        if k == n:
            tree = tree_from_choices(n, prefix)
            assert tree.leaf_masks() == replay(prefix)
            return
        for i in range(2 * k - 3):
            prefix.append(i)
            rec(prefix, k + 1)
            prefix.pop()

    rec([], 2)


def test_tree_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="at least 2 leaves"):
        SubcubicTree(1, ())
    with pytest.raises(ValueError, match="expected 3 edges"):
        SubcubicTree(3, ((0, 1),))
    with pytest.raises(ValueError, match="degree"):
        SubcubicTree(3, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match="duplicate"):
        SubcubicTree(3, ((0, 3), (3, 0), (2, 3)))
    with pytest.raises(ValueError, match="bad tree edge"):
        SubcubicTree(3, ((0, 0), (1, 3), (2, 3)))


def test_tree_validation_rejects_disconnected():
    # right degrees, right count, but a K4 component plus leaf pairs
    edges = [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
             (0, 1), (2, 3), (4, 5)]
    with pytest.raises(ValueError, match="connected"):
        SubcubicTree(6, tuple(edges))


def test_bipartition_partitions_leaves():
    tree = tree_from_choices(5, [0, 2, 1])
    all_labels = set(range(5))
    for edge in tree.edges:
        a, b = tree_edge_bipartition(tree, edge)
        assert a | b == all_labels
        assert a & b == set()
        assert a and b
    with pytest.raises(ValueError, match="not an edge"):
        tree_edge_bipartition(tree, (0, 1))


def test_bipartition_matches_leaf_masks():
    tree = tree_from_choices(6, [0, 1, 3, 2])
    masks = tree.leaf_masks()
    for edge, mask in zip(tree.edges, masks):
        a, b = tree_edge_bipartition(tree, edge)
        from_mask = {v for v in range(6) if (mask >> v) & 1}
        assert from_mask in (a, b)


def _leaves_reached(tree, start, cut):
    """The leaves a BFS from ``start`` reaches without crossing the tree
    edge ``cut``; independent of the tree's stored traversal."""
    adj = {}
    for u, v in tree.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen, frontier = {start}, [start]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if {u, w} != set(cut) and w not in seen:
                seen.add(w)
                frontier.append(w)
    return {v for v in seen if v < tree.n}


def test_bipartition_first_side_holds_smaller_endpoint():
    for n in range(2, 7):
        for plain in enumerate_subcubic_trees(n):
            flipped = SubcubicTree(n, tuple(
                tuple(n - 1 - u if u < n else u for u in edge) for edge in plain.edges))
            for tree in (plain, flipped):
                for u, v in tree.edges:
                    want = _leaves_reached(tree, min(u, v), (u, v))
                    for edge in ((u, v), (v, u)):
                        first, second = tree_edge_bipartition(tree, edge)
                        assert first == want
                        assert second == set(range(n)) - want
            # leaf i of the plain tree is leaf n - 1 - i of the flipped tree
            for edge, flipped_edge in zip(plain.edges, flipped.edges):
                sides = {frozenset(n - 1 - v for v in side)
                         for side in tree_edge_bipartition(plain, edge)}
                assert sides == set(map(frozenset, tree_edge_bipartition(flipped, flipped_edge)))


@pytest.mark.parametrize("spec, search", [
    ("path:300", exact_rankwidth), ("binary_tree:7", exact_rankwidth),
    ("cycle:12", exact_rankwidth), ("grid:4", exact_rankwidth),
    ("grid:16", greedy_decomposition),
])
def test_masks_of_answered_trees_match_an_independent_walk(spec, search):
    kind, k = spec.split(":")
    g = generate(kind, int(k))
    width, tree = search(g)
    leaves = set(range(tree.n))
    for (u, v), mask in zip(tree.edges, tree.leaf_masks()):
        from_u, from_v = (_leaves_reached(tree, x, (u, v)) for x in (u, v))
        assert from_u | from_v == leaves and not from_u & from_v
        # tree vertex 0 is leaf 0
        away = from_v if 0 in from_u else from_u
        assert mask == sum(1 << x for x in away)
        near = from_u if u < v else from_v
        for edge in ((u, v), (v, u)):
            assert tree_edge_bipartition(tree, edge) == (near, leaves - near)
    assert decomposition_width(g, tree) == width


def test_decomposition_json_round_trip():
    _, tree = exact_rankwidth(generate("cycle", 5))
    payload = json.loads(json.dumps(tree.to_json_dict()))
    assert set(payload) == {"n", "edges", "leaf_labels"}
    assert payload["leaf_labels"] == {str(leaf): leaf for leaf in range(5)}
    assert SubcubicTree(payload["n"], tuple(map(tuple, payload["edges"]))) == tree


def test_decomposition_width_validates_sizes():
    tree = tree_from_choices(4, [0, 1])
    with pytest.raises(ValueError, match="leaves"):
        decomposition_width(generate("path", 5), tree)


def test_paths_have_width_one():
    for n in range(2, 7):
        width, tree = exact_rankwidth(generate("path", n))
        assert width == 1
        assert decomposition_width(generate("path", n), tree) == 1


def test_known_widths():
    # distance-hereditary graphs have width 1; C5 and up do not
    assert exact_rankwidth(generate("cycle", 4))[0] == 1
    assert exact_rankwidth(generate("cycle", 5))[0] == 2
    assert exact_rankwidth(generate("cycle", 6))[0] == 2
    assert exact_rankwidth(generate("complete", 5))[0] == 1
    assert exact_rankwidth(generate("grid", 2))[0] == 1
    assert exact_rankwidth(generate("grid", 3))[0] == 2
    assert exact_rankwidth(generate("binary_tree", 2))[0] == 1


def test_width_zero_iff_edgeless():
    width, tree = exact_rankwidth(Graph.from_edges(4, []))
    assert width == 0 and tree is not None
    assert exact_rankwidth(generate("path", 2))[0] == 1


def test_tiny_graphs_have_no_tree():
    assert exact_rankwidth(Graph.from_edges(0, [])) == (0, None)
    assert exact_rankwidth(Graph.from_edges(1, [])) == (0, None)


def test_witness_width_matches_claim():
    for g in small_corpus():
        if g.n > 7:
            continue
        width, tree = exact_rankwidth(g)
        assert decomposition_width(g, tree) == width


def test_witness_is_optimal():
    rng = random.Random(2)
    graphs = [generate("cycle", 5), generate("grid", 2), random_graph(5, rng),
              random_graph(6, rng), random_graph(7, rng, p=0.2),
              random_graph(7, rng, p=0.8)]
    for g in graphs:
        width, tree = exact_rankwidth(g)
        assert width == exhaustive_rankwidth(g)
        assert decomposition_width(g, tree) == width


def test_width_matches_exhaustive_walk():
    rng = random.Random(3)
    graphs = [g for g in small_corpus() if 2 <= g.n <= 6]
    graphs.append(random_graph(7, rng))
    graphs.append(random_graph(7, rng, p=0.2))
    graphs.append(random_graph(7, rng, p=0.8))
    for g in graphs:
        assert exact_rankwidth(g)[0] == exhaustive_rankwidth(g)


def test_width_and_witness_on_all_small_graphs():
    for n in range(2, 6):
        for g in all_graphs(n):
            width, tree = exact_rankwidth(g)
            assert width == exhaustive_rankwidth(g)
            assert decomposition_width(g, tree) == width


@pytest.mark.parametrize("spec, width", [
    ("cycle:13", 2),
    # distance-hereditary, 15 vertices
    ("binary_tree:3", 1),
    # rank-width k - 1 on the k x k grid (Jelinek 2010)
    ("grid:4", 3),
    # distance-hereditary, reduced to one edge with no DP
    ("path:1000", 1),
    ("binary_tree:9", 1),
    ("complete:300", 1),
])
def test_exact_closed_forms_past_twelve_vertices(spec, width):
    kind, size = spec.split(":")
    g = generate(kind, int(size))
    got, tree = exact_rankwidth(g)
    assert got == width
    assert decomposition_width(g, tree) == width


def _add_vertex(g, kind, u):
    """G plus a vertex v = g.n that is a pendant at u, a true twin of u or
    a false twin of u."""
    v = g.n
    if kind == "pendant":
        new = [(u, v)]
    else:
        new = [(w, v) for w in range(g.n) if g.has_edge(u, w)]
        if kind == "true_twin":
            new.append((u, v))
    return Graph.from_edges(v + 1, g.edges() + new)


@pytest.mark.parametrize("kind", ["pendant", "true_twin", "false_twin"])
def test_pendants_and_twins_keep_the_width(kind):
    # rw(G + v) = max(rw(G), 1) when G has an edge: in a tree for G, a
    # cherry (u, v) in place of leaf u keeps every cut's rank, and the new
    # cuts have rank at most 1
    rng = random.Random(kind)
    for n in (9, 11):
        g = random_graph(n, rng, p=rng.uniform(0.2, 0.8))
        assert g.edge_count > 0
        want = max(exact_rankwidth(g)[0], 1)
        while g.n < 14:
            g = _add_vertex(g, kind, rng.randrange(g.n))
            width, tree = exact_rankwidth(g)
            assert width == want, (kind, n, g.n)
            assert decomposition_width(g, tree) == width


def test_disjoint_union_has_the_larger_width():
    # a tree for each part joined by one new edge: the joint cuts have rank 0
    rng = random.Random(12)
    for n1, n2 in ((1, 13), (2, 12), (5, 9), (7, 7), (8, 8)):
        g1 = random_graph(n1, rng, p=rng.uniform(0.2, 0.8))
        g2 = random_graph(n2, rng, p=rng.uniform(0.2, 0.8))
        union = Graph.from_edges(
            n1 + n2, g1.edges() + [(u + n1, v + n1) for u, v in g2.edges()])
        width, tree = exact_rankwidth(union)
        assert width == max(exact_rankwidth(g1)[0], exact_rankwidth(g2)[0]), (n1, n2)
        assert decomposition_width(union, tree) == width


def _glue(g1, g2, c1, c2):
    """G1 and G2 with vertex c2 of G2 identified with vertex c1 of G1; the
    other vertices of G2 follow those of G1 in order."""
    name = [g1.n + v - (v > c2) for v in range(g2.n)]
    name[c2] = c1
    return Graph.from_edges(g1.n + g2.n - 1,
                            g1.edges() + [(name[u], name[v]) for u, v in g2.edges()])


def _hang(g, t, at):
    """G and T joined by one edge from vertex ``at`` of G to vertex 0 of T."""
    return _glue(g, _glue(Graph.from_edges(2, [(0, 1)]), t, 1, 0), at, 0)


def _random_tree(n, rng):
    return Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _dp_width(g):
    # the subset DP on the whole graph, with no reduction
    return _kernels.rankwidth_search(g.adj, g.n)[0]


def _balanced_cut_bound(g):
    return _kernels._balanced_cut_bound(_cut_rank_table(g.adj, g.n), g.n)


def test_balanced_cut_bound_is_at_most_the_width():
    # some tree edge has at least ceil(n/3) leaves on each side
    rng = random.Random(33)
    graphs = [g for n in range(2, 6) for g in all_graphs(n)]
    graphs += [random_graph(n, rng, p=rng.uniform(0.2, 0.8))
               for n in (6, 7) for _ in range(15)]
    for g in graphs:
        assert _balanced_cut_bound(g) <= exhaustive_rankwidth(g), g.edges()
    tight = 0
    for _ in range(200):
        g = random_graph(rng.randrange(2, 13), rng, p=rng.uniform(0.1, 0.9))
        bound, width = _balanced_cut_bound(g), _dp_width(g)
        assert bound <= width, g.edges()
        tight += bound == width
    # the bound is not vacuous: it reaches the width on most of these
    assert tight > 100


def test_dp_widths_and_trees_are_pinned():
    # 24 G(10-11, 1/2) graphs; the digest was recorded with the DP that took
    # each cut-rank by its own elimination and ended a split search only at
    # f(X), so the cut-rank table and the lower bound move no tree
    rng = random.Random(28)
    out = []
    for i in range(24):
        g = random_graph(11 if i % 3 == 2 else 10, rng)
        width, edges = _kernels.rankwidth_search(g.adj, g.n)
        out.append([width, [list(e) for e in edges]])
    assert [width for width, _ in out] == [
        3, 3, 2, 3, 2, 3, 2, 3, 3, 3, 2, 3, 2, 3, 3, 2, 3, 3, 2, 2, 3, 2, 2, 3]
    assert (
        hashlib.sha256(json.dumps(out).encode()).hexdigest()
        == "26ba852da493c6226f8fdf2394fc79a9d63f1d1c2fedaaea47d9548f48b5712b"
    )


def test_reductions_agree_with_the_unreduced_dp():
    rng = random.Random(25)
    kinds = ["pendant", "true_twin", "false_twin"]
    for n in (8, 10, 12):
        g = random_graph(n, rng, p=rng.uniform(0.3, 0.7))
        while g.n < 16:
            g = _add_vertex(g, rng.choice(kinds), rng.randrange(g.n))
            if g.n in (14, 16):
                width, tree = exact_rankwidth(g)
                assert width == _dp_width(g), (n, g.edges())
                assert decomposition_width(g, tree) == width
    # two graphs with one vertex in common: rw = max(rw(G1), rw(G2), 1)
    for n1, n2 in ((8, 8), (8, 9), (9, 10), (10, 10), (10, 8)):
        g1 = random_graph(n1, rng, p=rng.uniform(0.3, 0.7))
        g2 = random_graph(n2, rng, p=rng.uniform(0.3, 0.7))
        g = _glue(g1, g2, rng.randrange(n1), rng.randrange(n2))
        width, tree = exact_rankwidth(g)
        assert width == max(_dp_width(g1), _dp_width(g2), 1), (n1, n2)
        if g.n <= 16:
            assert width == _dp_width(g), (n1, n2)
        assert decomposition_width(g, tree) == width


def _cactus(copies):
    # cycle:7 chained: each copy's vertex 0 is the previous copy's vertex 3
    c7 = generate("cycle", 7)
    g, joint = c7, 3
    for _ in range(copies - 1):
        g, joint = _glue(g, c7, joint, 0), g.n + 2
    return g


def test_exact_answers_large_graphs_with_small_pieces():
    graphs = [
        # a tree has rank-width 1 and reduces to one edge
        (_random_tree(500, random.Random(500)), 1),
        # every piece is a 7-cycle, of rank-width 2
        (_cactus(10), 2),
        # the peeled tree leaves grid:4, rank-width 3 (Jelinek 2010)
        (_hang(generate("grid", 4), _random_tree(200, random.Random(4)), 0), 3),
    ]
    for g, want in graphs:
        width, tree = exact_rankwidth(g)
        assert width == want, g.n
        assert decomposition_width(g, tree) == width


def _blocks(rng):
    """One to six random graphs of 2 to 6 vertices, each glued at one
    vertex to those before it, in a shuffled numbering."""
    g = random_graph(rng.randrange(2, 7), rng, rng.uniform(0.3, 0.9))
    for _ in range(rng.randrange(6)):
        block = random_graph(rng.randrange(2, 7), rng, rng.uniform(0.3, 0.9))
        g = _glue(g, block, rng.randrange(g.n), rng.randrange(block.n))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_reduced_widths_and_trees_are_pinned():
    # graphs that the pendant, twin and cut-vertex rules take apart: the
    # digest pins how the pieces' trees are glued back, bridges and all
    rng = random.Random(34)
    graphs = [_blocks(rng) for _ in range(300)]
    graphs += [generate("path", 300), generate("binary_tree", 7), generate("complete", 30)]
    out = []
    for g in graphs:
        width, tree = exact_rankwidth(g)
        out.append([width, [list(e) for e in tree.edges]])
    assert [sum(width == w for width, _ in out) for w in range(3)] == [4, 205, 94]
    assert (
        hashlib.sha256(json.dumps(out).encode()).hexdigest()
        == "6c006cbe380391a64b0d91b1fc998ba1effcbc83051d1a40b00c567638a682b8"
    )


def test_edgeless_graph_has_width_zero_at_any_size():
    width, tree = exact_rankwidth(Graph.from_edges(65, []))
    assert width == 0
    assert tree == tree_from_choices(65, [0] * 63)


def test_search_rejects_tiny_inputs():
    with pytest.raises(ValueError, match="at least 2 vertices"):
        _kernels.rankwidth_search((0,), 1)


def test_rankwidth_invariant_under_relabeling():
    rng = random.Random(4)
    g1, g2 = random_graph(9, rng), random_graph(8, rng)
    for g in (generate("cycle", 6), generate("grid", 3), random_graph(6, rng),
              _cactus(4), _glue(g1, g2, 2, 5), _random_tree(100, rng),
              _hang(generate("cycle", 8), generate("binary_tree", 3), 5)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        width, tree = exact_rankwidth(h)
        assert width == exact_rankwidth(g)[0]
        assert decomposition_width(h, tree) == width


def test_exact_refuses_above_dp_limit():
    # the limit is on the largest irreducible piece: cycles and grids are
    # their own only piece
    with pytest.raises(SizeLimitError, match="2\\^20 = 1,048,576 entries"):
        exact_rankwidth(generate("cycle", 21))
    with pytest.raises(SizeLimitError, match="DP table for 25 vertices"):
        exact_rankwidth(generate("grid", 5))
    with pytest.raises(SizeLimitError, match="2\\^29 = 536,870,912 entries"):
        exact_rankwidth(generate("cycle", 30))
    # a piece of 21 vertices past 200 peeled ones is still refused
    big = _hang(generate("cycle", 21), _random_tree(200, random.Random(21)), 0)
    with pytest.raises(SizeLimitError, match="this 221-vertex graph has 21 vertices"):
        exact_rankwidth(big)


def test_greedy_is_valid_upper_bound():
    for g in small_corpus():
        if g.n < 2:
            continue
        width, tree = greedy_decomposition(g)
        assert decomposition_width(g, tree) == width
        if g.n <= 7:
            exact, _ = exact_rankwidth(g)
            assert width >= exact


def test_greedy_on_long_path():
    assert greedy_decomposition(generate("path", 50))[0] == 1


def assert_greedy_matches_reference(g):
    order = reference_greedy_order(g)
    # a caterpillar's cuts are its leaves and the prefixes of its order
    sides = [[v] for v in range(g.n)] + [order[:k] for k in range(2, g.n - 1)]
    width, tree = greedy_decomposition(g)
    assert tree == _caterpillar(order), g.name
    assert width == max(reference_cut_rank(g, side) for side in sides), g.name


def test_greedy_matches_reference_on_all_small_graphs():
    for n in range(2, 6):
        for g in all_graphs(n):
            assert_greedy_matches_reference(g)


def test_greedy_matches_reference_on_random_graphs():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(2, 14)
        assert_greedy_matches_reference(random_graph(n, rng, p=rng.uniform(0.1, 0.9)))


def test_greedy_matches_reference_on_edge_cases():
    graphs = [
        Graph.from_edges(2, []),
        generate("path", 2),
        Graph.from_edges(9, [], name="edgeless(9)"),
        Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (7, 8)],
                         name="triangle+isolated+edge+path"),
        Graph.from_edges(8, [(1, 6), (6, 3), (3, 1), (0, 7), (7, 2)],
                         name="interleaved components"),
    ]
    for g in graphs:
        assert_greedy_matches_reference(g)


def test_greedy_matches_reference_on_lattices():
    rng = random.Random(8)
    perm = list(range(64))
    rng.shuffle(perm)
    for g in (generate("grid", 8), generate("hexagonal", 6),
              generate("triangular", 6), relabel(generate("grid", 8), perm)):
        assert_greedy_matches_reference(g)


def test_greedy_matches_reference_on_larger_sparse_graphs():
    # in the shuffled lattices the frontier is spread over all the labels,
    # and G(90, 2/90) has isolated vertices and several components, so some
    # steps find no vertex that keeps the cut-rank from growing
    rng = random.Random(9)
    graphs = []
    for kind in ("triangular", "hexagonal"):
        perm = list(range(81))
        rng.shuffle(perm)
        graphs.append(relabel(generate(kind, 9), perm))
    graphs.append(random_graph(90, random.Random(2), p=2 / 90))
    for g in graphs:
        assert_greedy_matches_reference(g)


def test_greedy_output_is_pinned():
    # widths and caterpillars of canonical and relabelled grids; the digest
    # was recorded with an implementation that scored every unplaced vertex
    # against a basis rebuilt by full elimination at each step
    graphs = [generate("grid", k) for k in range(12, 17)]
    rng = random.Random(2010)
    perm = list(range(256))
    rng.shuffle(perm)
    graphs.append(relabel(generate("grid", 16), perm))
    out = []
    for g in graphs:
        width, tree = greedy_decomposition(g)
        out.append([width, [list(e) for e in tree.edges]])
    assert [width for width, _ in out] == [12, 13, 14, 15, 16, 65]
    assert (
        hashlib.sha256(json.dumps(out).encode()).hexdigest()
        == "6ad762c16b33691569afaed76d5d718e54b9a7dda94401073e2f1277eefdccdd"
    )


def test_greedy_computes_no_cut_rank(monkeypatch):
    # the order and the width both come from the incremental prefix bases
    calls = 0
    real = gslogic.rankwidth.cut_rank_masks

    def counting(adj, amask, bmask):
        nonlocal calls
        calls += 1
        return real(adj, amask, bmask)

    monkeypatch.setattr(gslogic.rankwidth, "cut_rank_masks", counting)
    g = generate("grid", 12)
    greedy_decomposition(g)
    assert calls == 0


@pytest.mark.parametrize(
    "family, k, low, high",
    [
        ("cycle", 100, 2, 2),
        ("complete", 40, 1, 1),
        ("path", 300, 1, 1),
        # rank-width k - 1 (Jelinek 2010); a caterpillar may need one more
        ("grid", 8, 7, 8),
        ("grid", 24, 23, 24),
        ("grid", 48, 47, 48),
    ],
)
def test_greedy_closed_forms_at_lattice_scale(family, k, low, high):
    g = generate(family, k)
    width, tree = greedy_decomposition(g)
    assert decomposition_width(g, tree) == width
    assert low <= width <= high


def test_greedy_needs_two_vertices():
    with pytest.raises(ValueError):
        greedy_decomposition(Graph.from_edges(1, []))


def test_cut_rank_through_decomposition():
    # every tree cut's width is a real cut-rank of the graph
    g = generate("grid", 3)
    width, tree = exact_rankwidth(g)
    for edge in tree.edges:
        a, _ = tree_edge_bipartition(tree, edge)
        assert cut_rank(g, a) <= width

"""Subcubic trees, decompositions, and the exact rank-width search."""

import json
import random
import re

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
    RankDecomposition,
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
    star = {"n": 3, "edges": [[0, 3], [1, 3], [2, 3]]}
    for leaf_labels in ({"0": 0, "1": 0, "2": 2}, {"0": 0, "1": 1},
                        {"0": 0, "1": 1, "2": 2, "00": 1}, {"0": 0, "1": 1, "2": "2"}):
        with pytest.raises(ValueError, match="bijection"):
            SubcubicTree.from_json_dict(dict(star, leaf_labels=leaf_labels))


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
            flip = {str(leaf): n - 1 - leaf for leaf in range(n)}
            flipped = SubcubicTree.from_json_dict(
                {"n": n, "edges": plain.edges, "leaf_labels": flip})
            for tree in (plain, flipped):
                for u, v in tree.edges:
                    want = _leaves_reached(tree, min(u, v), (u, v))
                    for edge in ((u, v), (v, u)):
                        first, second = tree_edge_bipartition(tree, edge)
                        assert first == want
                        assert second == set(range(n)) - want
            # leaf i of the document is leaf n - 1 - i of the flipped tree
            for edge, flipped_edge in zip(plain.edges, flipped.edges):
                sides = {frozenset(n - 1 - v for v in side)
                         for side in tree_edge_bipartition(plain, edge)}
                assert sides == set(map(frozenset, tree_edge_bipartition(flipped, flipped_edge)))


def test_decomposition_json_round_trip():
    _, decomp = exact_rankwidth(generate("cycle", 5))
    text = decomp.to_json()
    payload = json.loads(text)
    assert set(payload) == {"n", "edges", "leaf_labels", "width"}
    assert all(isinstance(k, str) for k in payload["leaf_labels"])
    assert RankDecomposition.from_json(text) == decomp


def test_tree_json_rejects_leaf_keys_out_of_range():
    payload = json.loads(RankDecomposition(tree_from_choices(3, [0]), 1).to_json())
    for key in ("-1", "3", "5", "x", "\u00b2"):
        bad = dict(payload, leaf_labels={"0": 0, "1": 1, key: 2})
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            RankDecomposition.from_json(json.dumps(bad))


def test_decomposition_width_validates_sizes():
    tree = tree_from_choices(4, [0, 1])
    with pytest.raises(ValueError, match="leaves"):
        decomposition_width(generate("path", 5), tree)


def test_paths_have_width_one():
    for n in range(2, 7):
        width, decomp = exact_rankwidth(generate("path", n))
        assert width == 1
        assert decomp.width == 1
        assert decomposition_width(generate("path", n), decomp.tree) == 1


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
    width, decomp = exact_rankwidth(Graph.from_edges(4, []))
    assert width == 0 and decomp.width == 0
    assert exact_rankwidth(generate("path", 2))[0] == 1


def test_tiny_graphs_have_no_tree():
    assert exact_rankwidth(Graph.from_edges(0, [])) == (0, None)
    assert exact_rankwidth(Graph.from_edges(1, [])) == (0, None)


def test_witness_width_matches_claim():
    for g in small_corpus():
        if g.n > 7:
            continue
        width, decomp = exact_rankwidth(g)
        assert decomposition_width(g, decomp.tree) == width


def test_witness_is_optimal():
    rng = random.Random(2)
    graphs = [generate("cycle", 5), generate("grid", 2), random_graph(5, rng),
              random_graph(6, rng), random_graph(7, rng, p=0.2),
              random_graph(7, rng, p=0.8)]
    for g in graphs:
        width, decomp = exact_rankwidth(g)
        assert width == exhaustive_rankwidth(g)
        assert decomposition_width(g, decomp.tree) == width


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
            width, decomp = exact_rankwidth(g)
            assert width == exhaustive_rankwidth(g)
            assert decomp.width == width
            assert decomposition_width(g, decomp.tree) == width


@pytest.mark.parametrize("spec, width", [
    ("cycle:13", 2),
    # distance-hereditary, 15 vertices
    ("binary_tree:3", 1),
    # rank-width k - 1 on the k x k grid (Jelinek 2010)
    ("grid:4", 3),
])
def test_exact_closed_forms_past_twelve_vertices(spec, width):
    kind, size = spec.split(":")
    g = generate(kind, int(size))
    got, decomp = exact_rankwidth(g)
    assert got == width
    assert decomposition_width(g, decomp.tree) == width


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
            width, decomp = exact_rankwidth(g)
            assert width == want, (kind, n, g.n)
            assert decomposition_width(g, decomp.tree) == width


def test_disjoint_union_has_the_larger_width():
    # a tree for each part joined by one new edge: the joint cuts have rank 0
    rng = random.Random(12)
    for n1, n2 in ((1, 13), (2, 12), (5, 9), (7, 7), (8, 8)):
        g1 = random_graph(n1, rng, p=rng.uniform(0.2, 0.8))
        g2 = random_graph(n2, rng, p=rng.uniform(0.2, 0.8))
        union = Graph.from_edges(
            n1 + n2, g1.edges() + [(u + n1, v + n1) for u, v in g2.edges()])
        width, decomp = exact_rankwidth(union)
        assert width == max(exact_rankwidth(g1)[0], exact_rankwidth(g2)[0]), (n1, n2)
        assert decomposition_width(union, decomp.tree) == width


def test_edgeless_graph_has_width_zero_at_any_size():
    width, decomp = exact_rankwidth(Graph.from_edges(65, []))
    assert width == 0 and decomp.width == 0
    assert decomp.tree == tree_from_choices(65, [0] * 63)


def test_search_rejects_tiny_inputs():
    with pytest.raises(ValueError, match="at least 2 vertices"):
        _kernels.rankwidth_search((0,), 1)


def test_rankwidth_invariant_under_relabeling():
    rng = random.Random(4)
    for g in (generate("cycle", 6), generate("grid", 3), random_graph(6, rng)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert exact_rankwidth(relabel(g, perm))[0] == exact_rankwidth(g)[0]


def test_exact_refuses_above_dp_limit():
    with pytest.raises(SizeLimitError, match="2\\^20 = 1,048,576 entries"):
        exact_rankwidth(generate("path", 21))
    with pytest.raises(SizeLimitError, match="DP table for 25 vertices"):
        exact_rankwidth(generate("grid", 5))
    with pytest.raises(SizeLimitError, match="2\\^29 = 536,870,912 entries"):
        exact_rankwidth(generate("path", 30))


def test_greedy_is_valid_upper_bound():
    for g in small_corpus():
        if g.n < 2:
            continue
        decomp = greedy_decomposition(g)
        assert decomposition_width(g, decomp.tree) == decomp.width
        if g.n <= 7:
            exact, _ = exact_rankwidth(g)
            assert decomp.width >= exact


def test_greedy_on_long_path():
    assert greedy_decomposition(generate("path", 50)).width == 1


def assert_greedy_matches_reference(g):
    order = reference_greedy_order(g)
    # a caterpillar's cuts are its leaves and the prefixes of its order
    sides = [[v] for v in range(g.n)] + [order[:k] for k in range(2, g.n - 1)]
    decomp = greedy_decomposition(g)
    assert decomp.tree == _caterpillar(order), g.name
    assert decomp.width == max(reference_cut_rank(g, side) for side in sides), g.name


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


def test_greedy_computes_cut_ranks_only_for_the_final_width(monkeypatch):
    # the greedy order needs no cut-rank; the 2n - 3 edges of its tree do
    calls = 0
    real = gslogic.rankwidth.cut_rank_masks

    def counting(adj, amask, bmask):
        nonlocal calls
        calls += 1
        return real(adj, amask, bmask)

    monkeypatch.setattr(gslogic.rankwidth, "cut_rank_masks", counting)
    g = generate("grid", 12)
    greedy_decomposition(g)
    assert 0 < calls <= 2 * g.n - 3


@pytest.mark.parametrize(
    "family, k, low, high",
    [
        ("cycle", 100, 2, 2),
        ("complete", 40, 1, 1),
        ("path", 300, 1, 1),
        # rank-width k - 1 (Jelinek 2010); a caterpillar may need one more
        ("grid", 8, 7, 8),
        ("grid", 24, 23, 24),
    ],
)
def test_greedy_closed_forms_at_lattice_scale(family, k, low, high):
    g = generate(family, k)
    decomp = greedy_decomposition(g)
    assert decomposition_width(g, decomp.tree) == decomp.width
    assert low <= decomp.width <= high


def test_greedy_needs_two_vertices():
    with pytest.raises(ValueError):
        greedy_decomposition(Graph.from_edges(1, []))


def test_cut_rank_through_decomposition():
    # every tree cut's width is a real cut-rank of the graph
    g = generate("grid", 3)
    _, decomp = exact_rankwidth(g)
    for edge in decomp.tree.edges:
        a, _ = tree_edge_bipartition(decomp.tree, edge)
        assert cut_rank(g, a) <= decomp.width

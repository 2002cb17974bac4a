"""Hand-known cases for the benchmark's oracles, so that a broken oracle
cannot pass a broken program.

run.py calls every ``test_*`` function here before each run; they also run
under pytest: ``python3 -m pytest bench/test_oracles.py``.
"""

import random

import oracles


def test_gf2_rank():
    assert oracles.gf2_rank([]) == 0
    assert oracles.gf2_rank([0b1, 0b10, 0b100]) == 3
    assert oracles.gf2_rank([0b11, 0b11]) == 1
    assert oracles.gf2_rank([0b011, 0b110, 0b101]) == 2
    assert oracles.gf2_rank([0, 0b1010]) == 1


def test_cut_rank():
    c4 = oracles.cycle(4)
    assert oracles.cut_rank(c4, 0b0011) == 2  # 0 sees only 3 across the cut, 1 only 2
    assert oracles.cut_rank(c4, 0b0101) == 1  # opposite corners share both neighbours
    assert oracles.cut_rank(oracles.complete(5), 0b00111) == 1
    assert oracles.cut_rank(oracles.path(4), 0b0011) == 1


def test_lattices_match_the_documented_conventions():
    for k in (2, 3, 5):
        assert oracles.edge_count(oracles.lattice("grid", k)) == 2 * k * (k - 1)
        assert oracles.edge_count(oracles.lattice("triangular", k)) == 2 * k * (k - 1) + (k - 1) ** 2
    hexagonal = oracles.lattice("hexagonal", 4)
    assert max(row.bit_count() for row in hexagonal[1]) <= 3
    assert oracles.edge_count(hexagonal) == 4 * 3 + 6
    assert oracles.from_spec("binary_tree:2")[0] == 7


def test_rankwidth_known_values():
    assert oracles.dp_rankwidth(oracles.cycle(5)) == 2
    assert oracles.dp_rankwidth(oracles.cycle(12)) == 2
    assert oracles.dp_rankwidth(oracles.cycle(4)) == 1
    for n in (2, 5, 9):
        assert oracles.dp_rankwidth(oracles.complete(n)) == 1
    assert oracles.dp_rankwidth(oracles.lattice("grid", 3)) == 2
    assert oracles.dp_rankwidth(oracles.path(10)) == 1
    assert oracles.dp_rankwidth(oracles.from_edges(4, [])) == 0
    assert oracles.dp_rankwidth(oracles.from_edges(1, [])) == 0


def _caterpillar(order):
    n = len(order)
    edges = [[order[0], n], [order[1], n]]
    for k in range(2, n - 1):
        edges += [[n + k - 2, n + k - 1], [order[k], n + k - 1]]
    edges.append([order[-1], 2 * n - 3])
    return {"n": n, "edges": edges, "leaf_labels": {str(i): i for i in range(n)}}


def test_tree_width_recomputes_and_validates():
    c6 = oracles.cycle(6)
    assert oracles.tree_width(c6, _caterpillar(list(range(6)))) == 2
    p6 = oracles.path(6)
    assert oracles.tree_width(p6, _caterpillar(list(range(6)))) == 1
    # the interleaved order cuts the path into many pieces
    assert oracles.tree_width(p6, _caterpillar([0, 2, 4, 1, 3, 5])) == 3
    broken = _caterpillar(list(range(6)))
    broken["edges"][0] = [0, 1]
    try:
        oracles.tree_width(c6, broken)
    except ValueError:
        pass
    else:
        raise AssertionError("a tree with a leaf-leaf edge was accepted")


def test_carve_rule():
    # path 0-1-2: cover {1}; X on 0 and 2 must equal the Z outcome of 1
    g = oracles.path(3)
    good = [{"qubit": 1, "basis": "Z", "outcome": -1, "probability": 0.5},
            {"qubit": 0, "basis": "X", "outcome": -1, "probability": 1.0},
            {"qubit": 2, "basis": "Y", "outcome": 1, "probability": 0.5}]
    assert oracles.carve_errors(g, good) == []
    wrong_sign = [dict(r) for r in good]
    wrong_sign[1]["outcome"] = 1
    assert oracles.carve_errors(g, wrong_sign)
    random_x = [dict(r) for r in good]
    random_x[1]["probability"] = 0.5
    assert oracles.carve_errors(g, random_x)


def test_bipartite_and_connected():
    assert not oracles.is_bipartite(oracles.cycle(5))
    assert not oracles.is_bipartite(oracles.cycle(9))
    assert oracles.is_bipartite(oracles.cycle(8))
    assert oracles.is_bipartite(oracles.lattice("grid", 3))
    assert not oracles.is_bipartite(oracles.lattice("triangular", 3))
    assert oracles.is_bipartite(oracles.lattice("hexagonal", 3))
    assert oracles.components(oracles.path(14)) == 1
    assert oracles.components(oracles.from_edges(4, [(0, 1), (2, 3)])) == 2
    assert oracles.components(oracles.from_edges(1, [])) == 1


def test_user_formula_properties():
    assert oracles.all_degrees_even(oracles.cycle(11))
    assert oracles.all_degrees_even(oracles.complete(9))
    assert not oracles.all_degrees_even(oracles.lattice("grid", 3))
    assert oracles.has_perfect_code(oracles.cycle(9))
    assert not oracles.has_perfect_code(oracles.cycle(10))
    assert not oracles.has_perfect_code(oracles.cycle(4))
    assert oracles.has_perfect_code(oracles.path(7))
    assert oracles.has_perfect_code(oracles.complete(5))


def test_dp_agrees_with_width_of_some_tree():
    # the DP value is a lower bound on every tree's width
    rng = random.Random(1)
    for _ in range(20):
        g = oracles.random_graph(7, 0.5, rng)
        order = list(range(7))
        rng.shuffle(order)
        assert oracles.dp_rankwidth(g) <= oracles.tree_width(g, _caterpillar(order))

"""Bit-packed GF(2) matrices, rank, and cut-rank."""

import random

import pytest

from conftest import random_graph, small_corpus
from gslogic import Gf2Matrix, cut_rank, cut_rank_masks, cut_submatrix, generate, rank2
from gslogic._kernels import gf2_basis, gf2_reduce


def naive_rank(entries: list[list[int]]) -> int:
    """Independent O(n^3) elimination on 0/1 lists, leftmost-pivot order."""
    m = [row[:] for row in entries]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(n_rows):
            if r != row and m[r][col]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def test_from_lists_round_trip():
    entries = [[1, 0, 1], [0, 1, 1]]
    m = Gf2Matrix.from_lists(entries)
    assert m.to_lists() == entries
    assert m.entry(0, 2) == 1 and m.entry(1, 0) == 0


def test_from_lists_rejects_non_bits():
    with pytest.raises(ValueError, match="not a bit"):
        Gf2Matrix.from_lists([[0, 2]])
    with pytest.raises(ValueError, match="ragged"):
        Gf2Matrix.from_lists([[0, 1], [1]])


def test_constructor_rejects_wide_rows():
    with pytest.raises(ValueError):
        Gf2Matrix(1, 2, (0b100,))


def test_entry_bounds():
    m = Gf2Matrix.zeros(2, 3)
    with pytest.raises(IndexError):
        m.entry(2, 0)


def test_zeros_rank():
    assert Gf2Matrix.zeros(4, 7).rank() == 0
    assert Gf2Matrix.zeros(0, 0).rank() == 0


def test_identity_rank():
    m = Gf2Matrix(5, 5, tuple(1 << i for i in range(5)))
    assert rank2(m) == 5


def test_hand_ranks():
    assert Gf2Matrix.from_lists([[1, 1], [1, 1]]).rank() == 1
    assert Gf2Matrix.from_lists([[1, 0], [0, 1]]).rank() == 2
    # rows sum to zero mod 2, so the three rows span a plane
    assert Gf2Matrix.from_lists([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).rank() == 2


def test_transpose_involution_and_rank():
    rng = random.Random(1)
    for _ in range(20):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = Gf2Matrix.from_lists(
            [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        )
        assert m.transpose().transpose() == m
        assert m.transpose().rank() == m.rank()


@pytest.mark.parametrize("n_cols", [1, 7, 31, 63, 64, 65, 80])
def test_rank_matches_naive_elimination(n_cols):
    # widths straddle the machine-word boundary on purpose
    rng = random.Random(n_cols)
    for _ in range(8):
        n_rows = rng.randrange(1, 12)
        entries = [
            [rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        m = Gf2Matrix.from_lists(entries)
        assert rank2(m) == naive_rank(entries)


def test_basis_span_test_matches_naive_rank():
    # x is in the span of the rows iff appending it leaves the rank unchanged
    rng = random.Random(5)
    n_cols = 9
    for _ in range(200):
        rows = [rng.getrandbits(n_cols) for _ in range(rng.randrange(6))]
        basis = gf2_basis(rows)
        assert all(low == row & -row for low, row in basis.items())
        assert all(gf2_reduce(basis, row) == 0 for row in rows)
        x = rng.getrandbits(n_cols)
        lists = [[(r >> j) & 1 for j in range(n_cols)] for r in rows + [x]]
        in_span = naive_rank(lists) == naive_rank(lists[:-1])
        assert (gf2_reduce(basis, x) == 0) == in_span


def test_cut_submatrix_shape_and_content():
    g = generate("path", 3)
    m = cut_submatrix(g, [0, 1])
    assert (m.n_rows, m.n_cols) == (2, 1)
    assert m.to_lists() == [[0], [1]]


def test_cut_rank_agrees_with_submatrix_rank():
    rng = random.Random(9)
    for g in small_corpus():
        for _ in range(12):
            subset = [v for v in range(g.n) if rng.random() < 0.5]
            assert cut_rank(g, subset) == cut_submatrix(g, subset).rank()


def test_cut_rank_symmetry_and_bound():
    rng = random.Random(10)
    for g in small_corpus():
        for _ in range(12):
            a = {v for v in range(g.n) if rng.random() < 0.5}
            b = set(range(g.n)) - a
            r = cut_rank(g, a)
            assert r == cut_rank(g, b)
            assert r <= min(len(a), len(b))


def test_cut_rank_trivial_sides():
    g = generate("grid", 3)
    assert cut_rank(g, []) == 0
    assert cut_rank(g, range(9)) == 0
    assert cut_rank(g, [4]) == 1


def test_cut_rank_rejects_bad_vertices():
    g = generate("path", 3)
    with pytest.raises(ValueError, match="out of range"):
        cut_rank(g, [3])
    with pytest.raises(ValueError, match="out of range"):
        cut_rank(g, [-1])


def test_cut_rank_submodularity_spot_check():
    # cut-rank is submodular: f(A|B) + f(A&B) <= f(A) + f(B)
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(8, rng)
        a = {v for v in range(8) if rng.random() < 0.5}
        b = {v for v in range(8) if rng.random() < 0.5}
        lhs = cut_rank(g, a | b) + cut_rank(g, a & b)
        rhs = cut_rank(g, a) + cut_rank(g, b)
        assert lhs <= rhs


def test_cut_rank_masks_matches_subset_form():
    g = generate("cycle", 6)
    full = (1 << 6) - 1
    for amask in range(1 << 6):
        subset = [v for v in range(6) if (amask >> v) & 1]
        assert cut_rank_masks(g.adj, amask, full ^ amask) == cut_rank(g, subset)

"""GF(2) span tests, rank, dual basis and cut-rank on bit-packed int rows.

The rank of some rows is taken with the package's one rank kernel,
`cut_rank_masks`, on the bipartite graph of the rows, and checked against
`naive_rank`, an elimination on 0/1 lists; dual bases are checked by their
dot products with the rows, and cut-ranks against
`conftest.reference_cut_rank`. None of these references shares code with
`gslogic.gf2`.
"""

import random
import sys

import pytest

from conftest import (all_graphs, random_graph, reference_cut_rank, run_with_memory_limit,
                      small_corpus)
from gslogic import Graph, cut_rank, cut_rank_masks, generate
from gslogic.gf2 import _cut_rank_table, gf2_dual_basis, gf2_reduce


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


def rows_of(entries: list[list[int]]) -> list[int]:
    """Pack 0/1 lists into int rows, bit j = column j."""
    return [sum(bit << j for j, bit in enumerate(row)) for row in entries]


def basis_rank(rows) -> int:
    """GF(2) rank of the rows: the cut-rank between the row vertices and the
    column vertices of the bipartite graph whose edges are the 1 entries."""
    rows = list(rows)
    n_rows = len(rows)
    n_cols = max(rows, default=0).bit_length()
    adj = [row << n_rows for row in rows] + transpose(rows, n_cols)
    g = Graph(n_rows + n_cols, tuple(adj))
    row_side = (1 << n_rows) - 1
    return cut_rank_masks(g.adj, row_side, ((1 << g.n) - 1) ^ row_side)


def test_zeros_rank():
    assert basis_rank([0] * 4) == 0
    assert basis_rank([]) == 0


def test_identity_rank():
    assert basis_rank([1 << i for i in range(5)]) == 5


def test_hand_ranks():
    assert basis_rank(rows_of([[1, 1], [1, 1]])) == 1
    assert basis_rank(rows_of([[1, 0], [0, 1]])) == 2
    # rows sum to zero mod 2, so the three rows span a plane
    assert basis_rank(rows_of([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def transpose(rows: list[int], n_cols: int) -> list[int]:
    """Columns of packed rows as packed rows, bit i = row i."""
    return [
        sum(((row >> j) & 1) << i for i, row in enumerate(rows))
        for j in range(n_cols)
    ]


def test_transpose_involution_and_rank():
    # row rank equals column rank
    rng = random.Random(1)
    for _ in range(20):
        n_rows = rng.randrange(1, 9)
        n_cols = rng.randrange(1, 9)
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        assert transpose(transpose(rows, n_cols), n_rows) == rows
        assert basis_rank(transpose(rows, n_cols)) == basis_rank(rows)


@pytest.mark.parametrize("n_cols", [1, 7, 31, 63, 64, 65, 80])
def test_rank_matches_naive_elimination(n_cols):
    # widths straddle the machine-word boundary on purpose
    rng = random.Random(n_cols)
    for _ in range(8):
        n_rows = rng.randrange(1, 12)
        entries = [
            [rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        assert basis_rank(rows_of(entries)) == naive_rank(entries)


def test_basis_span_test_matches_naive_rank():
    # x is in the span of the rows iff appending it leaves the rank unchanged
    rng = random.Random(5)
    n_cols = 9
    for _ in range(200):
        rows = [rng.getrandbits(n_cols) for _ in range(rng.randrange(6))]
        basis = {}
        for row in rows:
            row = gf2_reduce(basis, row)
            if row:
                basis[row & -row] = row
        assert all(low == row & -row for low, row in basis.items())
        assert all(gf2_reduce(basis, row) == 0 for row in rows)
        x = rng.getrandbits(n_cols)
        lists = [[(r >> j) & 1 for j in range(n_cols)] for r in rows + [x]]
        in_span = naive_rank(lists) == naive_rank(lists[:-1])
        assert (gf2_reduce(basis, x) == 0) == in_span


def test_dual_basis_pairs_with_its_rows():
    rng = random.Random(12)
    for _ in range(100):
        n_cols = rng.randrange(1, 12)
        rows = [rng.getrandbits(n_cols) for _ in range(rng.randrange(1, n_cols + 1))]
        lists = [[(r >> j) & 1 for j in range(n_cols)] for r in rows]
        if naive_rank(lists) < len(rows):
            with pytest.raises(ValueError, match="dependent"):
                gf2_dual_basis(rows)
            continue
        dual = gf2_dual_basis(rows)
        assert [[(d & v).bit_count() % 2 for v in rows] for d in dual] == [
            [int(i == j) for j in range(len(rows))] for i in range(len(rows))
        ]


def test_reference_cut_rank_hand_values():
    assert reference_cut_rank(generate("path", 3), [0, 1]) == 1
    complete = generate("complete", 5)
    for mask in range(1, (1 << 5) - 1):
        assert reference_cut_rank(complete, [v for v in range(5) if (mask >> v) & 1]) == 1
    # grid:3 is labelled row-major, so its middle column is 1, 4, 7
    assert reference_cut_rank(generate("grid", 3), [1, 4, 7]) == 3
    assert reference_cut_rank(Graph.from_edges(5, []), [0, 2]) == 0
    assert reference_cut_rank(generate("cycle", 4), []) == 0


def test_cut_rank_agrees_with_submatrix_rank():
    rng = random.Random(9)
    for g in small_corpus():
        for _ in range(12):
            subset = [v for v in range(g.n) if rng.random() < 0.5]
            assert cut_rank(g, subset) == reference_cut_rank(g, subset)


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
    with pytest.raises(ValueError, match="vertex 99 out of range for n=9"):
        cut_rank(generate("grid", 3), [0, 99])


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
        assert cut_rank_masks(g.adj, amask, full ^ amask) == reference_cut_rank(g, subset)
    # rows wider than one machine word; sparse, so that most cut-ranks fall
    # below min(|A|, |B|)
    rng = random.Random(70)
    g = random_graph(70, rng, p=0.05)
    full = (1 << 70) - 1
    for _ in range(50):
        amask = rng.getrandbits(70)
        subset = [v for v in range(70) if (amask >> v) & 1]
        assert cut_rank_masks(g.adj, amask, full ^ amask) == reference_cut_rank(g, subset)


def test_cut_rank_table_matches_one_cut_at_a_time():
    # the table's kernel counts against a fresh elimination of each set;
    # vertex 0 isolated or universal decides which T(Y) = Y | s_Y hold it,
    # the ones the count must drop
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    rng = random.Random(28)
    graphs += [random_graph(n, rng, p=rng.uniform(0.1, 0.9))
               for n in range(2, 13) for _ in range(4)]
    graphs += [generate("grid", 3), generate("cycle", 12)]
    for n in (2, 6, 9, 12):
        rest = [(u, v) for u, v in random_graph(n, rng).edges() if u]
        graphs += [
            Graph.from_edges(n, rest, name=f"vertex 0 isolated({n})"),
            Graph.from_edges(n, rest + [(0, v) for v in range(1, n)],
                             name=f"vertex 0 universal({n})"),
            Graph.from_edges(n, [], name=f"edgeless({n})"),
            generate("complete", n),
        ]
    graphs += [random_graph(n, rng, p=rng.uniform(0.1, 0.9)) for n in range(13, 17)]
    for g in graphs:
        full = (1 << g.n) - 1
        table = _cut_rank_table(g.adj, g.n)
        assert len(table) == 1 << (g.n - 1)
        assert list(table) == [
            cut_rank_masks(g.adj, i << 1, full ^ (i << 1)) for i in range(len(table))
        ], (g.name, g.edges())



@pytest.mark.parametrize("n", [2, 10, 16])
def test_cut_rank_table_does_not_depend_on_the_byte_order(n, monkeypatch):
    # the counters are packed in explicit little-endian fields, so a host of
    # the other byte order builds the same table; the table must not read
    # sys.byteorder and swap a native array on the strength of it
    other = "little" if sys.byteorder == "big" else "big"
    monkeypatch.setattr(sys, "byteorder", other)
    g = random_graph(n, random.Random(n))
    full = (1 << n) - 1
    table = _cut_rank_table(g.adj, n)
    assert list(table) == [
        cut_rank_masks(g.adj, i << 1, full ^ (i << 1)) for i in range(1 << (n - 1))
    ]

# G(20, 1/2): 2,000 random entries of its table, and every set of at least
# 17 vertices, among them the 20 whose kernels hold 2^16 or 2^18
# combinations
TABLE_AT_20 = """
import random
from gslogic import cut_rank_masks
from gslogic.gf2 import _cut_rank_table
n = 20
rng = random.Random(2009)
adj = [0] * n
for u in range(n):
    for v in range(u + 1, n):
        if rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
table = _cut_rank_table(adj, n)
assert len(table) == 1 << (n - 1)
full = (1 << n) - 1
picks = [rng.randrange(len(table)) for _ in range(2000)]
picks += [i for i in range(len(table)) if i.bit_count() >= 17]
for i in picks:
    assert table[i] == cut_rank_masks(adj, i << 1, full ^ (i << 1)), i
"""


def test_cut_rank_table_at_twenty_vertices():
    # the table at the exact search's vertex limit, under a 512 MiB address
    # space: its counts reach 2^18, so a field too narrow for them fails here
    res = run_with_memory_limit(["-c", TABLE_AT_20])
    assert res.returncode == 0, res.stderr[-1000:]


def _local_complement(adj: list[int], a: int) -> None:
    """Toggle every edge inside N(a), in place."""
    na = adj[a]
    for w in range(len(adj)):
        if na >> w & 1:
            adj[w] ^= na ^ (1 << w)


@pytest.mark.parametrize("kind", ["grid", "triangular", "hexagonal"])
def test_cut_rank_is_invariant_under_local_complementation(kind):
    # local complementation keeps every cut-rank (Bouchet; Oum, JCTB 95,
    # 2005), here after 200 of them at random vertices of a 64 x 64 lattice
    k = 64
    g = generate(kind, k)
    n = g.n
    rng = random.Random(952005)
    adj = list(g.adj)
    for _ in range(200):
        _local_complement(adj, rng.randrange(n))
    h = Graph(n, tuple(adj))
    assert len(h.edges()) != len(g.edges())
    cuts = [
        {v for v in range(n) if rng.random() < 0.5},
        set(range(n // 2)),
        {v for v in range(n) if v % k < k // 3},
    ]
    for side in cuts:
        assert cut_rank(h, side) == cut_rank(g, side)

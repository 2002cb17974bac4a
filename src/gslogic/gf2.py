"""The package's GF(2) code, on bit-packed rows: a row is an int, bit j
is column j. A basis is keyed by each row's lowest or highest bit, and the
rank of some rows is the size of their basis. The cut-rank of a vertex
subset A, the GF(2) rank of the adjacency block between A and its
complement, is what the rank-width search minimizes over tree cuts:
`cut_rank_masks` takes one, and `_cut_rank_table` every one the exact
search needs, at two row insertions each. `gf2_reduce` tests membership in
a span, and the dual basis gives a stabilizer tableau its destabilizers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph

__all__ = ["gf2_reduce", "gf2_dual_basis", "cut_rank_masks", "cut_rank"]


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gf2_reduce(pivots: dict[int, int], row: int) -> int:
    """Residue of ``row`` against a basis keyed by each row's lowest bit.

    Zero exactly when ``row`` lies in the span of the basis rows. No two
    basis rows share a lowest bit, so each step clears the lowest bit of
    ``row`` and sets only higher ones, and the loop terminates.
    """
    while row:
        p = pivots.get(row & -row)
        if p is None:
            return row
        row ^= p
    return 0


def cut_rank_masks(adj: Sequence[int], amask: int, bmask: int) -> int:
    """GF(2) rank of the adjacency block between vertex masks A and B.

    Dropping the all-zero columns outside B does not change the rank, so
    the rows are taken directly as ``adj[a] & bmask`` for a in the smaller
    side; no matrix is materialized.
    """
    if amask.bit_count() > bmask.bit_count():
        amask, bmask = bmask, amask
    pivots: dict[int, int] = {}
    rank = 0
    rest = amask
    while rest:
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1] & bmask
        while row:
            lowbit = row & -row
            p = pivots.get(lowbit)
            if p is None:
                pivots[lowbit] = row
                rank += 1
                break
            row ^= p
    return rank


def _cut_rank_table(adj: Sequence[int], n: int) -> bytearray:
    """Cut-ranks of the subsets of V - {0}: entry i is f(X) for X = i << 1.

    f(X) = rank(span{adj[x], e_x : x in X}) - |X|, as the e_x clear the
    columns of X. A depth-first walk adds vertices in increasing order, and
    each set inserts e_v and adj[v] into a copy of its parent's basis, keyed
    by each row's highest bit; the last child, with vertex n - 1, has no
    children and takes its parent's basis itself.
    """
    table = bytearray(1 << (n - 1))
    last = n - 1

    def walk(x: int, basis: list[int], rank: int, start: int) -> None:
        for v in range(start, n):
            child = basis.copy() if v < last else basis
            r = rank - 1
            for row in (1 << v, adj[v]):
                while row:
                    top = row.bit_length() - 1
                    p = child[top]
                    if not p:
                        child[top] = row
                        r += 1
                        break
                    row ^= p
            i = x | 1 << (v - 1)
            table[i] = r
            if v < last:
                walk(i, child, r, v + 1)

    walk(0, [0] * n, 0, 1)
    return table


def gf2_dual_basis(vectors: Sequence[int]) -> list[int]:
    """Rows d_i with d_i . v_j = 1 (mod 2) exactly when i == j: Gauss-Jordan
    elimination of the v_j leaves rows with distinct pivot columns, each
    cleared in every other row, and records which v_j each row combines; the
    pivot column of a row that combines v_i belongs to d_i."""
    pivots: list[list[int]] = []  # [pivot bit, reduced row, combination]
    for k, vec in enumerate(vectors):
        combo = 1 << k
        for bit, row, rc in pivots:
            if vec & bit:
                vec, combo = vec ^ row, combo ^ rc
        if not vec:
            raise ValueError(f"rows are linearly dependent at row {k}")
        bit = vec & -vec
        for piv in pivots:
            if piv[1] & bit:
                piv[1] ^= vec
                piv[2] ^= combo
        pivots.append([bit, vec, combo])
    ds = [0] * len(pivots)
    for bit, _, combo in pivots:
        for i in _bits(combo):
            ds[i] |= bit
    return ds


def _sorted_vertices(g: Graph, subset: Iterable[int]) -> list[int]:
    vs = sorted(set(subset))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    return vs


def cut_rank(g: Graph, subset: Iterable[int]) -> int:
    """GF(2) rank of the cut between ``subset`` and its complement."""
    a_sorted = _sorted_vertices(g, subset)
    amask = 0
    for v in a_sorted:
        amask |= 1 << v
    bmask = ((1 << g.n) - 1) ^ amask
    return cut_rank_masks(g.adj, amask, bmask)

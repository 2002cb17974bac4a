"""The package's GF(2) code, on bit-packed rows: a row is an int, bit j
is column j. A basis is a dict keyed by each row's lowest bit, and the rank
of some rows is the size of their basis. The cut-rank of a vertex subset A,
the GF(2) rank of the adjacency block between A and its complement, is the
quantity the rank-width search minimizes over tree cuts; the dual basis
gives a stabilizer tableau its destabilizers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph

__all__ = ["gf2_reduce", "gf2_basis", "gf2_dual_basis", "cut_rank_masks", "cut_rank"]


def gf2_reduce(pivots: dict[int, int], row: int) -> int:
    """Residue of ``row`` against a basis keyed by each row's lowest bit.

    Zero exactly when ``row`` lies in the span of the basis rows.
    """
    while row:
        p = pivots.get(row & -row)
        if p is None:
            return row
        row ^= p
    return 0


def gf2_basis(rows: Iterable[int]) -> dict[int, int]:
    """A GF(2) basis of the span of bit-packed rows (bit j = column j).

    Each basis row is stored under its lowest set bit, which no other basis
    row has as its lowest bit; reducing against the dict only ever clears
    that bit and sets higher ones, so :func:`gf2_reduce` terminates.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        row = gf2_reduce(pivots, row)
        if row:
            pivots[row & -row] = row
    return pivots


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
        while combo:
            low = combo & -combo
            ds[low.bit_length() - 1] |= bit
            combo ^= low
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

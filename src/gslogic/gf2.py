"""Bit-packed binary matrices, GF(2) rank, and cut-rank of bipartitions.

The cut-rank of a vertex subset A is the GF(2) rank of the adjacency block
between A and its complement; it is the quantity minimized over tree cuts by
the rank-width search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._kernels import cut_rank_masks, gf2_rank_rows
from .graphs import Graph

__all__ = ["Gf2Matrix", "rank2", "cut_submatrix", "cut_rank", "cut_rank_masks"]


@dataclass(frozen=True)
class Gf2Matrix:
    """Dense binary matrix; each row packed into an int (bit j = column j)."""

    n_rows: int
    n_cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.row_bits) != self.n_rows:
            raise ValueError("row count does not match row data")
        full = (1 << self.n_cols) - 1
        for i, row in enumerate(self.row_bits):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond column {self.n_cols - 1}")

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "Gf2Matrix":
        """Build from a list of 0/1 rows."""
        n_rows = len(entries)
        n_cols = len(entries[0]) if n_rows else 0
        rows = []
        for r in entries:
            if len(r) != n_cols:
                raise ValueError("ragged rows")
            bits = 0
            for j, e in enumerate(r):
                if e not in (0, 1):
                    raise ValueError(f"entry {e!r} is not a bit")
                bits |= e << j
            rows.append(bits)
        return cls(n_rows, n_cols, tuple(rows))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "Gf2Matrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return (self.row_bits[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.n_cols)] for row in self.row_bits]

    def transpose(self) -> "Gf2Matrix":
        cols = []
        for j in range(self.n_cols):
            bits = 0
            for i, row in enumerate(self.row_bits):
                bits |= ((row >> j) & 1) << i
            cols.append(bits)
        return Gf2Matrix(self.n_cols, self.n_rows, tuple(cols))

    def rank(self) -> int:
        return rank2(self)


def rank2(m: Gf2Matrix) -> int:
    """Rank of a binary matrix with arithmetic mod 2."""
    return gf2_rank_rows(m.row_bits)


def _sorted_vertices(g: Graph, subset: Iterable[int]) -> list[int]:
    vs = sorted(set(subset))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    return vs


def cut_submatrix(g: Graph, subset: Iterable[int]) -> Gf2Matrix:
    """Adjacency block between A = subset and B = complement.

    Rows follow ascending order of A, columns ascending order of B.
    """
    a_sorted = _sorted_vertices(g, subset)
    a_set = set(a_sorted)
    b_sorted = [v for v in range(g.n) if v not in a_set]
    rows = []
    for a in a_sorted:
        bits = 0
        row = g.adj[a]
        for j, b in enumerate(b_sorted):
            bits |= ((row >> b) & 1) << j
        rows.append(bits)
    return Gf2Matrix(len(a_sorted), len(b_sorted), tuple(rows))


def cut_rank(g: Graph, subset: Iterable[int]) -> int:
    """GF(2) rank of the cut between ``subset`` and its complement."""
    a_sorted = _sorted_vertices(g, subset)
    amask = 0
    for v in a_sorted:
        amask |= 1 << v
    bmask = ((1 << g.n) - 1) ^ amask
    return cut_rank_masks(g.adj, amask, bmask)

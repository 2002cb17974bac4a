"""The package's GF(2) code, on bit-packed rows: a row is an int, bit j
is column j. A basis is keyed by each row's lowest bit, and the rank
of some rows is the size of their basis. The cut-rank of a vertex
subset A, the GF(2) rank of the adjacency block between A and its
complement, is what the rank-width search minimizes over tree cuts:
`cut_rank_masks` takes one, and `_cut_rank_table` every one the exact
search needs, by counting kernels with one subset-sum transform on
counters packed in explicit little-endian fields of one int, the same on
every host. `gf2_reduce` tests membership in a span, and the dual basis
gives a stabilizer tableau its destabilizers.
"""

from __future__ import annotations

from collections import Counter
from operator import or_, sub
from struct import Struct
from typing import Iterable, Sequence

from .errors import InputError
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

    The combinations Y of the rows X that vanish on the columns outside X
    are the Y <= X whose sum s_Y, the XOR of adj[y] over y in Y, lies in X.
    They form the kernel of the cut's block, so f(X) = |X| - log2 c(X), where
    c(X) counts the Y <= V - {0} with T(Y) = Y | s_Y <= X. So c is the zeta
    (subset-sum) transform of h, the histogram of T(Y); a T(Y) that holds
    vertex 0 lies in no X and is not counted.

    Vertex v sits on bit v - 1 and vertex 0 on bit n - 1, past the table, so
    the s_Y come by doubling, one XOR per set, and T(Y) is in range exactly
    when it misses vertex 0. The counters c(X) share one int, field i in
    bits 32i to 32i + 31, packed and read back by one little-endian struct
    on every host, and each of the n - 1 zeta passes is one mask, shift and
    add on it. A count is at most 2^(n-1), so no carry crosses a field and
    the table is exact for n <= 32.
    """
    size = 1 << (n - 1)
    s = [0]
    for v in range(1, n):
        a = adj[v]
        key = a >> 1 | (a & 1) << (n - 1)
        s += [x ^ key for x in s]
    # s goes before the counters are made, so the histogram is the peak
    histogram = Counter(filter(size.__gt__, map(or_, s, range(size))))
    del s
    counts = [0] * size
    for t, c in histogram.items():
        counts[t] = c
    fields = Struct(f"<{size}I")  # 32-bit fields, field i at byte 4i
    packed = int.from_bytes(fields.pack(*counts), "little")
    # the fields whose index has bit k clear, for k = n - 2 down to 0, each
    # mask made from the last by one shift and XOR
    mask = (1 << 16 * size) - 1
    for k in range(n - 2, -1, -1):
        shift = 32 << k
        packed += (packed & mask) << shift
        mask ^= mask << (shift >> 1)
    # c(X) = 2^(|X| - f(X)), and |X| + 1 is the bit count of 2i + 1
    return bytearray(map(sub, map(int.bit_count, range(1, 2 * size, 2)),
                         map(int.bit_length, fields.unpack(packed.to_bytes(4 * size, "little")))))


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


def cut_rank(g: Graph, subset: Iterable[int]) -> int:
    """GF(2) rank of the cut between ``subset`` and its complement."""
    amask = 0
    for v in subset:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
        amask |= 1 << v
    return cut_rank_masks(g.adj, amask, ((1 << g.n) - 1) ^ amask)

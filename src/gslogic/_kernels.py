"""GF(2) bases, rank and cut-rank, and the exact rank-width search.

The search returns the rank-width of a graph and, as its witness, the
optimal tree read from the table of a subset DP (Oum, "Computing rank-width
exactly", IPL 109, 2009, in its O(3^n) form). For X a non-empty proper
subset of V, w(X) is the least width of a rooted binary tree with leaves X,
counting the edge above its root; w({v}) = f({v}) and

    w(X) = max(f(X), min over splits X = Y + Z of max(w(Y), w(Z))),

where f is the cut-rank. Rooting every tree at the edge of leaf 0 gives
rank-width w* = w(V - {0}). The DP fills w for the subsets of V - {0} at a
cost of 2^(n-1) cut-ranks, at most 3^(n-1)/2 split checks (fewer, since a
split reaching f(X) ends the search for X), and one table of 2^(n-1) bytes.

The witness is read from the table top down: V - {0} hangs from leaf 0, and
every set X with w(X) <= w* and more than one vertex splits at the first
Y + Z, in the DP's loop order, with w(Y) <= w* and w(Z) <= w* (one exists
by the recursion). The edge above each set Y has cut-rank f(Y) <= w(Y) <=
w*, so the tree has width w*. The sets split at one depth are disjoint, so
the read costs at most n * 2^(n-2) split checks and no cut-ranks.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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


def gf2_rank_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2) of bit-packed rows (bit j of a row = column j)."""
    return len(gf2_basis(rows))


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


def _subset_widths(adj: Sequence[int], n: int) -> bytearray:
    """The DP table w: entry i is for the vertex set X = i << 1.

    Index i runs over the subsets of V - {0}, vertex v on bit v - 1, so a
    subset's index is larger than those of its proper subsets and the last
    entry is the rank-width.
    """
    size = 1 << (n - 1)
    full = (1 << n) - 1
    w = bytearray(size)
    for x in range(1, size):
        fx = cut_rank_masks(adj, x << 1, full ^ (x << 1))
        if x & (x - 1) == 0:
            w[x] = fx
            continue
        best = n
        # splits (Y, Z) with the lowest element of X in Y and Z non-empty
        rest = x & (x - 1)
        z = rest
        while z:
            wy = w[x ^ z]
            wz = w[z]
            m = wy if wy > wz else wz
            if m < best:
                best = m
                if best <= fx:
                    break
            z = (z - 1) & rest
        w[x] = fx if fx > best else best
    return w


def _tree_edges(w: bytearray, n: int, width: int) -> tuple[tuple[int, int], ...]:
    """Edges of a tree of the given width read from the DP table (see the
    module docstring): leaves 0..n-1, internal vertices n, n+1, ... in
    creation order, leaf 0 on the edge (0, root) and then every internal
    vertex's two child edges, in vertex order."""
    edges: list[tuple[int, int]] = []
    next_internal = n

    def build(x: int) -> int:
        nonlocal next_internal
        if x & (x - 1) == 0:
            return x.bit_length()
        node = next_internal
        next_internal += 1
        rest = x & (x - 1)
        z = rest
        # w(X) <= width, so a split within the width comes before z = 0
        while w[z] > width or w[x ^ z] > width:
            z = (z - 1) & rest
        edges.append((node, build(x ^ z)))
        edges.append((node, build(z)))
        return node

    root = build(len(w) - 1)
    return ((0, root), *sorted(edges))


def rankwidth_search(adj: Sequence[int], n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Rank-width and the edges of an optimal subcubic tree.

    The width comes from the subset DP and the tree from a top-down read of
    its table, so the same graph always gives the same tree. The table has
    2^(n-1) bytes, so the caller limits n.
    """
    if n < 2:
        raise ValueError(f"search needs at least 2 vertices, got {n}")
    w = _subset_widths(adj, n)
    width = w[-1]
    return width, _tree_edges(w, n, width)

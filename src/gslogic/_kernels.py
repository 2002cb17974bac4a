"""The exact rank-width search, a subset DP; the cut-ranks come from
:mod:`gslogic.gf2`.

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

from typing import Sequence

from .gf2 import cut_rank_masks


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

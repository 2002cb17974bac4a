"""GF(2) rank and the exact rank-width search.

The search returns the rank-width of a graph and, as its witness, the first
optimal tree in a fixed enumeration order (see `gslogic.rankwidth` for the
tree encoding). It works in two steps.

1. A subset DP gives the width (Oum, "Computing rank-width exactly", IPL
   109, 2009, in its O(3^n) form). For X a non-empty proper subset of V,
   w(X) is the least width of a rooted binary tree with leaves X, counting
   the edge above its root; w({v}) = f({v}) and

       w(X) = max(f(X), min over splits X = Y + Z of max(w(Y), w(Z))),

   where f is the cut-rank. Rooting every tree at the edge of leaf 0 gives
   rank-width w* = w(V - {0}). The DP fills w for the subsets of V - {0}
   at a cost of 2^(n-1) cut-ranks, at most 3^(n-1)/2 split checks (fewer,
   since a split reaching f(X) ends the search for X), and two tables of
   2^(n-1) bytes. A second pass of the same recursion, cut at w*, marks
   the sets G that contain 0 and have w(G) <= w*; it reuses the
   cut-ranks, as f(G) = f(V - G).
2. The depth-first insertion enumeration, bounded by w*. Every edge of a
   tree of width w* separates a set F from V - F (F the far side, away
   from leaf 0), and both sides are rooted trees hanging from that edge,
   so w(F) <= w* and w(V - F) <= w*. A prefix is skipped as soon as the
   far side of one of its edges is not the placed part of such an F.
   Only prefixes without an optimal completion are skipped, so the first
   complete tree the search reaches is the first optimal one. Its cost is
   the number of prefixes that pass this test but have no optimal
   completion: small on most graphs, but not bounded.
"""

from __future__ import annotations

import operator
from typing import Sequence


def gf2_rank_rows(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2) of bit-packed rows (bit j of a row = column j)."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            p = pivots.get(low)
            if p is None:
                pivots[low] = row
                rank += 1
                break
            row ^= p
    return rank


def _cut_rank(adj: Sequence[int], amask: int, bmask: int) -> int:
    """GF(2) rank of the adjacency block between vertex masks A and B."""
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


def _subset_widths(adj: Sequence[int], n: int) -> tuple[bytearray, bytearray]:
    """The DP tables w and f: entry i is for the vertex set X = i << 1.

    Index i runs over the subsets of V - {0}, vertex v on bit v - 1, so a
    subset's index is larger than those of its proper subsets and the last
    entry of w is the rank-width.
    """
    size = 1 << (n - 1)
    full = (1 << n) - 1
    w = bytearray(size)
    f = bytearray(size)
    for x in range(1, size):
        fx = f[x] = _cut_rank(adj, x << 1, full ^ (x << 1))
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
    return w, f


def _near_within(w: bytearray, f: bytearray, width: int) -> bytearray:
    """Entry j is 1 when G = {0} + (j << 1) has w(G) <= width.

    The same recursion as `_subset_widths`, cut at ``width``: a split of G
    is Y + Z with 0 in Y, and f(G) = f(V - G) is read from the table.
    """
    top = len(w) - 1
    near = bytearray(len(w))
    near[0] = 1  # w({0}) = f(V - {0}) <= w(V - {0})
    for j in range(1, top):
        if f[top ^ j] > width:
            continue
        z = j
        while z:
            if w[z] <= width and near[j ^ z]:
                near[j] = 1
                break
            z = (z - 1) & j
    return near


def _insert(far: list[int], i: int, bit: int) -> list[int]:
    """Far sides of the edges after leaf ``bit`` subdivides edge i: edge i
    keeps the half towards leaf 0, the other half and the new leaf's edge
    are appended, and every edge between leaf 0 and edge i gains the leaf."""
    m = far[i]
    child = [(f | bit) if (m | f) == f else f for f in far]
    child[i] = m | bit
    child.append(m)
    child.append(bit)
    return child


def _first_tree_within(n: int, w: bytearray, near: bytearray, width: int) -> tuple[int, ...]:
    """Insertion choices of the first tree in enumeration order whose every
    edge separates F from V - F with w(F), w(V - F) <= width (one must
    exist)."""
    top = len(w) - 1
    # fits[k][f]: whether some such F meets the placed leaves 0..k in f, so
    # an edge may have far side f at step k
    fits = [b""] * n
    last = bytearray(1 << n)
    for i in range(1, top + 1):
        if w[i] <= width and near[top ^ i]:
            last[i << 1] = 1
    fits[n - 1] = last
    for k in range(n - 1, 2, -1):
        half = 1 << k
        fits[k - 1] = bytes(map(operator.or_, fits[k][:half], fits[k][half:]))
    choices: list[int] = []

    def visit(far: list[int], k: int) -> bool:
        if k == n:
            return True
        fit = fits[k].__getitem__
        for i in range(len(far)):
            child = _insert(far, i, 1 << k)
            if all(map(fit, child)):
                choices.append(i)
                if visit(child, k + 1):
                    return True
                choices.pop()
        return False

    visit([2], 2)
    return tuple(choices)


def _first_optimal_exhaustive(adj: Sequence[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Width of every tree in enumeration order; the first of least width."""
    full = (1 << n) - 1
    best_width = n + 1
    best_choices: tuple[int, ...] = ()
    choices: list[int] = []

    def visit(far: list[int], k: int) -> None:
        nonlocal best_width, best_choices
        if k == n:
            width = max(_cut_rank(adj, f, full ^ f) for f in far)
            if width < best_width:
                best_width = width
                best_choices = tuple(choices)
            return
        for i in range(len(far)):
            choices.append(i)
            visit(_insert(far, i, 1 << k), k + 1)
            choices.pop()

    visit([2], 2)
    return best_width, best_choices


def rankwidth_search(adj: Sequence[int], n: int, prune: bool = True) -> tuple[int, tuple[int, ...]]:
    """Rank-width and the first optimal tree over leaf-labeled subcubic trees.

    Trees are enumerated by inserting leaf k (k = 2..n-1) into each existing
    edge, lowest edge index first, depth first. Returns the optimal width and
    the insertion-choice tuple of the first optimal tree in that order.

    With ``prune`` set, the width comes from the subset DP and the witness
    from the enumeration bounded by it. Their tables take about 2^(n+2)
    bytes in all, so the caller limits n. Without it, every tree is
    walked: (2n-5)!! of them, the reference the tests compare against.
    Both give the same result.
    """
    if n < 2:
        raise ValueError(f"search needs at least 2 vertices, got {n}")
    if not prune:
        return _first_optimal_exhaustive(adj, n)
    w, f = _subset_widths(adj, n)
    width = w[-1]
    return width, _first_tree_within(n, w, _near_within(w, f, width), width)

"""The exact rank-width search, a top-down threshold search on the cut-rank
table of :mod:`gslogic.gf2`.

For X a non-empty proper subset of V, w(X) is the least width of a rooted
binary tree with leaves X, counting the edge above its root: w({v}) = f({v})
and

    w(X) = max(f(X), min over splits X = Y + Z of max(w(Y), w(Z))),

where f is the cut-rank. Rooting every tree at the edge of leaf 0 gives
rank-width w* = w(V - {0}). Following Oum ("Computing rank-width exactly",
IPL 109, 2009), X is k-feasible when w(X) <= k: f(X) <= k, and X is one
vertex or has a split Y + Z with both parts k-feasible. The cut-ranks of
the subsets of V - {0} come from counting kernels
(:func:`gslogic.gf2._cut_rank_table`): one XOR per set and one subset-sum
transform of n - 1 passes.

Every subcubic tree with n leaves has an edge with at least ceil(n/3)
leaves on each side, so L, the least f(X) over ceil(n/3) <= |X| <= n -
ceil(n/3), is at most w*. The search asks whether V - {0} is k-feasible
for k = L, L + 1, ...; the first yes is w*. Each question recurses from
V - {0} and tries the splits of a set in a fixed order, calling a part only
when both parts have cut-rank at most k, so it visits only the sets that
some tree of width k could use. One byte per set memoises the answers,
0 unknown, 1 feasible, 2 not feasible at this k; a set feasible at k is
feasible at k + 1, so between thresholds only the 2s are cleared. The
search costs one more 2^(n-1)-byte array beside the table, and its
recursion is at most n - 1 deep.

The witness is read top down at k = w*: V - {0} hangs from leaf 0, and every
set X with more than one vertex splits at its first split, in the search's
order, with both parts w*-feasible; the search found one for every set it
marks feasible. That is the first Y + Z with w(Y) <= w* and w(Z) <= w*, so
the tree does not depend on which sets the search happened to visit. The
edge above each set Y has cut-rank f(Y) <= w*, so the tree has width w*.
The sets split at one depth are disjoint, so the read costs at most
n * 2^(n-2) split checks and no cut-ranks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .gf2 import _cut_rank_table


def _balanced_cut_bound(f: bytearray, n: int) -> int:
    """L, the least f(X) over ceil(n/3) <= |X| <= n - ceil(n/3) in the table
    f; a set and its complement have one cut-rank, so X may avoid vertex 0."""
    lo = -(-n // 3)
    return min(r for i, r in enumerate(f) if lo <= i.bit_count() <= n - lo)


def _tree_edges(split: Callable[[int], int], n: int) -> tuple[tuple[int, int], ...]:
    """Edges of the tree whose sets split as ``split`` says (see the module
    docstring): leaves 0..n-1, internal vertices n, n+1, ... in creation
    order, leaf 0 on the edge (0, root) and then every internal vertex's
    two child edges, in vertex order."""
    edges: list[tuple[int, int]] = []
    next_internal = n

    def build(x: int) -> int:
        nonlocal next_internal
        if x & (x - 1) == 0:
            return x.bit_length()
        node = next_internal
        next_internal += 1
        z = split(x)
        edges.append((node, build(x ^ z)))
        edges.append((node, build(z)))
        return node

    root = build((1 << (n - 1)) - 1)
    return ((0, root), *sorted(edges))


def rankwidth_search(adj: Sequence[int], n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Rank-width and the edges of an optimal subcubic tree.

    The width comes from the threshold search and the tree from a top-down
    read at the width, so the same graph always gives the same tree. Set
    X is entry X >> 1 of the cut-rank table f and of the marks, vertex v
    on bit v - 1; both have 2^(n-1) bytes, so the caller limits n.
    """
    if n < 2:
        raise ValueError(f"search needs at least 2 vertices, got {n}")
    f = _cut_rank_table(adj, n)
    full = len(f) - 1
    mark = bytearray(len(f))
    for v in range(n - 1):
        mark[1 << v] = 1  # one vertex is feasible once its f(X) <= k

    def decide(x: int) -> int:
        mark[x] = m = 1 if split(x) else 2
        return m

    def split(x: int) -> int:
        """Z of the first split Y + Z of X, with the lowest vertex of X in Y
        and both parts k-feasible, or 0 if X has none."""
        rest = x & (x - 1)
        z = rest
        while z:
            y = x ^ z
            if (f[y] <= k and f[z] <= k and (mark[y] or decide(y)) == 1
                    and (mark[z] or decide(z)) == 1):
                return z
            z = (z - 1) & rest
        return 0

    # every cut-rank is at most n / 2, so the loop ends at a break
    for k in range(_balanced_cut_bound(f, n), n // 2 + 1):
        if f[full] <= k and (mark[full] or decide(full)) == 1:
            break
        mark[:] = mark.replace(b"\2", b"\0")  # a feasible set stays feasible
    return k, _tree_edges(split, n)

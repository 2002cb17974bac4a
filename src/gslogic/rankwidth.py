"""Subcubic trees, branch decompositions, and exact rank-width.

The rank-width of a graph is the min over subcubic trees (every vertex of
degree 1 or 3, leaves labeled bijectively by the graph's vertices) of the max
cut-rank over the bipartitions induced by deleting a tree edge. There are
(2n-5)!! such trees. `exact_rankwidth` does not walk them. It removes
pendants and twins in one sweep and splits each piece into its blocks in
one depth-first walk, which keeps the width, and on each piece left a
threshold search on the cut-ranks of the 2^(n-1) vertex sets on one side
of a tree edge gives the width, visiting only the sets a tree of width k
can use; an optimal tree is read top down in at most n * 2^(n-2) split
checks (see `gslogic._kernels`), and the pieces' trees are joined back
into one. Both it and the `greedy_decomposition` bound answer ``(width,
tree)``: a width and a subcubic tree that witnesses it.

Tree encoding: leaves are tree vertices 0..n-1, internal vertices n..2n-3.
Every tree arises from the unique 2-leaf tree by inserting leaf k = 2..n-1
into an existing edge; recording the chosen edge index per insertion gives
a compact "choices" encoding, which `tree_from_choices` decodes (internal
vertices in creation order) and `enumerate_subcubic_trees` walks.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

from . import _kernels
from .errors import InputError, SizeLimitError, _figure
from .gf2 import _bits, cut_rank_masks, gf2_reduce
from .graphs import Graph, _Frozen

__all__ = [
    "SubcubicTree",
    "tree_from_choices",
    "enumerate_subcubic_trees",
    "count_subcubic_trees",
    "tree_edge_bipartition",
    "decomposition_width",
    "exact_rankwidth",
    "greedy_decomposition",
]

# Largest piece left by the reductions of exact_rankwidth that the search
# accepts: 2^(n-1) bytes of cut-ranks and as many of marks, 1 MiB in all.
EXACT_VERTEX_LIMIT = 20


class SubcubicTree(_Frozen):
    """Tree with all degrees 1 or 3 and leaves labeled by graph vertices.

    ``n`` is the leaf count; tree vertices are 0..2n-3 with leaves 0..n-1,
    and leaf v carries graph vertex v.
    """

    __slots__ = _fields = ("n", "edges")
    n: int
    edges: tuple[tuple[int, int], ...]

    def _check(self) -> None:
        if self.n < 2:
            raise ValueError(f"subcubic tree needs at least 2 leaves, got {self.n}")
        v_count = 2 * self.n - 2
        if len(self.edges) != v_count - 1:
            raise ValueError(f"expected {v_count - 1} edges, got {len(self.edges)}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v_count and 0 <= v < v_count) or u == v:
                raise ValueError(f"bad tree edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate tree edge ({u}, {v})")
            seen.add(key)
        adj, _, order = self._walk()
        for v in range(v_count):
            want = 1 if v < self.n else 3
            if len(adj[v]) != want:
                raise ValueError(f"tree vertex {v} has degree {len(adj[v])}, expected {want}")
        # 2n-3 edges on 2n-2 vertices form a tree exactly when they connect
        if len(order) != v_count:
            raise ValueError("tree is not connected")

    def _walk(self) -> tuple[list[list[int]], list[int], list[int]]:
        """``(adj, parent, order)`` of a breadth-first walk from tree vertex 0, its own parent."""
        adj: list[list[int]] = [[] for _ in range(2 * self.n - 2)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = [-1] * len(adj)
        parent[0] = 0
        order = [0]
        for u in order:
            for w in adj[u]:
                if parent[w] < 0:
                    parent[w] = u
                    order.append(w)
        return adj, parent, order

    def leaf_masks(self) -> list[int]:
        """For each edge, the leaves on one side of its cut, as a bitmask.

        Side convention: the component not containing tree vertex 0. The
        masks come from one walk of the tree, made at each call.
        """
        _, parent, order = self._walk()
        below = [1 << v for v in range(self.n)] + [0] * (self.n - 2)  # child-side leaves
        for u in reversed(order):
            below[parent[u]] |= below[u]
        return [below[v] if parent[v] == u else below[u] for u, v in self.edges]

    def to_json_dict(self) -> dict:
        """The tree as a JSON document; leaf i carries graph vertex i, so
        ``leaf_labels`` is the identity map."""
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "leaf_labels": {str(leaf): leaf for leaf in range(self.n)},
        }


def tree_from_choices(n: int, choices: Sequence[int]) -> SubcubicTree:
    """Rebuild the tree encoded by per-leaf insertion choices.

    ``choices[k-2]`` is the index of the edge that leaf k subdivides. The
    edge list evolves as: edge i = (u, v) becomes (u, w), then (w, v) and
    (w, k) are appended, where w is the next internal vertex id.
    """
    if n < 2:
        raise ValueError(f"need at least 2 leaves, got {n}")
    if len(choices) != max(n - 2, 0):
        raise ValueError(f"expected {n - 2} insertion choices, got {len(choices)}")
    edges: list[tuple[int, int]] = [(0, 1)]
    for k in range(2, n):
        i = choices[k - 2]
        if not 0 <= i < len(edges):
            raise ValueError(f"choice {i} out of range at leaf {k}")
        u, v = edges[i]
        w = n + (k - 2)
        edges[i] = (u, w)
        edges.append((w, v))
        edges.append((w, k))
    return SubcubicTree(n, tuple(edges))


def enumerate_subcubic_trees(n: int) -> Iterator[SubcubicTree]:
    """Yield every leaf-labeled subcubic tree with n leaves exactly once.

    Deterministic depth-first order: leaf k tries edge indices ascending.
    The count is (2n-5)!! for n >= 3 and 1 for n = 2.
    """
    if n < 2:
        raise ValueError(f"subcubic trees need at least 2 leaves, got {n}")

    def rec(prefix: list[int], k: int) -> Iterator[SubcubicTree]:
        if k == n:
            yield tree_from_choices(n, prefix)
            return
        for i in range(2 * k - 3):
            prefix.append(i)
            yield from rec(prefix, k + 1)
            prefix.pop()

    yield from rec([], 2)


def count_subcubic_trees(n: int) -> int:
    """(2n-5)!! by the insertion recurrence; independent of the enumerator.

    Raises SizeLimitError as soon as the product has more decimal digits
    than ``sys.get_int_max_str_digits()`` lets an int be printed with, so
    a refusal costs no more than the largest printable count.
    """
    if n < 2:
        raise InputError(f"subcubic trees need at least 2 leaves, got {n}")
    # 0, or an interpreter older than the limit, means no limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_big = 10**digits if digits else None
    count = 1
    for k in range(3, n + 1):
        count *= 2 * k - 5
        if too_big is not None and count >= too_big:
            raise SizeLimitError(
                f"the tree count for {n} leaves passes {digits} decimal digits "
                f"at {k} leaves; sys.get_int_max_str_digits() allows no more"
            )
    return count


def tree_edge_bipartition(tree: SubcubicTree, edge: tuple[int, int]) -> tuple[set[int], set[int]]:
    """Leaves of the two components of the tree with ``edge`` deleted.

    The first set is the side containing the smaller endpoint of the edge.
    Both come from one walk of the tree, made at each call.
    """
    lo, hi = min(edge), max(edge)
    _, parent, order = tree._walk()
    if not 0 <= lo < hi < len(parent) or lo != parent[hi] and hi != parent[lo]:
        raise ValueError(f"({edge[0]}, {edge[1]}) is not an edge of the tree")
    # the child's side lacks tree vertex 0; the walk lists parents first
    child = lo if parent[lo] == hi else hi
    inside = {child}
    for v in order:
        if parent[v] in inside:
            inside.add(v)
    first = {v for v in range(tree.n) if (v in inside) == (child == lo)}
    return first, set(range(tree.n)) - first


def decomposition_width(g: Graph, tree: SubcubicTree) -> int:
    """Max cut-rank over the bipartitions induced by the tree's edges."""
    if tree.n != g.n:
        raise ValueError(f"tree has {tree.n} leaves but graph has {g.n} vertices")
    full = (1 << g.n) - 1
    return max(cut_rank_masks(g.adj, mask, full ^ mask) for mask in tree.leaf_masks())


def exact_rankwidth(g: Graph) -> tuple[int, SubcubicTree | None]:
    """Exact rank-width and an optimal subcubic tree: ``(width, tree)``.

    The graph is first reduced by three rules that keep rank-width, and
    the threshold search runs only on the pieces that are left:

    - a pendant, a false twin or a true twin v of a vertex u is removed:
      rw(G) = max(rw(G - v), 1) when G has an edge, and a tree for G - v
      becomes one for G when leaf u is replaced by a cherry (u, v);
    - a piece that is the union of G1 and G2 with only vertex c in common
      and no edge between G1 - c and G2 - c (c a cut vertex, or any vertex
      of a component when the piece is disconnected) is split: rw(G) =
      max(rw(G1), rw(G2), 1), and the trees are glued by dropping leaf c
      of G2's tree and hanging its neighbour from a new node on the edge
      at leaf c in G1's tree;
    - both are repeated until neither applies: each piece is swept once
      for pendants and twins, and one walk splits what is left into all
      its blocks, each glued at the vertex it hangs from.

    A split vertex stays a leaf of both pieces' trees, so the block that
    hangs from it calls its copy by a negative alias until the trees are
    glued, and carries the aliases of its own vertices only.

    Trees and other distance-hereditary graphs, which have rank-width 1,
    reduce to one edge (Bandelt & Mulder, JCTB 41, 1986; Oum, JCTB 95,
    2005). A graph that does not reduce gets the search's own tree, read
    at its width, so the answer is a deterministic function of the graph.
    Graphs with fewer than two vertices have rank-width 0 and no tree;
    ``None`` stands in for the tree there. An edgeless graph has width 0,
    witnessed by the tree of all-zero insertion choices, at any size.

    Raises SizeLimitError, before any search runs, when a piece left has
    more than EXACT_VERTEX_LIMIT vertices, since its cut-rank table grows
    as 2^n; use :func:`greedy_decomposition` for an upper bound instead.
    """
    if g.n < 2:
        return 0, None
    if not any(g.adj):
        return 0, tree_from_choices(g.n, (0,) * (g.n - 2))
    adj = g.adj
    # removals (False, u, v) and splits (True, c, alias) in the order made
    log: list[tuple[bool, int, int]] = []
    pieces: list[tuple[int, dict[int, int]]] = []
    todo: list[tuple[int, dict[int, int]]] = [((1 << g.n) - 1, {})]
    while todo:
        mask, names = todo.pop()
        mask = _peel(adj, mask, names, log)
        # a block calls the vertex c it hangs from by a new alias; the last
        # one hangs from the root and keeps the piece's names, and a piece
        # of one block is left for the search
        *hung, (last, _) = _blocks(adj, mask)
        for block, c in hung:
            alias = -1 - len(log)
            log.append((True, names.get(c, c), alias))
            todo.append((block, {v: names[v] for v in _bits(block) if v in names} | {c: alias}))
        (todo if hung else pieces).append((last, names))
    k = max(mask.bit_count() for mask, _ in pieces)
    if k > EXACT_VERTEX_LIMIT:
        entries = _figure(1 << k - 1, ",")
        if not entries.startswith("2^"):  # the exact count, while it is short
            entries = f"2^{k - 1} = {entries}"
        raise SizeLimitError(
            f"exact rank-width is limited to {EXACT_VERTEX_LIMIT} vertices in "
            f"each piece left by the pendant, twin and cut-vertex reductions; "
            f"the largest piece of this {g.n}-vertex graph has {k} vertices, and "
            f"its DP table for {k} vertices would have {entries} entries; "
            f"use greedy_decomposition"
        )
    width = 1  # G has an edge
    edges: list[tuple[int, int]] = []
    at: dict[int, int] = {}  # leaf -> index of its edge
    node = g.n  # next internal tree vertex
    for mask, names in pieces:
        verts = list(_bits(mask))
        k = len(verts)
        pos = {v: i for i, v in enumerate(verts)}
        rows = [sum(1 << pos[x] for x in _bits(adj[v] & mask)) for v in verts]
        piece_width, local = _kernels.rankwidth_search(rows, k)
        width = max(width, piece_width)
        keys = [names.get(v, v) for v in verts]
        for pair in local:
            for z in pair:
                if z < k:
                    at[keys[z]] = len(edges)
            edges.append(tuple(keys[z] if z < k else node + z - k for z in pair))
        node += k - 2
    # undo the log: each step adds a new tree vertex on the edge at leaf x,
    # with leaf y's old neighbour (a split) or a new leaf y (a removal)
    for glue, x, y in reversed(log):
        i = at[x]
        edges[i] = (sum(edges[i]) - x, node)
        at[x] = len(edges)
        edges.append((node, x))
        if glue:
            j = at.pop(y)
            edges[j] = (sum(edges[j]) - y, node)
        else:
            at[y] = len(edges)
            edges.append((node, y))
        node += 1
    return width, SubcubicTree(g.n, tuple(edges))


def _peel(adj: Sequence[int], mask: int, names: dict[int, int],
          log: list[tuple[bool, int, int]]) -> int:
    """Remove pendants, twins and isolated vertices from the piece while it
    has more than two vertices, logging ``(False, u, v)`` for v removed at
    u; return what is left.

    Each kept vertex is filed under the hashes of its rows N(v) and N[v]
    in one dict, and the neighbours of a removed vertex are checked again.
    A filed vertex may since have left the piece or changed its row, and
    two rows may share a hash, so a candidate u (v itself for a key not
    filed) is taken only when it is not v, is still in the piece, and its
    row, read again, makes it a twin of v. A shared hash can so hide a
    removal but never make a wrong one.
    """
    size = mask.bit_count()
    twins: dict[int, int] = {}  # hash of N(v) and of N[v] -> v
    rest = mask
    while rest and size > 2:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        row = adj[v] & mask
        if row & (row - 1) == 0:
            # a pendant goes at its neighbour, an isolated vertex anywhere
            row = row or mask ^ bit
            u = (row & -row).bit_length() - 1
        else:
            open_key, closed_key = hash(row), hash(row | bit)
            for u in twins.get(open_key, v), twins.get(closed_key, v):
                if u != v and mask >> u & 1 and adj[u] & mask in (row, row ^ bit ^ 1 << u):
                    break
            else:
                twins[open_key] = twins[closed_key] = v
                continue
        mask ^= bit
        rest |= adj[v] & mask
        size -= 1
        log.append((False, names.get(u, u), names.get(v, v)))
    return mask


def _blocks(adj: Sequence[int], mask: int) -> list[tuple[int, int]]:
    """Every block of the piece as ``(block, c)``, c the vertex of the block
    it hangs from; the last block hangs from the root, the lowest vertex.

    One depth-first walk from the root keeps Hopcroft and Tarjan's vertex
    stack: when no edge leaves the subtree of a child v of p above p, p
    and the vertices stacked from v on form a block that hangs from p.
    After its neighbours, the root meets every vertex not yet reached as
    a child, so another component hangs from the root by a block of two
    vertices and no edge. The frames hold vertices, not masks.
    """
    root = (mask & -mask).bit_length() - 1
    found: list[tuple[int, int]] = []
    index = {root: 0}  # vertex -> order of discovery
    low = {root: 0}  # least index that one edge reaches from the subtree
    stack = [root]
    walk = [(root, iter([*_bits(adj[root] & mask), *_bits(mask)]))]
    while walk:
        v, todo = walk[-1]
        for w in todo:
            if w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                walk.append((w, iter(list(_bits(adj[w] & mask)))))
                break
            if index[w] < low[v]:
                low[v] = index[w]
        else:
            walk.pop()
            if walk:
                p = walk[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= index[p]:
                    block = sum(1 << x for x in iter(stack.pop, v))
                    found.append((block | 1 << v | 1 << p, p))
    return found


def _caterpillar(order: Sequence[int]) -> SubcubicTree:
    """Caterpillar tree whose spine carries the leaves in the given order."""
    n = len(order)
    if n == 2:
        return SubcubicTree(2, ((order[0], order[1]),))
    edges = [(order[0], n), (order[1], n)]
    for k in range(2, n - 1):
        spine = n + k - 1
        edges.append((spine - 1, spine))
        edges.append((order[k], spine))
    edges.append((order[n - 1], 2 * n - 3))
    return SubcubicTree(n, tuple(edges))


def greedy_decomposition(g: Graph) -> tuple[int, SubcubicTree]:
    """Upper bound on rank-width from a greedy linear vertex order.

    Returns ``(width, tree)``, where the tree is a caterpillar of width
    ``width``: each step appends the unplaced vertex whose prefix
    cut-rank is smallest (ties to the smallest index). Valid for any n >= 2;
    the width never beats the exact optimum.

    No prefix cut-rank is computed afresh. Let A be the placed prefix, B
    the rest and R a basis of the row space of the adjacency block M[A, B],
    of rank r. For a
    candidate v in B, with e_v the unit row of v and u = adj[v] & (B - v):

    - rank M[A, B - v] is r - 1 if e_v is in the span of R, else r;
    - the row u adds 1 to that unless u or u + e_v is in the span of R.

    R is kept in reduced echelon form: each row's pivot, its lowest bit,
    is set in no other row, so e_v is in the span exactly when it is a row
    of R. Call a vertex of B a front vertex if it has a neighbour in A, and
    near if all its neighbours in B are front vertices. If v is not near,
    some neighbour w of v in B has a zero column in M[A, B], so u and
    u + e_v keep bit w against R and the second term is 1 with no
    reduction. The scan therefore covers only the near vertices and the
    unit rows of R and stops at the first score of r - 1; when no scored
    vertex reaches r, every vertex scores r + 1 and the lowest one wins.

    Placing v takes O(r) row operations: column v is dropped, by
    re-pivoting v's row if v was a pivot and otherwise clearing bit v from
    the rows that hold it, and the residue of u is added with its pivot
    cleared from the other rows. The front and near sets change only at
    the neighbours of v and of the new front vertices, and a near vertex
    stays near. A step costs two short reductions per scored near vertex
    plus those row operations, so it grows with the frontier and with r,
    not with |B|.

    The width is the largest r over the prefixes of the order, so no cut of
    the finished tree is ranked afresh. Prefixes of 2..n-2 vertices are the
    spine edges of the caterpillar and those of 1 and n-1 vertices its end
    leaves. Every other leaf cut has rank at most 1, and when the graph has
    an edge some prefix cut has rank at least 1.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    adj = g.adj
    rest = (1 << g.n) - 1
    basis: dict[int, int] = {}
    front = 0
    near = sum(1 << v for v in range(g.n) if not adj[v])
    order: list[int] = []
    width = 0

    def add(row: int) -> None:
        # row holds no pivot; clear its own pivot from the other rows
        low = row & -row
        for p, q in basis.items():
            if q & low:
                basis[p] = q ^ row
        basis[low] = row

    for _ in range(g.n):
        r = len(basis)
        least = max(r - 1, 0)
        singles = sum(p for p, q in basis.items() if q == p)
        best_v, best_rank, best_row = -1, r + 1, 0
        todo = (near | singles) & rest
        while todo:
            bit = todo & -todo
            todo ^= bit
            rank = r - 1 if singles & bit else r
            if rank >= best_rank:
                continue
            v = bit.bit_length() - 1
            u = adj[v] & (rest ^ bit)
            if not near & bit or gf2_reduce(basis, u) and gf2_reduce(basis, u ^ bit):
                rank += 1
            if rank < best_rank:
                best_v, best_rank, best_row = v, rank, u
                if rank == least:
                    break
        if best_v < 0:
            best_v = (rest & -rest).bit_length() - 1
            best_row = adj[best_v] & (rest ^ 1 << best_v)
        bit = 1 << best_v
        rest ^= bit
        order.append(best_v)
        # drop column v: re-pivot v's row without bit v (a unit row leaves
        # nothing), or clear bit v from the rows that hold it
        row = basis.pop(bit, None)
        if row is None:
            for p, q in basis.items():
                if q & bit:
                    basis[p] = q ^ bit
        elif row != bit:
            add(row ^ bit)
        # add u: XOR in the rows of the pivots it holds
        todo = best_row
        while todo:
            low = todo & -todo
            todo ^= low
            best_row ^= basis.get(low, 0)
        if best_row:
            add(best_row)
        width = max(width, len(basis))
        # new front vertices, and the vertices whose near test may change
        fresh = adj[best_v] & rest & ~front
        front = (front | fresh) & rest
        check = adj[best_v]
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            check |= adj[low.bit_length() - 1]
        check &= rest & ~near
        while check:
            low = check & -check
            check ^= low
            if not adj[low.bit_length() - 1] & rest & ~front:
                near |= low
    return width, _caterpillar(order)

"""Subcubic trees, branch decompositions, and exact rank-width.

The rank-width of a graph is the min over subcubic trees (every vertex of
degree 1 or 3, leaves labeled bijectively by the graph's vertices) of the max
cut-rank over the bipartitions induced by deleting a tree edge. There are
(2n-5)!! such trees. `exact_rankwidth` does not walk them: a subset DP
over the 2^(n-1) vertex sets on one side of a tree edge gives the width in
O(3^n) steps with one 2^(n-1)-byte table, and an optimal tree is read from
that table top down in at most n * 2^(n-2) split checks (see
`gslogic._kernels`).

Tree encoding: leaves are tree vertices 0..n-1, internal vertices n..2n-3.
Every tree arises from the unique 2-leaf tree by inserting leaf k = 2..n-1
into an existing edge; recording the chosen edge index per insertion gives
a compact "choices" encoding, which `tree_from_choices` decodes (internal
vertices in creation order) and `enumerate_subcubic_trees` walks.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import _kernels
from .errors import SizeLimitError
from .gf2 import cut_rank_masks, gf2_basis, gf2_reduce
from .graphs import Graph

__all__ = [
    "SubcubicTree",
    "RankDecomposition",
    "tree_from_choices",
    "enumerate_subcubic_trees",
    "count_subcubic_trees",
    "tree_edge_bipartition",
    "decomposition_width",
    "exact_rankwidth",
    "greedy_decomposition",
]

# Largest graph with an edge that the exact search accepts: its DP table
# takes 2^(n-1) bytes, 512 KiB at this limit.
EXACT_VERTEX_LIMIT = 20


@dataclass(frozen=True)
class SubcubicTree:
    """Tree with all degrees 1 or 3 and leaves labeled by graph vertices.

    ``n`` is the leaf count; tree vertices are 0..2n-3 with leaves 0..n-1,
    and leaf v carries graph vertex v.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    # set by __post_init__: the parent of each tree vertex, rooted at 0, and
    # the child-side leaf mask of each edge, keyed by (min, max) endpoint
    _parent: list[int] = field(init=False, repr=False, compare=False)
    _masks: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"subcubic tree needs at least 2 leaves, got {self.n}")
        v_count = 2 * self.n - 2
        if len(self.edges) != v_count - 1:
            raise ValueError(f"expected {v_count - 1} edges, got {len(self.edges)}")
        adj: list[list[int]] = [[] for _ in range(v_count)]
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v_count and 0 <= v < v_count) or u == v:
                raise ValueError(f"bad tree edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate tree edge ({u}, {v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        for v in range(v_count):
            want = 1 if v < self.n else 3
            if len(adj[v]) != want:
                raise ValueError(f"tree vertex {v} has degree {len(adj[v])}, expected {want}")
        # one traversal from tree vertex 0, which is its own parent; with
        # 2n-3 edges on 2n-2 vertices, it reaches every vertex exactly when
        # the graph is a tree
        parent = [-1] * v_count
        parent[0] = 0
        order = [0]
        for u in order:
            for w in adj[u]:
                if parent[w] < 0:
                    parent[w] = u
                    order.append(w)
        if len(order) != v_count:
            raise ValueError("tree is not connected")
        below = [0] * v_count
        for u in reversed(order):
            if u < self.n:
                below[u] |= 1 << u
            below[parent[u]] |= below[u]
        masks = {}
        for u, v in self.edges:
            masks[min(u, v), max(u, v)] = below[v] if parent[v] == u else below[u]
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_masks", masks)

    def leaf_masks(self) -> list[int]:
        """For each edge, the leaves on one side of its cut, as a bitmask.

        Side convention: the component not containing tree vertex 0. The
        masks are read from the traversal made when the tree was built.
        """
        return list(self._masks.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "leaf_labels": {str(leaf): leaf for leaf in range(self.n)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubcubicTree":
        """The tree of a JSON document; ``leaf_labels`` maps each leaf to a
        graph vertex, and leaf i becomes leaf ``leaf_labels[i]``."""
        n = data["n"]
        leaf_labels = data["leaf_labels"]
        labels = [-1] * n
        for key, label in leaf_labels.items():
            if not (str(key).isdecimal() and int(key) < n):
                raise ValueError(f"leaf key {key!r} is not a leaf in 0..{n - 1}")
            labels[int(key)] = label
        if len(leaf_labels) != n or set(labels) != set(range(n)):
            raise ValueError("leaf labels are not a bijection onto 0..n-1")

        def vertex(u: int) -> int:
            return labels[u] if 0 <= u < n else u

        return cls(n, tuple((vertex(u), vertex(v)) for u, v in data["edges"]))


@dataclass(frozen=True)
class RankDecomposition:
    """A subcubic tree together with its width for a particular graph."""

    tree: SubcubicTree
    width: int

    def to_json(self) -> str:
        payload = self.tree.to_json_dict()
        payload["width"] = self.width
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RankDecomposition":
        data = json.loads(text)
        return cls(SubcubicTree.from_json_dict(data), data["width"])


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
        raise ValueError(f"subcubic trees need at least 2 leaves, got {n}")
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
    Both are read from the traversal made when the tree was built.
    """
    key = (min(edge), max(edge))
    if key not in tree._masks:
        raise ValueError(f"({edge[0]}, {edge[1]}) is not an edge of the tree")
    mask = tree._masks[key]
    if tree._parent[key[0]] != key[1]:
        # the smaller endpoint is the parent, on the side of tree vertex 0
        mask ^= (1 << tree.n) - 1
    first = {v for v in range(tree.n) if mask >> v & 1}
    return first, set(range(tree.n)) - first


def decomposition_width(g: Graph, tree: SubcubicTree) -> int:
    """Max cut-rank over the bipartitions induced by the tree's edges."""
    if tree.n != g.n:
        raise ValueError(f"tree has {tree.n} leaves but graph has {g.n} vertices")
    full = (1 << g.n) - 1
    width = 0
    for mask in tree.leaf_masks():
        width = max(width, cut_rank_masks(g.adj, mask, full ^ mask))
    return width


def exact_rankwidth(g: Graph) -> tuple[int, RankDecomposition | None]:
    """Exact rank-width with a witnessing decomposition.

    The width comes from the subset DP and the witness is the optimal tree
    read from its table, a deterministic function of the graph, so repeated
    runs agree. Graphs with fewer than two vertices have rank-width 0 and
    no tree; ``None`` stands in for the witness there. An edgeless graph
    has width 0, witnessed by the tree of all-zero insertion choices, at
    any size.

    Raises SizeLimitError for a graph with an edge and more than
    EXACT_VERTEX_LIMIT vertices, since the DP table grows as 2^n; use
    :func:`greedy_decomposition` for an upper bound instead.
    """
    if g.n < 2:
        return 0, None
    if not any(g.adj):
        width, tree = 0, tree_from_choices(g.n, (0,) * (g.n - 2))
    elif g.n > EXACT_VERTEX_LIMIT:
        raise SizeLimitError(
            f"exact rank-width is limited to {EXACT_VERTEX_LIMIT} vertices: "
            f"its DP table for {g.n} vertices would have "
            f"2^{g.n - 1} = {1 << (g.n - 1):,} entries; use greedy_decomposition"
        )
    else:
        width, edges = _kernels.rankwidth_search(g.adj, g.n)
        tree = SubcubicTree(g.n, edges)
    return width, RankDecomposition(tree, width)


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


def greedy_decomposition(g: Graph) -> RankDecomposition:
    """Upper-bound decomposition from a greedy linear vertex order.

    Builds a caterpillar: each step appends the unplaced vertex whose prefix
    cut-rank is smallest (ties to the smallest index). Valid for any n >= 2;
    the width never beats the exact optimum.

    No prefix cut-rank is computed afresh. Let A be the placed prefix, B
    the rest and R a basis of the row space of the adjacency block M[A, B],
    of rank r. For a
    candidate v in B, with e_v the unit row of v and u = adj[v] & (B - v):

    - rank M[A, B - v] is r - 1 if e_v is in the span of R, else r;
    - the row u adds 1 to that unless u or u + e_v is in the span of R.

    The two tests on u are skipped for a candidate that cannot beat the
    best rank seen so far. After the best v is placed, R is rebuilt from
    its rows restricted to B - v plus u. Per step that is at most three
    reductions against at most r pivots for each candidate and one
    elimination of r + 1 rows, where a fresh cut-rank per candidate costs
    an elimination of up to |A| rows. The width of the finished tree comes
    from ``decomposition_width``.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    adj = g.adj
    rest = (1 << g.n) - 1
    basis: dict[int, int] = {}
    order: list[int] = []
    for _ in range(g.n):
        r = len(basis)
        best_v, best_rank, best_row = -1, g.n + 1, 0
        todo = rest
        while todo:
            bit = todo & -todo
            todo ^= bit
            rank = r if gf2_reduce(basis, bit) else r - 1
            if rank >= best_rank:
                continue
            v = bit.bit_length() - 1
            u = adj[v] & (rest ^ bit)
            if gf2_reduce(basis, u) and gf2_reduce(basis, u ^ bit):
                rank += 1
            if rank < best_rank:
                best_v, best_rank, best_row = v, rank, u
        order.append(best_v)
        rest ^= 1 << best_v
        basis = gf2_basis([p & rest for p in basis.values()] + [best_row])
    tree = _caterpillar(order)
    return RankDecomposition(tree, decomposition_width(g, tree))

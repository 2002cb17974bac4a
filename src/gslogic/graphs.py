"""Simple undirected graphs as bit-packed adjacency matrices.

Vertices are dense integers 0..n-1. Each adjacency row is stored as a Python
int whose bit b is set iff {a, b} is an edge, so neighborhood and cut
operations reduce to bitwise arithmetic. Graphs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GraphParseError

__all__ = [
    "Graph",
    "parse_edge_list",
    "serialize",
    "neighbors",
    "generate",
    "path",
    "cycle",
    "grid",
    "triangular",
    "hexagonal",
    "complete",
    "binary_tree",
    "relabel",
    "GENERATOR_KINDS",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``adj[a]`` is the neighborhood of ``a`` as a bitmask. ``Graph(n, adj)``
    checks the row count, the range of every row, symmetry and a zero
    diagonal; ``from_edges`` checks each edge instead and builds rows that
    hold the rest by construction, so it skips those checks. The optional
    name is a display label and does not participate in equality.
    """

    n: int
    adj: tuple[int, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for a, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {a} references vertices >= {self.n}")
            if (row >> a) & 1:
                raise ValueError(f"self-loop at vertex {a}")
        # one bit test per stored edge end: b in adj[a] needs a in adj[b]
        for a, row in enumerate(self.adj):
            while row:
                low = row & -row
                b = low.bit_length() - 1
                if not (self.adj[b] >> a) & 1:
                    raise ValueError(
                        f"adjacency not symmetric at ({min(a, b)}, {max(a, b)})"
                    )
                row ^= low

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        """Build a graph from an edge iterable; duplicates collapse.

        Each edge is checked for range and self-loops as it is added. The
        rows are then symmetric with a zero diagonal by construction, so
        the graph is built without the checks of ``Graph(n, adj)``.
        """
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(rows))
        object.__setattr__(g, "name", name)
        return g

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u, row in enumerate(self.adj):
            row >>= u + 1
            while row:
                low = row & -row
                out.append((u, u + low.bit_length()))
                row ^= low
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, a: int) -> int:
        return self.adj[a].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)


def neighbors(g: Graph, a: int) -> set[int]:
    """The neighborhood of vertex ``a`` as a set."""
    if not 0 <= a < g.n:
        raise ValueError(f"vertex {a} out of range for n={g.n}")
    row = g.adj[a]
    return {b for b in range(g.n) if (row >> b) & 1}


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: header "n m", then m lines "u v".

    Lines starting with "#" and blank lines are skipped. Edges may appear in
    either vertex order and duplicates collapse, but self-loops, out-of-range
    vertices, and malformed lines are errors that name the offending line.
    """
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphParseError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("header values must be integers", lineno) from None
            if n < 0 or m < 0:
                raise GraphParseError("header values must be non-negative", lineno)
            header = (n, m)
            header_line = lineno
            continue
        if len(parts) != 2:
            raise GraphParseError("expected edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("edge endpoints must be integers", lineno) from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex out of range (n={n})", lineno)
        edges.append((u, v))
    if header is None:
        raise GraphParseError("missing header 'n m'", 1)
    if len(edges) != header[1]:
        raise GraphParseError(
            f"declared {header[1]} edges but found {len(edges)}", header_line
        )
    return Graph.from_edges(n, edges)


def serialize(g: Graph) -> str:
    """Edge-list text for ``g``; inverse of :func:`parse_edge_list`."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _require_positive(kind: str, size: int) -> None:
    if size <= 0:
        raise ValueError(f"{kind} size must be positive, got {size}")


def path(n: int) -> Graph:
    """Open chain on n vertices: edges {i, i+1}."""
    _require_positive("path", n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], f"path({n})")


def cycle(n: int) -> Graph:
    """Closed chain on n >= 3 vertices."""
    _require_positive("cycle", n)
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], f"cycle({n})")


def grid(k: int) -> Graph:
    """k x k square lattice; vertex (r, c) is r*k + c (row-major)."""
    _require_positive("grid", k)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return Graph.from_edges(k * k, edges, f"grid({k})")


def triangular(k: int) -> Graph:
    """k x k rhombic patch of the triangular lattice.

    Convention: the square grid plus one diagonal per unit cell,
    (r, c)-(r+1, c+1).
    """
    _require_positive("triangular", k)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
                if c + 1 < k:
                    edges.append((v, v + k + 1))
    return Graph.from_edges(k * k, edges, f"triangular({k})")


def hexagonal(k: int) -> Graph:
    """k x k brick-wall patch of the hexagonal lattice.

    Convention: k rows of k vertices with all horizontal edges, and vertical
    edges (r, c)-(r+1, c) only where r + c is even. Every degree is <= 3.
    """
    _require_positive("hexagonal", k)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k and (r + c) % 2 == 0:
                edges.append((v, v + k))
    return Graph.from_edges(k * k, edges, f"hexagonal({k})")


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    _require_positive("complete", n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, f"complete({n})")


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth: 2**(depth+1) - 1 vertices.

    Vertex i has children 2i+1 and 2i+2 (heap order).
    """
    _require_positive("binary_tree", depth)
    n = 2 ** (depth + 1) - 1
    edges = [(i, c) for i in range(n) for c in (2 * i + 1, 2 * i + 2) if c < n]
    return Graph.from_edges(n, edges, f"binary_tree({depth})")


GENERATOR_KINDS = {
    "path": path,
    "cycle": cycle,
    "grid": grid,
    "triangular": triangular,
    "hexagonal": hexagonal,
    "complete": complete,
    "binary_tree": binary_tree,
}


def generate(kind: str, size: int) -> Graph:
    """Build the canonical member of a named family at the given size."""
    try:
        maker = GENERATOR_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(GENERATOR_KINDS))
        raise ValueError(f"unknown graph kind {kind!r} (known: {known})") from None
    return maker(size)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: new vertex perm[v] takes the role of v."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], g.name)

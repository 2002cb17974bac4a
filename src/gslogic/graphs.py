"""Simple undirected graphs as bit-packed adjacency matrices.

Vertices are dense integers 0..n-1. Each adjacency row is stored as a Python
int whose bit b is set iff {a, b} is an edge, so neighborhood and cut
operations reduce to bitwise arithmetic. Graphs are immutable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import GraphParseError, InputError, SizeLimitError, _figure

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

# Each ceiling costs about 300 MB at its peak: path:65536 and grid:256 build
# in 302 and 334 MB, complete:2048 (2,096,128 edges) in 224 MB.
MAX_VERTICES = 1 << 16
MAX_EDGES = 1 << 21


def _check_size(n: int, m: int = 0) -> None:
    """Refuse a graph of n vertices and m edges before any row or edge of it
    is built; its adjacency rows cost about n^2/16 bytes."""
    if n > MAX_VERTICES:
        raise SizeLimitError(
            f"{_figure(n, ',')} vertices exceed the limit of {MAX_VERTICES:,}; "
            f"their adjacency rows would take about {_figure(n * n >> 24, ',')} MiB")
    if m > MAX_EDGES:
        raise SizeLimitError(f"{_figure(m, ',')} edges exceed the limit of {MAX_EDGES:,}")


_set = object.__setattr__


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass stores its constructor's arguments in slots, in the order
    that ``_fields`` names them; its ``_check`` then validates them and
    fills any derived slot (the base's does nothing). ``repr`` shows every
    field, equality (same class, equal ``_key()``) and ``hash`` go by the
    fields, and pickling and copying rebuild a value through its
    constructor. Assignment and ``del`` raise AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {len(self._fields)} "
                            f"arguments ({len(values)} given)")
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        self._check()

    def _check(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Frozen):
    """Undirected simple graph on vertices 0..n-1.

    ``adj[a]`` is the neighborhood of ``a`` as a bitmask. ``Graph(n, adj)``
    checks the row count, the range of every row, symmetry and a zero
    diagonal; ``from_edges`` checks each edge instead and builds rows that
    hold the rest by construction, so it skips those checks. The optional
    name is a display label and does not participate in equality.
    """

    __slots__ = _fields = ("n", "adj", "name")
    n: int
    adj: tuple[int, ...]
    name: str | None

    def __init__(self, n: int, adj: tuple[int, ...], name: str | None = None) -> None:
        super().__init__(n, adj, name)

    def _key(self) -> tuple:
        return self.n, self.adj

    def _check(self) -> None:
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
        _check_size(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._unchecked(n, rows, name)

    @classmethod
    def _unchecked(cls, n: int, rows: list[int], name: str | None = None) -> "Graph":
        """The graph of n rows that are symmetric with a zero diagonal by
        construction, built without the checks of ``Graph(n, adj)``."""
        g = object.__new__(cls)
        _set(g, "n", n)
        _set(g, "adj", tuple(rows))
        _set(g, "name", name)
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


# Characters of edge-list text that parse_edge_list splits into lines at a
# time, so that no list of every line is held at once
_CHUNK = 1 << 16


def _lines(text: str):
    """The lines of ``text.splitlines()``, split one chunk at a time.

    A chunk runs through the first "\\n" at least ``_CHUNK`` characters on,
    or to the end of the text. A "\\n" always ends a line break: a break of
    its own, or the end of "\\r\\n", the one break of two characters. So no
    break straddles two chunks, and the chunks' lines are the text's lines.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: header "n m", then m lines "u v".

    Lines starting with "#" and blank lines are skipped. Edges may appear in
    either vertex order and duplicates collapse, but self-loops, out-of-range
    vertices, and malformed lines are errors that name the offending line.
    """
    rows: list[int] | None = None  # the adjacency rows, once the header is read
    n = m = header_line = found = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if rows is None:
            if len(parts) != 2:
                raise GraphParseError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("header values must be integers", lineno) from None
            if n < 0 or m < 0:
                raise GraphParseError("header values must be non-negative", lineno)
            _check_size(n)
            rows = [0] * n
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
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        found += 1
    if rows is None:
        raise GraphParseError("missing header 'n m'", 1)
    if found != m:
        raise GraphParseError(f"declared {m} edges but found {found}", header_line)
    return Graph._unchecked(n, rows)


def serialize(g: Graph) -> str:
    """Edge-list text for ``g``; inverse of :func:`parse_edge_list`."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _require_positive(kind: str, size: int) -> None:
    if size <= 0:
        raise InputError(f"{kind} size must be positive, got {size}")


def path(n: int) -> Graph:
    """Open chain on n vertices: edges {i, i+1}."""
    _require_positive("path", n)
    _check_size(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], f"path({n})")


def cycle(n: int) -> Graph:
    """Closed chain on n >= 3 vertices."""
    _require_positive("cycle", n)
    _check_size(n)
    if n < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], f"cycle({n})")


def _lattice(kind: str, k: int, diagonal: bool = False, step: int = 1) -> Graph:
    """k x k patch of a lattice; vertex (r, c) is r*k + c (row-major).

    Edges (r, c)-(r, c+1); (r, c)-(r+1, c) where step divides r + c; and
    with diagonal, (r, c)-(r+1, c+1).
    """
    _require_positive(kind, k)
    _check_size(k * k)
    edges = []
    for r in range(k):
        v0 = r * k
        edges += [(v, v + 1) for v in range(v0, v0 + k - 1)]
        if r + 1 < k:
            edges += [(v, v + k) for v in range(v0 + (-r) % step, v0 + k, step)]
            if diagonal:
                edges += [(v, v + k + 1) for v in range(v0, v0 + k - 1)]
    return Graph.from_edges(k * k, edges, f"{kind}({k})")


def grid(k: int) -> Graph:
    """k x k square lattice; vertex (r, c) is r*k + c (row-major)."""
    return _lattice("grid", k)


def triangular(k: int) -> Graph:
    """k x k rhombic patch of the triangular lattice.

    Convention: the square grid plus one diagonal per unit cell,
    (r, c)-(r+1, c+1).
    """
    return _lattice("triangular", k, diagonal=True)


def hexagonal(k: int) -> Graph:
    """k x k brick-wall patch of the hexagonal lattice.

    Convention: k rows of k vertices with all horizontal edges, and vertical
    edges (r, c)-(r+1, c) only where r + c is even. Every degree is <= 3.
    """
    return _lattice("hexagonal", k, step=2)


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    _require_positive("complete", n)
    _check_size(n, n * (n - 1) // 2)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, edges, f"complete({n})")


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth: 2**(depth+1) - 1 vertices.

    Vertex i has children 2i+1 and 2i+2 (heap order).
    """
    _require_positive("binary_tree", depth)
    if depth > 64:  # refused before 2 ** (depth + 1) is computed
        raise SizeLimitError(f"binary_tree({depth}) exceeds the limit of {MAX_VERTICES:,} vertices")
    n = 2 ** (depth + 1) - 1
    _check_size(n)
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
        raise InputError(f"unknown graph kind {kind!r} (known: {known})") from None
    return maker(size)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: new vertex perm[v] takes the role of v."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], g.name)

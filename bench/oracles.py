"""Independent reference computations for checking gslogic's outputs.

Nothing here imports gslogic. Graphs are plain ``(n, rows)`` pairs where
``rows[v]`` is the neighbourhood of v as a bitmask; the lattice builders
follow the vertex conventions documented in ``gslogic.graphs`` but are
written separately, so a generator bug in the program shows as a mismatch.

- ``gf2_rank``: GF(2) rank by an xor basis kept sorted by leading bit
  (the program eliminates on the lowest bit with a pivot dict).
- ``dp_rankwidth``: exact rank-width by a subset DP over rooted binary
  trees: w(X) = max(f(X), min over splits X = Y + Z of max(w(Y), w(Z))),
  rw = w(V - {0}). The program runs a branch-and-bound tree search.
- ``tree_width``: validates a returned subcubic tree and recomputes its
  width with ``gf2_rank``.
- ``carve_errors``: the Pauli-measurement rule of Hein, Eisert & Briegel
  (PRA 69, 062311): after Z on a vertex cover, an X measurement on a
  remaining vertex is deterministic and equals the product of its
  neighbours' Z outcomes; Y there is uniformly random.
- BFS bipartiteness and connectivity, and direct bitmask enumeration for
  the user formulas of the logic workload.
"""

from __future__ import annotations

from collections import deque


# ------------------------------------------------------------------ graphs

def from_edges(n: int, edges) -> tuple[int, tuple[int, ...]]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, tuple(rows)


def edge_list(graph) -> list[tuple[int, int]]:
    n, rows = graph
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]


def edge_count(graph) -> int:
    return sum(row.bit_count() for row in graph[1]) // 2


def edge_list_text(graph) -> str:
    """The edge-list file format: header "n m", then one "u v" per line."""
    edges = edge_list(graph)
    return "".join([f"{graph[0]} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def lattice(kind: str, k: int):
    """k x k patch; vertex (r, c) is r*k + c.

    grid: square lattice. triangular: grid plus the diagonal
    (r, c)-(r+1, c+1). hexagonal: brick wall, all horizontal edges and the
    vertical edge (r, c)-(r+1, c) where r + c is even.
    """
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k and (kind != "hexagonal" or (r + c) % 2 == 0):
                edges.append((v, v + k))
            if kind == "triangular" and r + 1 < k and c + 1 < k:
                edges.append((v, v + k + 1))
    return from_edges(k * k, edges)


def cycle(n: int):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def binary_tree(depth: int):
    n = 2 ** (depth + 1) - 1
    return from_edges(n, [(i, c) for i in range(n) for c in (2 * i + 1, 2 * i + 2) if c < n])


def from_spec(spec: str):
    """The graph a generator spec such as "grid:3" names."""
    kind, size = spec.split(":")
    k = int(size)
    if kind in ("grid", "triangular", "hexagonal"):
        return lattice(kind, k)
    return {"cycle": cycle, "path": path, "complete": complete,
            "binary_tree": binary_tree}[kind](k)


def random_graph(n: int, p: float, rng):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


# --------------------------------------------------------------- GF(2) rank

def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit-packed rows."""
    basis: list[int] = []  # kept sorted by decreasing leading bit
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def cut_rank(graph, side: int) -> int:
    """Rank of the adjacency block between the vertex mask ``side`` and the rest."""
    n, rows = graph
    other = ((1 << n) - 1) & ~side
    return gf2_rank([rows[v] & other for v in range(n) if side >> v & 1])


# ------------------------------------------------------- rank-width by DP

def dp_rankwidth(graph) -> int:
    """Exact rank-width by the subset DP over rooted binary trees."""
    n, _ = graph
    if n < 2:
        return 0
    # subsets of V - {0}, encoded on bits 1..n-1
    top = ((1 << n) - 1) ^ 1
    w: dict[int, int] = {}
    for x in range(2, top + 1, 2):
        f = cut_rank(graph, x)
        if x & (x - 1) == 0:
            w[x] = f
            continue
        low = x & -x
        rest = x ^ low
        best = n
        # splits (Y, Z) with the lowest vertex of X in Y, Z non-empty
        z = rest
        while z:
            y = x ^ z
            m = w[y] if w[y] > w[z] else w[z]
            if m < best:
                best = m
                if best <= f:
                    break
            z = (z - 1) & rest
        w[x] = f if f > best else best
    return w[top]


def tree_width(graph, tree: dict) -> int:
    """Width of a decomposition in gslogic's JSON form, after checking
    that it is a subcubic tree whose leaves carry every vertex once.

    Raises ValueError on a malformed tree.
    """
    n, _ = graph
    if tree["n"] != n:
        raise ValueError(f"tree has {tree['n']} leaves for {n} vertices")
    size = 2 * n - 2
    edges = [tuple(e) for e in tree["edges"]]
    if len(edges) != size - 1:
        raise ValueError(f"{len(edges)} tree edges, expected {size - 1}")
    labels = {int(leaf): label for leaf, label in tree["leaf_labels"].items()}
    if sorted(labels) != list(range(n)) or sorted(labels.values()) != list(range(n)):
        raise ValueError("leaf labels are not a bijection onto the vertices")
    nbrs: list[list[int]] = [[] for _ in range(size)]
    for u, v in edges:
        if not (0 <= u < size and 0 <= v < size) or u == v:
            raise ValueError(f"bad tree edge {(u, v)}")
        nbrs[u].append(v)
        nbrs[v].append(u)
    for t in range(size):
        want = 1 if t < n or n == 2 else 3
        if len(nbrs[t]) != want:
            raise ValueError(f"tree vertex {t} has degree {len(nbrs[t])}")
    seen = {0}
    queue = deque([0])
    while queue:
        for s in nbrs[queue.popleft()]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    if len(seen) != size:
        raise ValueError("tree is not connected")
    width = 0
    for u, v in edges:
        side, stack, seen = 0, [v], {u, v}
        while stack:
            t = stack.pop()
            if t < n:
                side |= 1 << labels[t]
            for s in nbrs[t]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        width = max(width, cut_rank(graph, side))
    return width


# ------------------------------------------------------------------- MBQC

def carve_errors(graph, transcript) -> list[str]:
    """Violations of the carve rule in a transcript that measures Z on a
    vertex cover first and then X or Y on the remaining vertices."""
    _, rows = graph
    z_out = {}
    errors = []
    for rec in transcript:
        q, basis, out, prob = rec["qubit"], rec["basis"], rec["outcome"], rec["probability"]
        if basis == "Z":
            z_out[q] = out
            if prob != 0.5:
                errors.append(f"Z on cover vertex {q} has probability {prob}")
            continue
        nbrs = [b for b in range(graph[0]) if rows[q] >> b & 1]
        if any(b not in z_out for b in nbrs):
            errors.append(f"vertex {q} measured before its neighbours")
            continue
        if basis == "Y":
            if prob != 0.5:
                errors.append(f"Y on vertex {q} has probability {prob}")
            continue
        want = 1
        for b in nbrs:
            want *= z_out[b]
        if prob != 1.0 or out != want:
            errors.append(f"X on vertex {q}: outcome {out} probability {prob}, "
                          f"carve rule gives {want} with probability 1.0")
    return errors


# ------------------------------------------------------------------ logic

def components(graph) -> int:
    """Number of connected components, by BFS."""
    n, rows = graph
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if rows[u] >> v & 1 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return count


def is_bipartite(graph) -> bool:
    """Two-colourability, by BFS layering."""
    n, rows = graph
    colour = [-1] * n
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if rows[u] >> v & 1:
                    if colour[v] < 0:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


def all_degrees_even(graph) -> bool:
    return all(row.bit_count() % 2 == 0 for row in graph[1])


def has_perfect_code(graph) -> bool:
    """A vertex set meeting every closed neighbourhood exactly once, by
    enumerating all vertex sets."""
    n, rows = graph
    closed = [rows[v] | 1 << v for v in range(n)]
    return any(all((c & x).bit_count() == 1 for c in closed) for x in range(1 << n))


def has_edge(graph) -> bool:
    return any(graph[1])


# Each library formula and user formula of the logic workload, with the
# property it expresses computed without evaluating the formula.
VERDICTS = {
    "two_colorable": is_bipartite,
    "connected": lambda g: components(g) <= 1,
    "even_order": lambda g: g[0] % 2 == 0,
    "path2": has_edge,
    "even_degrees": all_degrees_even,
    "perfect_code": has_perfect_code,
}

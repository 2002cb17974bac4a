"""C2MS formulas decided by a dynamic program along a breadth-first order.

The fragment is f = [!] exists X1. ... exists Xk. psi, where a set
quantifier ``forall X. phi`` is read as ``!exists X. !phi``, and psi is a
Boolean combination (``!``, ``&``, ``|``) of pieces:

- ``Even(Xi)``;
- ``forall x. alpha`` and ``exists x. alpha``, with alpha quantifier-free
  and mentioning no vertex but x;
- ``forall x. forall y. beta`` and ``exists x. exists y. beta``, with beta
  quantifier-free over ``edge``, ``=`` and membership of x and y.

``recognize`` returns None for any other formula, for ``Even`` inside
alpha or beta, for more set quantifiers than the 2^k labels of one vertex
leave room for under ``MAX_STATES`` (k > 12), and for a formula with a
name it cannot resolve (an open formula or a name of the wrong sort),
which ``gslogic.logic.evaluate`` then refuses with its own ValueError.
Alpha and beta are compiled by ``gslogic.logic``'s own compiler, run on a
three-vertex graph that stands for x and the three ways y can sit next to
x: x itself, a neighbour, a non-neighbour.

``decide`` places the vertices one at a time in a breadth-first order of
the graph, each component from its lowest unplaced vertex, and each
vertex under a label: the bits of the sets X1..Xk it belongs to. Placed
vertex a meets every unplaced vertex only through its outside row
``adj[a] & future``, so the placed part is summed up by the set of
(outside row, label) classes present in it, the cut classes of the order
seen as a caterpillar decomposition, plus one bit per piece: a
counterexample bit for a forall piece, a witness bit for an exists piece,
a parity bit for ``Even``. Placing v checks the pair pieces on (v, v) and,
in both orders, on v and every stored class, whose row holds bit v exactly
when the class is adjacent to v; then v leaves the rows and equal states
merge. A state whose bit already falsifies a top-level conjunct of psi is
dropped. The number of states per step, not 2^n, sets the cost, and
passing ``MAX_STATES`` raises SizeLimitError after that work.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

from .errors import SizeLimitError
from .graphs import Graph
from .logic import And, Edge, Eq, Even, Exists, Forall, Formula, In, Not, Or, _compile, is_set_name

__all__ = ["Fragment", "recognize", "decide", "MAX_STATES"]

# Most states one step of ``decide`` may hold. In breadth-first order the
# library formulas hold at most 3 on the generated lattices, trees, cycles
# and paths, in their own numbering and in every shuffled one tried; the
# test formula "some vertex set is independent" passes 4096 on G(60, 1/2)
# after about 0.7 s.
MAX_STATES = 1 << 12

# A quantifier-free body over (label of x, label of y, edge(x, y), x = y).
_Body = Callable[[int, int, bool, bool], bool]


@dataclass(frozen=True)
class _Piece:
    """One bit of a state: is some vertex (pair, when ``pair``) seen at
    which ``hit`` holds, or, for ``Even``, the parity of set ``parity``.
    The piece's truth is that bit xor ``flip``."""

    flip: bool
    pair: bool = False
    hit: _Body | None = None
    parity: int = -1


@dataclass(frozen=True)
class Fragment:
    """A formula recognized as [!] exists X1..Xk. psi; see ``recognize``.

    ``psi`` maps the state bits to the truth of psi, and a state with a bit
    of ``prune`` set can no longer satisfy psi.
    """

    negated: bool
    k: int
    pieces: tuple[_Piece, ...]
    psi: Callable[[int], bool]
    prune: int


def _sort_ok(name: str, is_set: bool) -> bool:
    """Whether a bound name has the sort wanted; an empty name has none."""
    return bool(name) and is_set_name(name) == is_set


def recognize(f: Formula) -> Fragment | None:
    """The fragment form of f, or None when f is outside the fragment."""
    negated = False
    while isinstance(f, Not):
        f, negated = f.body, not negated
    sets: dict[str, int] = {}  # a set name to its label bit; inner ones shadow
    k = 0
    # after the first set quantifier, ``inner`` says whether the body is
    # under an odd number of negations: exists X. !exists Y alternates
    inner = False
    while True:
        if isinstance(f, Not) and k:
            f, inner = f.body, not inner
            continue
        if not isinstance(f, (Exists, Forall)) or not _sort_ok(f.var, True):
            break
        is_forall = isinstance(f, Forall)
        if not k:
            negated ^= is_forall
            inner = is_forall
        elif is_forall != inner:
            return None
        sets[f.var] = k
        k += 1
        f = f.body
    # every vertex tries all 2^k labels in every state
    if 1 << k > MAX_STATES:
        return None

    pieces: dict[Formula, int] = {}
    specs: list[_Piece] = []

    def piece(node: Formula) -> int | None:
        if node not in pieces:
            spec = _piece(node, sets)
            if spec is None:
                return None
            pieces[node] = len(specs)
            specs.append(spec)
        return pieces[node]

    prune = 0

    def compile_psi(node: Formula, neg: bool, top: bool) -> Callable[[int], bool] | None:
        """psi's node under ``neg`` negations; ``top`` when it is a
        conjunct of psi, where a piece false once its bit is set (a forall
        piece, or an exists piece under a negation) prunes."""
        nonlocal prune
        if isinstance(node, Not):
            body = compile_psi(node.body, not neg, top)
            return None if body is None else (lambda bits: not body(bits))
        if isinstance(node, (And, Or)):
            top = top and isinstance(node, And) != neg
            left, right = compile_psi(node.left, neg, top), compile_psi(node.right, neg, top)
            if left is None or right is None:
                return None
            if isinstance(node, And):
                return lambda bits: left(bits) and right(bits)
            return lambda bits: left(bits) or right(bits)
        i = piece(node)
        if i is None:
            return None
        spec = specs[i]
        if top and spec.parity < 0 and spec.flip != neg:
            prune |= 1 << i
        return lambda bits: bool((bits >> i) & 1) != spec.flip

    if inner:
        f = Not(f)
    psi = compile_psi(f, False, True)
    if psi is None:
        return None
    return Fragment(negated, k, tuple(specs), psi, prune)


def _piece(node: Formula, sets: dict[str, int]) -> _Piece | None:
    if isinstance(node, Even):
        if node.set_var not in sets:
            return None
        return _Piece(flip=True, parity=sets[node.set_var])
    if not isinstance(node, (Exists, Forall)) or not _sort_ok(node.var, False):
        return None
    is_forall = isinstance(node, Forall)
    body, negate = node.body, False
    while isinstance(body, Not):
        body, negate = body.body, not negate
    if isinstance(body, (Exists, Forall)):
        # forall x. !exists y. beta is forall x. forall y. !beta
        if not _sort_ok(body.var, False) or (isinstance(body, Forall) != negate) != is_forall:
            return None
        # forall x. forall x. beta is forall x. beta, also on no vertices
        names = (node.var,) if body.var == node.var else (node.var, body.var)
        body = body.body
    else:
        names, body, negate = (node.var,), node.body, False
    # the bit records a witness of exists, a counterexample of forall
    hit = _body(Not(body) if negate != is_forall else body, names, sets)
    if hit is None:
        return None
    return _Piece(flip=is_forall, pair=len(names) == 2, hit=hit)


def _quantifier_free(f: Formula) -> bool:
    """Whether f is built from ``edge``, ``=`` and ``in`` by connectives."""
    if isinstance(f, Not):
        return _quantifier_free(f.body)
    if isinstance(f, (And, Or)):
        return _quantifier_free(f.left) and _quantifier_free(f.right)
    return isinstance(f, (Edge, Eq, In))


def _body(f: Formula, names: tuple[str, ...], sets: dict[str, int]) -> _Body | None:
    """Compile a quantifier-free body over the vertex ``names`` (x, then
    y) and the set variables ``sets``; None if it is anything else.

    The body runs on the graph 0 - 1, 2: x is vertex 0, and y is vertex 0
    when x = y, 1 when adjacent to x and 2 when not; set Xi holds the
    vertices whose label has bit i."""
    if not _quantifier_free(f):
        return None
    slots = {name: i for i, name in enumerate(names)}
    slots.update((name, 2 + i) for i, name in enumerate(sets))
    free: set[str] = set()
    try:
        run = _compile(f, slots, free, (0b010, 0b001, 0), 3)[0]
    except ValueError:  # a name of the wrong sort, or an empty one
        return None
    if free:
        return None

    # decide asks the same few (label, label, position) triples again and again
    @cache
    def test(lx: int, ly: int, e: bool, eq: bool) -> bool:
        y = 0 if eq else 1 if e else 2
        return run([0, y, *((lx >> b & 1) | (ly >> b & 1) << y for b in sets.values())])
    return test


def decide(g: Graph, fragment: Fragment) -> bool:
    """Truth of a recognized formula on g, by the cut-class DP along a
    breadth-first order. Raises SizeLimitError when a step holds more than
    ``MAX_STATES`` states."""
    k, pieces, prune = fragment.k, fragment.pieces, fragment.prune
    labels = range(1 << k)
    label_mask = (1 << k) - 1
    seen = [0] * len(labels)  # bits set by placing a vertex with this label
    toggle = [0] * len(labels)
    for label in labels:
        for i, p in enumerate(pieces):
            if p.parity >= 0:
                toggle[label] |= ((label >> p.parity) & 1) << i
            elif p.hit(label, label, False, True):
                seen[label] |= 1 << i
    allowed = [label for label in labels if not seen[label] & prune]
    pairs = [(i, p.hit) for i, p in enumerate(pieces) if p.pair]
    # bits set by placing a vertex labelled b next to the placed classes,
    # keyed by (their codes label << 1 | adjacent, b)
    cross: dict[tuple[frozenset[int], int], int] = {}
    n, adj = g.n, g.adj
    future = (1 << n) - 1
    states: set[tuple[frozenset[int], int]] = {(frozenset(), 0)}
    for step, v in enumerate(_breadth_first(g), 1):
        shift = k + v
        clear = ~(1 << shift)
        future ^= 1 << v
        row = (adj[v] & future) << k
        placed: set[tuple[frozenset[int], int]] = set()
        for classes, bits in states:
            rest = frozenset(c & clear for c in classes)
            touches = frozenset((c & label_mask) << 1 | (c >> shift) & 1 for c in classes)
            for b in allowed:
                key = (touches, b)
                if key not in cross:
                    cross[key] = 0
                    for t in touches:
                        a, e = t >> 1, t & 1 == 1
                        for i, hit in pairs:
                            if hit(a, b, e, False) or hit(b, a, e, False):
                                cross[key] |= 1 << i
                new = (bits | seen[b] | cross[key]) ^ toggle[b]
                if new & prune:
                    continue
                placed.add((rest | {row | b}, new) if pairs else (rest, new))
                if len(placed) > MAX_STATES:
                    raise SizeLimitError(
                        f"the breadth-first DP holds more than {MAX_STATES} states "
                        f"at vertex {step} of {n} in its order; use a smaller graph "
                        f"or formula"
                    )
        states = placed
    verdict = any(fragment.psi(bits) for bits in {bits for _, bits in states})
    return verdict != fragment.negated


def _breadth_first(g: Graph) -> list[int]:
    """The vertices in breadth-first order, each component from its lowest
    unplaced vertex and each vertex's new neighbours in increasing order."""
    order: list[int] = []
    unseen = (1 << g.n) - 1
    i = 0  # order[i] is the next vertex whose neighbours are queued
    while unseen:
        if i == len(order):  # the next component starts at its lowest vertex
            fresh = unseen & -unseen
        else:
            fresh = g.adj[order[i]] & unseen
            i += 1
        unseen ^= fresh
        while fresh:
            low = fresh & -fresh
            order.append(low.bit_length() - 1)
            fresh ^= low
    return order

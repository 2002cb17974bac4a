"""C2MS formulas decided by a dynamic program along the vertex order.

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

``decide`` places the vertices 0, 1, ..., n-1 one at a time, each under a
label: the bits of the sets X1..Xk it belongs to. Placed vertex a meets
every later vertex only through its outside row ``adj[a] & future``, so
the placed part is summed up by the set of (outside row, label) classes
present in it, the cut classes of the vertex order seen as a caterpillar
decomposition, plus one bit per piece: a counterexample bit for a forall
piece, a witness bit for an exists piece, a parity bit for ``Even``.
Placing v checks the pair pieces on (v, v) and, in both orders, on v and
every stored class, whose row holds bit v exactly when the class is
adjacent to v; then v leaves the rows and equal states merge. A state
whose bit already falsifies a top-level conjunct of psi is dropped. The
number of states per step, not 2^n, sets the cost, and passing
``MAX_STATES`` raises SizeLimitError after that work.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import SizeLimitError
from .graphs import Graph
from .logic import And, Edge, Eq, Even, Exists, Forall, Formula, In, Not, Or, is_set_name

__all__ = ["Fragment", "recognize", "decide", "MAX_STATES"]

# Most states one step of ``decide`` may hold. The library formulas hold at
# most 4 on the generated lattices, trees, cycles and paths in their own
# vertex order; the test formula "some vertex set is independent" passes
# 4096 on G(60, 1/2) after about 0.6 s.
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

    def compile_psi(node: Formula) -> Callable[[int], bool] | None:
        if isinstance(node, Not):
            body = compile_psi(node.body)
            return None if body is None else (lambda bits: not body(bits))
        if isinstance(node, (And, Or)):
            left, right = compile_psi(node.left), compile_psi(node.right)
            if left is None or right is None:
                return None
            if isinstance(node, And):
                return lambda bits: left(bits) and right(bits)
            return lambda bits: left(bits) or right(bits)
        i = piece(node)
        if i is None:
            return None
        flip = specs[i].flip
        return lambda bits: bool((bits >> i) & 1) != flip

    if inner:
        f = Not(f)
    psi = compile_psi(f)
    if psi is None:
        return None

    # a piece that is a top-level conjunct of psi and is false once its bit
    # is set (a forall piece, or an exists piece under a negation)
    prune = 0
    stack = [(f, False)]
    while stack:
        node, neg = stack.pop()
        if isinstance(node, Not):
            stack.append((node.body, not neg))
        elif isinstance(node, And) and not neg or isinstance(node, Or) and neg:
            stack += [(node.left, neg), (node.right, neg)]
        elif node in pieces:
            spec = specs[pieces[node]]
            if spec.parity < 0 and spec.flip != neg:
                prune |= 1 << pieces[node]
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
    test = _body(body, names, sets)
    if test is None:
        return None
    # the bit records a witness of exists, a counterexample of forall
    miss = negate != is_forall
    hit = lambda lx, ly, e, eq: test(lx, ly, e, eq) != miss
    return _Piece(flip=is_forall, pair=len(names) == 2, hit=hit)


def _body(f: Formula, names: tuple[str, ...], sets: dict[str, int]) -> _Body | None:
    """Compile a quantifier-free body over the vertex ``names`` (x, then
    y) and the set variables ``sets``; None if it is anything else."""
    if isinstance(f, Not):
        inner = _body(f.body, names, sets)
        return None if inner is None else (lambda lx, ly, e, eq: not inner(lx, ly, e, eq))
    if isinstance(f, (And, Or)):
        left, right = _body(f.left, names, sets), _body(f.right, names, sets)
        if left is None or right is None:
            return None
        if isinstance(f, And):
            return lambda lx, ly, e, eq: left(lx, ly, e, eq) and right(lx, ly, e, eq)
        return lambda lx, ly, e, eq: left(lx, ly, e, eq) or right(lx, ly, e, eq)
    if isinstance(f, In):
        if f.x not in names or f.set_var not in sets:
            return None
        bit = sets[f.set_var]
        if f.x == names[0]:
            return lambda lx, ly, e, eq: (lx >> bit) & 1 == 1
        return lambda lx, ly, e, eq: (ly >> bit) & 1 == 1
    if isinstance(f, (Edge, Eq)):
        if f.x not in names or f.y not in names:
            return None
        if f.x == f.y:
            same = isinstance(f, Eq)
            return lambda lx, ly, e, eq: same
        if isinstance(f, Edge):
            return lambda lx, ly, e, eq: e
        return lambda lx, ly, e, eq: eq
    return None


def decide(g: Graph, fragment: Fragment) -> bool:
    """Truth of a recognized formula on g, by the cut-class DP along the
    vertex order. Raises SizeLimitError when a step holds more than
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
    cross: dict[tuple[frozenset[int], int], int] = {}

    def meet(touches: frozenset[int], b: int) -> int:
        """Bits set by placing a vertex labelled b next to the placed
        classes, given as codes label << 1 | adjacent."""
        out = 0
        for t in touches:
            a, e = t >> 1, t & 1 == 1
            for i, hit in pairs:
                if hit(a, b, e, False) or hit(b, a, e, False):
                    out |= 1 << i
        return out

    # doomed[b][e]: a vertex labelled b falsifies psi as soon as any later
    # vertex is adjacent to it (e = 1) or not (e = 0), whatever its label
    doomed = {
        b: [all(meet(frozenset({b << 1 | e}), a) & prune for a in allowed) for e in (0, 1)]
        for b in allowed
    }
    n, adj = g.n, g.adj
    states: set[tuple[frozenset[int], int]] = {(frozenset(), 0)}
    for v in range(n):
        shift = k + v
        clear = ~(1 << shift)
        later = ((1 << n) - 1) & -(2 << v)
        row = adj[v] & later
        usable = [
            b for b in allowed
            if not (row and doomed[b][1] or later & ~row and doomed[b][0])
        ]
        row <<= k
        placed: set[tuple[frozenset[int], int]] = set()
        for classes, bits in states:
            rest = frozenset(c & clear for c in classes)
            touches = frozenset((c & label_mask) << 1 | (c >> shift) & 1 for c in classes)
            for label in usable:
                key = (touches, label)
                if key not in cross:
                    cross[key] = meet(touches, label)
                new = (bits | seen[label] | cross[key]) ^ toggle[label]
                if new & prune:
                    continue
                placed.add((rest | {row | label}, new) if pairs else (rest, new))
                if len(placed) > MAX_STATES:
                    raise SizeLimitError(
                        f"the vertex-order DP holds more than {MAX_STATES} states "
                        f"at vertex {v} of {n}; use a smaller graph or formula"
                    )
        states = placed
    verdict = any(fragment.psi(bits) for bits in {bits for _, bits in states})
    return verdict != fragment.negated

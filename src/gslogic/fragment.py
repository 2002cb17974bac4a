"""C2MS formulas decided by a dynamic program along a breadth-first order.

The fragment is f = [!] exists X1. ... exists Xk. psi, where a set
quantifier ``forall X. phi`` is read as ``!exists X. !phi``, and psi is a
Boolean combination (``!``, ``&``, ``|``) of pieces:

- ``Even(Xi)``;
- ``forall x. alpha`` and ``exists x. alpha``, with alpha quantifier-free
  and mentioning no vertex but x;
- ``forall x. forall y. beta`` and ``exists x. exists y. beta``, with beta
  quantifier-free over ``edge``, ``=`` and membership of x and y;
- counting pieces ``forall x. gamma`` and ``exists x. gamma``, gamma a
  Boolean combination of one-vertex atoms (alpha) and count atoms on the
  number of y with beta(x, y), beta as above:
  ``exists y. beta`` (at least one; ``forall y. beta`` is none with
  !beta), "at most one" ``forall y. forall z. !(beta(x, y) & beta(x, z))
  | y = z``, and "even" ``exists X. Even(X) & forall y. (y in X <->
  beta(x, y))``, ``!Even(X)`` for odd.

``recognize`` compiles a formula of the fragment once into a
``Fragment``, a step and an acceptance test over states with every
table they read, and returns None for any other formula, for ``Even``
inside alpha or beta, for more set quantifiers than the 2^k labels of
one vertex leave room for under ``MAX_STATES`` (k > 12), for a count
atom whose beta names more than ``MAX_COUNT_SETS`` sets, and for a
formula with a name it cannot resolve (an open formula or a name of the
wrong sort), which ``gslogic.logic.evaluate`` then refuses with its own
ValueError. The pieces are read by ``gslogic._pieces``, count atoms by
their truth tables, not by their syntax.

``decide`` does only the work of one graph. It places the vertices one
at a time in a breadth-first order of the graph, each component from its
lowest unplaced vertex, each under every label it may take: the bits of
the sets X1..Xk it belongs to. It keeps the set of states of the placed
prefix, each the cut classes of the order seen as a caterpillar
decomposition plus one bit per piece (see ``_program``), and steps every
state with the fragment's ``step``. The number of states per step, not
2^n, sets the cost, and passing ``MAX_STATES`` raises SizeLimitError
after that work.

``theory_member`` and ``theory_member_witness`` decide whether a closed
formula holds on every graph of a finite sequence, by the method rule of
``gslogic check``: ``decide`` for a recognized formula, else
``gslogic.logic.evaluate``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import product

from ._pieces import MAX_COUNT_SETS, Piece, piece, prefix, submasks
from .errors import InputError, SizeLimitError
from .gf2 import _bits
from .graphs import Graph, _Frozen
from .logic import And, Formula, Not, Or, evaluate, free_variables

__all__ = [
    "Fragment", "recognize", "decide", "theory_member", "theory_member_witness",
    "MAX_STATES", "MAX_COUNT_SETS",
]

# Most states one step of ``decide`` may hold. In breadth-first order the
# library formulas hold at most 3 on the generated lattices, trees, cycles
# and paths, in their own numbering and in every shuffled one tried; the
# test formula "some vertex set is independent" passes 4096 on G(60, 1/2)
# after about 0.7 s.
MAX_STATES = 1 << 12


# A state of a placed prefix: its class codes and one bit per piece.
State = tuple[frozenset[int], int]


class Fragment(_Frozen):
    """A formula recognized as [!] exists X1..Xk. psi, compiled for
    ``decide``; see ``recognize``.

    ``step(state, row, vbit)`` yields the states after the next vertex
    joins ``state`` under each label it may take, row its neighbours among
    the vertices after it and vbit its own bit in the rows; the first
    state is ``(frozenset(), 0)``. ``accepts(state)`` is psi on a last
    state, and the verdict is its negation when ``negated``. ``meets``
    says whether a pair piece or count lets placed vertices meet later
    ones at all; when it does not, every row may be given as 0.
    """

    __slots__ = _fields = ("negated", "meets", "step", "accepts")
    negated: bool
    meets: bool
    step: Callable[[State, int, int], Iterator[State]]
    accepts: Callable[[State], bool]


def recognize(f: Formula) -> Fragment | None:
    """The fragment form of f compiled for ``decide``, or None when f is
    outside the fragment."""
    negated = False
    while isinstance(f, Not):
        f, negated = f.body, not negated
    read = prefix(f, True)
    if read is None:  # exists X. !exists Y alternates
        return None
    forall, names, f = read
    # every vertex tries all 2^k labels in every state
    if 1 << len(names) > MAX_STATES:
        return None
    sets = {name: i for i, name in enumerate(names)}  # inner ones shadow

    pieces: dict[Formula, int] = {}  # a piece to its bit
    specs: list[Piece] = []
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
        if node not in pieces:
            spec = piece(node, sets)
            if spec is None:
                return None
            pieces[node] = len(specs)
            specs.append(spec)
        i = pieces[node]
        spec = specs[i]
        if top and spec.parity < 0 and spec.flip != neg:
            prune |= 1 << i
        return lambda bits: bool((bits >> i) & 1) != spec.flip

    # forall X1..Xk. phi is !exists X1..Xk. !phi
    psi = compile_psi(Not(f) if forall else f, False, True)
    if psi is None:
        return None
    return _program(negated != forall, len(names), tuple(specs), psi, prune)


def decide(g: Graph, fragment: Fragment) -> bool:
    """Truth of a recognized formula on g, by the cut-class DP along a
    breadth-first order. Raises SizeLimitError when a step holds more than
    ``MAX_STATES`` states."""
    order = _breadth_first(g)
    n = len(order)
    # with no pair piece and no count the placed vertices meet no one
    rows = _outside_rows(g, order) if fragment.meets else [0] * n
    step = fragment.step
    states: set[State] = {(frozenset(), 0)}
    for i, row in enumerate(rows, 1):
        placed: set[State] = set()
        for state in states:
            for after in step(state, row, 1 << n - i):
                placed.add(after)
                if len(placed) > MAX_STATES:
                    raise SizeLimitError(
                        f"the breadth-first DP holds more than {MAX_STATES} states "
                        f"at vertex {i} of {n} in its order; use a smaller graph "
                        f"or formula"
                    )
        states = placed
    return any(map(fragment.accepts, states)) != fragment.negated


def _outside_rows(g: Graph, order: list[int]) -> list[int]:
    """Per vertex of the order, its neighbours later in the order, the
    i-th vertex of the order as bit n - 1 - i."""
    n = len(order)
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = n - 1 - i
    rows = []
    later = (1 << n) - 1  # the vertices after v in the order
    for v in order:
        later ^= 1 << v
        row = 0
        for u in _bits(g.adj[v] & later):
            row |= 1 << bit[u]
        rows.append(row)
    return rows


def _far(bodies: list, labels: range) -> frozenset[int]:
    """The labels at which one of the bodies (with the label bits it reads)
    holds on a vertex with it and a non-adjacent vertex, in either order.
    A body that reads more than 6 sets is taken to hold on every pair."""
    far: set[int] = set()
    for hit, bits in bodies:
        subs = submasks(bits)
        if len(subs) > 64:
            return frozenset(labels)
        apart = {a for a in subs
                 if any(hit(a, b, False, False) or hit(b, a, False, False) for b in subs)}
        far.update(a for a in labels if a & bits in apart)
    return frozenset(far)


def _program(negated: bool, k: int, pieces: tuple[Piece, ...],
             psi: Callable[[int], bool], prune: int) -> Fragment:
    """The ``Fragment`` of a formula recognized with these pieces over k
    sets, with every table its step reads built once.

    Placed vertex a meets every unplaced vertex only through its outside
    row, its neighbours among them, so a state sums the placed part up by
    the set of (outside row, label, counts) classes present in it, plus
    one bit per piece: a counterexample bit for a forall piece, a witness
    bit for an exists piece, a parity bit for ``Even``. A class's counts
    are its members' count atoms so far, capped at 2 or kept mod 2, and
    its multiplicity is capped at 2 with its parity kept, or kept at 1
    when the formula counts nothing. A class code is row << low | counts
    << k + 2 | multiplicity << k | label, 2 bits per count and for the
    multiplicity (3 is odd and at least 3). The vertex placed next is the
    highest bit of every row that holds it, so the classes adjacent to it
    are those with a code at least its bit.

    Placing v checks the pair pieces on (v, v) and, in both orders, on v
    and the classes it meets: those adjacent to it, and the far ones, whose
    label lets some pair piece or count beta hold on it and a non-adjacent
    vertex. It raises the counts of those classes that beta relates to v,
    and sets v's counts from their multiplicities. A class whose gamma no
    later count can change sets its piece's bit at once, so an "at most
    one" count past 1 prunes. Then v leaves the rows and equal classes
    merge. A class whose row is 0 meets every later vertex as a
    non-neighbour; unless its label is far, it is final: gamma is tested on
    its counts and the class is dropped. Only the classes v meets are
    rebuilt. A state with a bit of ``prune`` set, one that falsifies a
    top-level conjunct of psi, is dropped.
    """
    labels = range(1 << k)
    seen = [0] * len(labels)
    toggle = [0] * len(labels)
    for label in labels:
        for i, p in enumerate(pieces):
            if p.parity >= 0:
                toggle[label] |= ((label >> p.parity) & 1) << i
            elif p.hit is not None and p.hit(label, label, False, True):
                seen[label] |= 1 << i
    # the labels v may take, with the bits placing it sets and flips
    allowed = [(b, seen[b], toggle[b]) for b in labels if not seen[b] & prune]
    pairs = [(i, p.hit) for i, p in enumerate(pieces) if p.pair]
    counters = [(i, p) for i, p in enumerate(pieces) if p.counts]
    counts = [c for _, p in counters for c in p.counts]
    far = _far([(p.hit, p.bits) for p in pieces if p.pair]
               + [(c.beta, c.bits) for c in counts], labels)
    low = k + 2 * len(counts) + 2
    label_mask = (1 << k) - 1
    count_mask = (1 << 2 * len(counts)) - 1

    @cache
    def plus(cs: int, more: int) -> int:
        """The counts cs with ``more`` added, each capped at 2 or mod 2."""
        out = 0
        for j, count in enumerate(counts):
            s = (cs >> 2 * j & 3) + (more >> 2 * j & 3)
            out |= (min(s, 2) if count.capped else s & 1) << 2 * j
        return out

    def merge(m: int, more: int) -> int:
        s = m + more
        return s if s <= 2 else 2 | (s & 1)

    @cache
    def step_of(a: int, b: int, e: bool, eq: bool) -> int:
        """Per count, 1 when its beta relates a vertex labelled a to one
        labelled b."""
        return sum(c.beta(a, b, e, eq) << 2 * j for j, c in enumerate(counts))

    @cache
    def hits(a: int, cs: int, final: bool) -> int:
        """The bits of the counting pieces that a vertex labelled a with
        counts cs sets: at these counts when ``final``, else at every
        counts later steps can give it (a capped count only grows)."""
        out, j = 0, 0
        for i, p in counters:
            now = [cs >> 2 * (j + t) & 3 for t in range(len(p.counts))]
            j += len(p.counts)
            if final:
                reach = [(c,) for c in now]
            else:
                reach = [range(c, 3) if count.capped else (0, 1)
                         for c, count in zip(now, p.counts)]
            if all(p.gamma(a, values) for values in product(*reach)):
                out |= 1 << i
        return out

    def meet(met: tuple, b: int) -> tuple:
        """For v labelled b and met the (label, multiplicity, counts,
        adjacent, final) of the classes it meets: their counts after, whether
        that changed one, the bits set (by the pair pieces, and by the
        counting pieces of the met classes and of v whatever later steps
        add), those bits with v's counts final, and v's counts."""
        bits = 0
        for a, _, _, e, _ in met:
            for i, hit in pairs:
                if hit(a, b, e, False) or hit(b, a, e, False):
                    bits |= 1 << i
        if not counts:
            return [0] * len(met), False, bits, bits, 0
        counted, after = step_of(b, b, False, True), []
        for a, m, cs, e, done in met:
            counted = plus(counted, step_of(b, a, e, False) * m)
            after.append(plus(cs, step_of(a, b, e, False)))
            bits |= hits(a, after[-1], done)
        changed = any(cs != now for (_, _, cs, _, _), now in zip(met, after))
        bits |= hits(b, counted, False)
        return after, changed, bits, bits | hits(b, counted, True), counted

    @cache
    def effect(met: tuple) -> list[tuple]:
        return [meet(met, b) for b, _, _ in allowed]

    def add(classes: frozenset[int], moved: list[tuple[int, int]]) -> frozenset[int]:
        """classes with the (code without multiplicity, multiplicity)
        pairs ``moved`` merged in."""
        if not moved:
            return classes
        if not counts:
            return classes.union([key | 1 << k for key, _ in moved])
        merged: dict[int, int] = {}
        for key, m in moved:
            merged[key] = merge(merged[key], m) if key in merged else m
        gone, codes = [], []
        for key, m in merged.items():
            for old in (1, 2, 3):
                if key | old << k in classes:
                    m = merge(m, old)
                    if m != old:
                        gone.append(key | old << k)
                        codes.append(key | m << k)
                    break
            else:
                codes.append(key | m << k)
        if gone:
            classes = classes.difference(gone)
        return classes.union(codes) if codes else classes

    def step(state: State, row: int, vbit: int) -> Iterator[State]:
        classes, bits = state
        vbit <<= low
        # the classes v meets: those whose row holds it, and the far ones,
        # which it meets as a non-neighbour; no other class changes or sets
        # a bit
        touched = list(filter(vbit.__le__, classes))
        remote = [c for c in classes if c < vbit and c & label_mask in far] if far else []
        if touched or remote:
            rest = classes.difference(touched, remote)
            left = [(c ^ vbit, True) for c in touched] + [(c, False) for c in remote]
            met = tuple([(c & label_mask, c >> k & 3, c >> k + 2 & count_mask, e,
                          not (c >> low or c & label_mask in far)) for c, e in left])
        else:
            rest, left, met = classes, [], ()
        unchanged = None  # the classes after v when it changes no count
        for (b, seen, toggle), (after, changed, hit, hit_final, counted) in zip(
                allowed, effect(met)):
            stays = row or b in far  # whether v's own class outlives the step
            new = (bits | seen | (hit if stays else hit_final)) ^ toggle
            if new & prune:
                continue
            if changed or unchanged is None:
                out = add(rest, [(c >> low << low | cs << k + 2 | a, m)
                                 for (c, _), (a, m, _, _, done), cs in zip(left, met, after)
                                 if not done])
                if not changed:
                    unchanged = out
            else:
                out = unchanged
            if stays:
                out = add(out, [(row << low | counted << k + 2 | b, 1)])
            yield out, new

    def accepts(state: State) -> bool:
        classes, bits = state
        for c in classes:
            bits |= hits(c & label_mask, c >> k + 2 & count_mask, True)
        return psi(bits)

    return Fragment(negated, bool(pairs or counts), step, accepts)


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


def theory_member_witness(graphs: Iterable[Graph], f: Formula) -> tuple[bool, int | None]:
    """Whether the closed formula holds on every graph; on failure also the
    index of the first graph falsifying it. Vacuously true for no graphs.

    The method is the one ``gslogic check`` uses: ``decide`` when
    ``recognize`` accepts f, ``evaluate`` when it does not. Raises
    ValueError for an open formula, graphs or not.
    """
    free = set().union(*free_variables(f))
    if free:
        raise InputError(f"formula has unbound variables: {', '.join(sorted(free))}")
    fragment = recognize(f)
    for i, g in enumerate(graphs):
        if not (evaluate(g, f) if fragment is None else decide(g, fragment)):
            return False, i
    return True, None


def theory_member(graphs: Iterable[Graph], f: Formula) -> bool:
    """Whether the closed formula belongs to the theory of the finite list
    of graphs; see ``theory_member_witness``."""
    holds, _ = theory_member_witness(graphs, f)
    return holds

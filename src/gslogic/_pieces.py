"""The pieces of the fragment of ``gslogic.fragment``, read off a formula.

``piece`` turns one piece of psi into a ``Piece``: ``Even(Xi)``, a one-
or two-vertex quantifier over a quantifier-free body, or a counting piece
``forall x. gamma`` / ``exists x. gamma``, gamma a Boolean combination of
one-vertex atoms and count atoms on the number of y with beta(x, y).

``connectives`` is the one compiler of ``!``, ``&`` and ``|``: it builds
psi around its pieces for ``gslogic.fragment.recognize`` and gamma around
its atoms here.

Bodies are compiled by ``gslogic.logic``'s own compiler and run on a
seven-vertex model graph where x, y and z can sit in every way next to
each other, each vertex under a label: the bits of the sets it belongs
to. The last vertex name of a body is compiled as a mask, so one run
gives the body at every place of that vertex. Count atoms are matched by
their truth tables there, not by their syntax: the y-half and the z-half
of "at most one" must be the same beta and its body must hold where
z = y, and the body of "even" must be beta when y is in X and !beta when
it is not.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from itertools import product

from .graphs import Graph, _Frozen
from .logic import And, Edge, Eq, Even, Exists, Forall, Formula, In, Not, Or, _compile, is_set_name

# Most sets the body of a count atom may name: matching "at most one" runs
# the body on every labelling of three vertices by those sets.
MAX_COUNT_SETS = 4

# A quantifier-free body over (label of x, label of y, edge(x, y), x = y).
_Body = Callable[[int, int, bool, bool], bool]

# The graph bodies run on. x is vertex 0; 1, 2, 3 are its neighbours and
# 4, 5, 6 are not. y sits at 0 (y = x), 1 or 4, and every way z can sit
# next to x and y is then one of the seven vertices; y + 2 is a twin of y
# in {1, 4}: on its side of x, with no edge to it.
_MODEL = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 5)]).adj
_APART = 1 << 1 | 1 << 4  # the places of a y other than x


def _place(e: bool, eq: bool) -> int:
    """Where y sits in the model graph for edge(x, y) = e and x = y = eq."""
    return 0 if eq else 1 if e else 4


class Count(_Frozen):
    """A count atom's body: the number of y with beta(x, y), kept capped
    at 2 (``capped``) or mod 2. ``bits`` are the label bits beta reads."""

    __slots__ = _fields = ("capped", "beta", "bits")
    capped: bool
    beta: _Body
    bits: int


class Piece(_Frozen):
    """One bit of a state: is some vertex (pair, when ``pair``) seen at
    which ``hit`` holds, is some vertex's ``gamma`` of its label and
    ``counts`` true, or, for ``Even``, the parity of set ``parity``. The
    piece's truth is that bit xor ``flip``; ``bits`` are the label bits
    ``hit`` reads."""

    __slots__ = _fields = ("flip", "pair", "hit", "parity", "bits", "counts", "gamma")
    flip: bool
    pair: bool
    hit: _Body | None
    parity: int
    bits: int
    counts: tuple[Count, ...]
    gamma: Callable[[int, tuple[int, ...]], bool] | None

    def __init__(self, flip: bool, pair: bool = False, hit: _Body | None = None,
                 parity: int = -1, bits: int = 0, counts: tuple[Count, ...] = (),
                 gamma: Callable[[int, tuple[int, ...]], bool] | None = None) -> None:
        super().__init__(flip, pair, hit, parity, bits, counts, gamma)


def sort_ok(name: str, is_set: bool) -> bool:
    """Whether a bound name has the sort wanted; an empty name has none."""
    return bool(name) and is_set_name(name) == is_set


def submasks(mask: int) -> list[int]:
    subs = [mask]
    while subs[-1]:
        subs.append((subs[-1] - 1) & mask)
    return subs


def piece(node: Formula, sets: dict[str, int]) -> Piece | None:
    """The piece node is over the set variables ``sets`` (a name to its
    label bit), or None when it is no piece."""
    if isinstance(node, Even):
        if node.set_var not in sets:
            return None
        return Piece(flip=True, parity=sets[node.set_var])
    if not isinstance(node, (Exists, Forall)) or not sort_ok(node.var, False):
        return None
    is_forall = isinstance(node, Forall)
    read = prefix(node, False)
    if read is not None and len(read[1]) <= 2:
        # forall x. forall x. beta is forall x. beta, also on no vertices
        names = tuple(dict.fromkeys(read[1]))
        # the bit records a witness of exists, a counterexample of forall
        body = _body(Not(read[2]) if is_forall else read[2], names, sets)
        if body is not None:
            return Piece(flip=is_forall, pair=len(names) == 2, hit=body[0], bits=body[1])
    counts: list[Count] = []
    gamma = _gamma(node.body, node.var, sets, counts)
    if gamma is None:
        return None
    return Piece(flip=is_forall, counts=tuple(counts),
                 gamma=lambda label, cs: gamma(label, cs) != is_forall)


def prefix(node: Formula, is_set: bool) -> tuple[bool, tuple[str, ...], Formula] | None:
    """node as Q v1. ... Q vn. matrix, over names of the sort ``is_set``,
    with its negations pushed past the quantifiers: (Q is forall, the
    names outermost first, the matrix). None when the quantifiers differ
    once the negations are pushed; an empty prefix reads as exists."""
    kinds: set[bool] = set()
    names: list[str] = []
    negate = False
    while True:
        if isinstance(node, Not):
            node, negate = node.body, not negate
        elif isinstance(node, (Exists, Forall)) and sort_ok(node.var, is_set):
            kinds.add(isinstance(node, Forall) != negate)
            names.append(node.var)
            node = node.body
        else:
            break
    if len(kinds) > 1:
        return None
    return True in kinds, tuple(names), Not(node) if negate else node


def connectives(node: Formula, leaf: Callable[[Formula, bool, bool], Callable | None],
                neg: bool = False, top: bool = True) -> Callable | None:
    """node's ``!``, ``&`` and ``|`` compiled around ``leaf(node, neg,
    top)`` of each of its leaves, ``neg`` the parity of the negations above
    the leaf and ``top`` whether it is a conjunct of the whole node; None
    when a leaf is."""
    if isinstance(node, Not):
        body = connectives(node.body, leaf, not neg, top)
        return None if body is None else (lambda *args: not body(*args))
    if isinstance(node, (And, Or)):
        top = top and isinstance(node, And) != neg
        left, right = connectives(node.left, leaf, neg, top), connectives(node.right, leaf, neg, top)
        if left is None or right is None:
            return None
        if isinstance(node, And):
            return lambda *args: left(*args) and right(*args)
        return lambda *args: left(*args) or right(*args)
    return leaf(node, neg, top)


def _gamma(
    node: Formula, x: str, sets: dict[str, int], counts: list[Count]
) -> Callable[[int, tuple[int, ...]], bool] | None:
    """gamma(x) as a function of x's label and its counts, its count atoms
    appended to ``counts``; None if node is not such a combination."""
    def leaf(node: Formula, neg: bool, top: bool) -> Callable[[int, tuple[int, ...]], bool] | None:
        body = _body(node, (x,), sets)
        if body is not None:
            alpha = body[0]
            return lambda label, cs: alpha(label, label, False, True)
        atom = _count_atom(node, x, sets)
        if atom is None:
            return None
        holds, count = atom
        j = len(counts)
        counts.append(count)
        return lambda label, cs: holds(cs[j])
    return connectives(node, leaf)


def _count_atom(
    node: Formula, x: str, sets: dict[str, int]
) -> tuple[Callable[[int], bool], Count] | None:
    """A count atom on x: the test of its count and the count, or None."""
    if isinstance(node, Exists) and sort_ok(node.var, True):
        return _even_atom(node, x, sets)
    read = prefix(node, False)
    if read is None:
        return None
    is_forall, vertices, matrix = read
    names = (x, *vertices)
    if len(set(names)) != len(names):
        return None
    if len(vertices) == 1:
        # exists y. beta: some y; forall y. beta: no y with !beta
        body = _body(Not(matrix) if is_forall else matrix, names, sets)
        holds = (lambda c: c == 0) if is_forall else (lambda c: c > 0)
    elif len(vertices) == 2:
        # forall y. forall z. B: at most one; exists y. exists z. !B: two
        body = _at_most_one(matrix if is_forall else Not(matrix), names, sets)
        holds = (lambda c: c < 2) if is_forall else (lambda c: c == 2)
    else:
        return None
    if body is None or body[1].bit_count() > MAX_COUNT_SETS:
        return None
    return holds, Count(True, *body)


def _even_atom(
    node: Exists, x: str, sets: dict[str, int]
) -> tuple[Callable[[int], bool], Count] | None:
    """``exists X. [!]Even(X) & forall y. D``, where D is beta(x, y) when
    y is in X and !beta(x, y) when it is not: the count of beta is even
    (odd)."""
    if not isinstance(node.body, And):
        return None
    for even, rest in ((node.body.left, node.body.right), (node.body.right, node.body.left)):
        odd = False
        while isinstance(even, Not):
            even, odd = even.body, not odd
        if isinstance(even, Even) and even.set_var == node.var:
            break
    else:
        return None
    read = prefix(rest, False)
    if read is None or not read[0] or len(read[1]) != 1 or x in read[1]:
        return None
    member = 1 << max(sets.values(), default=-1) + 1  # X's label bit
    compiled = _run(read[2], (x, *read[1]), {**sets, node.var: member.bit_length() - 1})
    if compiled is None:
        return None
    _, table, bits = compiled
    bits &= ~member
    if bits.bit_count() > MAX_COUNT_SETS:
        return None
    for lx, ly in product(submasks(bits), repeat=2):
        # y in X or not, x in X or not; y = x sits at 0, in X when x is
        (yes, no), (yes_x, no_x) = [[table((0,), (lx | mx,), ly | my) for my in (member, 0)]
                                    for mx in (0, member)]
        if ((yes ^ no) & _APART != _APART or (yes_x ^ no_x) & _APART != _APART
                or (yes ^ yes_x) & _APART or not (yes_x ^ no) & 1):
            return None

    @cache
    def beta(lx: int, ly: int, e: bool, eq: bool) -> bool:
        return bool(table((0,), (lx | member if eq else lx,), ly | member) >> _place(e, eq) & 1)
    return (lambda c: c == 0) if not odd else (lambda c: c == 1), Count(False, beta, bits)


def _at_most_one(
    f: Formula, names: tuple[str, ...], sets: dict[str, int]
) -> tuple[_Body, int] | None:
    """The beta with f(x, y, z) = !beta(x, y) | !beta(x, z) | y = z, and
    the label bits it reads; None when f has no such form."""
    compiled = _run(f, names, sets)
    if compiled is None:
        return None
    _, table, bits = compiled
    if bits.bit_count() > MAX_COUNT_SETS:
        return None
    labels = submasks(bits)

    @cache
    def beta(lx: int, ly: int, e: bool, eq: bool) -> bool:
        lx, ly = lx & bits, ly & bits
        if not eq:
            # f fails on y and a twin of y
            y = _place(e, eq)
            return not table((0, y), (lx, ly), ly) >> y + 2 & 1
        # f fails on x and a z with beta(x, z); if there is no such z, a
        # count of beta is at most 1 whatever beta(x, x) is
        for z, lz in product((1, 4), labels):
            if beta(lx, lz, z == 1, False):
                return not table((0, 0), (lx, lx), lz) >> z & 1
        return False

    for lx, ly, lz in product(labels, repeat=3):
        for y in (1, 4) if ly != lx else (0, 1, 4):
            # z at 0 is x, at y is y, elsewhere a vertex labelled lz; f
            # must hold at z = y, whatever beta is there
            row = table((0, y), (lx, ly), lz)
            if not row >> y & 1:
                return None
            for z in range(len(_MODEL)):
                if z != y and row >> z & 1 == (
                        beta(lx, ly, y == 1, y == 0)
                        and beta(lx, lx if z == 0 else lz, bool(_MODEL[0] >> z & 1), z == 0)):
                    return None
    return beta, bits


def _reads(f: Formula, names: tuple[str, ...], sets: dict[str, int]) -> int | None:
    """The label bits of the sets f names, or None when f is not built by
    connectives from ``edge``, ``=`` and ``in`` on ``names`` and ``sets``."""
    if isinstance(f, Not):
        return _reads(f.body, names, sets)
    if isinstance(f, (And, Or)):
        left, right = _reads(f.left, names, sets), _reads(f.right, names, sets)
        return None if left is None or right is None else left | right
    if isinstance(f, In):
        return 1 << sets[f.set_var] if f.x in names and f.set_var in sets else None
    return 0 if isinstance(f, (Edge, Eq)) and f.x in names and f.y in names else None


def _run(f: Formula, names: tuple[str, ...], sets: dict[str, int]):
    """Compile a quantifier-free f over the vertex ``names`` (x, y, z) and
    the set variables ``sets`` on the model graph; None if f is anything
    else. Returns ``(test, table, bits)``, bits the mask of the label bits
    f reads.

    ``test(places, labels)`` is f with the names at the model vertices
    ``places`` under ``labels`` (set Xi holds a vertex when bit i of its
    label is set). ``table(places, labels, last)`` puts the names but the
    last at ``places`` and every other vertex under label ``last``, and
    gives the mask of the places of the last name where f holds.
    """
    bits = _reads(f, names, sets)
    if bits is None:
        return None
    slots = {name: i for i, name in enumerate(names)}
    slots.update((name, 3 + i) for i, name in enumerate(sets))
    run, mask = _compile(f, slots, _MODEL, len(_MODEL), [0], len(names) - 1)
    order = list(sets.values())
    everywhere = (1 << len(_MODEL)) - 1

    def env(places: tuple[int, ...], labels: tuple[int, ...], last: int) -> list[int]:
        masks = []
        for b in order:
            m = everywhere if last >> b & 1 else 0
            for place, label in zip(places, labels):
                m = m | 1 << place if label >> b & 1 else m & ~(1 << place)
            masks.append(m)
        return [*places, *(0,) * (3 - len(places)), *masks]
    return (lambda places, labels: run(env(places, labels, 0)),
            lambda places, labels, last: mask(env(places, labels, last)),
            bits)


def _body(f: Formula, names: tuple[str, ...], sets: dict[str, int]) -> tuple[_Body, int] | None:
    """Compile a quantifier-free body over the vertex ``names`` (x, then
    y) and the set variables ``sets``: the body as a function of (label of
    x, label of y, edge(x, y), x = y) and the label bits it reads; None if
    f is anything else."""
    compiled = _run(f, names, sets)
    if compiled is None:
        return None
    test, _, bits = compiled

    # decide asks the same few (label, label, position) triples again and again
    @cache
    def hit(lx: int, ly: int, e: bool, eq: bool) -> bool:
        return test((0, _place(e, eq))[:len(names)], (lx, ly))
    return hit, bits

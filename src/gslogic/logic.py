"""Monadic second-order logic with parity counting (C2MS) on finite graphs.

Formulas quantify over vertices (lowercase variables) and vertex sets
(uppercase variables), with connectives & | !, an adjacency atom edge(x, y),
membership x in X, an even-cardinality atom Even(X), and vertex equality
x = y. There are two quantifier nodes, ``Exists`` and ``Forall``; the case
of a name gives its sort, and so the domain it ranges over. A hand-built
formula that puts a name of the wrong sort in an atom raises ValueError.

Evaluation on a finite graph is exhaustive enumeration with
short-circuiting. Each call to ``evaluate`` compiles the formula once into
closures, with every bound variable resolved to a fixed slot of a list
environment, so evaluation does no name lookups. A vertex quantifier whose
body has no quantifier does not loop: its body compiles to one bit-mask
expression giving the vertices at which the body holds (``v in X`` is the
mask of X, ``edge(v, y)`` the row of y, ``v = y`` the bit of y, ``!`` the
complement within all n vertices, ``&`` and ``|`` bitwise), and ``exists``
tests it for nonzero, ``forall`` for all n bits. Every other quantifier
loops over its domain and stops at the first witness or counterexample.
That one compile walk also finds the free variables and charges the
cost. The environment is a list as long as the formula's height, which
exceeds the number of binders on any root-to-atom path. Set variables
range over all 2^n subsets, so the compiler charges each node its
worst-case work as it compiles it (a looping vertex quantifier max(n, 1)
times its body, a set quantifier 2^n times, a masked vertex quantifier its
body once), and a formula whose total could exceed the limit (2^30 by
default) is refused before any enumeration.

``evaluate`` is always exhaustive. ``gslogic.fragment`` decides the
formulas of the form [!] exists X1..Xk. psi, psi a Boolean combination of
``Even`` atoms, one- and two-vertex quantifier pieces and pieces that
count a vertex's neighbourhood, by a dynamic program along a
breadth-first order of the graph whose cost is set by its state count,
not by 2^n; ``gslogic._pieces`` compiles the quantifier-free bodies of
those pieces with ``_compile``. Theory membership (``theory_member``)
lives in ``gslogic.fragment`` too, so that it, like ``gslogic check``,
uses that program for every formula it recognizes and ``evaluate`` for
the rest.

Surface grammar (ASCII, shell-friendly):

    formula := quant | or
    quant   := ("exists" | "forall") IDENT "." formula
    or      := and { "|" and }
    and     := not { "&" not }
    not     := "!" not | atom
    atom    := "edge" "(" ident "," ident ")" | ident "in" IDENT
             | "Even" "(" IDENT ")" | ident "=" ident | "(" formula ")"

Quantifier scope extends as far right as possible; a quantified formula used
as an operand of & | ! must be parenthesized. A formula nested deeper than
``MAX_NESTING`` levels is refused at the position where it passes the bound.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import cache

from .errors import FormulaParseError, InputError, SizeLimitError
from .graphs import Graph, _Frozen, _set

__all__ = [
    "Formula",
    "Edge",
    "In",
    "Even",
    "Eq",
    "Not",
    "And",
    "Or",
    "Exists",
    "Forall",
    "parse_formula",
    "pretty",
    "free_variables",
    "evaluate",
    "named_formula",
    "NAMED_FORMULA_SOURCES",
    "DEFAULT_COST_LIMIT",
    "MAX_NESTING",
]

DEFAULT_COST_LIMIT = 2**30

# Deepest formula the parser accepts: the AST nodes on a root-to-atom path,
# atom included, plus the parentheses around them (a chain of k operands
# counts k). Every stage then stays well inside the default recursion limit.
# Building an AST node with more nodes than this on a root-to-atom path
# raises ValueError; no parsed formula has that many.
MAX_NESTING = 100

_KEYWORDS = {"exists", "forall", "in", "edge", "Even"}


def is_set_name(name: str) -> bool:
    if not name:
        raise ValueError("variable '' has an empty name")
    return name[0].isupper()


class Formula(_Frozen):
    """Base class of AST nodes: immutable values, equal when they are of
    the same class with equal fields.

    Building a node sets ``height``, the number of nodes on its longest
    path down to an atom, atom included, and raises ValueError when that
    passes ``MAX_NESTING``; so every walk of an AST, ``repr`` included,
    stays within the recursion limit. It also computes the node's hash
    once, so hashing never walks the AST.
    """

    __slots__ = ("height", "_hash")
    height: int

    def _check(self) -> None:
        key = self._key()
        height = 1 + max([v.height for v in key if isinstance(v, Formula)], default=0)
        if height > MAX_NESTING:
            raise ValueError(f"formula nests deeper than {MAX_NESTING} levels")
        _set(self, "height", height)
        _set(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return pretty(self)


class Edge(Formula):
    __slots__ = _fields = ("x", "y")
    x: str
    y: str


class In(Formula):
    __slots__ = _fields = ("x", "set_var")
    x: str
    set_var: str


class Even(Formula):
    __slots__ = _fields = ("set_var",)
    set_var: str


class Eq(Formula):
    __slots__ = _fields = ("x", "y")
    x: str
    y: str


class Not(Formula):
    __slots__ = _fields = ("body",)
    body: Formula


class And(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Or(Formula):
    __slots__ = _fields = ("left", "right")
    left: Formula
    right: Formula


class Exists(Formula):
    __slots__ = _fields = ("var", "body")
    var: str
    body: Formula


class Forall(Formula):
    __slots__ = _fields = ("var", "body")
    var: str
    body: Formula


# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[()&|!=.,])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The tokens of text as (text, offset) pairs, closed by an empty token
    at the end of input. Keywords, identifiers and symbols never share a
    text, so a token's text says its kind."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise FormulaParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))
    return tokens


# the binary connectives, loosest first
_CONNECTIVES = (("|", Or), ("&", And))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        # parentheses, negations and quantifiers open around the current token
        self.depth = 0

    def _peek(self) -> tuple[str, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, int]:
        tok = self.tokens[self.i]
        if not tok[0]:
            raise FormulaParseError("unexpected end of input", tok[1])
        self.i += 1
        return tok

    def _expect_sym(self, sym: str) -> None:
        text, pos = self._next()
        if text != sym:
            raise FormulaParseError(f"expected {sym!r}, found {text!r}", pos)

    def _expect_ident(self, want_set: bool | None, role: str) -> str:
        text, pos = self._next()
        if text in _KEYWORDS:
            raise FormulaParseError(f"keyword {text!r} cannot be a variable", pos)
        if not text[0].isalpha():
            raise FormulaParseError(f"expected {role}, found {text!r}", pos)
        if want_set is True and not is_set_name(text):
            raise FormulaParseError(f"{role} must start uppercase, got {text!r}", pos)
        if want_set is False and is_set_name(text):
            raise FormulaParseError(f"{role} must start lowercase, got {text!r}", pos)
        return text

    def _check_nesting(self, pos: int, nesting: int) -> None:
        if nesting > MAX_NESTING:
            raise FormulaParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)

    def _inside(
        self, pos: int, parse: Callable[[], tuple[Formula, int]]
    ) -> tuple[Formula, int]:
        """Parse one level below the token at ``pos``, which opens it; the
        level and at least an atom inside it must fit in the bound."""
        self._check_nesting(pos, self.depth + 2)
        self.depth += 1
        f, height = parse()
        self.depth -= 1
        return f, height + 1

    def parse(self) -> Formula:
        f, _ = self._formula()
        text, pos = self._peek()
        if text:
            raise FormulaParseError(f"unexpected trailing {text!r}", pos)
        return f

    # each method below returns a formula and its height (see MAX_NESTING)
    def _formula(self) -> tuple[Formula, int]:
        text, pos = self._peek()
        if text in ("exists", "forall"):
            self._next()
            var = self._expect_ident(None, "quantified variable")
            self._expect_sym(".")
            body, height = self._inside(pos, self._formula)
            return (Exists if text == "exists" else Forall)(var, body), height
        return self._chain()

    def _chain(self, level: int = 0) -> tuple[Formula, int]:
        """Operands joined by the connective of this level, grouped to the
        left; an operand is a chain of the next level, and below the last
        level a negation, a parenthesized formula or an atom."""
        if level == len(_CONNECTIVES):
            return self._not()
        sym, node = _CONNECTIVES[level]
        left, height = self._chain(level + 1)
        while True:
            text, pos = self._peek()
            if text != sym:
                return left, height
            self._next()
            right, right_height = self._chain(level + 1)
            height = 1 + max(height, right_height)
            self._check_nesting(pos, self.depth + height)
            left = node(left, right)

    def _not(self) -> tuple[Formula, int]:
        text, pos = self._peek()
        if text == "!":
            self._next()
            body, height = self._inside(pos, self._not)
            return Not(body), height
        if text == "(":
            self._next()
            inner = self._inside(pos, self._formula)
            self._expect_sym(")")
            return inner
        return self._atom(), 1

    def _atom(self) -> Formula:
        text, pos = self._next()
        if text == "edge":
            self._expect_sym("(")
            x = self._expect_ident(False, "edge endpoint")
            self._expect_sym(",")
            y = self._expect_ident(False, "edge endpoint")
            self._expect_sym(")")
            return Edge(x, y)
        if text == "Even":
            self._expect_sym("(")
            s = self._expect_ident(True, "Even argument")
            self._expect_sym(")")
            return Even(s)
        if text in _KEYWORDS or not text[0].isalpha():
            raise FormulaParseError(f"unexpected {text!r}", pos)
        if is_set_name(text):
            raise FormulaParseError(f"set variable {text!r} cannot stand alone", pos)
        follow, where = self._peek()
        if follow == "in":
            self._next()
            return In(text, self._expect_ident(True, "membership set"))
        if follow == "=":
            self._next()
            return Eq(text, self._expect_ident(False, "equality operand"))
        raise FormulaParseError(f"expected 'in' or '=' after {text!r}", where)


def parse_formula(text: str) -> Formula:
    """Parse surface syntax into an AST; errors carry a character position."""
    return _Parser(text).parse()


_LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = 1, 2, 3, 4


def _pp(f: Formula, min_level: int) -> str:
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        s = f"{kw} {f.var}. {_pp(f.body, 0)}"
        level = 0
    elif isinstance(f, Or):
        s = f"{_pp(f.left, _LEVEL_OR)} | {_pp(f.right, _LEVEL_AND)}"
        level = _LEVEL_OR
    elif isinstance(f, And):
        s = f"{_pp(f.left, _LEVEL_AND)} & {_pp(f.right, _LEVEL_NOT)}"
        level = _LEVEL_AND
    elif isinstance(f, Not):
        s = f"!{_pp(f.body, _LEVEL_NOT)}"
        level = _LEVEL_NOT
    elif isinstance(f, Edge):
        s, level = f"edge({f.x}, {f.y})", _LEVEL_ATOM
    elif isinstance(f, In):
        s, level = f"{f.x} in {f.set_var}", _LEVEL_ATOM
    elif isinstance(f, Even):
        s, level = f"Even({f.set_var})", _LEVEL_ATOM
    elif isinstance(f, Eq):
        s, level = f"{f.x} = {f.y}", _LEVEL_ATOM
    else:
        raise TypeError(f"not a formula node: {f!r}")
    return f"({s})" if level < min_level else s


def pretty(f: Formula) -> str:
    """Surface syntax that reparses to the identical AST."""
    return _pp(f, 0)


def free_variables(f: Formula) -> tuple[set[str], set[str]]:
    """Free vertex variables and free set variables of a formula."""
    free: set[str] = set()
    _compile(f, {}, free, (), 0)
    sets = {v for v in free if is_set_name(v)}
    return free - sets, sets


def _slot(slots: dict[str, int], free: set[str], name: str, is_set: bool) -> int:
    """The slot of a name used in a set place (``is_set``) or a vertex place.

    A name whose case does not fit its place raises ValueError; an unbound
    name is recorded in ``free`` and given slot 0.
    """
    if is_set_name(name) != is_set:
        place, sort = ("set", "vertex") if is_set else ("vertex", "set")
        raise ValueError(f"{sort} variable {name!r} used in a {place} place")
    if name in slots:
        return slots[name]
    free.add(name)
    return 0


def _compile(
    f: Formula,
    slots: dict[str, int],
    free: set[str],
    adj: tuple[int, ...],
    n: int,
    v: int = -1,
) -> tuple[Callable[[list[int]], bool], Callable[[list[int]], int] | None, int]:
    """Compile f on the graph (adj, n) into ``(run, mask, cost)``.

    ``run`` is a closure ``env -> bool`` deciding f; it returns a bool, not
    just a truthy value, as a quantifier compares it with the value it stops
    at. ``slots`` maps each
    variable in scope to its index in the list ``env``, which holds a vertex
    index or, for a set variable, a vertex bit mask. Every name an atom uses
    is resolved by ``_slot``, which checks its case against its place and
    adds the unbound ones to ``free``.

    ``v`` is the slot of the innermost binder if that is a vertex
    quantifier, else -1. When v >= 0 and f has no quantifier, ``mask`` is a
    closure ``env -> int`` giving the bit mask of the vertices at which f
    holds when they are put in slot v; it never reads ``env[v]``. Otherwise
    ``mask`` is None.

    The cost charges each node its worst-case work: a quantifier that loops
    runs its body once per vertex (at least once) or once per vertex set, a
    masked one runs its body's mask once.
    """
    full = (1 << n) - 1
    if isinstance(f, (Exists, Forall)):
        is_set = is_set_name(f.var)
        # one above the highest slot in scope: len(slots) is not, once a
        # name has been rebound, and would hand out a slot still in use
        slot = max(slots.values(), default=-1) + 1
        body, body_mask, body_cost = _compile(
            f.body, {**slots, f.var: slot}, free, adj, n, -1 if is_set else slot
        )
        if body_mask is not None:
            if isinstance(f, Exists):
                return (lambda env: body_mask(env) != 0), None, 1 + body_cost
            return (lambda env: body_mask(env) == full), None, 1 + body_cost
        if is_set:
            domain, cost = range(1 << n), 1 + (1 << n) * body_cost
        else:
            domain, cost = range(n), 1 + max(n, 1) * body_cost
        # exists stops at the first witness, forall at the first
        # counterexample
        want = isinstance(f, Exists)

        def quantify(env):
            for value in domain:
                env[slot] = value
                if body(env) == want:
                    return want
            return not want
        return quantify, None, cost
    if isinstance(f, Not):
        inner, inner_mask, cost = _compile(f.body, slots, free, adj, n, v)
        mask = None if inner_mask is None else (lambda env: full ^ inner_mask(env))
        return (lambda env: not inner(env)), mask, 1 + cost
    if isinstance(f, (And, Or)):
        left, left_mask, left_cost = _compile(f.left, slots, free, adj, n, v)
        right, right_mask, right_cost = _compile(f.right, slots, free, adj, n, v)
        cost = 1 + left_cost + right_cost
        mask = None
        if isinstance(f, And):
            if left_mask is not None and right_mask is not None:
                mask = lambda env: left_mask(env) & right_mask(env)
            return (lambda env: left(env) and right(env)), mask, cost
        if left_mask is not None and right_mask is not None:
            mask = lambda env: left_mask(env) | right_mask(env)
        return (lambda env: left(env) or right(env)), mask, cost
    if isinstance(f, Edge):
        x, y = _slot(slots, free, f.x, False), _slot(slots, free, f.y, False)
        run = lambda env: (adj[env[x]] >> env[y]) & 1 == 1
        if x == v and y == v:
            mask = lambda env: 0
        elif v in (x, y):
            other = y if x == v else x
            mask = lambda env: adj[env[other]]
        else:
            mask = _constant_mask(run, full, v)
        return run, mask, 1
    if isinstance(f, In):
        x, s = _slot(slots, free, f.x, False), _slot(slots, free, f.set_var, True)
        run = lambda env: (env[s] >> env[x]) & 1 == 1
        mask = (lambda env: env[s]) if x == v else _constant_mask(run, full, v)
        return run, mask, 1
    if isinstance(f, Even):
        s = _slot(slots, free, f.set_var, True)
        run = lambda env: env[s].bit_count() % 2 == 0
        return run, _constant_mask(run, full, v), 1
    if isinstance(f, Eq):
        x, y = _slot(slots, free, f.x, False), _slot(slots, free, f.y, False)
        run = lambda env: env[x] == env[y]
        if x == v and y == v:
            mask = lambda env: full
        elif v in (x, y):
            other = y if x == v else x
            mask = lambda env: 1 << env[other]
        else:
            mask = _constant_mask(run, full, v)
        return run, mask, 1
    raise TypeError(f"not a formula node: {f!r}")


def _constant_mask(
    run: Callable[[list[int]], bool], full: int, v: int
) -> Callable[[list[int]], int] | None:
    """The mask of an atom that does not mention slot v: all vertices or
    none. None when there is no vertex binder to mask over."""
    if v < 0:
        return None
    return lambda env: full if run(env) else 0


def evaluate(g: Graph, f: Formula) -> bool:
    """Truth of a closed formula on a graph by exhaustive enumeration.

    Raises ValueError for open formulas and for a name whose case does not
    fit its place in an atom, and SizeLimitError when the worst-case cost
    exceeds ``DEFAULT_COST_LIMIT``, read at the call.
    """
    free: set[str] = set()
    run, _, cost = _compile(f, {}, free, g.adj, g.n)
    if free:
        raise InputError(f"formula has unbound variables: {', '.join(sorted(free))}")
    if cost > DEFAULT_COST_LIMIT:
        raise SizeLimitError(
            f"evaluation cost {cost} exceeds the limit {DEFAULT_COST_LIMIT}; "
            f"reduce the graph or the quantifier nesting"
        )
    # a binder's slot is below the number of binders above it, and every
    # root-to-atom path has fewer binders than the root's height
    return run([0] * f.height)


NAMED_FORMULA_SOURCES = {
    # A path of length two: three vertices chained by two edges.
    "path2": "exists x. exists y. exists z. edge(x, y) & edge(y, z)",
    # Proper 2-coloring: X and Y cover the vertices and no edge lies inside
    # either class. ("z, z' in X" is transcribed as a conjunction.)
    "two_colorable": (
        "exists X. exists Y. (forall z. z in X | z in Y)"
        " & (forall z. forall w. !edge(z, w)"
        " | !(((z in X) & (w in X)) | ((z in Y) & (w in Y))))"
    ),
    # Every nonempty, neighbor-closed vertex set is everything. The empty
    # graph and single vertices count as connected under this formula.
    "connected": (
        "forall X. !((exists x. x in X)"
        " & (forall x. forall y. !((x in X) & edge(x, y)) | y in X))"
        " | (forall z. z in X)"
    ),
    # The full vertex set has even cardinality.
    "even_order": "exists X. (forall y. y in X) & Even(X)",
}

@cache
def named_formula(name: str) -> Formula:
    """Look up a library formula by name; see NAMED_FORMULA_SOURCES."""
    try:
        source = NAMED_FORMULA_SOURCES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_FORMULA_SOURCES))
        raise KeyError(f"unknown formula {name!r} (known: {known})") from None
    return parse_formula(source)

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
That one compile walk also finds the free variables, charges the cost and
sizes the environment. Set variables range over all 2^n subsets, so the
compiler charges each node its worst-case work as it compiles it (a looping
vertex quantifier max(n, 1) times its body, a set quantifier 2^n times, a
masked vertex quantifier its body once), and a formula whose total could
exceed the limit (2^30 by default) is refused before any enumeration.

``evaluate`` is always exhaustive. ``gslogic.fragment`` decides the
formulas of the form [!] exists X1..Xk. psi, psi a Boolean combination of
``Even`` atoms and one- and two-vertex quantifier pieces, by a dynamic
program along a breadth-first order of the graph whose cost is set by its
state count, not by 2^n, and compiles the quantifier-free bodies of those
pieces with ``_compile``; ``gslogic check`` uses it for every formula it
recognizes.

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
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FormulaParseError, SizeLimitError
from .graphs import Graph, GraphFamily

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
    "theory_member",
    "theory_member_witness",
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


class Formula:
    """Base class of AST nodes; subclasses are frozen dataclasses.

    Building a node sets ``height``, the number of nodes on its longest
    path down to an atom, atom included, and raises ValueError when that
    passes ``MAX_NESTING``; so every walk of an AST, the generated
    ``repr`` and ``hash`` included, stays within the recursion limit.
    """

    height: int

    def __post_init__(self) -> None:
        children = (c for c in vars(self).values() if isinstance(c, Formula))
        height = 1 + max((c.height for c in children), default=0)
        if height > MAX_NESTING:
            raise ValueError(f"formula nests deeper than {MAX_NESTING} levels")
        object.__setattr__(self, "height", height)

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Edge(Formula):
    x: str
    y: str


@dataclass(frozen=True)
class In(Formula):
    x: str
    set_var: str


@dataclass(frozen=True)
class Even(Formula):
    set_var: str


@dataclass(frozen=True)
class Eq(Formula):
    x: str
    y: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


# ---------------------------------------------------------------- parsing

class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[()&|!=.,]))"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise FormulaParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.group("ident"):
            name = m.group("ident")
            kind = "kw" if name in _KEYWORDS else "ident"
            tokens.append(_Token(kind, name, m.start("ident")))
        else:
            tokens.append(_Token("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        # parentheses, negations and quantifiers open around the current token
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise FormulaParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def _expect_sym(self, sym: str) -> None:
        tok = self._next()
        if tok.kind != "sym" or tok.text != sym:
            raise FormulaParseError(f"expected {sym!r}, found {tok.text!r}", tok.pos)

    def _expect_ident(self, want_set: bool | None, role: str) -> str:
        tok = self._next()
        if tok.kind == "kw":
            raise FormulaParseError(f"keyword {tok.text!r} cannot be a variable", tok.pos)
        if tok.kind != "ident":
            raise FormulaParseError(f"expected {role}, found {tok.text!r}", tok.pos)
        if want_set is True and not is_set_name(tok.text):
            raise FormulaParseError(f"{role} must start uppercase, got {tok.text!r}", tok.pos)
        if want_set is False and is_set_name(tok.text):
            raise FormulaParseError(f"{role} must start lowercase, got {tok.text!r}", tok.pos)
        return tok.text

    def _check_nesting(self, tok: _Token, nesting: int) -> None:
        if nesting > MAX_NESTING:
            raise FormulaParseError(f"formula nests deeper than {MAX_NESTING} levels", tok.pos)

    def _inside(
        self, tok: _Token, parse: Callable[[], tuple[Formula, int]]
    ) -> tuple[Formula, int]:
        """Parse one level below ``tok``, which opens it; the level and at
        least an atom inside it must fit in the bound."""
        self._check_nesting(tok, self.depth + 2)
        self.depth += 1
        f, height = parse()
        self.depth -= 1
        return f, height + 1

    def parse(self) -> Formula:
        f, _ = self._formula()
        tok = self._peek()
        if tok is not None:
            raise FormulaParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return f

    # each method below returns a formula and its height (see MAX_NESTING)
    def _formula(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok is not None and tok.kind == "kw" and tok.text in ("exists", "forall"):
            self._next()
            var = self._expect_ident(None, "quantified variable")
            self._expect_sym(".")
            body, height = self._inside(tok, self._formula)
            return (Exists if tok.text == "exists" else Forall)(var, body), height
        return self._or()

    def _or(self) -> tuple[Formula, int]:
        left, height = self._and()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "sym" or tok.text != "|":
                return left, height
            self._next()
            right, right_height = self._and()
            height = 1 + max(height, right_height)
            self._check_nesting(tok, self.depth + height)
            left = Or(left, right)

    def _and(self) -> tuple[Formula, int]:
        left, height = self._not()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "sym" or tok.text != "&":
                return left, height
            self._next()
            right, right_height = self._not()
            height = 1 + max(height, right_height)
            self._check_nesting(tok, self.depth + height)
            left = And(left, right)

    def _not(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok is not None and tok.kind == "sym" and tok.text == "!":
            self._next()
            body, height = self._inside(tok, self._not)
            return Not(body), height
        if tok is not None and tok.kind == "sym" and tok.text == "(":
            self._next()
            inner = self._inside(tok, self._formula)
            self._expect_sym(")")
            return inner
        return self._atom(), 1

    def _atom(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise FormulaParseError("unexpected end of input", len(self.text))
        if tok.kind == "kw" and tok.text == "edge":
            self._next()
            self._expect_sym("(")
            x = self._expect_ident(False, "edge endpoint")
            self._expect_sym(",")
            y = self._expect_ident(False, "edge endpoint")
            self._expect_sym(")")
            return Edge(x, y)
        if tok.kind == "kw" and tok.text == "Even":
            self._next()
            self._expect_sym("(")
            s = self._expect_ident(True, "Even argument")
            self._expect_sym(")")
            return Even(s)
        if tok.kind == "ident":
            name = self._next().text
            if is_set_name(name):
                raise FormulaParseError(
                    f"set variable {name!r} cannot stand alone", tok.pos
                )
            follow = self._peek()
            if follow is not None and follow.kind == "kw" and follow.text == "in":
                self._next()
                s = self._expect_ident(True, "membership set")
                return In(name, s)
            if follow is not None and follow.kind == "sym" and follow.text == "=":
                self._next()
                y = self._expect_ident(False, "equality operand")
                return Eq(name, y)
            where = follow.pos if follow is not None else len(self.text)
            raise FormulaParseError(f"expected 'in' or '=' after {name!r}", where)
        raise FormulaParseError(f"unexpected {tok.text!r}", tok.pos)


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
) -> tuple[Callable[[list[int]], bool], Callable[[list[int]], int] | None, int, int]:
    """Compile f on the graph (adj, n) into ``(run, mask, cost, size)``.

    ``run`` is a closure ``env -> bool`` deciding f. ``slots`` maps each
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
    masked one runs its body's mask once. The size is the highest slot used
    plus one.
    """
    full = (1 << n) - 1
    if isinstance(f, (Exists, Forall)):
        is_set = is_set_name(f.var)
        # one above the highest slot in scope: len(slots) is not, once a
        # name has been rebound, and would hand out a slot still in use
        slot = max(slots.values(), default=-1) + 1
        body, body_mask, body_cost, size = _compile(
            f.body, {**slots, f.var: slot}, free, adj, n, -1 if is_set else slot
        )
        size = max(size, slot + 1)
        if body_mask is not None:
            if isinstance(f, Exists):
                return (lambda env: body_mask(env) != 0), None, 1 + body_cost, size
            return (lambda env: body_mask(env) == full), None, 1 + body_cost, size
        if is_set:
            domain, cost = range(1 << n), 1 + (1 << n) * body_cost
        else:
            domain, cost = range(n), 1 + max(n, 1) * body_cost
        if isinstance(f, Exists):
            def exists(env):
                for value in domain:
                    env[slot] = value
                    if body(env):
                        return True
                return False
            return exists, None, cost, size

        def forall(env):
            for value in domain:
                env[slot] = value
                if not body(env):
                    return False
            return True
        return forall, None, cost, size
    if isinstance(f, Not):
        inner, inner_mask, cost, size = _compile(f.body, slots, free, adj, n, v)
        mask = None if inner_mask is None else (lambda env: full ^ inner_mask(env))
        return (lambda env: not inner(env)), mask, 1 + cost, size
    if isinstance(f, (And, Or)):
        left, left_mask, left_cost, left_size = _compile(f.left, slots, free, adj, n, v)
        right, right_mask, right_cost, right_size = _compile(
            f.right, slots, free, adj, n, v
        )
        cost, size = 1 + left_cost + right_cost, max(left_size, right_size)
        mask = None
        if isinstance(f, And):
            if left_mask is not None and right_mask is not None:
                mask = lambda env: (m := left_mask(env)) and m & right_mask(env)
            return (lambda env: left(env) and right(env)), mask, cost, size
        if left_mask is not None and right_mask is not None:
            mask = lambda env: (
                full if (m := left_mask(env)) == full else m | right_mask(env)
            )
        return (lambda env: left(env) or right(env)), mask, cost, size
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
        return run, mask, 1, max(x, y) + 1
    if isinstance(f, In):
        x, s = _slot(slots, free, f.x, False), _slot(slots, free, f.set_var, True)
        run = lambda env: (env[s] >> env[x]) & 1 == 1
        mask = (lambda env: env[s]) if x == v else _constant_mask(run, full, v)
        return run, mask, 1, max(x, s) + 1
    if isinstance(f, Even):
        s = _slot(slots, free, f.set_var, True)
        run = lambda env: env[s].bit_count() % 2 == 0
        return run, _constant_mask(run, full, v), 1, s + 1
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
        return run, mask, 1, max(x, y) + 1
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
    run, _, cost, env_size = _compile(f, {}, free, g.adj, g.n)
    if free:
        raise ValueError(f"formula has unbound variables: {', '.join(sorted(free))}")
    if cost > DEFAULT_COST_LIMIT:
        raise SizeLimitError(
            f"evaluation cost {cost} exceeds the limit {DEFAULT_COST_LIMIT}; "
            f"reduce the graph or the quantifier nesting"
        )
    return run([0] * env_size)


def theory_member_witness(family: GraphFamily, f: Formula) -> tuple[bool, int | None]:
    """Whether the formula holds on every member; on failure also the index
    of the first member falsifying it. Vacuously true for empty families."""
    for i, g in enumerate(family):
        if not evaluate(g, f):
            return False, i
    return True, None


def theory_member(family: GraphFamily, f: Formula) -> bool:
    """Whether the formula belongs to the theory of the finite family."""
    holds, _ = theory_member_witness(family, f)
    return holds


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

_named_cache: dict[str, Formula] = {}


def named_formula(name: str) -> Formula:
    """Look up a library formula by name; see NAMED_FORMULA_SOURCES."""
    try:
        source = NAMED_FORMULA_SOURCES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_FORMULA_SOURCES))
        raise KeyError(f"unknown formula {name!r} (known: {known})") from None
    if name not in _named_cache:
        _named_cache[name] = parse_formula(source)
    return _named_cache[name]

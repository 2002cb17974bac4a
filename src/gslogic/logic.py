"""Monadic second-order logic with parity counting (C2MS) on finite graphs.

Formulas quantify over vertices (lowercase variables) and vertex sets
(uppercase variables), with connectives & | !, an adjacency atom edge(x, y),
membership x in X, an even-cardinality atom Even(X), and vertex equality
x = y. There are two quantifier nodes, ``Exists`` and ``Forall``; the case
of a name gives its sort, and so the domain it ranges over. A hand-built
formula that puts a name of the wrong sort in an atom raises ValueError.

Evaluation on a finite graph is exhaustive enumeration with
short-circuiting. Each call to ``evaluate`` checks the formula's names with
``free_variables``, a plain walk of the AST, then compiles the formula once
into closures, with every bound variable resolved to a fixed slot of a list
environment, so evaluation does no name lookups. A vertex quantifier whose
body has no quantifier does not loop: its body compiles to one bit-mask
expression giving the vertices at which the body holds (``v in X`` is the
mask of X, ``edge(v, y)`` the row of y, ``v = y`` the bit of y, ``!`` the
complement within all n vertices, ``&`` and ``|`` bitwise), and ``exists``
tests it for nonzero, ``forall`` for all n bits. Every other quantifier
loops over its domain and stops at the first witness or counterexample. The
environment is a list as long as the formula's height, which exceeds the
number of binders on any root-to-atom path. Each call to ``evaluate`` has
one work budget: a loop charges its domain size when it starts (n for a
vertex loop, 2^n for a set loop), a masked quantifier 1 each time it runs,
and the quantifier that takes the total past the limit (2^25, about 10 s
of enumeration) raises SizeLimitError before it runs. So a refusal follows
real work, and a formula whose loops stop early answers on graphs of any
size.

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

from .errors import FormulaParseError, InputError, SizeLimitError, _figure
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
    "MAX_NESTING",
]

# Most work one call to ``evaluate`` may do, summed over the domain sizes
# of the loops it starts and one for each run of a masked quantifier;
# about 10 s of enumeration.
_WORK_LIMIT = 1 << 25

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

# a token, or else the first character that starts none
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|[()&|!=.,])|(\S))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The tokens of text as (text, offset) pairs, closed by an empty token
    at the end of input. Keywords, identifiers and symbols never share a
    text, so a token's text says its kind."""
    tokens = []
    # with no trailing space, every search from the end of a match matches
    # there, so no character is skipped and the scan stays linear
    for m in _TOKEN_RE.finditer(text.rstrip()):
        if m.group(2):
            raise FormulaParseError(f"unexpected character {m.group(2)!r}", m.start(2))
        tokens.append((m.group(1), m.start(1)))
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
    """Free vertex variables and free set variables of a formula.

    This walk is the one check of a formula's names. A name is bound by the
    innermost quantifier of it above its atom. Left to right, the first
    empty name, or name whose case does not fit its place in an atom,
    raises ValueError; a non-node raises TypeError.
    """
    free: tuple[set[str], set[str]] = (set(), set())  # indexed by is_set

    def walk(f: Formula, bound: frozenset[str]) -> None:
        if isinstance(f, (Exists, Forall)):
            is_set_name(f.var)  # raises for an empty name
            walk(f.body, bound | {f.var})
        elif isinstance(f, Not):
            walk(f.body, bound)
        elif isinstance(f, (And, Or)):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, (Edge, In, Even, Eq)):
            for field in f._fields:
                name, is_set = getattr(f, field), field == "set_var"
                if is_set_name(name) != is_set:
                    place, sort = ("set", "vertex") if is_set else ("vertex", "set")
                    raise ValueError(f"{sort} variable {name!r} used in a {place} place")
                if name not in bound:
                    free[is_set].add(name)
        else:
            raise TypeError(f"not a formula node: {f!r}")
    walk(f, frozenset())
    return free


def _compile(
    f: Formula,
    slots: dict[str, int],
    adj: tuple[int, ...],
    n: int,
    budget: list[int],
    v: int = -1,
) -> tuple[Callable[[list[int]], bool], Callable[[list[int]], int] | None]:
    """Compile f on the graph (adj, n) into ``(run, mask)``.

    ``run`` is a closure ``env -> bool`` deciding f; it returns a bool, not
    just a truthy value, as a quantifier compares it with the value it stops
    at. ``slots`` maps each
    variable in scope to its index in the list ``env``, which holds a vertex
    index or, for a set variable, a vertex bit mask. Every name an atom uses
    must be in ``slots``, of the sort of its place, as ``free_variables``
    and ``_pieces._reads`` check; this walk checks no name.

    ``v`` is the slot of the innermost binder if that is a vertex
    quantifier, else -1. When v >= 0 and f has no quantifier, ``mask`` is a
    closure ``env -> int`` giving the bit mask of the vertices at which f
    holds when they are put in slot v; it never reads ``env[v]``. Otherwise
    ``mask`` is None.

    ``budget`` is a one-element list holding the work left. A quantifier
    that loops takes its domain size from it each time the loop starts, a
    masked one takes 1 each time it runs, and either raises SizeLimitError,
    before it runs, when that leaves the budget below 0.
    """
    full = (1 << n) - 1
    if isinstance(f, (Exists, Forall)):
        is_set = is_set_name(f.var)
        # one above the highest slot in scope: len(slots) is not, once a
        # name has been rebound, and would hand out a slot still in use
        slot = max(slots.values(), default=-1) + 1
        body, body_mask = _compile(
            f.body, {**slots, f.var: slot}, adj, n, budget, -1 if is_set else slot
        )
        # exists stops at the first witness, forall at the first
        # counterexample
        want = isinstance(f, Exists)
        if body_mask is not None:
            # one mask value decides: exists is false at 0, forall true at
            # all n vertices
            extreme = 0 if want else full

            def masked(env):
                budget[0] -= 1
                if budget[0] < 0:
                    raise _refusal("a masked vertex quantifier")
                return (body_mask(env) == extreme) != want
            return masked, None
        # 1 << n, not len(range(1 << n)), which overflows past 2^63
        size = 1 << n if is_set else n
        domain, what = range(size), "set" if is_set else "vertex"

        def quantify(env):
            budget[0] -= size
            if budget[0] < 0:
                raise _refusal(f"a {what} loop of size {_figure(size, ',')}")
            for value in domain:
                env[slot] = value
                if body(env) == want:
                    return want
            return not want
        return quantify, None
    if isinstance(f, Not):
        inner, inner_mask = _compile(f.body, slots, adj, n, budget, v)
        mask = None if inner_mask is None else (lambda env: full ^ inner_mask(env))
        return (lambda env: not inner(env)), mask
    if isinstance(f, (And, Or)):
        left, left_mask = _compile(f.left, slots, adj, n, budget, v)
        right, right_mask = _compile(f.right, slots, adj, n, budget, v)
        mask = None
        if isinstance(f, And):
            if left_mask is not None and right_mask is not None:
                mask = lambda env: left_mask(env) & right_mask(env)
            return (lambda env: left(env) and right(env)), mask
        if left_mask is not None and right_mask is not None:
            mask = lambda env: left_mask(env) | right_mask(env)
        return (lambda env: left(env) or right(env)), mask
    if isinstance(f, Edge):
        x, y = slots[f.x], slots[f.y]
        run = lambda env: (adj[env[x]] >> env[y]) & 1 == 1
        if x == v and y == v:
            mask = lambda env: 0
        elif v in (x, y):
            other = y if x == v else x
            mask = lambda env: adj[env[other]]
        else:
            mask = _constant_mask(run, full, v)
        return run, mask
    if isinstance(f, In):
        x, s = slots[f.x], slots[f.set_var]
        run = lambda env: (env[s] >> env[x]) & 1 == 1
        mask = (lambda env: env[s]) if x == v else _constant_mask(run, full, v)
        return run, mask
    if isinstance(f, Even):
        s = slots[f.set_var]
        run = lambda env: env[s].bit_count() % 2 == 0
        return run, _constant_mask(run, full, v)
    if isinstance(f, Eq):
        x, y = slots[f.x], slots[f.y]
        run = lambda env: env[x] == env[y]
        if x == v and y == v:
            mask = lambda env: full
        elif v in (x, y):
            other = y if x == v else x
            mask = lambda env: 1 << env[other]
        else:
            mask = _constant_mask(run, full, v)
        return run, mask
    raise TypeError(f"not a formula node: {f!r}")


def _refusal(where: str) -> SizeLimitError:
    return SizeLimitError(
        f"exhaustive evaluation passes its work limit of {_figure(_WORK_LIMIT, ',')} "
        f"at {where}; reduce the graph or the formula")


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

    Raises InputError for an open formula, ValueError for a name whose case
    does not fit its place in an atom, and SizeLimitError when a quantifier
    would take the work past ``_WORK_LIMIT``, before that quantifier runs.
    """
    _check_closed(f)
    return _evaluate(g, f)


def _check_closed(f: Formula) -> None:
    free = set().union(*free_variables(f))
    if free:
        raise InputError(f"formula has unbound variables: {', '.join(sorted(free))}")


def _evaluate(g: Graph, f: Formula) -> bool:
    """``evaluate`` of a formula that ``_check_closed`` passed."""
    run, _ = _compile(f, {}, g.adj, g.n, [_WORK_LIMIT])
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

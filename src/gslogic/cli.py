"""Command-line front end: graph generation, rank-width, logic checking,
stabilizer simulation.

Graph arguments accept either a generator spec "kind:size" (e.g. grid:3,
path:6; takes precedence over files of the same name), a path to an
edge-list file, or "-" for an edge list on stdin. Text output is for
humans; --format json is the stable machine interface. Exit codes:
0 success (a false verdict is still success, and so is a run whose reader
closes stdout early: the rest of the output is dropped with no message),
2 usage or input error, 3 size or resource refusal. Any other error is a
fault and leaves a traceback.

Each ``_cmd_*`` handler does its command's work, writes no output and
returns ``(document, lines)``: the JSON document and a generator of the
text lines, which makes them only when iterated. ``main`` alone writes,
one or the other by --format.

A run in the plain form (see ``_read``) is read from the command table
``_COMMANDS`` and builds no parser, so a valid run never loads argparse.
The full parser of ``build_parser`` is built, and argparse imported, only
for the other command lines: help, usage errors and the other forms of
options and positionals. It parses them or prints their message. No
parser is cached or built at import.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterator
from pathlib import Path
from types import SimpleNamespace

from .errors import InputError, SizeLimitError
from .fragment import decide, recognize
from .gf2 import cut_rank
from .graphs import GENERATOR_KINDS, Graph, generate, parse_edge_list, serialize
from .logic import evaluate, named_formula, parse_formula, pretty
from .rankwidth import (
    EXACT_VERTEX_LIMIT,
    count_subcubic_trees,
    exact_rankwidth,
    greedy_decomposition,
)
from .stabilizer import simulate_pattern

__all__ = ["main", "load_graph", "parse_pattern"]

_GEN_SPEC = re.compile(r"^([a-z_]+):(\d+)$")


def _int(digits: str) -> int:
    """int(digits), where more digits than int reads are bad input."""
    try:
        return int(digits)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def load_graph(source: str) -> Graph:
    """Resolve a graph argument: generator spec, file path, or stdin."""
    if not source:
        raise InputError('empty graph source; expected kind:size, a file path or "-"')
    m = _GEN_SPEC.match(source)
    if m is not None and m.group(1) in GENERATOR_KINDS:
        return generate(m.group(1), _int(m.group(2)))
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    return parse_edge_list(text)


def parse_pattern(text: str) -> list[tuple[int, str]]:
    """Parse the measurement microformat "qubit:basis,..." e.g. "0:Z,3:X".
    Only the shape is checked here; simulate_pattern checks each entry."""
    text = text.strip()
    if not text:
        return []
    out = []
    for pos, part in enumerate(text.split(","), start=1):
        qubit_str, sep, basis = part.strip().partition(":")
        qubit_str = qubit_str.strip()
        basis = basis.strip()
        if not sep or not qubit_str.isdecimal() or not basis:
            raise InputError(
                f"bad pattern entry {part.strip()!r} (entry {pos}); "
                "expected QUBIT:BASIS like 0:Z"
            )
        out.append((_int(qubit_str), basis))
    return out


def _cmd_gen(args) -> tuple[dict, Iterator[str]]:
    g = generate(args.kind, args.size)
    doc = {"kind": args.kind, "size": args.size, "n": g.n, "m": g.edge_count}
    if args.output is not None:
        Path(args.output).write_text(serialize(g), encoding="utf-8")
        doc["path"] = args.output
    else:
        doc["edges"] = g.edges()  # each (u, v) pair encodes as a JSON array

    def lines():
        if args.output is None:
            yield from serialize(g).splitlines()

    return doc, lines()


def _cmd_rankwidth(args) -> tuple[dict, Iterator[str]]:
    g = load_graph(args.graph)
    # a graph with fewer than two vertices has no tree to bound; the exact
    # answer is width 0 with no decomposition
    if args.greedy and g.n >= 2:
        width, tree = greedy_decomposition(g)
        method = "greedy"
    else:
        width, tree = exact_rankwidth(g)
        method = "exact"
    doc = {"graph": args.graph, "n": g.n, "m": g.edge_count, "method": method,
           "width": width, "decomposition": None if tree is None else tree.to_json_dict()}

    def lines():
        yield f"graph: {args.graph} (n={g.n}, m={g.edge_count})"
        yield f"method: {method}"
        yield f"width: {width}"
        yield f"decomposition: {json.dumps(doc['decomposition'], sort_keys=True)}"

    return doc, lines()


def _parse_side(text: str) -> list[int]:
    side = []
    for piece in text.split(",") if text.strip() else ():
        piece = piece.strip()
        if not piece.isdecimal():
            raise InputError(f"bad vertex {piece!r} in --side; expected e.g. 0,2,5")
        side.append(_int(piece))
    return sorted(set(side))


def _cmd_cutrank(args) -> tuple[dict, Iterator[str]]:
    g = load_graph(args.graph)
    side = _parse_side(args.side)
    rank = cut_rank(g, side)

    def lines():
        yield f"cut-rank of {{{','.join(map(str, side))}}}: {rank}"

    return {"graph": args.graph, "n": g.n, "side": side, "cut_rank": rank}, lines()


def _cmd_check(args) -> tuple[dict, Iterator[str]]:
    if args.named is not None:
        try:
            formula = named_formula(args.named)
        except KeyError as exc:
            raise InputError(exc.args[0]) from None
        sources = args.args
    else:
        if len(args.args) < 2:
            raise InputError("check needs a formula and at least one graph "
                             "(or --named NAME and graphs)")
        formula = parse_formula(args.args[0])
        sources = args.args[1:]
    formula_text = pretty(formula)
    graphs = [(src, load_graph(src)) for src in sources]
    # the formula's shape alone picks the method
    fragment = recognize(formula)
    method = "exhaustive" if fragment is None else "decomposition"
    verdicts = [evaluate(g, formula) if fragment is None else decide(g, fragment)
                for _, g in graphs]
    holds = all(verdicts)
    witness = verdicts.index(False) if not holds else None

    def lines():
        yield f"formula: {formula_text if args.named is None else args.named}"
        for i, ((src, g), verdict) in enumerate(zip(graphs, verdicts)):
            yield f"graph[{i}] {src} (n={g.n}): {'true' if verdict else 'false'} ({method})"
        yield "family: true" if holds else f"family: false (first failure at index {witness})"

    return {"formula": formula_text, "named": args.named, "graphs": sources,
            "verdicts": verdicts, "methods": [method] * len(graphs), "holds": holds,
            "witness_index": witness}, lines()


def _cmd_simulate(args) -> tuple[dict, Iterator[str]]:
    g = load_graph(args.graph)
    pattern = parse_pattern(args.pattern)
    transcript = simulate_pattern(g, pattern, rng_seed=args.seed)

    def lines():
        yield f"graph: {args.graph} (n={g.n}), seed: {args.seed}"
        for rec in transcript:
            yield (f"qubit {rec['qubit']} basis {rec['basis']}: "
                   f"outcome {rec['outcome']:+d} probability {rec['probability']}")

    return {"graph": args.graph, "n": g.n, "seed": args.seed, "transcript": transcript}, lines()


def _cmd_trees_count(args) -> tuple[dict, Iterator[str]]:
    count = count_subcubic_trees(args.leaves)

    def lines():
        yield f"subcubic trees with {args.leaves} leaves: {count} (formula)"

    return {"leaves": args.leaves, "count": count, "method": "formula"}, lines()


# Each argument is the (flags, keywords) of one add_argument call. _read
# models these keywords and no other: action "store_true", choices, default,
# help, metavar, nargs "+" on the last positional, required and type int.
_FORMAT = (("--format",), {"choices": ("text", "json"), "default": "text",
                           "help": "output format (default: text; json is the "
                                   "stable interface)"})

# (name, help, handler, arguments) of each subcommand, in help order; every
# command also takes _FORMAT, before its own arguments
_COMMANDS = (
    ("gen", "write a generated graph as an edge list", _cmd_gen, (
        (("kind",), {"choices": sorted(GENERATOR_KINDS)}),
        (("size",), {"type": int}),
        (("-o", "--output"), {"metavar": "PATH",
                              "help": "write to a file instead of stdout"}),
    )),
    ("rankwidth", "rank-width of a graph with a decomposition tree", _cmd_rankwidth, (
        (("graph",), {"help": "graph source"}),
        (("--greedy",), {"action": "store_true",
                         "help": "fast upper bound from a greedy vertex order "
                                 "instead of the exact answer with an optimal "
                                 "tree, which removes pendants and twins, splits "
                                 "at cut vertices and refuses when a piece left "
                                 f"has more than {EXACT_VERTEX_LIMIT} vertices"}),
    )),
    ("cutrank", "GF(2) cut-rank of one vertex bipartition", _cmd_cutrank, (
        (("graph",), {"help": "graph source"}),
        (("--side",), {"required": True, "metavar": "V,V,...",
                       "help": "comma-separated vertices of one side of the cut "
                               "(empty string for the empty side)"}),
    )),
    ("check", "evaluate a counting-logic formula on graphs", _cmd_check, (
        (("--named",), {"metavar": "NAME",
                        "help": "use a library formula instead of a formula argument"}),
        (("args",), {"nargs": "+", "metavar": "ARG",
                     "help": "formula string (omit with --named) followed by one "
                             "or more graph sources"}),
    )),
    ("simulate", "measure a Pauli pattern on a graph state", _cmd_simulate, (
        (("graph",), {"help": "graph source"}),
        (("--pattern",), {"required": True, "metavar": "Q:B,...",
                          "help": 'measurement sequence, e.g. "0:Z,3:X"'}),
        (("--seed",), {"type": int, "help": "RNG seed for measurement sampling "
                                            "(default: fresh entropy)"}),
    )),
    ("trees-count", "number of binary (subcubic) trees on N leaves", _cmd_trees_count, (
        (("leaves",), {"type": int, "metavar": "N"}),
    )),
)

_DESCRIPTIONS = {
    "check": "Decide a C2MS formula on each graph. A formula of the form [!] "
             "exists X1..Xk. psi, psi a Boolean combination of Even(Xi), "
             "one-vertex, two-vertex and neighbourhood-counting quantifier "
             "pieces (see the README), is decided by a DP along a breadth-first "
             "order of the graph (method \"decomposition\"; exit 3 past its "
             "state limit); any other by exhaustive enumeration (method "
             "\"exhaustive\"; exit 3 once its work passes its limit).",
}


def _fill(p, handler, arguments) -> None:
    """Give p a command's handler, its --format option and its own arguments."""
    p.set_defaults(func=handler)
    for flags, keywords in (_FORMAT, *arguments):
        p.add_argument(*flags, **keywords)


def build_parser():
    """The full gslogic parser (an ``argparse.ArgumentParser``): the root
    and every command's subparser. main builds it only for the command
    lines that _read does not take: help, usage errors and the forms of
    options and positionals other than the plain one.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="gslogic",
        description="Graph states, rank-width, and counting logic on graphs.",
        epilog='Graph sources: "kind:size" generator specs '
               f'({", ".join(sorted(GENERATOR_KINDS))}), an edge-list file '
               'path, or "-" for stdin.',
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, handler, arguments in _COMMANDS:
        _fill(sub.add_parser(name, help=help_text, description=_DESCRIPTIONS.get(name)),
              handler, arguments)
    return parser


def _value(keywords: dict, token: str):
    """token as the argument of keywords stores it, or None where argparse
    would refuse it or might read it as an option."""
    if token.startswith("-"):
        return None
    try:
        value = keywords.get("type", str)(token)
    except ValueError:
        return None
    if "choices" in keywords and value not in keywords["choices"]:
        return None
    return value


def _read(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read from the
    command table, when argv has the plain form; otherwise None.

    The plain form: a command name first; each option an exact option
    string of that command, given at most once, with its value (if it takes
    one) as the next token; no value or positional starting with "-"; the
    positionals one contiguous run of the declared count; every value of its
    type and in its choices; every required option present.
    """
    row = next((row for row in _COMMANDS if argv and argv[0] == row[0]), None)
    if row is None:
        return None
    name, _, handler, arguments = row
    options, positionals = {}, []
    for flags, keywords in (_FORMAT, *arguments):
        if flags[0].startswith("-"):
            # argparse's dest: the first long flag, else the first flag
            dest = next((f for f in flags if f.startswith("--")), flags[0])
            options.update(dict.fromkeys(flags, (dest.lstrip("-").replace("-", "_"), keywords)))
        else:
            positionals.append((flags[0], keywords))
    values = {"command": name, "func": handler}
    run: list[str] = []
    after_run = False  # an option has come after the positionals began
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if after_run:
                return None
            run.append(token)
            continue
        after_run = bool(run)
        dest, keywords = options.get(token, (None, None))
        if dest is None or dest in values:
            return None
        if keywords.get("action") == "store_true":
            values[dest] = True
        else:
            values[dest] = _value(keywords, next(tokens, "-"))
    *single, (last, keywords) = positionals
    many = keywords.get("nargs") == "+"
    if len(run) < len(positionals) or len(run) > len(positionals) and not many:
        return None
    for (dest, kw), token in zip(single, run):
        values[dest] = _value(kw, token)
    rest = [_value(keywords, token) for token in run[len(single):]]
    values[last] = rest if many else rest[0]
    if None in values.values() or None in rest:
        return None
    for dest, keywords in options.values():
        if dest not in values:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default", False if keywords.get("action") else None)
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a plain command line is read from the table; help, errors and every
    # other form go to the full parser, whose results and messages these are
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse prints its own diagnostics; normalize the exit code
            return 0 if exc.code == 0 else 2
    try:
        document, lines = args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps(document, sort_keys=True))
        else:
            sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, so that the
        # flush at exit writes nowhere, as the Python documentation advises
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())

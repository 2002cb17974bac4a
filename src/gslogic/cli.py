"""Command-line front end: graph generation, rank-width, logic checking,
stabilizer simulation.

Graph arguments accept either a generator spec "kind:size" (e.g. grid:3,
path:6; takes precedence over files of the same name), a path to an
edge-list file, or "-" for an edge list on stdin. Text output is for
humans; --format json is the stable machine interface. Exit codes:
0 success (a false verdict is still success), 2 usage or input error,
3 size or resource refusal. Any other error is a fault and leaves a
traceback.

Each ``_cmd_*`` handler does its command's work, writes no output and
returns ``(document, lines)``: the JSON document and a generator of the
text lines, which makes them only when iterated. ``main`` alone writes,
one or the other by --format.

A run builds one parser: that of the command argv starts with, which
parses the rest as its subparser would. The full parser of ``build_parser``
(the root and every subparser) is built only for help, no or an unknown
command, an option before the command and arguments the command's parser
leaves over, and prints every such message. No parser is cached or built
at import.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Iterator
from pathlib import Path

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


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=sorted(GENERATOR_KINDS))
    p.add_argument("size", type=int)
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write to a file instead of stdout")


def _rankwidth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph source")
    p.add_argument("--greedy", action="store_true",
                   help="fast upper bound from a greedy vertex order instead "
                        "of the exact answer with an optimal tree, which "
                        "removes pendants and twins, splits at cut vertices "
                        "and refuses when a piece left has more than "
                        f"{EXACT_VERTEX_LIMIT} vertices")


def _cutrank_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph source")
    p.add_argument("--side", required=True, metavar="V,V,...",
                   help="comma-separated vertices of one side of the cut "
                        "(empty string for the empty side)")


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.description = ("Decide a C2MS formula on each graph. A formula of the "
                     "form [!] exists X1..Xk. psi, psi a Boolean combination "
                     "of Even(Xi), one-vertex, two-vertex and neighbourhood-"
                     "counting quantifier pieces (see the README), is decided "
                     "by a DP along a breadth-first order of the graph "
                     "(method \"decomposition\"; exit 3 past its state "
                     "limit); any other by exhaustive enumeration (method "
                     "\"exhaustive\"; exit 3 once its work passes its limit).")
    p.add_argument("--named", default=None, metavar="NAME",
                   help="use a library formula instead of a formula argument")
    p.add_argument("args", nargs="+", metavar="ARG",
                   help="formula string (omit with --named) followed by one "
                        "or more graph sources")


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph source")
    p.add_argument("--pattern", required=True, metavar="Q:B,...",
                   help='measurement sequence, e.g. "0:Z,3:X"')
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed for measurement sampling "
                        "(default: fresh entropy)")


def _trees_count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("leaves", type=int, metavar="N")


# (name, help, handler, argument adder) of each subcommand, in help order
_COMMANDS = (
    ("gen", "write a generated graph as an edge list", _cmd_gen, _gen_arguments),
    ("rankwidth", "rank-width of a graph with a decomposition tree", _cmd_rankwidth,
     _rankwidth_arguments),
    ("cutrank", "GF(2) cut-rank of one vertex bipartition", _cmd_cutrank,
     _cutrank_arguments),
    ("check", "evaluate a counting-logic formula on graphs", _cmd_check, _check_arguments),
    ("simulate", "measure a Pauli pattern on a graph state", _cmd_simulate,
     _simulate_arguments),
    ("trees-count", "number of binary (subcubic) trees on N leaves", _cmd_trees_count,
     _trees_count_arguments),
)


def _fill(p: argparse.ArgumentParser, handler, add_arguments) -> None:
    """Give p a command's handler, its --format option and its own arguments."""
    p.set_defaults(func=handler)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text; json is the "
                        "stable interface)")
    add_arguments(p)


def build_parser() -> argparse.ArgumentParser:
    """The full gslogic parser: the root and every command's subparser.

    main builds it only for help, no or an unknown command, an option
    before the command, and arguments the command's own parser leaves over.
    """
    parser = argparse.ArgumentParser(
        prog="gslogic",
        description="Graph states, rank-width, and counting logic on graphs.",
        epilog='Graph sources: "kind:size" generator specs '
               f'({", ".join(sorted(GENERATOR_KINDS))}), an edge-list file '
               'path, or "-" for stdin.',
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, handler, add_arguments in _COMMANDS:
        _fill(sub.add_parser(name, help=help_text), handler, add_arguments)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a process runs one command, so when argv starts with one, that
    # command's parser alone is built and parses the rest, as its subparser
    # would; help, no or an unknown command, an option before the command
    # and arguments left over go to the full parser, whose messages these are
    try:
        args = rest = None
        for name, _, handler, add_arguments in _COMMANDS:
            if argv and argv[0] == name:
                parser = argparse.ArgumentParser(prog=f"gslogic {name}")
                _fill(parser, handler, add_arguments)
                args, rest = parser.parse_known_args(argv[1:])
        if args is None or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostics; normalize the exit code
        return 0 if exc.code == 0 else 2
    try:
        document, lines = args.func(args)
        if args.format == "json":
            print(json.dumps(document, sort_keys=True))
        else:
            sys.stdout.writelines(line + "\n" for line in lines)
        return 0
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

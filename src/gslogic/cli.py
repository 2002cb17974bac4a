"""Command-line front end: graph generation, rank-width, logic checking,
stabilizer simulation.

Graph arguments accept either a generator spec "kind:size" (e.g. grid:3,
path:6; takes precedence over files of the same name), a path to an
edge-list file, or "-" for an edge list on stdin. Text output is for
humans; --format json is the stable machine interface. Exit codes:
0 success (a false verdict is still success), 2 usage or input error,
3 size or resource refusal.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import SizeLimitError
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


def load_graph(source: str) -> Graph:
    """Resolve a graph argument: generator spec, file path, or stdin."""
    m = _GEN_SPEC.match(source)
    if m is not None and m.group(1) in GENERATOR_KINDS:
        return generate(m.group(1), int(m.group(2)))
    if source == "-":
        text = sys.stdin.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    return parse_edge_list(text)


def parse_pattern(text: str) -> list[tuple[int, str]]:
    """Parse the measurement microformat "qubit:basis,..." e.g. "0:Z,3:X"."""
    text = text.strip()
    if not text:
        return []
    out = []
    for pos, part in enumerate(text.split(","), start=1):
        qubit_str, sep, basis = part.strip().partition(":")
        qubit_str = qubit_str.strip()
        basis = basis.strip()
        if not sep or not qubit_str.isdecimal() or basis not in ("X", "Y", "Z"):
            raise ValueError(
                f"bad pattern entry {part.strip()!r} (entry {pos}); "
                "expected QUBIT:BASIS like 0:Z"
            )
        out.append((int(qubit_str), basis))
    return out


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_gen(args) -> int:
    g = generate(args.kind, args.size)
    text = serialize(g)
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
        if args.format == "json":
            _emit_json({"kind": args.kind, "size": args.size, "n": g.n,
                        "m": g.edge_count, "path": args.output})
        return 0
    if args.format == "json":
        _emit_json({"kind": args.kind, "size": args.size, "n": g.n,
                    "m": g.edge_count, "edges": [list(e) for e in g.edges()]})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_rankwidth(args) -> int:
    g = load_graph(args.graph)
    # a graph with fewer than two vertices has no tree to bound; the exact
    # answer is width 0 with no decomposition
    if args.greedy and g.n >= 2:
        width, tree = greedy_decomposition(g)
        method = "greedy"
    else:
        width, tree = exact_rankwidth(g)
        method = "exact"
    decomp_dict = None if tree is None else tree.to_json_dict()
    if args.format == "json":
        _emit_json({"graph": args.graph, "n": g.n, "m": g.edge_count,
                    "method": method, "width": width,
                    "decomposition": decomp_dict})
    else:
        print(f"graph: {args.graph} (n={g.n}, m={g.edge_count})")
        print(f"method: {method}")
        print(f"width: {width}")
        print(f"decomposition: {json.dumps(decomp_dict, sort_keys=True)}")
    return 0


def _parse_side(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    side = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdecimal():
            raise ValueError(f"bad vertex {piece!r} in --side; expected e.g. 0,2,5")
        side.append(int(piece))
    return sorted(set(side))


def _cmd_cutrank(args) -> int:
    g = load_graph(args.graph)
    side = _parse_side(args.side)
    rank = cut_rank(g, side)
    if args.format == "json":
        _emit_json({"graph": args.graph, "n": g.n, "side": side,
                    "cut_rank": rank})
    else:
        shown = ",".join(str(v) for v in side)
        print(f"cut-rank of {{{shown}}}: {rank}")
    return 0


def _cmd_check(args) -> int:
    if args.named is not None:
        try:
            formula = named_formula(args.named)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        sources = args.args
        shown = args.named
    else:
        if len(args.args) < 2:
            raise ValueError("check needs a formula and at least one graph "
                             "(or --named NAME and graphs)")
        formula = parse_formula(args.args[0])
        sources = args.args[1:]
        shown = pretty(formula)
    graphs = [(src, load_graph(src)) for src in sources]
    # the formula's shape alone picks the method
    fragment = recognize(formula)
    if fragment is None:
        method = "exhaustive"
        verdicts = [evaluate(g, formula) for _, g in graphs]
    else:
        method = "decomposition"
        verdicts = [decide(g, fragment) for _, g in graphs]
    holds = all(verdicts)
    witness = verdicts.index(False) if not holds else None
    if args.format == "json":
        _emit_json({"formula": pretty(formula),
                    "named": args.named,
                    "graphs": [src for src, _ in graphs],
                    "verdicts": verdicts,
                    "methods": [method] * len(graphs),
                    "holds": holds,
                    "witness_index": witness})
    else:
        print(f"formula: {shown}")
        for i, ((src, g), verdict) in enumerate(zip(graphs, verdicts)):
            print(f"graph[{i}] {src} (n={g.n}): {'true' if verdict else 'false'} ({method})")
        if holds:
            print("family: true")
        else:
            print(f"family: false (first failure at index {witness})")
    return 0


def _cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    pattern = parse_pattern(args.pattern)
    transcript = simulate_pattern(g, pattern, rng_seed=args.seed)
    if args.format == "json":
        _emit_json({"graph": args.graph, "n": g.n, "seed": args.seed,
                    "transcript": transcript})
    else:
        print(f"graph: {args.graph} (n={g.n}), seed: {args.seed}")
        for rec in transcript:
            print(f"qubit {rec['qubit']} basis {rec['basis']}: "
                  f"outcome {rec['outcome']:+d} probability {rec['probability']}")
    return 0


def _cmd_trees_count(args) -> int:
    n = args.leaves
    count = count_subcubic_trees(n)
    if args.format == "json":
        _emit_json({"leaves": n, "count": count, "method": "formula"})
    else:
        print(f"subcubic trees with {n} leaves: {count} (formula)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text; json is the "
                             "stable interface)")

    parser = argparse.ArgumentParser(
        prog="gslogic",
        description="Graph states, rank-width, and counting logic on graphs.",
        epilog='Graph sources: "kind:size" generator specs '
               f'({", ".join(sorted(GENERATOR_KINDS))}), an edge-list file '
               'path, or "-" for stdin.',
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", parents=[common],
                       help="write a generated graph as an edge list")
    p.add_argument("kind", choices=sorted(GENERATOR_KINDS))
    p.add_argument("size", type=int)
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rankwidth", parents=[common],
                       help="rank-width of a graph with a decomposition tree")
    p.add_argument("graph", help="graph source")
    p.add_argument("--greedy", action="store_true",
                   help="fast upper bound from a greedy vertex order instead "
                        "of the exact answer with an optimal tree, which "
                        "removes pendants and twins, splits at cut vertices "
                        "and refuses when a piece left has more than "
                        f"{EXACT_VERTEX_LIMIT} vertices")
    p.set_defaults(func=_cmd_rankwidth)

    p = sub.add_parser("cutrank", parents=[common],
                       help="GF(2) cut-rank of one vertex bipartition")
    p.add_argument("graph", help="graph source")
    p.add_argument("--side", required=True, metavar="V,V,...",
                   help="comma-separated vertices of one side of the cut "
                        "(empty string for the empty side)")
    p.set_defaults(func=_cmd_cutrank)

    p = sub.add_parser("check", parents=[common],
                       help="evaluate a counting-logic formula on graphs",
                       description="Decide a C2MS formula on each graph. A "
                                   "formula of the form [!] exists X1..Xk. psi, "
                                   "psi a Boolean combination of Even(Xi), "
                                   "one-vertex, two-vertex and neighbourhood-"
                                   "counting quantifier pieces "
                                   "(see the README), is decided by a DP along "
                                   "a breadth-first order of the graph (method "
                                   "\"decomposition\"; "
                                   "exit 3 past its state limit); any other by "
                                   "exhaustive enumeration (method "
                                   "\"exhaustive\"; exit 3 past its cost limit).")
    p.add_argument("--named", default=None, metavar="NAME",
                   help="use a library formula instead of a formula argument")
    p.add_argument("args", nargs="+", metavar="ARG",
                   help="formula string (omit with --named) followed by one "
                        "or more graph sources")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", parents=[common],
                       help="measure a Pauli pattern on a graph state")
    p.add_argument("graph", help="graph source")
    p.add_argument("--pattern", required=True, metavar="Q:B,...",
                   help='measurement sequence, e.g. "0:Z,3:X"')
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed for measurement sampling "
                        "(default: fresh entropy)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trees-count", parents=[common],
                       help="number of binary (subcubic) trees on N leaves")
    p.add_argument("leaves", type=int, metavar="N")
    p.set_defaults(func=_cmd_trees_count)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostics; normalize the exit code
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

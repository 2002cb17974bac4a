"""Graph states, rank-width, and monadic second-order counting logic.

Three interlocking toolkits around simple undirected graphs:

- GF(2) cut-rank and exact rank-width. All GF(2) code is in ``gf2`` and
  works on bit-packed int rows (bit j = column j). A subset dynamic
  program gives the width from 2^(n-1) cut-ranks and at most 3^(n-1)/2
  split checks; an optimal subcubic tree, the witness, is read from its
  table in at most n * 2^(n-2) split checks. A greedy upper bound covers
  larger graphs: it scores each candidate vertex by span tests against one
  GF(2) basis of the current cut, with no fresh cut-rank per candidate.
- A parser and exhaustive model checker for monadic second-order logic
  extended with an even-cardinality set predicate, and, in ``fragment``,
  a dynamic program along a breadth-first order that decides a fragment of it
  (two-colourability, connectivity, parity) without enumerating sets.
- A stabilizer simulator for graph states under Pauli measurements, plus
  a dense state-vector oracle for cross-validation on small registers.

The kernels are pure Python (``kernel_backend()`` reports "pure").
"""

from . import dense
from .errors import FormulaParseError, GraphParseError, SizeLimitError
from .gf2 import cut_rank, cut_rank_masks
from .graphs import (
    GENERATOR_KINDS,
    Graph,
    GraphFamily,
    generate,
    neighbors,
    parse_edge_list,
    relabel,
    serialize,
)
from .logic import (
    DEFAULT_COST_LIMIT,
    NAMED_FORMULA_SOURCES,
    Formula,
    evaluate,
    free_variables,
    named_formula,
    parse_formula,
    pretty,
    theory_member,
    theory_member_witness,
)
from .rankwidth import (
    RankDecomposition,
    SubcubicTree,
    count_subcubic_trees,
    decomposition_width,
    enumerate_subcubic_trees,
    exact_rankwidth,
    greedy_decomposition,
    tree_edge_bipartition,
)
from .stabilizer import (
    PauliOperator,
    StabilizerTableau,
    expectation_pauli,
    graph_state_tableau,
    measure_pauli,
    multiply_paulis,
    paulis_commute,
    simulate_pattern,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the rank and search kernels: always "pure" (pure Python)."""
    return "pure"


def __getattr__(name: str):
    # the dense oracle's names load numpy on first use; see gslogic.dense
    if name in dense.__all__:
        return getattr(dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "kernel_backend",
    # graphs
    "Graph",
    "GraphFamily",
    "GENERATOR_KINDS",
    "generate",
    "neighbors",
    "parse_edge_list",
    "serialize",
    "relabel",
    # GF(2)
    "cut_rank",
    "cut_rank_masks",
    # rank-width
    "SubcubicTree",
    "RankDecomposition",
    "count_subcubic_trees",
    "enumerate_subcubic_trees",
    "tree_edge_bipartition",
    "decomposition_width",
    "exact_rankwidth",
    "greedy_decomposition",
    # logic
    "DEFAULT_COST_LIMIT",
    "NAMED_FORMULA_SOURCES",
    "Formula",
    "parse_formula",
    "pretty",
    "free_variables",
    "evaluate",
    "theory_member",
    "theory_member_witness",
    "named_formula",
    # stabilizer
    "PauliOperator",
    "StabilizerTableau",
    "paulis_commute",
    "multiply_paulis",
    "graph_state_tableau",
    "expectation_pauli",
    "measure_pauli",
    "simulate_pattern",
    # dense oracle
    *dense.__all__,
    # errors
    "SizeLimitError",
    "GraphParseError",
    "FormulaParseError",
]

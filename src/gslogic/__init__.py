"""Graph states, rank-width, and monadic second-order counting logic.

Three interlocking toolkits around simple undirected graphs:

- GF(2) cut-rank and exact rank-width. All GF(2) code is in ``gf2`` and
  works on bit-packed int rows (bit j = column j). The width comes from
  2^(n-1) cut-ranks, counted as kernels by one subset-sum transform, and a
  threshold search that visits only the sets a tree of width k can use,
  for k up from a lower bound; an optimal subcubic tree, the witness, is
  read at the width in at most n * 2^(n-2) split checks.
  A greedy upper bound covers larger graphs: it scores each candidate
  vertex by span tests against one GF(2) basis of the current cut, with no
  fresh cut-rank per candidate.
  Both answer ``(width, tree)``, the tree a ``SubcubicTree`` witness.
- A parser and exhaustive model checker for monadic second-order logic
  extended with an even-cardinality set predicate, and, in ``fragment``,
  a dynamic program along a breadth-first order that decides a fragment of it
  (two-colourability, connectivity, parity, and neighbourhood counts such
  as perfect codes and even degrees) without enumerating sets.
  ``theory_member`` checks a formula on a sequence of graphs by the same
  method rule as ``gslogic check``.
- A simulator of Pauli measurement patterns on graph states by
  vertex-minor rules with one local-Clifford frame per qubit, a stabilizer
  tableau for any Pauli observable, which the tests use as its oracle, and
  a dense state-vector oracle for cross-validation on small registers. The
  oracle's names live in ``gslogic.dense`` only, which loads numpy on
  first use.

The kernels are pure Python (``kernel_backend()`` reports "pure").
"""

from . import dense
from .errors import FormulaParseError, GraphParseError, InputError, SizeLimitError
from .fragment import theory_member, theory_member_witness
from .gf2 import cut_rank, cut_rank_masks
from .graphs import (
    GENERATOR_KINDS,
    Graph,
    generate,
    neighbors,
    parse_edge_list,
    relabel,
    serialize,
)
from .logic import (
    NAMED_FORMULA_SOURCES,
    Formula,
    evaluate,
    free_variables,
    named_formula,
    parse_formula,
    pretty,
)
from .rankwidth import (
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
    graph_state_tableau,
    multiply_paulis,
    paulis_commute,
    simulate_pattern,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the rank and search kernels: always "pure" (pure Python)."""
    return "pure"


__all__ = [
    "__version__",
    "kernel_backend",
    # graphs
    "Graph",
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
    "count_subcubic_trees",
    "enumerate_subcubic_trees",
    "tree_edge_bipartition",
    "decomposition_width",
    "exact_rankwidth",
    "greedy_decomposition",
    # logic
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
    "simulate_pattern",
    # errors
    "SizeLimitError",
    "InputError",
    "GraphParseError",
    "FormulaParseError",
]

"""Graph states, rank-width, and monadic second-order counting logic.

Three interlocking toolkits around simple undirected graphs:

- GF(2) cut-rank and exact rank-width via exhaustive search over binary
  (subcubic) decomposition trees, with a branch-and-bound option and a
  greedy upper bound for larger graphs.
- A parser and exhaustive model checker for monadic second-order logic
  extended with an even-cardinality set predicate.
- A stabilizer simulator for graph states under Pauli measurements, plus
  a dense state-vector oracle for cross-validation on small registers.

The rank computations run on a compiled kernel when the optional
extension is built, with an equivalent pure-Python fallback; see
``kernel_backend()``.
"""

from . import dense
from ._kernels import backend_name as kernel_backend
from .errors import FormulaParseError, GraphParseError, SizeLimitError
from .gf2 import Gf2Matrix, cut_rank, cut_rank_masks, cut_submatrix, rank2
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
    DEFAULT_EXACT_CAP,
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
    "Gf2Matrix",
    "rank2",
    "cut_rank",
    "cut_rank_masks",
    "cut_submatrix",
    # rank-width
    "DEFAULT_EXACT_CAP",
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

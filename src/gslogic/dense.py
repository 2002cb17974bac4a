"""Dense state-vector oracle for cross-checking the stabilizer simulator.

States are full 2^n complex amplitude vectors indexed by computational
basis strings, bit a of the index being the value of qubit a. Everything
here is O(2^n) time and memory on purpose: it exists to validate the
bitmask simulator on small registers, so construction refuses n > 20.

The graph state has amplitude 2^(-n/2) * (-1)^(number of edges inside s)
on basis string s, which is the Hadamard-plus-CZ construction written out.

The implementation lives in ``gslogic._dense`` and needs numpy, which
nothing else in the package uses. It is imported on first access to one of
the names below, so that importing gslogic, and the CLI, leaves numpy out.
"""

__all__ = [
    "DenseState",
    "MAX_DENSE_QUBITS",
    "dense_state_vector",
    "apply_pauli",
    "expectation",
    "dense_measure",
    "project",
    "canonical_phase",
    "stabilizer_residual",
    "same_up_to_phase",
]


def __getattr__(name: str):
    if name in __all__:
        from . import _dense

        return getattr(_dense, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Dense state-vector oracle: the numpy implementation behind gslogic.dense.

See ``gslogic.dense`` for what it computes; it is imported from there on
first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .graphs import Graph
from .stabilizer import PauliOperator


MAX_DENSE_QUBITS = 20
_NORM_TOL = 1e-10


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("qubit count must be nonnegative")
    if n > MAX_DENSE_QUBITS:
        raise SizeLimitError(
            f"dense vectors are limited to {MAX_DENSE_QUBITS} qubits, got {n}"
        )


def _parity(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each entry of an integer array, as 0/1."""
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


@dataclass(frozen=True, eq=False)
class DenseState:
    """A unit-norm amplitude vector over n qubits."""

    n: int
    vector: np.ndarray

    def __post_init__(self):
        _check_size(self.n)
        vec = np.asarray(self.vector, dtype=np.complex128)
        if vec.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector must have length {1 << self.n}, got {vec.shape}"
            )
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized (norm {norm!r})")
        object.__setattr__(self, "vector", vec)

    def amplitude(self, basis_index: int) -> complex:
        return complex(self.vector[basis_index])

    def fidelity(self, other: "DenseState") -> float:
        if self.n != other.n:
            raise ValueError("states have different register sizes")
        return float(abs(np.vdot(self.vector, other.vector)))


def dense_state_vector(g: Graph) -> DenseState:
    """The graph state of g as an explicit amplitude vector."""
    _check_size(g.n)
    size = 1 << g.n
    amp = np.full(size, 2.0 ** (-g.n / 2.0))
    idx = np.arange(size, dtype=np.int64)
    for a, b in g.edges():
        inside = ((idx >> a) & (idx >> b) & 1).astype(bool)
        amp[inside] = -amp[inside]
    return DenseState(g.n, amp.astype(np.complex128))


def apply_pauli(state: DenseState, p: PauliOperator) -> DenseState:
    """The vector p|psi>; Paulis permute basis states up to phases."""
    if p.n != state.n:
        raise ValueError("operator size does not match the state")
    size = 1 << state.n
    idx = np.arange(size, dtype=np.int64)
    out = np.empty(size, dtype=np.complex128)
    coef = complex(p.sign) * (1j ** ((p.x_bits & p.z_bits).bit_count() % 4))
    signs = np.where(_parity(idx & p.z_bits) == 1, -1.0, 1.0)
    out[idx ^ p.x_bits] = coef * signs * state.vector
    return DenseState(state.n, out)


def expectation(state: DenseState, p: PauliOperator) -> float:
    """Real part of <psi| p |psi> (the value is real for Hermitian p)."""
    moved = apply_pauli(state, p)
    return float(np.real(np.vdot(state.vector, moved.vector)))


def canonical_phase(state: DenseState) -> DenseState:
    """The same ray with the first nonzero amplitude made real positive.

    Post-measurement states are returned in this form so that two states
    are equal as rays iff their vectors compare (almost) equal entrywise.
    A unit vector always has an amplitude above _NORM_TOL.
    """
    value = next(v for v in state.vector if abs(v) > _NORM_TOL)
    return DenseState(state.n, state.vector * (abs(value) / value))


def _branch(state: DenseState, p: PauliOperator, outcome: int):
    moved = apply_pauli(state, p)
    raw = (state.vector + outcome * moved.vector) / 2.0
    prob = float(np.vdot(raw, raw).real)
    if prob < _NORM_TOL:
        return prob, None
    return prob, canonical_phase(DenseState(state.n, raw / np.sqrt(prob)))


def dense_measure(
    state: DenseState, qubit: int, basis: str
) -> tuple[tuple[float, float], tuple[DenseState | None, DenseState | None]]:
    """Both branches of a projective single-qubit Pauli measurement.

    Returns ((p_plus, p_minus), (post_plus, post_minus)); a branch with
    (numerically) zero probability has post state None.
    """
    p = PauliOperator.single(state.n, qubit, basis)
    p_plus, post_plus = _branch(state, p, 1)
    p_minus, post_minus = _branch(state, p, -1)
    return (p_plus, p_minus), (post_plus, post_minus)


def project(state: DenseState, qubit: int, basis: str, outcome: int) -> DenseState:
    """Renormalized post-measurement state for one chosen outcome.

    Raises ValueError when the chosen branch has probability zero.
    """
    if outcome not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    p = PauliOperator.single(state.n, qubit, basis)
    prob, post = _branch(state, p, outcome)
    if post is None:
        raise ValueError(
            f"outcome {outcome:+d} of {basis} on qubit {qubit} has probability 0"
        )
    return post


def stabilizer_residual(state: DenseState, p: PauliOperator) -> float:
    """The norm of (p - 1)|psi|; zero iff p stabilizes the state."""
    moved = apply_pauli(state, p)
    return float(np.linalg.norm(moved.vector - state.vector))


def same_up_to_phase(a: DenseState, b: DenseState, tol: float = 1e-9) -> bool:
    """Whether two unit vectors agree up to a global phase factor."""
    if a.n != b.n:
        return False
    return abs(a.fidelity(b) - 1.0) <= tol

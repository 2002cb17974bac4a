"""Dense state-vector oracle: construction, Pauli action, measurement."""

import math
import random

import numpy as np
import pytest

from conftest import random_graph
from gslogic import Graph, PauliOperator, SizeLimitError, generate, graph_state_tableau
from gslogic.dense import (
    DenseState,
    apply_pauli,
    canonical_phase,
    dense_measure,
    dense_state_vector,
    expectation,
    project,
    same_up_to_phase,
    stabilizer_residual,
)


def test_single_vertex_state_is_plus():
    s = dense_state_vector(Graph.from_edges(1, []))
    r = 1 / math.sqrt(2)
    assert np.allclose(s.vector, [r, r])


def test_two_vertex_amplitudes():
    s = dense_state_vector(generate("path", 2))
    assert np.allclose(s.vector, [0.5, 0.5, 0.5, -0.5])


def test_amplitude_reads_one_basis_string():
    s = dense_state_vector(generate("path", 2))
    assert s.amplitude(0b00) == pytest.approx(0.5)
    assert s.amplitude(0b11) == pytest.approx(-0.5)
    assert isinstance(s.amplitude(0b01), complex)


def test_triangle_amplitude_signs():
    s = dense_state_vector(generate("cycle", 3))
    # sign is (-1)^(edges inside the support)
    signs = {
        0b000: 1, 0b001: 1, 0b010: 1, 0b100: 1,
        0b011: -1, 0b101: -1, 0b110: -1, 0b111: -1,
    }
    for idx, sign in signs.items():
        assert s.vector[idx] == pytest.approx(sign / math.sqrt(8))


def test_empty_register():
    s = dense_state_vector(Graph.from_edges(0, []))
    assert s.vector.shape == (1,)
    assert s.vector[0] == pytest.approx(1.0)


def test_state_validation():
    with pytest.raises(ValueError, match="length"):
        DenseState(2, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        DenseState(1, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="qubit count must be nonnegative"):
        DenseState(-1, np.ones(1, dtype=complex))


def test_size_refusal():
    with pytest.raises(SizeLimitError, match="20"):
        dense_state_vector(generate("path", 21))


def test_generators_stabilize_graph_states():
    for g in (generate("path", 5), generate("grid", 3), generate("cycle", 6)):
        s = dense_state_vector(g)
        for k in graph_state_tableau(g).generators():
            assert stabilizer_residual(s, k) < 1e-12


def test_apply_pauli_known_actions():
    zero = DenseState(1, np.array([1.0, 0.0], dtype=complex))
    y = PauliOperator.single(1, 0, "Y")
    assert np.allclose(apply_pauli(zero, y).vector, [0.0, 1j])
    x = PauliOperator.single(1, 0, "X")
    assert np.allclose(apply_pauli(zero, x).vector, [0.0, 1.0])
    minus_z = PauliOperator(1, 0, 1, -1)
    assert np.allclose(apply_pauli(zero, minus_z).vector, [-1.0, 0.0])


def test_apply_pauli_is_involution():
    rng = random.Random(21)
    g = random_graph(4, rng)
    s = dense_state_vector(g)
    for _ in range(20):
        p = PauliOperator(4, rng.getrandbits(4), rng.getrandbits(4),
                          rng.choice((1, -1)))
        assert np.allclose(apply_pauli(apply_pauli(s, p), p).vector, s.vector)


def test_apply_pauli_size_mismatch():
    s = dense_state_vector(generate("path", 2))
    with pytest.raises(ValueError, match="size"):
        apply_pauli(s, PauliOperator.single(3, 0, "X"))


def test_expectation_values():
    s = dense_state_vector(generate("path", 2))
    for k in graph_state_tableau(generate("path", 2)).generators():
        assert expectation(s, k) == pytest.approx(1.0)
    z0 = PauliOperator.single(2, 0, "Z")
    assert expectation(s, z0) == pytest.approx(0.0)


def test_dense_measure_probabilities():
    s = dense_state_vector(generate("path", 2))
    (p_plus, p_minus), (post_plus, post_minus) = dense_measure(s, 0, "Z")
    assert p_plus == pytest.approx(0.5)
    assert p_minus == pytest.approx(0.5)
    for post in (post_plus, post_minus):
        assert post is not None
        assert np.linalg.norm(post.vector) == pytest.approx(1.0)


def test_dense_measure_deterministic_branch():
    s = dense_state_vector(Graph.from_edges(1, []))  # |+>
    (p_plus, p_minus), (post_plus, post_minus) = dense_measure(s, 0, "X")
    assert p_plus == pytest.approx(1.0)
    assert p_minus == pytest.approx(0.0)
    assert post_minus is None
    assert same_up_to_phase(post_plus, s)


def test_project_impossible_branch_raises():
    s = dense_state_vector(Graph.from_edges(1, []))
    with pytest.raises(ValueError, match="probability 0"):
        project(s, 0, "X", -1)
    with pytest.raises(ValueError, match="outcome"):
        project(s, 0, "X", 0)


def test_born_probabilities_are_stabilizer_valued():
    rng = random.Random(22)
    for _ in range(15):
        g = random_graph(5, rng)
        s = dense_state_vector(g)
        for q in range(5):
            for basis in "XYZ":
                (p_plus, p_minus), _ = dense_measure(s, q, basis)
                assert p_plus + p_minus == pytest.approx(1.0)
                assert min(abs(p_plus - v) for v in (0.0, 0.5, 1.0)) < 1e-12


def test_canonical_phase_fixes_the_representative():
    s = dense_state_vector(generate("path", 2))
    rotated = DenseState(2, np.exp(0.7j) * s.vector)
    fixed = canonical_phase(rotated)
    assert np.allclose(fixed.vector, s.vector)
    # already-canonical states pass through unchanged
    assert np.allclose(canonical_phase(s).vector, s.vector)


def test_measurement_posts_are_phase_canonical():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(4, rng)
        s = dense_state_vector(g)
        for basis in "XYZ":
            _, (post_plus, post_minus) = dense_measure(s, rng.randrange(4), basis)
            for post in (post_plus, post_minus):
                if post is None:
                    continue
                lead = next(v for v in post.vector if abs(v) > 1e-10)
                assert lead.imag == pytest.approx(0.0, abs=1e-12)
                assert lead.real > 0


def test_z_projection_deletes_the_vertex():
    # measuring Z at a with outcome +1 leaves the graph state of g minus a
    # (edges at a dropped) restricted to strings with bit a clear
    for g in (generate("path", 4), generate("cycle", 5), generate("grid", 2),
              generate("complete", 4), generate("binary_tree", 2)):
        for a in range(0, g.n, 2):
            post = project(dense_state_vector(g), a, "Z", 1)
            rest = Graph.from_edges(
                g.n, [e for e in g.edges() if a not in e])
            expected = dense_state_vector(rest).vector.copy()
            idx = np.arange(1 << g.n)
            expected[(idx >> a) & 1 == 1] = 0.0
            expected = expected / np.linalg.norm(expected)
            assert same_up_to_phase(post, DenseState(g.n, expected))
            assert np.allclose(post.vector, expected)


def test_same_up_to_phase():
    s = dense_state_vector(generate("path", 2))
    rotated = DenseState(2, np.exp(0.7j) * s.vector)
    assert same_up_to_phase(s, rotated)
    other = dense_state_vector(Graph.from_edges(2, []))
    assert not same_up_to_phase(s, other)
    assert not same_up_to_phase(s, dense_state_vector(Graph.from_edges(1, [])))


def test_fidelity_requires_matching_sizes():
    a = dense_state_vector(Graph.from_edges(1, []))
    b = dense_state_vector(Graph.from_edges(2, []))
    with pytest.raises(ValueError, match="sizes"):
        a.fidelity(b)

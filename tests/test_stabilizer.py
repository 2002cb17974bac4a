"""Stabilizer tableau mechanics, cross-checked against the dense oracle."""

import hashlib
import json
import random

import numpy as np
import pytest

from conftest import random_graph, reference_cut_rank, small_corpus
from gslogic import (
    DenseState,
    Graph,
    PauliOperator,
    SizeLimitError,
    StabilizerTableau,
    dense_measure,
    dense_state_vector,
    expectation,
    expectation_pauli,
    generate,
    graph_state_tableau,
    measure_pauli,
    multiply_paulis,
    neighbors,
    paulis_commute,
    project,
    simulate_pattern,
    stabilizer_residual,
)
from gslogic.dense import apply_pauli

# ------------------------------------------------------------- PauliOperator


def test_single_and_label():
    p = PauliOperator.single(3, 0, "X")
    assert p.label() == "+XII"
    assert PauliOperator.single(3, 2, "Y").label() == "+IIY"
    assert PauliOperator(2, 0b01, 0b10, -1).label() == "-XZ"
    assert PauliOperator.identity(2).label() == "+II"
    assert PauliOperator.identity(2).is_identity


def test_weight_and_basis_at():
    p = PauliOperator(3, 0b011, 0b110, 1)  # X Y Z
    assert p.weight == 3
    assert [p.basis_at(q) for q in range(3)] == ["X", "Y", "Z"]


def test_validation():
    with pytest.raises(ValueError, match="sign"):
        PauliOperator(1, 0, 0, 2)
    with pytest.raises(ValueError, match="out of range"):
        PauliOperator(1, 0b10, 0, 1)
    with pytest.raises(ValueError, match="qubit"):
        PauliOperator.single(2, 2, "X")
    with pytest.raises(ValueError, match="basis"):
        PauliOperator.single(2, 0, "W")


def test_commutation_rules():
    x0 = PauliOperator.single(2, 0, "X")
    z0 = PauliOperator.single(2, 0, "Z")
    z1 = PauliOperator.single(2, 1, "Z")
    assert not paulis_commute(x0, z0)
    assert paulis_commute(x0, z1)
    xx = PauliOperator(2, 0b11, 0, 1)
    zz = PauliOperator(2, 0, 0b11, 1)
    assert paulis_commute(xx, zz)


def test_multiply_known_products():
    xx = PauliOperator(2, 0b11, 0, 1)
    zz = PauliOperator(2, 0, 0b11, 1)
    assert multiply_paulis(xx, zz).label() == "-YY"
    assert multiply_paulis(zz, xx).label() == "-YY"
    x0 = PauliOperator.single(1, 0, "X")
    z0 = PauliOperator.single(1, 0, "Z")
    with pytest.raises(ValueError, match="anticommuting"):
        multiply_paulis(x0, z0)


def test_multiply_self_gives_identity():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(1, 6)
        p = PauliOperator(
            n,
            rng.getrandbits(n),
            rng.getrandbits(n),
            rng.choice((1, -1)),
        )
        assert multiply_paulis(p, p).is_identity


def test_commutation_matches_dense_action():
    # PQ = QP on a random state iff the symplectic parity is even;
    # anticommuting pairs satisfy PQ = -QP
    rng = random.Random(13)
    n = 3
    for _ in range(40):
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 1)
        q = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 1)
        vec = np.array([rng.gauss(0, 1) for _ in range(2**n)], dtype=complex)
        vec /= np.linalg.norm(vec)
        state = DenseState(n, vec)
        pq = apply_pauli(apply_pauli(state, q), p).vector
        qp = apply_pauli(apply_pauli(state, p), q).vector
        if paulis_commute(p, q):
            assert np.allclose(pq, qp)
        else:
            assert np.allclose(pq, -qp)


# ------------------------------------------------------------------ tableau


def test_graph_state_generators():
    t = graph_state_tableau(generate("path", 2))
    assert [p.label() for p in t.generators()] == ["+XZ", "+ZX"]
    t3 = graph_state_tableau(generate("cycle", 3))
    assert [p.label() for p in t3.generators()] == ["+XZZ", "+ZXZ", "+ZZX"]


def test_tableau_invariants_hold_for_corpus():
    for g in small_corpus():
        graph_state_tableau(g).check_invariants()


def test_tableau_rejects_bad_generator_sets():
    n2 = generate("path", 2)
    gens = graph_state_tableau(n2).generators()
    with pytest.raises(ValueError, match="dependent"):
        StabilizerTableau([gens[0], gens[0]])
    x0 = PauliOperator.single(2, 0, "X")
    z0 = PauliOperator.single(2, 0, "Z")
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerTableau([x0, z0])
    with pytest.raises(ValueError, match="exactly n"):
        StabilizerTableau([x0])


def test_expectation_of_generators_and_products():
    g = generate("grid", 2)
    t = graph_state_tableau(g)
    gens = t.generators()
    for k in gens:
        assert expectation_pauli(t, k) == 1
    prod = multiply_paulis(gens[0], gens[2])
    assert expectation_pauli(t, prod) == 1
    flipped = PauliOperator(prod.n, prod.x_bits, prod.z_bits, -prod.sign)
    assert expectation_pauli(t, flipped) == -1


def test_expectation_zero_for_anticommuting():
    t = graph_state_tableau(generate("path", 3))
    assert expectation_pauli(t, PauliOperator.single(3, 1, "Z")) == 0
    # single vertex: the state is |+>, so X is determined and Z, Y are not
    t1 = graph_state_tableau(Graph.from_edges(1, []))
    assert expectation_pauli(t1, PauliOperator.single(1, 0, "X")) == 1
    assert expectation_pauli(t1, PauliOperator.single(1, 0, "Z")) == 0
    assert expectation_pauli(t1, PauliOperator.single(1, 0, "Y")) == 0


def test_expectation_identity():
    t = graph_state_tableau(generate("path", 2))
    assert expectation_pauli(t, PauliOperator.identity(2)) == 1
    minus_i = PauliOperator(2, 0, 0, -1)
    assert expectation_pauli(t, minus_i) == -1


def test_expectation_matches_dense_oracle():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randrange(1, 7)
        g = random_graph(n, rng)
        t = graph_state_tableau(g)
        state = dense_state_vector(g)
        for _ in range(10):
            p = PauliOperator(
                n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1))
            )
            got = expectation_pauli(t, p)
            want = expectation(state, p)
            assert abs(got - want) < 1e-9


def test_measure_deterministic_branch():
    g = generate("cycle", 4)
    t = graph_state_tableau(g)
    k0 = t.generators()[0]
    outcome, prob = t.measure(k0)
    assert (outcome, prob) == (1, 1.0)
    # the stabilizer group is unchanged, so every K_a is still certain
    for k in graph_state_tableau(g).generators():
        assert t.expectation(k) == 1


def test_measure_forced_impossible_raises():
    t = graph_state_tableau(generate("path", 2))
    k0 = t.generators()[0]
    with pytest.raises(ValueError, match="probability 0"):
        t.measure(k0, forced_outcome=-1)
    with pytest.raises(ValueError, match="forced outcome"):
        t.measure(k0, forced_outcome=0)


def test_measure_random_branch_probability():
    t = graph_state_tableau(generate("path", 2))
    z0 = PauliOperator.single(2, 0, "Z")
    outcome, prob = t.measure(z0, forced_outcome=-1)
    assert (outcome, prob) == (-1, 0.5)
    # now Z0 is determined; measuring again is certain
    assert t.measure(z0) == (-1, 1.0)
    t.check_invariants()


def test_measure_seeded_rng_reproducible():
    rng_a = random.Random(99)
    rng_b = random.Random(99)
    seq_a = []
    seq_b = []
    for rng, seq in ((rng_a, seq_a), (rng_b, seq_b)):
        t = graph_state_tableau(generate("cycle", 5))
        for q in range(5):
            seq.append(t.measure(PauliOperator.single(5, q, "Z"), rng=rng))
    assert seq_a == seq_b


def test_measure_pauli_functional_wrapper():
    t = graph_state_tableau(generate("path", 3))
    before = [p.label() for p in t.generators()]
    outcome, prob, t2 = measure_pauli(t, PauliOperator.single(3, 0, "Z"), rng_seed=5)
    assert prob == 0.5 and outcome in (1, -1)
    assert [p.label() for p in t.generators()] == before
    assert t2 is not t
    t2.check_invariants()


def test_post_measurement_state_matches_dense_projection():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randrange(2, 6)
        g = random_graph(n, rng)
        t = graph_state_tableau(g)
        state = dense_state_vector(g)
        for _ in range(rng.randrange(1, n + 1)):
            q = rng.randrange(n)
            basis = rng.choice("XYZ")
            p = PauliOperator.single(n, q, basis)
            outcome, prob = t.measure(p, rng=rng)
            state = project(state, q, basis, outcome)
            t.check_invariants()
            for gen in t.generators():
                assert stabilizer_residual(state, gen) < 1e-9


def test_simulate_pattern_schema_and_determinism():
    g = generate("grid", 2)
    pattern = [(0, "Z"), (3, "X"), (1, "Y")]
    t1 = simulate_pattern(g, pattern, rng_seed=7)
    t2 = simulate_pattern(g, pattern, rng_seed=7)
    assert t1 == t2
    assert [rec["qubit"] for rec in t1] == [0, 3, 1]
    for rec in t1:
        assert set(rec) == {"qubit", "basis", "outcome", "probability"}
        assert rec["outcome"] in (1, -1)
        assert rec["probability"] in (0.5, 1.0)


def test_simulate_pattern_rejects_bad_patterns():
    g = generate("path", 3)
    with pytest.raises(ValueError, match="twice"):
        simulate_pattern(g, [(0, "Z"), (0, "X")])
    with pytest.raises(ValueError, match="qubit"):
        simulate_pattern(g, [(3, "Z")])
    with pytest.raises(ValueError, match="basis"):
        simulate_pattern(g, [(0, "Q")])
    with pytest.raises(ValueError, match="entry 3: qubit 1 measured twice"):
        simulate_pattern(g, [(1, "Z"), (0, "X"), (1, "Y")])
    with pytest.raises(ValueError, match="entry 2: qubit -1 out of range"):
        simulate_pattern(g, [(0, "Z"), (-1, "X")])
    with pytest.raises(ValueError, match="entry 2: basis"):
        simulate_pattern(g, [(0, "Z"), (1, "W")])


def test_simulate_pattern_empty_cases():
    assert simulate_pattern(generate("path", 2), []) == []
    assert simulate_pattern(Graph.from_edges(0, []), []) == []


def test_star_graph_z_measurements_correlate_with_center_x():
    # on a star, X(center) * prod Z(leaf) is a stabilizer: after measuring
    # all leaves in Z, the center X outcome is forced to the leaf product
    n = 5
    star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
    for seed in range(8):
        t = graph_state_tableau(star)
        rng = random.Random(seed)
        product = 1
        for leaf in range(1, n):
            outcome, _ = t.measure(PauliOperator.single(n, leaf, "Z"), rng=rng)
            product *= outcome
        outcome, prob = t.measure(PauliOperator.single(n, 0, "X"), rng=rng)
        assert prob == 1.0
        assert outcome == product


def test_mixed_multi_and_single_qubit_measurements_match_dense_oracle():
    # measurements of several-qubit Paulis take the general update, and
    # single-qubit ones decouple their qubit; interleaved, each must keep
    # the state the dense projection gives
    rng = random.Random(18)
    for _ in range(40):
        n = rng.randrange(2, 6)
        g = random_graph(n, rng)
        t = graph_state_tableau(g)
        state = dense_state_vector(g)
        for _ in range(2 * n):
            if rng.random() < 0.5:
                p = PauliOperator.single(n, rng.randrange(n), rng.choice("XYZ"))
            else:
                x, z = rng.getrandbits(n), rng.getrandbits(n)
                if not x | z:
                    continue
                p = PauliOperator(n, x, z, rng.choice((1, -1)))
            outcome, prob = t.measure(p, rng=rng)
            assert abs(prob - (1 + outcome * expectation(state, p)) / 2) < 1e-9
            raw = state.vector + outcome * apply_pauli(state, p).vector
            state = DenseState(n, raw / np.linalg.norm(raw))
            t.check_invariants()
            for gen in t.generators():
                assert stabilizer_residual(state, gen) < 1e-9


# ------------------------------------------------- tableaux not from a graph


def _shuffled_products(gens, rng):
    """The same stabilizer group under another generator list: shuffled,
    then each generator multiplied by random others."""
    gens = list(gens)
    rng.shuffle(gens)
    n = len(gens)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            gens[i] = multiply_paulis(gens[i], gens[j])
    return gens


def _check_against_dense(t, state, rng):
    n = t.n
    t.check_invariants()
    for _ in range(10):
        p = PauliOperator(
            n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1))
        )
        assert abs(t.expectation(p) - expectation(state, p)) < 1e-9
    q = rng.randrange(n)
    basis = rng.choice("XYZ")
    (p_plus, p_minus), _ = dense_measure(state, q, basis)
    outcome, prob = t.measure(PauliOperator.single(n, q, basis), rng=rng)
    assert abs(prob - (p_plus if outcome == 1 else p_minus)) < 1e-9
    t.check_invariants()
    return project(state, q, basis, outcome)


def test_destabilizers_of_generator_lists_match_dense_oracle():
    # StabilizerTableau(generators) derives its destabilizers by elimination;
    # expectations and measurements must not depend on the generator list
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randrange(1, 7)
        g = random_graph(n, rng)
        state = dense_state_vector(g)
        gens = _shuffled_products(graph_state_tableau(g).generators(), rng)
        t = StabilizerTableau(gens)
        _check_against_dense(t, state, rng)


def test_destabilizers_of_measured_generator_lists_match_dense_oracle():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(2, 7)
        g = random_graph(n, rng)
        t = graph_state_tableau(g)
        state = dense_state_vector(g)
        for _ in range(rng.randrange(1, n + 1)):
            q = rng.randrange(n)
            basis = rng.choice("XYZ")
            outcome, _ = t.measure(PauliOperator.single(n, q, basis), rng=rng)
            state = project(state, q, basis, outcome)
        rebuilt = StabilizerTableau(_shuffled_products(t.generators(), rng))
        state = _check_against_dense(rebuilt, state, rng)
        _check_against_dense(rebuilt, state, rng)


def test_copy_is_independent():
    t = graph_state_tableau(generate("cycle", 5))
    dup = t.copy()
    dup.measure(PauliOperator.single(5, 0, "Z"), forced_outcome=1)
    assert t.expectation(PauliOperator.single(5, 0, "Z")) == 0
    t.check_invariants()
    dup.check_invariants()


# ------------------------------------------ registers past the dense oracle


def test_large_grid_transcript_is_pinned():
    # a mixed X/Y/Z pattern over all 441 qubits of grid(21); the digest was
    # recorded with an implementation that found deterministic outcomes by
    # Gaussian elimination, not destabilizers, so it checks the two against
    # each other past the size the dense oracle reaches
    g = generate("grid", 21)
    rng = random.Random(20070122)
    order = list(range(g.n))
    rng.shuffle(order)
    pattern = [(q, rng.choice("XYZ")) for q in order]
    transcript = simulate_pattern(g, pattern, rng_seed=20070122)
    text = json.dumps(transcript, sort_keys=True)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "f93eacd9073fb40cb1627517d53f378de089477423c8ed1d311a0e877fcfd56b"
    )
    assert sum(rec["probability"] == 1.0 for rec in transcript) == 14


def test_tableau_size_limit_is_4096_qubits():
    assert graph_state_tableau(generate("grid", 64)).n == 4096
    with pytest.raises(SizeLimitError, match="4096"):
        graph_state_tableau(generate("grid", 65))  # 4,225 qubits


@pytest.mark.parametrize("kind", ["grid", "hexagonal"])
def test_carve_rule_on_large_lattice(kind):
    # measure one colour class in Z, then the other in X: K_a forces each X
    # outcome to the product of the Z outcomes on the neighbours of a
    k = 21
    g = generate(kind, k)
    colour = [(v // k + v % k) % 2 for v in range(g.n)]
    pattern = [(v, "Z") for v in range(g.n) if colour[v] == 0]
    pattern += [(v, "X") for v in range(g.n) if colour[v] == 1]
    transcript = simulate_pattern(g, pattern, rng_seed=5)
    z_outcome = {}
    for rec in transcript:
        v = rec["qubit"]
        if rec["basis"] == "Z":
            z_outcome[v] = rec["outcome"]
            continue
        assert rec["probability"] == 1.0
        product = 1
        for b in neighbors(g, v):
            product *= z_outcome[b]
        assert rec["outcome"] == product
    assert len(z_outcome) >= 200


@pytest.mark.parametrize("kind", ["grid", "triangular", "hexagonal"])
def test_random_single_qubit_measurement_decouples_its_qubit(kind):
    # after a random outcome of P on qubit q, generator k0 is +-P on q, its
    # destabilizer acts on q alone and anticommutes with P, and no other
    # row of either list touches q; checked on the rows, not the columns
    g = generate(kind, 32)
    n = g.n
    t = graph_state_tableau(g)
    rng = random.Random(20040311)
    order = list(range(n))
    rng.shuffle(order)
    randoms = 0
    for q in order:
        p = PauliOperator.single(n, q, rng.choice("XYZ"))
        outcome, prob = t.measure(p, rng=rng)
        if prob == 1.0:
            continue
        randoms += 1
        bit = 1 << q
        gens = [k for k in range(n) if (t.xs[k] | t.zs[k]) & bit]
        assert len(gens) == 1
        k0 = gens[0]
        assert (t.xs[k0], t.zs[k0]) == (p.x_bits, p.z_bits)
        assert t.expectation(p) == outcome
        assert t.dxs[k0] | t.dzs[k0] == bit
        assert not paulis_commute(PauliOperator(n, t.dxs[k0], t.dzs[k0]), p)
        assert [i for i in range(n) if (t.dxs[i] | t.dzs[i]) & bit] == [k0]
    assert randoms > n // 2
    t.check_invariants()


def _gf2_rank(rows):
    """Rank over GF(2) by elimination on the highest set bit."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def test_entanglement_after_z_measurements_is_cut_rank_of_deleted_graph():
    # Z on the vertices of S leaves the graph state of G - S (up to local
    # Paulis) and S in product states, so the entanglement across any cut A
    # is the cut-rank of G - S on A minus S; for a stabilizer state it is
    # the rank of the generators restricted to A, minus |A|
    g = generate("grid", 32)
    n = g.n
    rng = random.Random(62311)
    removed = {v for v in range(n) if rng.random() < 0.3}
    t = graph_state_tableau(g)
    for v in sorted(removed, key=lambda _: rng.random()):
        t.measure(PauliOperator.single(n, v, "Z"), rng=rng)
    kept = [(u, v) for u, v in g.edges() if u not in removed and v not in removed]
    minor = Graph.from_edges(n, kept)
    gens = t.generators()
    cuts = [
        {v for v in range(n) if rng.random() < 0.5},
        set(range(n // 2)),
        {v for v in range(n) if v % 32 < 8},
        set(rng.sample(range(n), 40)),
    ]
    for side in cuts:
        mask = sum(1 << v for v in side)
        rows = [(p.x_bits & mask) | ((p.z_bits & mask) << n) for p in gens]
        entanglement = _gf2_rank(rows) - len(side)
        assert entanglement == reference_cut_rank(minor, side - removed)
        assert entanglement > 0

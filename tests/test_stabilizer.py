"""Stabilizer tableau mechanics, cross-checked against the dense oracle."""

import hashlib
import json
import random

import numpy as np
import pytest

from conftest import entanglement_rank, random_graph, reference_cut_rank, small_corpus
from gslogic import (
    Graph,
    PauliOperator,
    SizeLimitError,
    StabilizerTableau,
    cut_rank,
    exact_rankwidth,
    generate,
    graph_state_tableau,
    multiply_paulis,
    neighbors,
    paulis_commute,
    simulate_pattern,
)
from gslogic.dense import (
    DenseState,
    apply_pauli,
    dense_measure,
    dense_state_vector,
    expectation,
    project,
    stabilizer_residual,
)
from gslogic.stabilizer import _FRAMES, _simulate

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


def test_product_operator_is_multiply_paulis():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 6)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        q = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        if paulis_commute(p, q):
            assert p * q == multiply_paulis(p, q)


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


def _measured_cycle_tableau():
    # a tableau whose rows and columns differ from the graph state's
    t = graph_state_tableau(generate("cycle", 4))
    t.measure(PauliOperator.single(4, 0, "X"), forced_outcome=1)
    t.measure(PauliOperator.single(4, 2, "Y"), forced_outcome=-1)
    t.check_invariants()
    return t


@pytest.mark.parametrize("cols", ["xcol", "zcol", "dxcol", "dzcol"])
def test_check_invariants_catches_a_corrupt_column_mask(cols):
    t = _measured_cycle_tableau()
    getattr(t, cols)[1] ^= 1 << 3
    with pytest.raises(ValueError, match=f"column masks {cols} do not match the rows"):
        t.check_invariants()


def test_check_invariants_catches_a_corrupt_destabilizer_row():
    # Z on qubit 1 added to destabilizer 0, in its row and in its column,
    # so that only the pairing check can see it
    t = _measured_cycle_tableau()
    t.dzs[0] ^= 1 << 1
    t.dzcol[1] ^= 1 << 0
    with pytest.raises(ValueError, match="destabilizer 0 does not pair with generator 0 alone"):
        t.check_invariants()


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
    # the smallest generator in an anticommuting pair, with its smallest
    # partner; generator 1 commutes with both
    x0, x1, z0 = (PauliOperator.single(3, q, b) for q, b in ((0, "X"), (1, "X"), (0, "Z")))
    with pytest.raises(ValueError, match="generators 0 and 2 anticommute"):
        StabilizerTableau([x0, x1, z0])


def test_operators_on_different_register_sizes_are_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        PauliOperator(-1, 0, 0)
    one, two = PauliOperator.single(1, 0, "X"), PauliOperator.single(2, 0, "X")
    with pytest.raises(ValueError, match="different register sizes"):
        paulis_commute(one, two)
    with pytest.raises(ValueError, match="different register sizes"):
        multiply_paulis(one, two)
    with pytest.raises(ValueError, match="different register sizes"):
        StabilizerTableau([two, PauliOperator.single(3, 1, "X")])
    tab = graph_state_tableau(generate("path", 2))
    with pytest.raises(ValueError, match="does not match the register"):
        tab.expectation(one)
    with pytest.raises(ValueError, match="does not match the register"):
        tab.measure(one)


def test_expectation_of_generators_and_products():
    g = generate("grid", 2)
    t = graph_state_tableau(g)
    gens = t.generators()
    for k in gens:
        assert t.expectation(k) == 1
    prod = multiply_paulis(gens[0], gens[2])
    assert t.expectation(prod) == 1
    flipped = PauliOperator(prod.n, prod.x_bits, prod.z_bits, -prod.sign)
    assert t.expectation(flipped) == -1


def test_expectation_zero_for_anticommuting():
    t = graph_state_tableau(generate("path", 3))
    assert t.expectation(PauliOperator.single(3, 1, "Z")) == 0
    # single vertex: the state is |+>, so X is determined and Z, Y are not
    t1 = graph_state_tableau(Graph.from_edges(1, []))
    assert t1.expectation(PauliOperator.single(1, 0, "X")) == 1
    assert t1.expectation(PauliOperator.single(1, 0, "Z")) == 0
    assert t1.expectation(PauliOperator.single(1, 0, "Y")) == 0


def test_expectation_identity():
    t = graph_state_tableau(generate("path", 2))
    assert t.expectation(PauliOperator.identity(2)) == 1
    minus_i = PauliOperator(2, 0, 0, -1)
    assert t.expectation(minus_i) == -1


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
            got = t.expectation(p)
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


def test_measure_without_rng_draws_from_the_module_rng():
    seqs, state = [], random.getstate()
    try:
        for _ in range(2):
            random.seed(99)
            t = graph_state_tableau(generate("cycle", 5))
            seqs.append([t.measure(PauliOperator.single(5, q, "Z")) for q in range(5)])
    finally:
        random.setstate(state)
    assert seqs[0] == seqs[1]
    assert {p for _, p in seqs[0]} <= {0.5, 1.0} and seqs[0][0][1] == 0.5


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
    # measurements of several-qubit and single-qubit Paulis take the same
    # update; interleaved, each must keep the state the dense projection
    # gives
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
def test_random_single_qubit_measurement_takes_the_general_update(kind):
    # a Pauli P on one qubit gets the update of any Pauli: the outcome is
    # determined exactly when no generator anticommutes with P, and after a
    # random outcome the lowest anticommuting generator k0 is +-P and
    # destabilizer k0 is the old generator k0; checked on the rows, not the
    # columns
    g = generate(kind, 32)
    n = g.n
    t = graph_state_tableau(g)
    rng = random.Random(20040311)
    order = list(range(n))
    rng.shuffle(order)
    randoms = 0
    for q in order:
        p = PauliOperator.single(n, q, rng.choice("XYZ"))
        # row k anticommutes with P iff its Pauli at q is neither I nor P
        px, pz = p.x_bits, p.z_bits
        anti = [k for k in range(n) if (t.xs[k] & pz) != (t.zs[k] & px)]
        old = (t.xs[anti[0]], t.zs[anti[0]]) if anti else None
        outcome, prob = t.measure(p, rng=rng)
        assert (prob == 1.0) == (not anti)
        if not anti:
            continue
        randoms += 1
        k0 = anti[0]
        assert (t.xs[k0], t.zs[k0]) == (px, pz)
        assert t.expectation(p) == outcome
        assert (t.dxs[k0], t.dzs[k0]) == old
    assert randoms > n // 2
    t.check_invariants()


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
    cuts = [
        {v for v in range(n) if rng.random() < 0.5},
        set(range(n // 2)),
        {v for v in range(n) if v % 32 < 8},
        set(rng.sample(range(n), 40)),
    ]
    for side in cuts:
        entanglement = entanglement_rank(t, sum(1 << v for v in side))
        assert entanglement == reference_cut_rank(minor, side - removed)
        assert entanglement > 0


# ------------------------------------------ graph rules against the tableau


def _tableau_transcript(g, pattern, seed):
    """simulate_pattern's transcript, measured on the tableau instead, and
    the tableau it leaves."""
    tab = graph_state_tableau(g)
    rng = random.Random(seed)
    transcript = []
    for q, basis in pattern:
        outcome, prob = tab.measure(PauliOperator.single(g.n, q, basis), rng=rng)
        transcript.append(
            {"qubit": q, "basis": basis, "outcome": outcome, "probability": prob}
        )
    return transcript, tab


def _conjugated(frame, pauli):
    """C sigma C^dag for the frame of C (the codes of C^dag X C, C^dag Y C,
    C^dag Z C) and sigma = X, Y, Z as 0, 1, 2: (sign, Pauli index)."""
    for sigma, code in enumerate(frame):
        if code >> 1 == pauli:
            return (-1 if code & 1 else 1), sigma
    raise AssertionError(f"frame {frame} is not a signed permutation")


def _rule_generators(n, transcript, adj, frames):
    """Generators of the state that the graph rules leave: outcome * sigma on
    each measured qubit, and C K_v C^dag on each other qubit v, with K_v
    read from the rows left and C the tensor product of the frames."""
    measured = {rec["qubit"]: rec for rec in transcript}
    for a, rec in measured.items():
        assert adj[a] == 0
        p = PauliOperator.single(n, a, rec["basis"])
        yield PauliOperator(n, p.x_bits, p.z_bits, rec["outcome"])
    for v in range(n):
        if v in measured:
            continue
        x = z = 0
        sign = 1
        for w, pauli in [(v, 0)] + [(w, 2) for w in range(n) if adj[v] >> w & 1]:
            assert w not in measured
            s, sigma = _conjugated(_FRAMES[frames[w]], pauli)
            sign *= s
            x |= (sigma != 2) << w
            z |= (sigma != 0) << w
        yield PauliOperator(n, x, z, sign)


def _assert_rules_match_tableau(g, pattern, seed):
    want, tab = _tableau_transcript(g, pattern, seed)
    got, adj, frames = _simulate(g, pattern, seed)
    assert got == want
    for gen in _rule_generators(g.n, got, adj, frames):
        assert tab.expectation(gen) == 1, (g.name, gen.label())
    return got


def _carve_pattern(kind, k, rng):
    """Z on all but one colour class of the colouring (r + c) mod colours,
    then X or Y on that class."""
    colours = 3 if kind == "triangular" else 2
    keep = rng.randrange(colours)
    colour = [sum(divmod(v, k)) % colours for v in range(k * k)]
    cover = [v for v in range(k * k) if colour[v] != keep]
    rest = [v for v in range(k * k) if colour[v] == keep]
    rng.shuffle(cover)
    rng.shuffle(rest)
    return [(v, "Z") for v in cover] + [(v, rng.choice("XXY")) for v in rest]


def test_graph_rules_match_tableau_on_small_graphs():
    # the same seed draws the same coins, so transcripts agree exactly and
    # the states left must be equal: every generator of the graph-rule state
    # has expectation +1 on the tableau
    rng = random.Random(62311)
    determined = isolated = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_graph(n, rng, rng.choice((0.15, 0.5, 0.85)))
        isolated += any(row == 0 for row in g.adj)
        order = rng.sample(range(n), rng.randint(0, n))
        pattern = [(q, rng.choice("XYZ")) for q in order]
        transcript = _assert_rules_match_tableau(g, pattern, rng.randrange(1 << 30))
        determined += sum(rec["probability"] == 1.0 for rec in transcript)
    assert determined > 200
    assert isolated > 100


@pytest.mark.parametrize("kind", ["grid", "triangular", "hexagonal"])
def test_graph_rules_match_tableau_on_lattices(kind):
    rng = random.Random(22334)
    for k in (16, 28):
        g = generate(kind, k)
        order = rng.sample(range(g.n), rng.randint(g.n // 2, g.n))
        pattern = [(q, rng.choice("XYZ")) for q in order]
        _assert_rules_match_tableau(g, pattern, rng.randrange(1 << 30))
        carve = _carve_pattern(kind, k, rng)
        transcript = _assert_rules_match_tableau(g, carve, rng.randrange(1 << 30))
        # the cover isolates the rest, where X is determined and Y is not
        assert all((rec["probability"] == 1.0) == (rec["basis"] == "X")
                   for rec in transcript)
    if kind == "grid":
        g = generate("grid", 64)
        order = rng.sample(range(g.n), 3 * g.n // 4)
        pattern = [(q, rng.choice("XYZ")) for q in order]
        _assert_rules_match_tableau(g, pattern, rng.randrange(1 << 30))


def test_x_pivots_on_the_lowest_neighbour_of_fewest_neighbours():
    # N(0) = {1, 4, 5}: vertex 1 (lowest) has neighbours {0, 2, 3}, and 4
    # and 5 only 0. The pivot takes b0 = 4: N(b0) - N[0] and N(0) ∩ N(b0)
    # are empty, so no pair toggles and 4 takes 0's place, adjacent to
    # N(0) - 4 = {1, 5}. Then sqrt(+iY) on 4 and Z on {1, 5} if r = +1,
    # sqrt(-iY) on 4 alone if r = -1
    g = Graph.from_edges(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)])
    rows = [0, 0b011100, 0b001010, 0b000110, 0b100010, 0b010000]
    identity, z = (0, 2, 4), (1, 3, 4)
    plus_iy, minus_iy = (5, 2, 0), (4, 2, 1)
    outcomes = set()
    for seed in range(8):
        transcript, adj, frames = _simulate(g, [(0, "X")], seed)
        assert adj == rows
        outcome = transcript[0]["outcome"]
        outcomes.add(outcome)
        want = [identity] * 6
        if outcome > 0:
            want[4], want[1], want[5] = plus_iy, z, z
        else:
            want[4] = minus_iy
        assert [_FRAMES[f] for f in frames] == want
        _assert_rules_match_tableau(g, [(0, "X"), (4, "Y"), (1, "X")], seed)
    assert outcomes == {1, -1}


def test_x_pivots_keep_the_vertex_minor_sparse():
    # 3/4 of triangular:64 in random bases, five seeded draws. Pivoting on
    # a's lowest neighbour left 43,916 + 37,724 + 45,476 + 59,433 + 59,121
    # = 245,670 edges; the neighbour of fewest neighbours leaves about a
    # quarter. One draw alone is too noisy to bound: of ten others, one
    # went from 39,334 only to 20,630 edges
    g = generate("triangular", 64)
    rng = random.Random(62311)
    edges = 0
    for _ in range(5):
        order = rng.sample(range(g.n), 3 * g.n // 4)
        pattern = [(q, rng.choice("XYZ")) for q in order]
        _, adj, _ = _simulate(g, pattern, rng.randrange(1 << 30))
        edges += sum(row.bit_count() for row in adj) // 2
    assert edges <= 245_670 // 3


@pytest.mark.parametrize("kind", ["grid", "triangular", "hexagonal"])
def test_entanglement_after_pattern_prefixes_is_cut_rank_of_vertex_minor(kind):
    # a Pauli pattern leaves the graph state of the vertex-minor G' up to
    # local Cliffords, which keep entanglement; so across every cut A the
    # tableau's entanglement is the cut-rank of G' on A minus the measured
    rng = random.Random(2006)
    for k in (8, 20, 28):
        g = generate(kind, k)
        n = g.n
        order = rng.sample(range(n), rng.randint(n // 4, 3 * n // 4))
        pattern = [(q, rng.choice("XYZ")) for q in order]
        seed = rng.randrange(1 << 30)
        _, tab = _tableau_transcript(g, pattern, seed)
        _, adj, _ = _simulate(g, pattern, seed)
        minor = Graph(n, tuple(adj))
        measured = set(order)
        cuts = [
            {v for v in range(n) if rng.random() < 0.5},
            set(range(n // 2)),
            {v for v in range(n) if v % k < k // 3},
        ]
        ranks = [entanglement_rank(tab, sum(1 << v for v in side)) for side in cuts]
        assert ranks == [cut_rank(minor, side - measured) for side in cuts]
        assert max(ranks) > 0


def test_pattern_prefixes_never_raise_rank_width():
    # G' is a vertex-minor of G plus isolated measured qubits, and rank-width
    # does not grow under vertex-minors (Oum, JCTB 95, 2005); kept to 14
    # vertices, where the exact search stays below 0.1 s a graph
    rng = random.Random(952005)
    graphs = [generate(kind, 3) for kind in ("grid", "triangular", "hexagonal")]
    graphs += [random_graph(rng.randint(8, 14), rng, rng.choice((0.3, 0.5, 0.7)))
               for _ in range(60)]
    drops = 0
    for g in graphs:
        order = rng.sample(range(g.n), rng.randint(1, g.n))
        pattern = [(q, rng.choice("XYZ")) for q in order]
        _, adj, _ = _simulate(g, pattern, rng.randrange(1 << 30))
        width, _ = exact_rankwidth(g)
        minor_width, _ = exact_rankwidth(Graph(g.n, tuple(adj)))
        assert minor_width <= width, (g.name, pattern)
        drops += minor_width < width
    assert drops > 10

"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Each criterion states its own tolerance; oracles used here are
deliberately independent re-implementations (exhaustive coloring, union-find,
double-factorial recurrence, exact Gaussian-integer state replay).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from conftest import all_graphs, exhaustive_rankwidth, random_graph, small_corpus
from gslogic import (
    DenseState,
    Graph,
    PauliOperator,
    cut_rank,
    decomposition_width,
    dense_state_vector,
    enumerate_subcubic_trees,
    evaluate,
    exact_rankwidth,
    generate,
    graph_state_tableau,
    named_formula,
    simulate_pattern,
    stabilizer_residual,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


# ------------------------------------------------------------------ oracles


def bipartite_by_exhaustive_coloring(g: Graph) -> bool:
    edges = g.edges()
    return any(
        all((((mask >> u) ^ (mask >> v)) & 1) for u, v in edges)
        for mask in range(1 << g.n)
    )


def connected_by_union_find(g: Graph) -> bool:
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = g.n
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components <= 1


class ExactState:
    """Unnormalized graph-state vector over the Gaussian integers.

    Pauli action and measurement projection keep every amplitude an exact
    integer pair, so Born probabilities come out as exact fractions and
    the comparison with the tableau's 0.5/1.0 is literal equality.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        edges = g.edges()
        amps = []
        for s in range(1 << g.n):
            inside = sum(1 for u, v in edges if (s >> u) & (s >> v) & 1)
            amps.append(((-1) ** inside, 0))
        self.amps = amps

    @staticmethod
    def _rotate(re: int, im: int, t: int) -> tuple[int, int]:
        # multiply by i^t
        if t == 0:
            return re, im
        if t == 1:
            return -im, re
        if t == 2:
            return -re, -im
        return im, -re

    def apply(self, p: PauliOperator) -> list[tuple[int, int]]:
        t = (p.x_bits & p.z_bits).bit_count() % 4
        if p.sign == -1:
            t = (t + 2) % 4
        out: list[tuple[int, int]] = [(0, 0)] * len(self.amps)
        for s, (re, im) in enumerate(self.amps):
            tt = (t + 2 * ((s & p.z_bits).bit_count() & 1)) % 4
            out[s ^ p.x_bits] = self._rotate(re, im, tt)
        return out

    def norm2(self) -> int:
        return sum(re * re + im * im for re, im in self.amps)

    def project(self, p: PauliOperator, outcome: int) -> Fraction:
        """Project onto the outcome branch (without renormalizing) and
        return the exact Born probability of that branch."""
        moved = self.apply(p)
        before = self.norm2()
        projected = [
            (re + outcome * mre, im + outcome * mim)
            for (re, im), (mre, mim) in zip(self.amps, moved)
        ]
        self.amps = projected
        # the projector is (1 + outcome*P)/2; the skipped /2 costs a 4 here
        return Fraction(self.norm2(), 4 * before)

    def to_dense(self) -> DenseState:
        vec = np.array([complex(re, im) for re, im in self.amps])
        return DenseState(self.n, vec / np.linalg.norm(vec))


# --------------------------------------------------------------- criteria


def test_criterion_1_chain_rankwidth():
    with criterion(1, "exact rank-width of path(n) is 1 for n = 2..8"):
        t0 = time.perf_counter()
        for n in range(2, 9):
            width, decomp = exact_rankwidth(generate("path", n))
            assert width == 1, f"path({n}) gave width {width}"
            assert decomp is not None and decomp.width == 1
        assert time.perf_counter() - t0 < 60


def test_criterion_2_grid_growth():
    with criterion(2, "grid(2) width < grid(3) width, exhaustive walk agrees"):
        t0 = time.perf_counter()
        w2, _ = exact_rankwidth(generate("grid", 2))
        grid3 = generate("grid", 3)
        w3, witness = exact_rankwidth(grid3)
        assert w2 < w3, f"expected growth, got {w2} vs {w3}"
        assert w3 == exhaustive_rankwidth(grid3)
        assert decomposition_width(grid3, witness.tree) == w3
        assert time.perf_counter() - t0 < 600


def test_criterion_3_tree_counts():
    with criterion(3, "subcubic tree enumeration counts are 1, 3, 15, 105, 945"):
        expected = [1, 3, 15, 105, 945]
        for n, want in zip(range(3, 8), expected):
            got = sum(1 for _ in enumerate_subcubic_trees(n))
            assert got == want, f"n={n}: {got} trees"
            recurrence = 1
            for k in range(3, n + 1):
                recurrence *= 2 * k - 5
            assert got == recurrence


def test_criterion_4_cut_rank_properties():
    with criterion(4, "cut-rank symmetry and min-side bound on all bipartitions"):
        for g in small_corpus():
            assert g.n <= 8
            for mask in range(1 << g.n):
                side = [v for v in range(g.n) if (mask >> v) & 1]
                rest = [v for v in range(g.n) if not (mask >> v) & 1]
                r = cut_rank(g, side)
                assert r == cut_rank(g, rest), (g.name, side)
                assert r <= min(len(side), len(rest)), (g.name, side)


def test_criterion_5_logic_oracle_equivalence():
    with criterion(5, "formula evaluation matches coloring/union-find oracles"):
        t0 = time.perf_counter()
        two_col = named_formula("two_colorable")
        conn = named_formula("connected")
        for n in range(6):
            count = 0
            for g in all_graphs(n):
                count += 1
                assert evaluate(g, two_col) == bipartite_by_exhaustive_coloring(g)
                assert evaluate(g, conn) == connected_by_union_find(g)
            if n == 5:
                assert count == 1024
        rng = random.Random(20240812)
        for _ in range(500):
            g = random_graph(6, rng, p=rng.choice((0.2, 0.4, 0.6)))
            assert evaluate(g, two_col) == bipartite_by_exhaustive_coloring(g)
            assert evaluate(g, conn) == connected_by_union_find(g)
        assert time.perf_counter() - t0 < 600


def test_criterion_6_concrete_formula_verdicts():
    with criterion(6, "length-2 path and 2-coloring formulas give the known verdicts"):
        path2 = named_formula("path2")
        assert evaluate(generate("path", 3), path2) is True
        assert evaluate(Graph.from_edges(3, []), path2) is False
        two_col = named_formula("two_colorable")
        assert evaluate(generate("cycle", 3), two_col) is False
        assert evaluate(generate("cycle", 4), two_col) is True


def test_criterion_7_graph_state_correlations():
    with criterion(7, "every correlation operator has expectation +1; dense agrees"):
        cases = [generate("path", n) for n in (2, 5, 16, 64)]
        cases += [generate("cycle", n) for n in (3, 17, 64)]
        cases += [generate("grid", k) for k in (1, 3, 8)]
        cases += [generate("triangular", k) for k in (2, 8)]
        cases += [generate("hexagonal", k) for k in (2, 8)]
        cases += [generate("complete", n) for n in (2, 9, 64)]
        cases += [generate("binary_tree", d) for d in (1, 3, 5)]
        for g in cases:
            assert g.n <= 64
            tab = graph_state_tableau(g)
            for k in tab.generators():
                assert tab.expectation(k) == 1, g.name
        for g in cases:
            if g.n > 10:
                continue
            state = dense_state_vector(g)
            for k in graph_state_tableau(g).generators():
                assert stabilizer_residual(state, k) <= 1e-10, g.name


def test_criterion_8_simulator_matches_exact_oracle():
    with criterion(8, "tableau Born probabilities and post-states match the oracle"):
        for g in small_corpus():
            assert g.n <= 8
            if g.n == 0:
                continue
            rng = random.Random(g.n * 1000 + g.edge_count)
            for trial in range(100):
                qubits = rng.sample(range(g.n), rng.randrange(1, g.n + 1))
                bases = [rng.choice("XYZ") for _ in qubits]
                tableau = graph_state_tableau(g)
                exact = ExactState(g)
                for q, basis in zip(qubits, bases):
                    p = PauliOperator.single(g.n, q, basis)
                    outcome, prob = tableau.measure(p, rng=rng)
                    born = exact.project(p, outcome)
                    assert Fraction(prob) == born, (g.name, trial, q, basis)
                post = exact.to_dense()
                for gen in tableau.generators():
                    assert stabilizer_residual(post, gen) < 1e-9, (g.name, trial)


def test_criterion_9_determinism():
    with criterion(9, "seeded transcripts and search witnesses are reproducible"):
        g = generate("grid", 3)
        pattern = [(0, "Z"), (4, "X"), (8, "Y"), (2, "Z"), (6, "X")]
        a = simulate_pattern(g, pattern, rng_seed=123)
        b = simulate_pattern(g, pattern, rng_seed=123)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        first = exact_rankwidth(g)
        second = exact_rankwidth(g)
        assert first == second
        assert first[1].tree == second[1].tree

"""Stabilizer simulation of graph states and Pauli measurements.

A graph state on n qubits is the joint +1 eigenstate of the n correlation
operators K_a = X_a * prod_{b ~ a} Z_b, one per vertex.

`simulate_pattern` measures one-qubit Paulis on a fresh graph state by
graph rules, with no tableau. Measuring a qubit of a graph state in a Pauli
basis leaves the other qubits in the graph state of a vertex-minor of the
graph, up to one-qubit Cliffords (Hein, Eisert and Briegel, PRA 69, 062311,
2004). The state is therefore kept as C |G'>: adjacency rows G' and one
frame C_v per qubit, one of the 24 one-qubit Cliffords (as in Anders and
Briegel, PRA 73, 022334, 2006). Measuring sigma on qubit a reads its frame,
C_a^dag sigma C_a = s sigma', and measures sigma' on |G'> with outcome
r = s * outcome. If a is isolated, sigma' = X gives r = +1 with probability
1 and Y or Z a fair coin; otherwise every outcome is a fair coin. Then a is
deleted and the rule for sigma' changes the rows and frames:

- Z: nothing more; Z on N(a) if r = -1;
- Y: local complementation at a; sqrt(-iZ) on N(a) if r = +1, sqrt(+iZ)
  if r = -1;
- X: a pivot on the edge from a to a neighbour b0, any one of N(a);
  sqrt(+iY) on b0 and Z on N(a) - N[b0] if r = +1, sqrt(-iY) on b0 and
  Z on N(b0) - N[a] if r = -1. b0 is the neighbour with the fewest
  neighbours, the lowest of those, which keeps the pivot small and the
  graph sparse.

That costs one big-int operation per neighbour whose row or frame changes.

`StabilizerTableau` holds any stabilizer state and measures any Pauli
observable, also one on several qubits; it is the general-Pauli type, and
the tests check the graph rules against it. It keeps n generators of the
stabilizer group as X/Z bitmasks with signs, so single Pauli measurements
cost polynomial work regardless of n.

Sign bookkeeping uses an internal phase exponent t modulo 4: a generator
with bitmasks (x, z) and phase t denotes i^t X^x Z^z, where X^x is the
tensor product of X on the set bits of x. Hermitian Pauli operators are
exactly those with t == popcount(x & z) (mod 2), i.e. one factor of i per
Y; the public sign is then +1 or -1.

Following Aaronson and Gottesman ("Improved simulation of stabilizer
circuits", PRA 70, 052328, 2004), the tableau also keeps one destabilizer
d_i per generator S_i, with the invariant that d_i anticommutes with S_i
and commutes with every other generator. For a graph state d_a = Z_a. Both
lists are stored twice: as rows (one bitmask over the qubits per operator)
and as columns (for each qubit, a bitmask over the operators that carry X
there, and one for Z). Every tableau is built from its rows by one private
path that derives the columns by transposing them; `measure` then keeps
the columns in step with the rows. Measuring a Pauli p costs:

- one XOR of columns per qubit in the support of p to find the generators
  that anticommute with p (O(1) big-int operations for a single qubit);
- if there are none, the outcome is determined: p is, up to sign, the
  product of the generators whose destabilizers anticommute with p, found
  the same way, and its sign is that product's phase, with no elimination;
- otherwise the outcome is a fair coin. The first anticommuting generator
  S_k is multiplied into every other generator and destabilizer that
  anticommutes with p, d_k becomes the old S_k, and S_k becomes +-p, the
  same update for a p on one qubit or on several. That is one big-int
  operation per changed row, plus one per qubit in the support of the old
  S_k, the old d_k and p to update the columns.
"""

from __future__ import annotations

import random

from .errors import InputError, SizeLimitError
from .gf2 import _bits, gf2_dual_basis
from .graphs import Graph, _Frozen

__all__ = [
    "PauliOperator",
    "StabilizerTableau",
    "paulis_commute",
    "multiply_paulis",
    "graph_state_tableau",
    "simulate_pattern",
]

# the measurement bases, each letter with its Pauli's index in a frame
_BASIS_CODE = {"X": 0, "Y": 1, "Z": 2}


def _sign(rel: int, message: str) -> int:
    # a phase i^rel (mod 4) is the sign +1 for 0 and -1 for 2; an odd one
    # is not a sign of a Hermitian Pauli
    if rel == 0:
        return 1
    if rel == 2:
        return -1
    raise ValueError(message)


def _times(t: int, x: int, z: int, t2: int, x2: int, z2: int) -> tuple[int, int, int]:
    """(i^t X^x Z^z)(i^t2 X^x2 Z^z2) as (t, x, z): moving Z^z right past
    X^x2 gives a factor (-1)^|z & x2|."""
    return (t + t2 + 2 * (z & x2).bit_count()) % 4, x ^ x2, z ^ z2


def _phase_t(x_bits: int, z_bits: int, sign: int) -> int:
    # internal exponent of i for sign * (i^|Y|) X^x Z^z written as i^t X^x Z^z
    t = (x_bits & z_bits).bit_count() % 4
    if sign == -1:
        t = (t + 2) % 4
    return t


class PauliOperator(_Frozen):
    """A signed n-qubit Pauli operator: sign times a tensor of I/X/Y/Z.

    Qubit a carries X when bit a of x_bits is set, Z when bit a of z_bits
    is set, Y when both are set, identity otherwise.
    """

    __slots__ = _fields = ("n", "x_bits", "z_bits", "sign")
    n: int
    x_bits: int
    z_bits: int
    sign: int

    def __init__(self, n: int, x_bits: int, z_bits: int, sign: int = 1) -> None:
        super().__init__(n, x_bits, z_bits, sign)

    def _check(self) -> None:
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        full = (1 << self.n) - 1
        if not 0 <= self.x_bits <= full or not 0 <= self.z_bits <= full:
            raise ValueError("bitmask out of range for the qubit count")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 1)

    @classmethod
    def single(cls, n: int, qubit: int, basis: str) -> "PauliOperator":
        """X, Y or Z acting on one qubit of an n-qubit register."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if basis not in _BASIS_CODE:
            raise ValueError(f"basis must be one of X, Y, Z, got {basis!r}")
        code, bit = _BASIS_CODE[basis], 1 << qubit
        # X and Y carry an X factor, Y and Z a Z factor
        return cls(n, bit if code < 2 else 0, bit if code else 0, 1)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0 and self.sign == 1

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def basis_at(self, qubit: int) -> str:
        x = (self.x_bits >> qubit) & 1
        z = (self.z_bits >> qubit) & 1
        return ("I", "X", "Z", "Y")[x + 2 * z]

    def label(self) -> str:
        """Readable form like '-XIZ' with qubit 0 leftmost."""
        letters = "".join(self.basis_at(q) for q in range(self.n))
        return ("+" if self.sign == 1 else "-") + letters

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply_paulis(self, other)


def paulis_commute(p: PauliOperator, q: PauliOperator) -> bool:
    """Two Paulis commute iff their symplectic product is even."""
    if p.n != q.n:
        raise ValueError("operators act on different register sizes")
    parity = ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) % 2
    return parity == 0


def multiply_paulis(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Product p*q; defined only when the factors commute, because the
    product of anticommuting Hermitian Paulis carries a factor of i."""
    if p.n != q.n:
        raise ValueError("operators act on different register sizes")
    t, x, z = _times(_phase_t(p.x_bits, p.z_bits, p.sign), p.x_bits, p.z_bits,
                     _phase_t(q.x_bits, q.z_bits, q.sign), q.x_bits, q.z_bits)
    sign = _sign((t - (x & z).bit_count()) % 4,
                 "product of anticommuting Paulis is not a signed Pauli")
    return PauliOperator(p.n, x, z, sign)


def _transpose(rows: list[int], width: int) -> list[int]:
    """Column masks of a bit matrix: bit k of column q is bit q of row k."""
    cols = [0] * width
    for k, row in enumerate(rows):
        bit = 1 << k
        for q in _bits(row):
            cols[q] |= bit
    return cols


def _anticommuting(x_bits: int, z_bits: int, xcol: list[int], zcol: list[int]) -> int:
    """Bitmask over the rows of a column-stored Pauli list that anticommute
    with X^x Z^z: one XOR per qubit in its support."""
    mask = 0
    for q in _bits(z_bits):
        mask ^= xcol[q]
    for q in _bits(x_bits):
        mask ^= zcol[q]
    return mask


class StabilizerTableau:
    """n independent, pairwise commuting stabilizer generators of an
    n-qubit state, stored as parallel bitmask lists with mod-4 phases,
    together with their destabilizers and the column masks of both."""

    def __init__(self, generators: list[PauliOperator]):
        n = generators[0].n if generators else 0
        if len(generators) != n:
            raise ValueError(f"need exactly n={n} generators, got {len(generators)}")
        if any(g.n != n for g in generators):
            raise ValueError("generators act on different register sizes")
        xs = [g.x_bits for g in generators]
        zs = [g.z_bits for g in generators]
        ts = [_phase_t(g.x_bits, g.z_bits, g.sign) for g in generators]
        # with v = z | x << n for a generator, the symplectic product of a
        # destabilizer d = dx | dz << n with it is the dot product of d and v,
        # so the destabilizers are the dual basis of the generators' v
        ds = gf2_dual_basis([z | (x << n) for x, z in zip(xs, zs)])
        full = (1 << n) - 1
        self._set_rows(n, xs, zs, ts, [d & full for d in ds], [d >> n for d in ds])
        self.check_invariants()

    def _set_rows(self, n, xs, zs, ts, dxs, dzs) -> None:
        """Take over the generator and destabilizer rows, not copied, and
        derive their column masks."""
        self.n = n
        self.xs, self.zs, self.ts = xs, zs, ts
        self.dxs, self.dzs = dxs, dzs
        self.xcol, self.zcol, self.dxcol, self.dzcol = (
            _transpose(rows, n) for rows in (xs, zs, dxs, dzs)
        )

    def copy(self) -> "StabilizerTableau":
        dup = StabilizerTableau.__new__(StabilizerTableau)
        rows = (self.xs, self.zs, self.ts, self.dxs, self.dzs)
        dup._set_rows(self.n, *map(list, rows))
        return dup

    def _sign_of(self, k: int) -> int:
        rel = (self.ts[k] - (self.xs[k] & self.zs[k]).bit_count()) % 4
        return _sign(rel, f"generator {k} is not Hermitian")

    def generators(self) -> list[PauliOperator]:
        return [
            PauliOperator(self.n, self.xs[k], self.zs[k], self._sign_of(k))
            for k in range(self.n)
        ]

    def check_invariants(self) -> None:
        """Raise ValueError unless the generators are Hermitian and pairwise
        commuting, destabilizer i anticommutes with generator i and with no
        other generator (which makes the generators independent), and the
        column masks match the rows."""
        n = self.n
        for k in range(n):
            self._sign_of(k)
        pairs = (("xs", "xcol"), ("zs", "zcol"), ("dxs", "dxcol"), ("dzs", "dzcol"))
        for rows, cols in pairs:
            if _transpose(getattr(self, rows), n) != getattr(self, cols):
                raise ValueError(f"column masks {cols} do not match the rows")
        for i in range(n):
            # the first i found is the smallest generator in an
            # anticommuting pair, and its lowest bit its smallest partner
            anti = _anticommuting(self.xs[i], self.zs[i], self.xcol, self.zcol)
            if anti:
                raise ValueError(f"generators {i} and {next(_bits(anti))} anticommute")
        for i in range(n):
            if _anticommuting(self.dxs[i], self.dzs[i], self.xcol, self.zcol) != 1 << i:
                raise ValueError(
                    f"destabilizer {i} does not pair with generator {i} alone"
                )

    # -------------------------------------------------- expectation values

    def _determined(self, p: PauliOperator) -> int:
        """Eigenvalue of an observable p that commutes with every generator.
        p is then the product of the generators whose destabilizers
        anticommute with it, up to sign; the sign is read off that product.
        RuntimeError means the tableau broke its own invariants."""
        combo = _anticommuting(p.x_bits, p.z_bits, self.dxcol, self.dzcol)
        x = z = t = 0
        for k in _bits(combo):
            t, x, z = _times(t, x, z, self.ts[k], self.xs[k], self.zs[k])
        if x != p.x_bits or z != p.z_bits:
            raise RuntimeError("operator is outside the stabilizer span")
        diff = (t - _phase_t(p.x_bits, p.z_bits, p.sign)) % 4
        if diff % 2:
            raise RuntimeError("inconsistent phase; tableau is corrupt")
        return 1 - diff

    def expectation(self, p: PauliOperator) -> int:
        """<psi| p |psi> for the stabilized state: always -1, 0, or +1."""
        if p.n != self.n:
            raise ValueError("operator size does not match the register")
        if _anticommuting(p.x_bits, p.z_bits, self.xcol, self.zcol):
            return 0
        return self._determined(p)

    # -------------------------------------------------------- measurement

    def measure(
        self,
        p: PauliOperator,
        forced_outcome: int | None = None,
        rng: random.Random | None = None,
    ) -> tuple[int, float]:
        """Measure the observable p, updating the tableau in place.

        Returns (outcome, probability) with outcome in {+1, -1}. When the
        observable commutes with every generator the outcome is determined
        and has probability 1.0; forcing the other value raises ValueError.
        Otherwise both outcomes have probability 0.5 and one is drawn from
        rng (or the module RNG) unless forced_outcome picks it.
        """
        if p.n != self.n:
            raise ValueError("operator size does not match the register")
        if forced_outcome is not None and forced_outcome not in (1, -1):
            raise ValueError("forced outcome must be +1 or -1")
        px, pz = p.x_bits, p.z_bits
        anti = _anticommuting(px, pz, self.xcol, self.zcol)
        if not anti:
            outcome = self._determined(p)
            if forced_outcome is not None and forced_outcome != outcome:
                raise ValueError(
                    f"outcome {forced_outcome:+d} has probability 0 "
                    f"(the observable is determined to be {outcome:+d})"
                )
            return outcome, 1.0
        if forced_outcome is not None:
            outcome = forced_outcome
        else:
            if rng is None:
                rng = random
            outcome = 1 if rng.random() < 0.5 else -1
        xs, zs, ts = self.xs, self.zs, self.ts
        dxs, dzs = self.dxs, self.dzs
        # the first anticommuting generator k0 is multiplied into the other
        # anticommuting generators and into every other destabilizer that
        # anticommutes with p; then generator k0 becomes outcome * p and
        # destabilizer k0 the old generator k0, which anticommutes with p
        # and commutes with every other generator
        k0_bit = anti & -anti
        k0 = k0_bit.bit_length() - 1
        x0, z0, t0 = xs[k0], zs[k0], ts[k0]
        rest = anti ^ k0_bit
        for k in _bits(rest):
            ts[k], xs[k], zs[k] = _times(t0, x0, z0, ts[k], xs[k], zs[k])
        drest = _anticommuting(px, pz, self.dxcol, self.dzcol) & ~k0_bit
        for i in _bits(drest):
            dxs[i] ^= x0
            dzs[i] ^= z0
        t_new = _phase_t(px, pz, p.sign)
        if outcome == -1:
            t_new = (t_new + 2) % 4
        # columns: rows in rest and drest gained the old generator k0, row
        # k0 of the generators trades it for p, and row k0 of the
        # destabilizers trades its old value for the new one
        xcol, zcol, dxcol, dzcol = self.xcol, self.zcol, self.dxcol, self.dzcol
        for q in _bits(x0):
            xcol[q] ^= anti
            dxcol[q] ^= drest
        for q in _bits(z0):
            zcol[q] ^= anti
            dzcol[q] ^= drest
        for q in _bits(px):
            xcol[q] ^= k0_bit
        for q in _bits(pz):
            zcol[q] ^= k0_bit
        for q in _bits(dxs[k0] ^ x0):
            dxcol[q] ^= k0_bit
        for q in _bits(dzs[k0] ^ z0):
            dzcol[q] ^= k0_bit
        dxs[k0], dzs[k0] = x0, z0
        xs[k0], zs[k0] = px, pz
        ts[k0] = t_new
        return outcome, 0.5


def graph_state_tableau(g: Graph) -> StabilizerTableau:
    """Tableau of the graph state: generator a is X on a and Z on each
    neighbor of a, all with sign +1; its destabilizer is Z on a."""
    if g.n > 4096:
        raise SizeLimitError("refusing a tableau with more than 4096 qubits")
    n = g.n
    tab = StabilizerTableau.__new__(StabilizerTableau)
    singles = [1 << a for a in range(n)]
    tab._set_rows(n, singles, list(g.adj), [0] * n, [0] * n, list(singles))
    return tab


# ------------------------------------------------- local-Clifford frames
#
# A signed Pauli is the code 2 * p + (1 if its sign is -1), with p = 0, 1, 2
# for X, Y, Z. A frame is a one-qubit Clifford C, stored as the codes of
# C^dag X C, C^dag Y C and C^dag Z C. The corrections of the measurement
# rules, as the same maps sigma -> U^dag sigma U:
_CORRECTIONS = (
    (1, 3, 4),  # Z
    (3, 0, 4),  # sqrt(-iZ)
    (2, 1, 4),  # sqrt(+iZ)
    (5, 2, 0),  # sqrt(+iY)
    (4, 2, 1),  # sqrt(-iY)
)


def _frame_tables():
    """The 24 frames, closed under the corrections from the identity, and
    for each correction the index of C*U for every frame index of C."""
    frames = [(0, 2, 4)]
    index = {frames[0]: 0}
    steps = tuple([] for _ in _CORRECTIONS)
    for frame in frames:  # grows until no correction makes a new frame
        for step, u in zip(steps, _CORRECTIONS):
            # (CU)^dag sigma (CU) = U^dag (C^dag sigma C) U
            new = tuple(u[c >> 1] ^ (c & 1) for c in frame)
            if new not in index:
                index[new] = len(frames)
                frames.append(new)
            step.append(index[new])
    return tuple(frames), tuple(map(tuple, steps))


_FRAMES, (_Z, _MINUS_IZ, _PLUS_IZ, _PLUS_IY, _MINUS_IY) = _frame_tables()


def _check_pattern(n: int, pattern) -> None:
    seen = set()
    for pos, (qubit, basis) in enumerate(pattern, start=1):
        if qubit in seen:
            raise InputError(f"pattern entry {pos}: qubit {qubit} measured twice")
        seen.add(qubit)
        if not 0 <= qubit < n:
            raise InputError(f"pattern entry {pos}: qubit {qubit} out of range for n={n}")
        if basis not in _BASIS_CODE:
            raise InputError(
                f"pattern entry {pos}: basis must be one of X, Y, Z, got {basis!r}"
            )


def _simulate(g: Graph, pattern, rng_seed):
    """The transcript of simulate_pattern, with the graph rows and frame
    indices (into _FRAMES) of the state it leaves: C |G'> with C the
    tensor product of the frames and G' the rows, measured qubits isolated."""
    n = g.n
    if n > 4096:
        raise SizeLimitError("refusing to simulate more than 4096 qubits")
    _check_pattern(n, pattern)
    adj = list(g.adj)
    frame = [0] * n
    rng = random.Random(rng_seed)
    transcript = []
    for a, basis in pattern:
        # C_a^dag sigma C_a = s sigma': measuring sigma with outcome o on
        # C |G> is measuring sigma' with outcome r = s o on |G>
        code = _FRAMES[frame[a]][_BASIS_CODE[basis]]
        pauli = code >> 1
        na = adj[a]
        if not na and not pauli:
            # an isolated qubit is the +1 eigenstate of X
            outcome, prob = -1 if code else 1, 1.0
        else:
            outcome, prob = (1 if rng.random() < 0.5 else -1), 0.5
        r = -outcome if code & 1 else outcome
        abit = 1 << a
        # the loops walk set bits inline: resuming a generator per bit
        # would cost about as much as the row update itself
        if pauli == 2:
            # Z: delete a; Z on N(a) if r = -1
            m = na
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                adj[w] ^= abit
                if r < 0:
                    frame[w] = _Z[frame[w]]
        elif pauli == 1:
            # Y: complement N(a) locally and delete a; sqrt(-iZ) on N(a)
            # if r = +1, sqrt(+iZ) if r = -1
            step = _MINUS_IZ if r > 0 else _PLUS_IZ
            full = na | abit
            m = na
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                adj[w] ^= full ^ low
                frame[w] = step[frame[w]]
        elif na:
            # X: pivot on an edge a-b0 and delete a. Any b0 in N(a) leaves
            # the same state; the one with the fewest neighbours (the lowest
            # of those) keeps the pivot small and the graph sparse. The
            # pairs between the three classes toggle; swapping a and b0
            # moves only_a to b0 and only_b to a, which is deleted
            fewest = n
            m = na
            while m:
                low = m & -m
                m ^= low
                degree = adj[low.bit_length() - 1].bit_count()
                if degree < fewest:
                    fewest, bbit = degree, low
            b0 = bbit.bit_length() - 1
            nb = adj[b0]
            both = na & nb
            only_a = (na & ~nb) ^ bbit  # N(a) - N[b0]
            only_b = (nb & ~na) ^ abit  # N(b0) - N[a]
            for m, toggle in ((both, only_a | only_b | abit),
                              (only_a, both | only_b | abit | bbit),
                              (only_b, both | only_a | bbit)):
                while m:
                    low = m & -m
                    m ^= low
                    adj[low.bit_length() - 1] ^= toggle
            adj[b0] = both | only_a
            if r > 0:
                frame[b0] = _PLUS_IY[frame[b0]]
                m = only_a
            else:
                frame[b0] = _MINUS_IY[frame[b0]]
                m = only_b
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                frame[w] = _Z[frame[w]]
        adj[a] = 0
        transcript.append(
            {"qubit": a, "basis": basis, "outcome": outcome, "probability": prob}
        )
    return transcript, adj, frame


def simulate_pattern(
    g: Graph,
    pattern: list[tuple[int, str]],
    rng_seed: int | None = None,
) -> list[dict]:
    """Sequentially measure single-qubit Paulis on a fresh graph state.

    pattern is a list of (qubit, basis) pairs with distinct qubits and
    basis in {X, Y, Z}; a bad entry raises ValueError before anything is
    measured, and a graph of more than 4096 qubits SizeLimitError. Returns
    one record per measurement: {"qubit", "basis", "outcome",
    "probability"}, with probability 1.0 or 0.5. Each fair coin is one
    draw of random.Random(rng_seed), as in StabilizerTableau.measure, so
    the transcript is the tableau's for the same seed.
    """
    return _simulate(g, pattern, rng_seed)[0]

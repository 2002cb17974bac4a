"""Stabilizer-group simulation of graph states and Pauli measurements.

A graph state on n qubits is the joint +1 eigenstate of the n correlation
operators K_a = X_a * prod_{b ~ a} Z_b, one per vertex. The simulator keeps
n generators of the stabilizer group as X/Z bitmasks with signs, so single
Pauli measurements cost polynomial work regardless of n.

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
there, and one for Z). Measuring a Pauli p then costs:

- one XOR of columns per qubit in the support of p to find the generators
  that anticommute with p (O(1) big-int operations for a single qubit);
- if there are none, the outcome is determined: p is, up to sign, the
  product of the generators whose destabilizers anticommute with p, found
  the same way, and its sign is that product's phase, with no elimination;
- otherwise the outcome is a fair coin. The first anticommuting generator
  S_k is multiplied into every other generator and destabilizer that
  anticommutes with p, and S_k becomes +-p. That is one big-int operation
  per changed row, plus one per qubit in the support of the old S_k, the
  old d_k and p to update the columns;
- a random outcome of a single-qubit p on qubit q then decouples q: every
  other generator and destabilizer that still holds p's Pauli at q is
  multiplied by S_k (one big-int operation per row, and column q is
  overwritten), and d_k becomes the one-qubit Pauli at q that anticommutes
  with p. The measured qubit is left in a product state, as it is in
  measurement-based computation (Hein, Eisert and Briegel, PRA 69, 062311,
  2004), so no later row touches it and the rows keep the support of the
  unmeasured graph instead of collecting old generators. For a p on
  several qubits d_k becomes the old S_k instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import SizeLimitError
from .gf2 import gf2_dual_basis
from .graphs import Graph

__all__ = [
    "PauliOperator",
    "StabilizerTableau",
    "paulis_commute",
    "multiply_paulis",
    "graph_state_tableau",
    "expectation_pauli",
    "measure_pauli",
    "simulate_pattern",
]

_BASES = ("X", "Y", "Z")


def _sign(rel: int, message: str) -> int:
    # a phase i^rel (mod 4) is the sign +1 for 0 and -1 for 2; an odd one
    # is not a sign of a Hermitian Pauli
    if rel == 0:
        return 1
    if rel == 2:
        return -1
    raise ValueError(message)


def _phase_t(x_bits: int, z_bits: int, sign: int) -> int:
    # internal exponent of i for sign * (i^|Y|) X^x Z^z written as i^t X^x Z^z
    t = (x_bits & z_bits).bit_count() % 4
    if sign == -1:
        t = (t + 2) % 4
    return t


@dataclass(frozen=True)
class PauliOperator:
    """A signed n-qubit Pauli operator: sign times a tensor of I/X/Y/Z.

    Qubit a carries X when bit a of x_bits is set, Z when bit a of z_bits
    is set, Y when both are set, identity otherwise.
    """

    n: int
    x_bits: int
    z_bits: int
    sign: int = 1

    def __post_init__(self):
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
        if basis not in _BASES:
            raise ValueError(f"basis must be one of X, Y, Z, got {basis!r}")
        bit = 1 << qubit
        x = bit if basis in ("X", "Y") else 0
        z = bit if basis in ("Z", "Y") else 0
        return cls(n, x, z, 1)

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
    t = (
        _phase_t(p.x_bits, p.z_bits, p.sign)
        + _phase_t(q.x_bits, q.z_bits, q.sign)
        + 2 * (p.z_bits & q.x_bits).bit_count()
    ) % 4
    x = p.x_bits ^ q.x_bits
    z = p.z_bits ^ q.z_bits
    sign = _sign((t - (x & z).bit_count()) % 4,
                 "product of anticommuting Paulis is not a signed Pauli")
    return PauliOperator(p.n, x, z, sign)


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


# every per-row and per-column list of a tableau
_LISTS = ("xs", "zs", "ts", "dxs", "dzs", "xcol", "zcol", "dxcol", "dzcol")


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

    @classmethod
    def _from_rows(cls, n, xs, zs, ts, dxs, dzs, cols=None) -> "StabilizerTableau":
        """A tableau from generator and destabilizer rows already known to
        satisfy the invariants, and optionally their column masks
        (xcol, zcol, dxcol, dzcol); the lists are taken over, not copied."""
        tab = cls.__new__(cls)
        tab._set_rows(n, xs, zs, ts, dxs, dzs, cols)
        return tab

    def _set_rows(self, n, xs, zs, ts, dxs, dzs, cols=None) -> None:
        self.n = n
        self.xs, self.zs, self.ts = xs, zs, ts
        self.dxs, self.dzs = dxs, dzs
        if cols is None:
            cols = [_transpose(rows, n) for rows in (xs, zs, dxs, dzs)]
        self.xcol, self.zcol, self.dxcol, self.dzcol = cols

    def copy(self) -> "StabilizerTableau":
        dup = StabilizerTableau.__new__(StabilizerTableau)
        dup.n = self.n
        for name in _LISTS:
            setattr(dup, name, list(getattr(self, name)))
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
        for i in range(n):
            for j in range(i + 1, n):
                parity = (
                    (self.xs[i] & self.zs[j]).bit_count()
                    + (self.zs[i] & self.xs[j]).bit_count()
                ) % 2
                if parity:
                    raise ValueError(f"generators {i} and {j} anticommute")
        pairs = (("xs", "xcol"), ("zs", "zcol"), ("dxs", "dxcol"), ("dzs", "dzcol"))
        for rows, cols in pairs:
            if _transpose(getattr(self, rows), n) != getattr(self, cols):
                raise ValueError(f"column masks {cols} do not match the rows")
        for i in range(n):
            if _anticommuting(self.dxs[i], self.dzs[i], self.xcol, self.zcol) != 1 << i:
                raise ValueError(
                    f"destabilizer {i} does not pair with generator {i} alone"
                )

    # -------------------------------------------------- expectation values

    def _determined(self, p: PauliOperator) -> int:
        """Eigenvalue of an observable p that commutes with every generator.
        p is then the product of the generators whose destabilizers
        anticommute with it, up to sign; the sign is read off that product."""
        combo = _anticommuting(p.x_bits, p.z_bits, self.dxcol, self.dzcol)
        x = z = t = 0
        for k in _bits(combo):
            t = (t + self.ts[k] + 2 * (z & self.xs[k]).bit_count()) % 4
            x ^= self.xs[k]
            z ^= self.zs[k]
        if x != p.x_bits or z != p.z_bits:
            raise ValueError("operator is outside the stabilizer span")
        diff = (t - _phase_t(p.x_bits, p.z_bits, p.sign)) % 4
        return _sign(diff, "inconsistent phase; tableau is corrupt")

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
        # destabilizer k0 a Pauli that anticommutes with it alone
        k0_bit = anti & -anti
        k0 = k0_bit.bit_length() - 1
        x0, z0, t0 = xs[k0], zs[k0], ts[k0]
        rest = anti ^ k0_bit
        for k in _bits(rest):
            ts[k] = (t0 + ts[k] + 2 * (z0 & xs[k]).bit_count()) % 4
            xs[k] ^= x0
            zs[k] ^= z0
        drest = _anticommuting(px, pz, self.dxcol, self.dzcol) & ~k0_bit
        for i in _bits(drest):
            dxs[i] ^= x0
            dzs[i] ^= z0
        t_new = _phase_t(px, pz, p.sign)
        if outcome == -1:
            t_new = (t_new + 2) % 4
        support = px | pz
        local = not (support & (support - 1))
        if local:
            # the single-qubit Pauli at the measured qubit that anticommutes
            # with p: Z for X, X for Y or Z
            dx0, dz0 = (support, 0) if pz else (0, support)
        else:
            # p acts on several qubits, which stay coupled; the old
            # generator k0 anticommutes with p and commutes with every
            # other generator
            dx0, dz0 = x0, z0
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
        for q in _bits(dxs[k0] ^ dx0):
            dxcol[q] ^= k0_bit
        for q in _bits(dzs[k0] ^ dz0):
            dzcol[q] ^= k0_bit
        dxs[k0], dzs[k0] = dx0, dz0
        xs[k0], zs[k0] = px, pz
        ts[k0] = t_new
        if local:
            # decouple the measured qubit q: every other generator commutes
            # with p, so it holds I or P at q, and one that holds P is
            # multiplied by generator k0; every other destabilizer commutes
            # with generator k0, so it too holds I or P at q, and one that
            # holds P is multiplied by generator k0 without a phase, which
            # keeps every pairing. Afterwards only row k0 acts on q.
            q = support.bit_length() - 1
            keep = ~support
            for k in _bits((xcol[q] | zcol[q]) & ~k0_bit):
                ts[k] = (t_new + ts[k] + 2 * (pz & xs[k]).bit_count()) % 4
                xs[k] &= keep
                zs[k] &= keep
            xcol[q] = k0_bit if px else 0
            zcol[q] = k0_bit if pz else 0
            for i in _bits((dxcol[q] | dzcol[q]) & ~k0_bit):
                dxs[i] &= keep
                dzs[i] &= keep
            dxcol[q] = k0_bit if dx0 else 0
            dzcol[q] = k0_bit if dz0 else 0
        return outcome, 0.5


def graph_state_tableau(g: Graph) -> StabilizerTableau:
    """Tableau of the graph state: generator a is X on a and Z on each
    neighbor of a, all with sign +1; its destabilizer is Z on a."""
    if g.n > 4096:
        raise SizeLimitError("refusing a tableau with more than 4096 qubits")
    n = g.n
    singles = [1 << a for a in range(n)]
    # the rows form (I | A) and (0 | I) with A symmetric, so every column
    # mask equals the row of the same index
    cols = (list(singles), list(g.adj), [0] * n, list(singles))
    return StabilizerTableau._from_rows(
        n, singles, list(g.adj), [0] * n, [0] * n, list(singles), cols
    )


def expectation_pauli(tableau: StabilizerTableau, p: PauliOperator) -> int:
    return tableau.expectation(p)


def measure_pauli(
    tableau: StabilizerTableau,
    p: PauliOperator,
    forced_outcome: int | None = None,
    rng_seed: int | None = None,
) -> tuple[int, float, StabilizerTableau]:
    """Non-mutating measurement: returns (outcome, probability, new tableau)."""
    out = tableau.copy()
    rng = random.Random(rng_seed) if rng_seed is not None else None
    outcome, prob = out.measure(p, forced_outcome=forced_outcome, rng=rng)
    return outcome, prob, out


def simulate_pattern(
    g: Graph,
    pattern: list[tuple[int, str]],
    rng_seed: int | None = None,
) -> list[dict]:
    """Sequentially measure single-qubit Paulis on a fresh graph state.

    pattern is a list of (qubit, basis) pairs with distinct qubits and
    basis in {X, Y, Z}. Returns one record per measurement:
    {"qubit", "basis", "outcome", "probability"}.
    """
    tableau = graph_state_tableau(g)
    rng = random.Random(rng_seed)
    seen: set[int] = set()
    transcript = []
    for pos, (qubit, basis) in enumerate(pattern, start=1):
        if qubit in seen:
            raise ValueError(f"pattern entry {pos}: qubit {qubit} measured twice")
        seen.add(qubit)
        try:
            p = PauliOperator.single(g.n, qubit, basis)
        except ValueError as exc:
            raise ValueError(f"pattern entry {pos}: {exc}") from None
        outcome, prob = tableau.measure(p, rng=rng)
        transcript.append(
            {"qubit": qubit, "basis": basis, "outcome": outcome, "probability": prob}
        )
    return transcript

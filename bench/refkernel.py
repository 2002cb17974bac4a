"""A fixed pure-Python reference kernel for normalising timings.

The host's CPU speeds up and slows down between and within runs. Timing
this kernel around each query, in the same process, gives the current speed
R; every reported time t is converted to seconds at the reference speed,
t * R0 / R. The kernel imports nothing from gslogic, so a change to the
program cannot change R. It does the two kinds of work gslogic does, since
on this host they slow down by different amounts:

- GF(2) elimination of pseudo-random 128-bit rows with a pivot dict
  (big-int bit operations and int-keyed dict lookups, as in the rank and
  tableau code);
- evaluation of a small formula tree by recursive method calls over a
  dict environment with short-circuiting connectives, as in the logic
  evaluator.

R0 is a constant, recorded once as the kernel's median time on the machine
described in README.md when it ran fastest, and never changed: changing it
would rescale every stored figure.
"""

from __future__ import annotations

import time

R0_SECONDS = 0.0018

_MASK = (1 << 128) - 1


def _eliminate() -> int:
    """GF(2) rank of 96 pseudo-random 128-bit rows, twice over."""
    total = 0
    state = 0x9E3779B97F4A7C15
    for _ in range(2):
        pivots: dict[int, int] = {}
        for _ in range(96):
            state = (state * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & _MASK
            row = state ^ (state >> 61)
            while row:
                low = row & -row
                p = pivots.get(low)
                if p is None:
                    pivots[low] = row
                    break
                row ^= p
        total += len(pivots)
    return total


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left, right):
        self.op, self.left, self.right = op, left, right

    def holds(self, env: dict) -> bool:
        op = self.op
        if op == 0:
            return (env[self.left] >> env[self.right]) & 1 == 1
        if op == 1:
            return self.left.holds(env) and self.right.holds(env)
        if op == 2:
            return self.left.holds(env) or self.right.holds(env)
        return not self.left.holds(env)


def _bit(x: str, y: str) -> _Node:
    return _Node(0, x, y)


# (x ~ y & !(y ~ x)) | (y ~ z & !(x ~ z))
_FORMULA = _Node(2, _Node(1, _bit("x", "y"), _Node(3, _bit("y", "x"), None)),
                 _Node(1, _bit("y", "z"), _Node(3, _bit("x", "z"), None)))


def _evaluate() -> int:
    """Count the environments of 24 x 12 x 6 values that satisfy _FORMULA."""
    env: dict = {}
    count = 0
    for x in range(24):
        env["x"] = x * 2654435761 & 0xFFFFFFFF
        for y in range(12):
            env["y"] = y + 3
            for z in range(6):
                env["z"] = z
                if _FORMULA.holds(env):
                    count += 1
    return count


def kernel() -> int:
    return _eliminate() + _evaluate()


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

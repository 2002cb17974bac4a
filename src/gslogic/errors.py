"""Exception types shared across the package."""

from math import log2


class SizeLimitError(RuntimeError):
    """An input exceeds a configured size bound or work limit.

    Raised instead of silently falling back to a cheaper method; the message
    names the limit that was hit. The CLI maps this to exit code 3.
    """


class InputError(ValueError):
    """Bad input that the caller can fix: an argument, graph or formula.
    The CLI maps this to exit code 2, and no other ValueError."""


class GraphParseError(InputError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FormulaParseError(InputError):
    """Malformed formula text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


def _figure(x: int, spec: str = "") -> str:
    """``format(x, spec)`` while x has at most 30 digits, else x as a power
    of two, ``2^e`` with e to one decimal place: a refusal must not write
    out a number with no bound, and ``str`` refuses one past 4,300 digits."""
    if x < 10 ** 30:
        return format(x, spec)
    return f"2^{log2(x):.1f}".removesuffix(".0")

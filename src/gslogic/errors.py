"""Exception types shared across the package."""


class SizeLimitError(RuntimeError):
    """An input exceeds a configured size or cost bound.

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

"""Exception hierarchy shared across the toolkit."""


class FairmonError(Exception):
    """Base class for all toolkit errors."""


class SpecSyntaxError(FairmonError):
    """Raised on malformed specification text; carries source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class SpecValidationError(FairmonError):
    """Well-formed but semantically invalid specification (unknown atom, arity, mode)."""


class ModelError(FairmonError):
    """Invalid or unsuitable observation model (not stochastic, reducible, periodic)."""


class EvaluationError(FairmonError):
    """Semantic evaluation failure (zero denominator, window cap exceeded)."""


class ConfigError(FairmonError):
    """Invalid monitoring session configuration."""


class EventError(ConfigError):
    """An event symbol outside the declared alphabet; raised before any state moves.

    ``line`` is the 1-based line of the symbol in the stream that a monitor's
    ``run`` read, or None when it came to ``next``.
    """

    def __init__(self, symbol: str):
        self.symbol = symbol
        self.line = None
        super().__init__(f"symbol {symbol!r} is not in the alphabet")

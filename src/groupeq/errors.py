"""Exception hierarchy shared by all modules."""


class GroupEqError(Exception):
    """Base class for every error raised by this package."""


class GroupMismatchError(GroupEqError):
    """Operands live in different groups (or different ambients)."""


class ConfigError(GroupEqError):
    """A cap configuration file is missing, malformed or names unknown caps."""


class CapExceededError(GroupEqError):
    """A configured search/size cap would be exceeded."""


class UnsupportedBackendError(GroupEqError):
    """The backend does not support the requested operation."""


class SymbolClashError(GroupEqError):
    """Two parts of a composite presentation share a generator name."""


class WindowError(GroupEqError):
    """A finite window is too small to contain the indices that occur."""


class EquationError(GroupEqError):
    """Malformed or out-of-scope equation input."""


class SigmaError(EquationError):
    """Exponent sum is not +-1 where unimodularity is required."""


class EquationOverFactorError(EquationError):
    """The word is conjugate into H*<t>, violating the normal-form precondition."""


class NormalityError(GroupEqError):
    """<t> is not normal in T, so conjugation exponents are undefined."""


class CertificateError(GroupEqError):
    """A solution certificate is malformed or fails verification."""


class ParseError(GroupEqError):
    """DSL parse failure with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class InternalError(GroupEqError):
    """Invariant violation that indicates a bug, not bad input."""

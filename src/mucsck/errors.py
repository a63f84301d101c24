"""Exception types shared across the toolkit."""


class MucsckError(Exception):
    """Base class for all toolkit errors."""


class EvaluationError(MucsckError):
    """An integrand or profile produced a non-finite value; carries the node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DomainError(MucsckError):
    """Evaluation requested outside the open momentum interval."""


class ChiZeroBranchError(MucsckError):
    """The exponential solution basis is invalid; use the chi=0 branch."""


class DegenerateParameterError(MucsckError):
    """The boundary linear system is singular for these parameters."""

    def __init__(self, message, lam=None, chi=None):
        super().__init__(message)
        self.lam = lam
        self.chi = chi


class BracketError(MucsckError):
    """A root bracket does not enclose a sign change, or Brent's method fails on it."""


class PathDegeneracyError(MucsckError):
    """An intermediate symplectic potential lost convexity."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(MucsckError):
    """A run configuration failed validation."""

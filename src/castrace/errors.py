"""Exception hierarchy shared across the toolkit."""

__all__ = ["CastraceError", "ConfigError", "DomainError", "NumericalError"]


class CastraceError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CastraceError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class NumericalError(CastraceError, RuntimeError):
    """A numerical procedure failed to converge or became degenerate."""


class ConfigError(CastraceError, ValueError):
    """A run configuration is malformed or inconsistent."""

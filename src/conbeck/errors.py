"""Exception types shared across the package."""

__all__ = [
    "ConbeckError",
    "InvalidGraphError",
    "FormatError",
    "FeasibilityError",
    "NonConvergenceError",
]


class ConbeckError(Exception):
    """Base class for all conbeck errors."""


class InvalidGraphError(ConbeckError):
    """A connection graph (or companion input) failed validation."""


class FormatError(ConbeckError):
    """A file or JSON document does not match the expected schema."""


class FeasibilityError(ConbeckError):
    """A transport problem has no feasible flow.

    Carries the kernel components that the source/target difference
    fails to be orthogonal to, as a list of ``(index, inner_product)``
    pairs.
    """

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = list(components) if components is not None else []


class NonConvergenceError(ConbeckError):
    """An iterative solve exhausted its epoch budget before its tolerance."""

"""Exception types shared across the package."""

__all__ = [
    "ValidationError", "NotAPositroidError", "ContractViolationError", "EnumerationLimitError",
]


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class NotAPositroidError(ValidationError):
    """A basis collection or necklace does not come from a positroid."""


class ContractViolationError(RuntimeError):
    """An internal certificate failed verification.

    Raised when a constructed object (witness basis, morph state, spliced
    exchange) does not satisfy the property the construction guarantees.
    Seeing this means a bug in the library, not bad user input.
    """


class EnumerationLimitError(RuntimeError):
    """An enumeration would exceed a configured resource limit."""

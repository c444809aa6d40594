"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


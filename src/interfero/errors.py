"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ReconstructionError(RuntimeError):
    """Tomography could not produce a physical state.

    ``cell`` is the index of the failing matrix within the leading axes of a
    stack; it is empty for a single matrix.
    """

    def __init__(self, message: str, cell: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.cell = cell

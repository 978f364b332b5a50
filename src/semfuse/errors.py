"""Exception types shared across the package."""


class ContractError(ValueError):
    """An argument or call violates a documented precondition."""


class ShapeError(ContractError):
    """Operands have incompatible dimensions."""


class NonFiniteError(ContractError):
    """A NaN or infinity appeared where finite values are required."""


class PnmParseError(ValueError):
    """Malformed netpbm input. `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CheckpointError(ValueError):
    """Checkpoint bytes do not match the expected format or network."""


class TrainingAbort(RuntimeError):
    """Training stopped early. `term` names the offending loss term or parameter when known."""

    def __init__(self, message: str, term: str | None = None):
        super().__init__(message)
        self.term = term


class WorkerError(RuntimeError):
    """The pair worker of a training pass ended or broke its pipe mid-phase."""

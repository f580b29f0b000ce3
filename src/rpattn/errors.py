"""Exception types shared across the package."""


class RPAttnError(Exception):
    """Base class for all library errors."""


class ShapeError(RPAttnError):
    """Operands have incompatible shapes."""


class ConfigError(RPAttnError):
    """A configuration value is invalid or inconsistent."""


class ContractError(RPAttnError):
    """Caller violated an API contract (e.g. trace/config mismatch)."""


class TrainDivergedError(RPAttnError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class TensorFileError(RPAttnError):
    """Tensor file could not be read or written. Subclasses carry a stable code."""

    code = "tensor-file"


class BadMagicError(TensorFileError):
    code = "bad-magic"


class BadVersionError(TensorFileError):
    code = "bad-version"


class DtypeMismatchError(TensorFileError):
    code = "dtype-mismatch"


class BadShapeError(TensorFileError):
    code = "bad-shape"


class TruncatedPayloadError(TensorFileError):
    code = "truncated-payload"


class TrailingDataError(TensorFileError):
    code = "trailing-data"

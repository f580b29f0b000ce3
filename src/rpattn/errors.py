"""Exception types shared across the package, and the one integer-count check."""

from numbers import Integral


class RPAttnError(Exception):
    """Base class for all library errors."""


class ShapeError(RPAttnError):
    """Operands have incompatible shapes."""


class ConfigError(RPAttnError):
    """A configuration value is invalid or inconsistent."""


def check_count(name, value, minimum=1) -> int:
    """value as an int; ConfigError unless it is an integer >= minimum.

    Python and numpy integers pass; bools and floats, even 2.0, do not.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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

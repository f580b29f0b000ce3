"""Exception types shared across the package, and the checks of config field types."""

import math
from numbers import Integral, Real


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


def check_flag(name, value) -> bool:
    """value as a bool; ConfigError unless it is a Python or numpy bool (not 0/1 or a string)."""
    import numpy as np  # not at module level: the package sets its BLAS thread cap first

    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_real(name, value, minimum=None) -> float:
    """value as a float; ConfigError unless it is a finite real number >= minimum.

    Python and numpy integers and floats pass; bools and strings do not.
    """
    if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be a finite real{bound}, got {value!r}")
    return float(value)


class ContractError(RPAttnError):
    """Caller violated an API contract (e.g. NaN input or a misshapen grad_output)."""


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

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


def check_real_array(name, value, dtype):
    """value as a finite array of dtype; ContractError unless it is real-valued and castable.

    An array of complex, string or other non-real dtype, or anything numpy
    cannot cast (a ragged list, an integer beyond float range, a finite
    float beyond dtype's range), is rejected; a failed cast is the cause of
    the ContractError.
    """
    import numpy as np  # not at module level: the package sets its BLAS thread cap first

    if hasattr(value, "dtype") and value.dtype.kind not in "biuf":
        raise ContractError(f"{name} dtype {value.dtype} is not real-valued")
    try:
        with np.errstate(over="raise"):
            value = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError, FloatingPointError) as exc:
        raise ContractError(f"{name} cannot be cast to {np.dtype(dtype)}: {exc}") from exc
    if not np.isfinite(value).all():
        raise ContractError(f"{name} holds NaN or inf")
    return value


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

"""Binary tensor files.

Record layout (little endian):

    magic   4 bytes  b"RPTN"
    version u8       1
    dtype   u8       0 = float32, 1 = float64
    ndim    u8
    dims    ndim x u64
    payload prod(dims) values, row major

A file holds one record; parameter files concatenate one record per field
in the fixed PARAM_FIELDS order. Round trips are byte exact for both
precisions.
"""

import math
import struct

import numpy as np

from .attention import PARAM_FIELDS, RPAttnParams, param_shapes
from .errors import (
    BadMagicError,
    BadShapeError,
    BadVersionError,
    ConfigError,
    DtypeMismatchError,
    TrailingDataError,
    TruncatedPayloadError,
)

MAGIC = b"RPTN"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_KIND_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_record(fh, arr):
    """Append one tensor record to an open binary stream."""
    arr = np.asarray(arr)
    if arr.dtype not in _KIND_TO_CODE:
        raise ConfigError(f"only float32/float64 tensors are supported, got {arr.dtype}")
    code = _KIND_TO_CODE[arr.dtype]
    if arr.ndim > 255:
        raise ConfigError("tensor rank exceeds format limit")
    fh.write(MAGIC)
    fh.write(struct.pack("<BBB", VERSION, code, arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code]).tobytes(order="C"))


def read_record(fh):
    """Read one tensor record; raises a distinct error per corruption kind."""
    magic = fh.read(4)
    if len(magic) < 4 or magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    header = fh.read(3)
    if len(header) < 3:
        raise TruncatedPayloadError("truncated header")
    version, code, ndim = struct.unpack("<BBB", header)
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if code not in _CODE_TO_DTYPE:
        raise DtypeMismatchError(f"unknown dtype code {code}")
    dims = []
    for _ in range(ndim):
        raw = fh.read(8)
        if len(raw) < 8:
            raise TruncatedPayloadError("truncated dims")
        dims.append(struct.unpack("<Q", raw)[0])
    dtype = _CODE_TO_DTYPE[code]
    # numpy sizes an array by its nonzero dims, so (0, 2**63) is too big as well
    if math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
        raise BadShapeError(f"dims {tuple(dims)} exceed the largest {dtype} array numpy can hold")
    count = math.prod(dims)
    payload = fh.read(count * dtype.itemsize)
    if len(payload) < count * dtype.itemsize:
        raise TruncatedPayloadError(
            f"payload has {len(payload)} bytes, expected {count * dtype.itemsize}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def write_tensor(path, arr):
    with open(path, "wb") as fh:
        write_record(fh, arr)


def read_tensor(path, expect_dtype=None):
    """Read a single-tensor file.

    expect_dtype (np.float32 / np.float64) turns a stored-precision mismatch
    into a DtypeMismatchError instead of silently converting.
    """
    with open(path, "rb") as fh:
        arr = read_record(fh)
        if fh.read(1):
            raise TrailingDataError("unexpected bytes after tensor payload")
    if expect_dtype is not None and arr.dtype != np.dtype(expect_dtype):
        raise DtypeMismatchError(f"stored dtype {arr.dtype} != expected {np.dtype(expect_dtype)}")
    return arr


def save_params(path, params: RPAttnParams):
    """Write every parameter field as consecutive records in PARAM_FIELDS order."""
    with open(path, "wb") as fh:
        for name in PARAM_FIELDS:
            write_record(fh, getattr(params, name))


def load_params(path, config) -> RPAttnParams:
    """Read a parameter file and validate every shape against the config."""
    shapes = param_shapes(config)
    loaded = {}
    with open(path, "rb") as fh:
        for name in PARAM_FIELDS:
            arr = read_record(fh)
            if arr.shape != shapes[name]:
                raise ConfigError(
                    f"parameter {name} has shape {arr.shape}, config expects {shapes[name]}")
            loaded[name] = arr.astype(config.np_dtype, copy=False)
        if fh.read(1):
            raise TrailingDataError("unexpected bytes after last parameter record")
    return RPAttnParams(**loaded)

"""Dense numeric primitives every attention variant is built from.

All kernels operate on plain numpy arrays (row-major, C order). Both dtypes
share one path: contractions dispatch to BLAS through np.matmul. float64 is
the precision for correctness work (gradient checks, oracle comparisons);
float32 is the precision for benchmarks. The tests pin that float64 results
are bit-identical under one and two BLAS threads.

Kernels are pure functions of their inputs and never mutate arguments.
"""

import numpy as np

from .errors import ConfigError, ShapeError


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product of [..., p, q] and [..., q, r] -> [..., p, r].

    Leading dimensions broadcast. Every dtype goes through np.matmul (BLAS).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as exc:
        raise ShapeError(f"matmul leading dims do not broadcast: {a.shape} x {b.shape}") from exc
    return np.matmul(a, b)


def linear(x: np.ndarray, w: np.ndarray, bias=None) -> np.ndarray:
    """Affine map [..., p] @ [p, q] (+ bias[q] when given)."""
    x = np.asarray(x)
    w = np.asarray(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dims differ: {x.shape} x {w.shape}")
    out = matmul(x.reshape(-1, x.shape[-1]), w).reshape(x.shape[:-1] + (w.shape[1],))
    if bias is not None:
        out = out + bias
    return out


def softmax_lastdim(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted for stability.

    Every last-axis slice of the result is nonnegative and sums to 1.
    """
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last axis")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Normalize each last-axis slice to zero mean / unit variance, then affine.

    eps sits inside the square root, so constant slices map to beta exactly.
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x = np.asarray(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mu).mean(axis=-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return xhat * gamma + beta


def depthwise_conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-channel k x k convolution with same zero padding.

    x: [B, H, W, C], kernel: [k, k, C], bias: [C]. Each channel is convolved
    with its own filter; output shape equals input shape.
    """
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.ndim != 4:
        raise ShapeError(f"depthwise_conv2d expects [B,H,W,C], got {x.shape}")
    k = kernel.shape[0]
    if kernel.ndim != 3 or kernel.shape[1] != k:
        raise ShapeError(f"kernel must be [k,k,C], got {kernel.shape}")
    if k % 2 == 0:
        raise ConfigError(f"depthwise kernel size must be odd, got {k}")
    if kernel.shape[2] != x.shape[3]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs kernel {kernel.shape}")

    b, h, w, c = x.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros_like(x)
    for ki in range(k):
        for kj in range(k):
            out += xp[:, ki:ki + h, kj:kj + w, :] * kernel[ki, kj, :]
    if bias is not None:
        out = out + bias
    return out

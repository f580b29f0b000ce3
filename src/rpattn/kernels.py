"""Dense numeric primitives every attention variant is built from.

`attention` is the package's one scaled dot-product attention: its weights
(`attention_weights`) followed by the readout, reversed by
`grad._attention_backward`. The weights keep their logical [..., n_q, n_k]
shape but are stored key-major (the swapped view of a C-ordered
[..., n_k, n_q] array), so every reduction over the keys runs over the outer
memory axis; a short last axis (M slots) is the slow case for numpy.
`token_tiles` cuts the token axis into tiles of TOKEN_TILE rows in every
caller, so no weights over all N tokens exist. The layer's distribution and
the dense baseline project each tile's queries, form its weights, read
them out and project the tile's rows through the output weights, and
`grad._blocked_attention_backward` is their one reverse: it recomputes each
tile's queries, weights and readout. The layer's gather
(`attention.gather`) and its reverse (`grad._gather_backward`) run over the
same tiles, projecting each tile's keys and forming its assignments (the
k-means reverse reads no keys). `depthwise_conv2d` is the bypass's one tap
loop; its reverse runs it again on the turned gradient.

All kernels operate on plain numpy arrays (row-major, C order, or swapped
views of such, like the attention weights). Both dtypes
share one path: contractions dispatch to BLAS through np.matmul. float64 is
the precision for correctness work (gradient checks, oracle comparisons);
float32 is the precision for benchmarks. The tests pin that float64 results
are bit-identical under one and two BLAS threads.

Kernels mutate nothing except an `out` array the caller passes, which may
be the input itself for `softmax_lastdim` and `depthwise_conv2d` (the
bypass writes its convolution over the values it reads). Each makes as few
full-size arrays as its arithmetic allows and finishes its work in place in
them; the in-place steps run the same operations in the same order, so the
results keep their bits.
"""

import math

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

DWC_BAND_ROWS = 8  # output rows depthwise_conv2d sums its taps over at a time
# Token rows per tile, read at call time by every caller of token_tiles: the
# layer's gather and distribution and the dense baseline, forward and
# backward. Layer (float32, N = 16384, M = 49, one BLAS thread, distribution
# only): 256-1024 rows time about the same, and 128 rows and one whole tile
# are slower. Dense: a block's weights grow with N * TOKEN_TILE, never N^2
# (67 MB at float32, B = 1, h = 2, N = 16384), and 512 rows ran no slower
# than 1024 forward and backward at N = 1024, 4096 and 16384.
TOKEN_TILE = 512


def matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Batched matrix product of [..., p, q] and [..., q, r] -> [..., p, r].

    Leading dimensions broadcast. Every dtype goes through np.matmul (BLAS),
    which writes into `out` when given (a strided view, like rows of a
    [B, N, h, d] array seen per head, keeps the bits); its own shape check
    raises, re-raised as a ShapeError naming both shapes.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    try:
        return np.matmul(a, b, out=out)
    except ValueError as exc:
        raise ShapeError(f"matmul shapes do not match: {a.shape} x {b.shape}") from exc


def linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Linear map [..., p] @ [p, q] -> [..., q] as one 2-d product."""
    x = np.asarray(x)
    w = np.asarray(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dims differ: {x.shape} x {w.shape}")
    return matmul(x.reshape(-1, x.shape[-1]), w).reshape(x.shape[:-1] + (w.shape[1],))


def softmax_lastdim(x: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, max-subtracted for stability.

    Every last-axis slice of the result is nonnegative and sums to 1. Like a
    numpy ufunc, it writes into `out` when given (`out=x` overwrites the
    caller's own float array); otherwise the result is the one new full-size
    array, laid out in memory like x: a swapped view in gives a swapped view
    out. Either way x - max, the exp and the divide run in that one array.
    """
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last axis")
    # Integer and bool inputs promote as np.exp would promote them.
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out,
                    dtype=np.result_type(x, np.float16))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def attention_weights(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Weights p = softmax(q k^T / sqrt(d)) of queries [..., n_q, d] over keys [..., n_k, d].

    p is [..., n_q, n_k], stored key-major: the logits are formed as k q^T,
    scaled in place, and normalized in place through their swapped view.
    """
    s = matmul(k, np.swapaxes(q, -1, -2))
    s *= 1.0 / math.sqrt(q.shape[-1])
    s = np.swapaxes(s, -1, -2)
    return softmax_lastdim(s, out=s)


def token_tiles(n: int, rows: int):
    """Slices of `rows` consecutive indices covering range(n) in order; the last may be shorter."""
    return (slice(start, start + rows) for start in range(0, n, rows))


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Queries [..., n_q, d] over keys [..., n_k, d] and values [..., n_k, d_v].

    Returns (p, o): the attention_weights p and the readout o = p v.
    """
    p = attention_weights(q, k)
    return p, matmul(p, v)


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


def depthwise_conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                     out=None) -> np.ndarray:
    """Per-channel k x k convolution with same zero padding.

    x: [B, H, W, C], kernel: [k, k, C], bias: [C]. Each channel is convolved
    with its own filter; output shape equals input shape. The taps are
    summed DWC_BAND_ROWS output rows at a time, padding only the band's own
    input rows, each padded row one run of (W + 2p) C values against kernel
    rows tiled W times, so a band of the output, its padded input rows and
    the one band-sized tap buffer stay in cache through all k^2 taps and no
    padded copy of the whole input exists. Every element still adds its
    taps to zero in (ki, kj) order, then the bias.

    The result is written into `out` when given: a C-contiguous array of x's
    shape and dtype that is either x itself (the same array object), which
    is then overwritten with its own convolution, or shares no memory with
    x. Every band after the first takes the input rows it shares with the
    band before (that band's last 2p padded rows) from the band buffer and
    reads only the rows below them from x, so in place no input row is read
    after its band has been written, and the bits are those of a new array.
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
    bias = np.asarray(bias)
    if bias.shape != (x.shape[3],):
        raise ShapeError(f"bias must be [C] = {(x.shape[3],)}, got {bias.shape}")
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif out.shape != x.shape or out.dtype != x.dtype or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous {x.dtype} array of shape {x.shape}, "
                         f"got {out.dtype} {out.shape}")
    elif out is not x and np.may_share_memory(out, x):
        raise ContractError("out must be x itself or share no memory with it")

    b, h, w, c = x.shape
    pad = (k - 1) // 2
    run = w * c
    taps = np.tile(kernel, (1, 1, w))
    bias_row = np.tile(bias, w)
    out_rows = out.reshape(b, h, run)
    band_rows = min(h, DWC_BAND_ROWS)
    tap = np.empty((b, band_rows, run), dtype=x.dtype)
    # Row r of xb is input row top - pad + r of the band at `top`, padded.
    # Its pad columns stay zero. A row above the image held rows further up
    # in every earlier band, so it is zero from the start; a row below the
    # image held input rows in earlier bands and is zeroed. Every band after
    # the first is a full band below a full band, so its first 2p rows are
    # the last 2p rows of the band before, moved up (the move may overlap
    # itself when 2p > DWC_BAND_ROWS).
    xb = np.zeros((b, band_rows + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp = xb.reshape(b, band_rows + 2 * pad, (w + 2 * pad) * c)
    for top in range(0, h, DWC_BAND_ROWS):
        rows = min(DWC_BAND_ROWS, h - top)
        lo, hi = max(top - pad, 0), min(top + rows + pad, h)
        if top > 0:
            xb[:, :2 * pad] = xb[:, band_rows:]
            lo = top + pad
        xb[:, lo - top + pad:hi - top + pad, pad:pad + w] = x[:, lo:hi]
        xb[:, hi - top + pad:rows + 2 * pad] = 0
        band, band_tap = out_rows[:, top:top + rows], tap[:, :rows]
        band.fill(0)
        for ki in range(k):
            for kj in range(k):
                band += np.multiply(xp[:, ki:ki + rows, kj * c:kj * c + run], taps[ki, kj],
                                    out=band_tap)
        band += bias_row
    return out

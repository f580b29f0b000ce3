"""Dense numeric primitives every attention variant is built from.

`attention` is the package's one scaled dot-product attention: its weights
(`attention_weights`) followed by the readout, reversed by
`grad._attention_backward`. The weights keep their logical [..., n_q, n_k]
shape but are stored key-major (the swapped view of a C-ordered
[..., n_k, n_q] array), so every reduction over the keys runs over the outer
memory axis; a short last axis (M slots) is the slow case for numpy.
`token_tiles` cuts the token axis into tiles of at most TOKEN_TILE rows in
every caller, so no weights over all N tokens exist. The one query-tiled
readout, `attention.blocked_attention`, which the layer's distribution,
the dense baseline and the pooled proxy run, projects each tile's queries,
forms its weights, reads them out and projects the tile's rows through the
output weights, and `grad._blocked_attention_backward` is its reverse: it
recomputes each tile's queries, weights and readout. The layer's gather
(`attention.gather`) and its reverse (`grad._gather_backward`) run over the
same tiles, projecting each tile's keys and forming its assignments (the
k-means reverse reads no keys). `depthwise_conv2d` is the bypass and
`depthwise_conv2d_backward` its reverse; both sum their taps over the bands
of one private band-padding helper, `_padded_bands`, so only this module
knows the padded-band layout.

All kernels operate on plain numpy arrays (row-major, C order, or swapped
views of such, like the attention weights). Both dtypes
share one path: contractions dispatch to BLAS through np.matmul. float64 is
the precision for correctness work (gradient checks, oracle comparisons);
float32 is the precision for benchmarks. The tests pin that float64 results
are bit-identical under one and two BLAS threads.

Kernels mutate nothing except an `out` array the caller passes, which may
be the input itself for `softmax_lastdim` and `depthwise_conv2d` (the
bypass writes its convolution over the values it reads), and the output
gradient of `depthwise_conv2d_backward`, which its input gradient is
written over. Each makes as few
full-size arrays as its arithmetic allows and finishes its work in place in
them; the in-place steps run the same operations in the same order, so the
results keep their bits.
"""

import math

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

DWC_BAND_ROWS = 8  # output rows depthwise_conv2d sums its taps over at a time
# Token rows per tile, read at call time by every caller of token_tiles: the
# layer's gather and the query-tiled readout of the layer, the dense
# baseline and the pooled proxy, forward and backward. Layer (float32,
# N = 16384, M = 49, one BLAS thread, distribution only): 256-1024 rows
# time about the same, and 128 rows and one whole tile are slower. Dense: a block's weights grow with N * TOKEN_TILE, never N^2
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
    """Slices of at most `rows` consecutive indices covering range(n) in order.

    Every tile is `rows` long but the last, which may be shorter. Where that
    would leave one row after a full tile, those two tiles are split into
    two near-equal ones instead (513 -> 257 + 256 at 512 rows), so for
    rows >= 3 only a lone tile (n = 1) has a single row: numpy sends a
    one-row product to BLAS gemv, which rounds its sums unlike the gemm of
    every other tile.
    """
    # The last tile starts at cut; without a split cut is n and adds no tile.
    cut = n - (rows + 1) // 2 if n > rows and n % rows == 1 else n
    for start in range(0, cut, rows):
        yield slice(start, min(start + rows, cut))
    if cut < n:
        yield slice(cut, n)


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
    summed DWC_BAND_ROWS output rows at a time over the band's own padded
    input rows (_padded_bands), each padded row one run of (W + 2p) C values
    against kernel rows tiled W times, so a band of the output, its padded
    input rows and the one band-sized tap buffer stay in cache through all
    k^2 taps and no padded copy of the whole input exists. Every element
    still adds its taps to zero in (ki, kj) order, then the bias.

    The result is written into `out` when given: a C-contiguous array of x's
    shape and dtype that is either x itself (the same array object), which
    is then overwritten with its own convolution, or shares no memory with
    x. In place no input row is read after its band has been written
    (_padded_bands), so the bits are those of a new array.
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

    _, _, w, c = x.shape
    run = w * c
    taps = np.tile(kernel, (1, 1, w))
    bias_row = np.tile(bias, w)
    for band, xp, tap in _padded_bands(x, k, out):
        rows = band.shape[1]
        band.fill(0)
        for ki in range(k):
            for kj in range(k):
                band += np.multiply(xp[:, ki:ki + rows, kj * c:kj * c + run], taps[ki, kj],
                                    out=tap)
        band += bias_row
    return out


def depthwise_conv2d_backward(x: np.ndarray, kernel: np.ndarray, dy: np.ndarray):
    """Reverse of depthwise_conv2d for x and dy [B, H, W, C]: (dx, dkernel, dbias).

    dx is written over dy, which must be C-contiguous (else ContractError),
    and dy itself is returned as dx, so the reverse makes no [B, H, W, C]
    array beyond one tap buffer, freed before dx is written. dkernel comes
    first: each entry sums its tap's product with dy over (B, H, W), every
    product in that one reused whole-size buffer. A tap reads x through a
    shifted view; where it would read the zero padding, the buffer takes
    0 * dy (the same ±0), so each whole-buffer sum adds the same values in
    the same order as over a padded copy. Tap (ki, kj) reads padding in the
    rows outside i0:i1 and the columns outside j0:j1 (_tap_ranges). No tap
    of a kernel column writes its border columns with anything but 0 * dy,
    so they are filled once per kernel column. dbias then sums dy.

    dx is summed band by band over the forward's bands (_padded_bands),
    which may write over their own input: dx[i, j] adds
    dy[i+p-ki, j+p-kj] * kernel[ki, kj] to zero in (ki, kj) order, padded
    row 2p - ki and column 2p - kj of the band's rows of dy. The taps that
    land in the padding add ±0, which leaves a sum begun at +0 unchanged, so
    dx has the bits of one whole-array product per tap.
    """
    if not dy.flags.c_contiguous:  # the bands would land in a copy
        raise ContractError("depthwise_conv2d_backward writes dx over dy, "
                            "which must be C-contiguous")
    b, h, w, c = x.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    dkernel, tap = np.empty_like(kernel), np.empty((b, h, w, c), dtype=x.dtype)
    row_ranges = _tap_ranges(k, h)
    for kj, (j0, j1, border_cols) in enumerate(_tap_ranges(k, w)):
        for cols in border_cols:
            np.multiply(0.0, dy[:, :, cols], out=tap[:, :, cols])
        for ki, (i0, i1, border_rows) in enumerate(row_ranges):
            for rows in border_rows:
                np.multiply(0.0, dy[:, rows], out=tap[:, rows])
            di, dj = ki - pad, kj - pad
            np.multiply(x[:, i0 + di:i1 + di, j0 + dj:j1 + dj], dy[:, i0:i1, j0:j1],
                        out=tap[:, i0:i1, j0:j1])
            dkernel[ki, kj] = tap.sum(axis=(0, 1, 2))
    del tap
    dbias = dy.sum(axis=(0, 1, 2))
    run, taps = w * c, np.tile(kernel, (1, 1, w))
    for band, dyp, band_tap in _padded_bands(dy, k, dy):
        rows = band.shape[1]
        band.fill(0)
        for ki in range(k):
            for kj in range(k):
                r, s = 2 * pad - ki, (2 * pad - kj) * c
                band += np.multiply(dyp[:, r:r + rows, s:s + run], taps[ki, kj], out=band_tap)
    return dy, dkernel, dbias


def _tap_ranges(k, n):
    # Per tap t of a k-wide kernel along an axis of n: (lo, hi, border), the
    # output indices lo:hi whose input index, plus t - (k - 1) // 2, lies in
    # range(n), and the non-empty slices outside them, which read padding. An
    # offset of n or more leaves lo:hi empty.
    pad, ranges = (k - 1) // 2, []
    for t in range(k):
        lo = min(max(pad - t, 0), n)
        hi = max(min(n + pad - t, n), lo)
        ranges.append((lo, hi, [s for s in (slice(0, lo), slice(hi, n)) if s.start < s.stop]))
    return ranges


def _padded_bands(x: np.ndarray, k: int, out: np.ndarray):
    """The DWC_BAND_ROWS-row bands of a k x k same-padded depthwise pass over
    x [B, H, W, C] into out (x's shape), in order: (band, xp, tap) each.

    band is the band's rows of out as [B, rows, W*C]; xp its input rows of
    x, from p = (k - 1) // 2 above to p below, zero padded by p on every
    side, as [B, rows + 2p, (W + 2p) * C], so padded row r and padded column
    s are input row top - p + r and column s - p; tap is one band-sized
    [B, rows, W*C] buffer for the caller's tap products. The buffers are
    reused from band to band and valid only until the next band is asked
    for. Every band after the first takes the input rows it shares with the
    band before (that band's last 2p padded rows) from the band buffer and
    reads only the rows below them from x, so out may be x itself: no input
    row is read after the band that holds it was handed out.
    """
    b, h, w, c = x.shape
    pad = (k - 1) // 2
    run = w * c
    out_rows = out.reshape(b, h, run)
    band_rows = min(h, DWC_BAND_ROWS)
    tap = np.empty((b, band_rows, run), dtype=x.dtype)
    # A row above the image held rows further up in every earlier band, so
    # it is zero from the start; a row below the image held input rows in
    # earlier bands and is zeroed. The pad columns stay zero. Every band
    # after the first is a full band below a full band, so its first 2p rows
    # are the last 2p rows of the band before, moved up (the move may
    # overlap itself when 2p > DWC_BAND_ROWS).
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
        yield out_rows[:, top:top + rows], xp[:, :rows + 2 * pad], tap[:, :rows]

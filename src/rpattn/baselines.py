"""Reference attention mechanisms the representative layer is compared against.

* dense multi-head softmax attention (the quadratic reference),
* a pooled-proxy variant whose latents come from grid average pooling of
  keys and values (coordinate-driven compression),
* hard k-means routing that replaces the learned one-step gather.

The forwards take the layer's (x, params, config) and share its input
check; the dense backward lives in grad next to the layer's.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .attention import AttnConfig, RPAttnParams, check_input, merge_heads, project_qkv
from .errors import ConfigError


@dataclass
class DenseTrace:
    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    p: Optional[np.ndarray]  # [B, h, N, N] attention weights, None when row-chunked
    o_merged: np.ndarray  # [B, N, C]
    output: np.ndarray


def softmax_attention_forward(x, params: RPAttnParams, config: AttnConfig, row_chunk=None):
    """Dense multi-head attention over all token pairs. Returns (output, DenseTrace).

    Reads only the w_q, w_k, w_v and w_o projections of params. row_chunk
    bounds peak memory by computing the attention matrix in query blocks
    (the result is identical; total work stays quadratic in N); the chunked
    trace keeps no attention weights (p is None), so it cannot be
    differentiated.
    """
    x = check_input(x, params, config)
    n = x.shape[1]
    q, k, v = project_qkv(x, params, config)
    scale = 1.0 / math.sqrt(config.head_dim)

    if row_chunk is None or row_chunk >= n:
        p = kernels.softmax_lastdim(kernels.matmul(q, np.swapaxes(k, -1, -2)) * scale)
        o = kernels.matmul(p, v)
    else:
        p = None
        o = np.empty_like(q)
        k_t = np.swapaxes(k, -1, -2)
        for start in range(0, n, row_chunk):
            stop = min(start + row_chunk, n)
            p_blk = kernels.softmax_lastdim(kernels.matmul(q[:, :, start:stop, :], k_t) * scale)
            o[:, :, start:stop, :] = kernels.matmul(p_blk, v)

    o_merged = merge_heads(o)
    out = kernels.linear(o_merged, params.w_o)
    return out, DenseTrace(x=x, q=q, k=k, v=v, p=p, o_merged=o_merged, output=out)


def pooled_proxy_forward(x, params: RPAttnParams, config: AttnConfig, pool_grid):
    """Latents from grid average pooling; distribution identical to the gather layer.

    pool_grid = (g_h, g_w) counts cells, so M = g_h * g_w proxies. Keys and
    values are mean-pooled per cell; queries then cross-attend over the
    pooled keys and read the pooled values. Returns (y, latent_k, latent_v);
    the latents are exposed for the shift experiment.
    """
    g_h, g_w = pool_grid
    if config.grid_h % g_h != 0 or config.grid_w % g_w != 0:
        raise ConfigError(
            f"grid {config.grid_h}x{config.grid_w} not divisible by pool grid {g_h}x{g_w}")
    x = check_input(x, params, config)
    b = x.shape[0]

    heads = config.heads
    d = config.head_dim
    q, k, v = project_qkv(x, params, config)

    cell_h = config.grid_h // g_h
    cell_w = config.grid_w // g_w

    def pool(t):
        grid = t.reshape(b, heads, config.grid_h, config.grid_w, d)
        cells = grid.reshape(b, heads, g_h, cell_h, g_w, cell_w, d)
        return cells.mean(axis=(3, 5)).reshape(b, heads, g_h * g_w, d)

    latent_k = pool(k)
    latent_v = pool(v)

    scale = 1.0 / math.sqrt(d)
    p = kernels.softmax_lastdim(kernels.matmul(q, np.swapaxes(latent_k, -1, -2)) * scale)
    y = kernels.linear(merge_heads(kernels.matmul(p, latent_v)), params.w_o)
    return y, latent_k, latent_v


def kmeans_gather(keys, num_slots, iters, seed):
    """Hard routing of tokens to slots by per-(batch, head) k-means on key vectors.

    Returns one-hot assignments [B, h, N, M]. Lloyd's algorithm with
    plus-plus seeding runs on all G = B*h groups at once. Each (batch, head)
    group draws from its own random stream derived from the master seed, so
    its assignments do not depend on the rest of the batch.
    """
    if iters < 1:
        raise ConfigError("kmeans iters must be >= 1")
    if num_slots < 1:
        raise ConfigError("kmeans needs at least one slot")
    b, h, n, d = np.shape(keys)
    g, m = b * h, num_slots
    points = np.ascontiguousarray(keys, dtype=np.float64).reshape(g, n, d)
    groups = np.arange(g)
    rngs = [np.random.default_rng([seed, bi, hi]) for bi in range(b) for hi in range(h)]

    # Seeding: first centroid uniform, the rest by squared-distance sampling.
    # Generator.choice(n, p=p) searches the normalized cumsum of p at one
    # uniform draw; a group whose points all sit on centroids draws uniformly.
    centroids = np.empty((g, m, d))
    idx = np.array([rng.integers(n) for rng in rngs], dtype=np.intp)
    centroids[:, 0] = points[groups, idx]
    d2 = np.square(points - centroids[:, :1]).sum(axis=2)
    for j in range(1, m):
        total = d2.sum(axis=1, keepdims=True)
        live = total > 0.0
        cdf = np.cumsum(np.divide(d2, total, out=np.zeros_like(d2), where=live), axis=1)
        np.divide(cdf, cdf[:, -1:], out=cdf, where=live)
        for gi, rng in enumerate(rngs):
            idx[gi] = (cdf[gi].searchsorted(rng.random(), side="right") if live[gi, 0]
                       else rng.integers(n))
        centroids[:, j] = points[groups, idx]
        d2 = np.minimum(d2, np.square(points - centroids[:, j:j + 1]).sum(axis=2))

    sq = np.square(points).sum(axis=2)[:, :, None]
    base = groups[:, None] * m
    dist = np.empty((g, n, m))
    for _ in range(iters):
        # Squared Euclidean distances in one reused [G, N, M] buffer, bit for
        # bit |p|^2 - 2pc + |c|^2; argmin ties resolve to the lowest slot.
        np.matmul(points, centroids.transpose(0, 2, 1), out=dist)
        dist *= -2.0
        dist += sq
        dist += np.square(centroids).sum(axis=2)[:, None, :]
        assign = dist.argmin(axis=2)
        own = np.take_along_axis(dist, assign[..., None], axis=2)[..., 0]
        counts = np.bincount((base + assign).ravel(), minlength=g * m).reshape(g, m)
        # Empty clusters re-seed to the point currently farthest from its
        # assigned centroid (ascending slot order, each point used once).
        for gi in np.flatnonzero((counts == 0).any(axis=1)):
            for slot in range(m):
                if counts[gi, slot] == 0:
                    far = own[gi].argmax()
                    counts[gi, assign[gi, far]] -= 1
                    counts[gi, slot] += 1
                    assign[gi, far] = slot
                    own[gi, far] = -1.0
        # Member means, summed in point order; a slot re-seeding could not
        # fill (as when M > N) keeps its centroid.
        sums = np.zeros((g * m, d))
        np.add.at(sums, (base + assign).ravel(), points.reshape(g * n, d))
        filled = counts > 0
        centroids[filled] = sums.reshape(g, m, d)[filled] / counts[filled][:, None]

    del dist  # the one-hot below is the only [G, N, M] array left
    return (assign[..., None] == np.arange(m)).astype(np.float64).reshape(b, h, n, m)

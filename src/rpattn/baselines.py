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


def _kmeans_single(points, m, iters, rng):
    """Lloyd's algorithm with plus-plus seeding on one [N, d] point set."""
    n = points.shape[0]
    sq = np.square(points).sum(axis=1)

    # Seeding: first centroid uniform, the rest by squared-distance sampling.
    centroids = np.empty((m, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = np.square(points - centroids[0]).sum(axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.square(points - centroids[j]).sum(axis=1))

    assign = None
    for _ in range(iters):
        # Squared Euclidean distances; argmin ties resolve to the lowest slot.
        dist = sq[:, None] - 2.0 * points @ centroids.T + np.square(centroids).sum(axis=1)[None, :]
        assign = dist.argmin(axis=1)
        # Empty clusters re-seed to the point currently farthest from its
        # assigned centroid (ascending slot order, each point used once).
        own = dist[np.arange(n), assign].copy()
        for slot in range(m):
            if not (assign == slot).any():
                far = int(own.argmax())
                assign[far] = slot
                own[far] = -1.0
        # A slot re-seeding could not fill (as when M > N) keeps its centroid.
        for slot in range(m):
            members = points[assign == slot]
            if len(members):
                centroids[slot] = members.mean(axis=0)

    one_hot = np.zeros((n, m), dtype=np.float64)
    one_hot[np.arange(n), assign] = 1.0
    return one_hot


def kmeans_gather(keys, num_slots, iters, seed):
    """Hard routing of tokens to slots by per-(batch, head) k-means on key vectors.

    Returns one-hot assignments [B, h, N, M]. Each (batch, head) pair derives
    its own random stream from the master seed, so results do not depend on
    iteration order.
    """
    if iters < 1:
        raise ConfigError("kmeans iters must be >= 1")
    if num_slots < 1:
        raise ConfigError("kmeans needs at least one slot")
    keys = np.asarray(keys)
    b, h, n, _ = keys.shape
    m = num_slots
    out = np.zeros((b, h, n, m), dtype=np.float64)
    for bi in range(b):
        for hi in range(h):
            rng = np.random.default_rng([seed, bi, hi])
            out[bi, hi] = _kmeans_single(keys[bi, hi].astype(np.float64), m, iters, rng)
    return out


def kmeans_inertia(keys, assignments):
    """Sum of squared distances of each point to its cluster mean."""
    keys = np.asarray(keys, dtype=np.float64)
    b, h, n, d = keys.shape
    m = assignments.shape[-1]
    total = 0.0
    for bi in range(b):
        for hi in range(h):
            pts = keys[bi, hi]
            assign = assignments[bi, hi].argmax(axis=1)
            for slot in range(m):
                members = pts[assign == slot]
                if len(members) == 0:
                    continue
                total += float(np.square(members - members.mean(axis=0)).sum())
    return total

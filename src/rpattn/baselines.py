"""Reference attention mechanisms the representative layer is compared against.

* dense multi-head softmax attention (the quadratic reference),
* a pooled-proxy variant whose latents come from grid average pooling of
  keys and values (coordinate-driven compression),
* hard k-means routing that replaces the learned one-step gather.

The forwards take the layer's (x, params, config) and share its input
check; the dense backward lives in grad next to the layer's.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .attention import AttnConfig, RPAttnParams, check_input, merge_heads, project_qkv
from .errors import ConfigError, ContractError, ShapeError, check_count


@dataclass
class DenseTrace:
    """The record of one softmax_attention_forward call, with the call's own params."""

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o_merged: np.ndarray  # [B, N, C]
    output: np.ndarray
    params: RPAttnParams  # the forward's params (a reference, not a copy)


def softmax_attention_forward(x, params: RPAttnParams, config: AttnConfig):
    """Dense multi-head attention over all token pairs. Returns (output, DenseTrace).

    Reads only the w_q, w_k, w_v and w_o projections of params. The queries
    run in kernels.attention_blocks and the trace keeps no weights, so the
    full [B, h, N, N] weights (2.1 GB in float32 at B = 1, h = 2,
    N = 16384) never exist; memory grows with N * kernels.TOKEN_TILE.
    """
    x = check_input(x, params, config)
    q, k, v = project_qkv(x, params, config)
    o = np.empty_like(q)  # q's [B, N, h, d] memory layout: merge_heads(o) is a view
    for rows, p in kernels.attention_blocks(q, k, kernels.TOKEN_TILE):
        o[:, :, rows] = kernels.matmul(p, v)
    o_merged = merge_heads(o)
    out = kernels.linear(o_merged, params.w_o)
    return out, DenseTrace(x=x, q=q, k=k, v=v, o_merged=o_merged, output=out, params=params)


def pooled_proxy_forward(x, params: RPAttnParams, config: AttnConfig, pool_grid):
    """Latents from grid average pooling; distribution identical to the gather layer.

    pool_grid = (g_h, g_w) counts cells, so M = g_h * g_w proxies. Keys and
    values are mean-pooled per cell; queries then cross-attend over the
    pooled keys and read the pooled values. Returns (y, latent_k, latent_v);
    the latents are exposed for the shift experiment.
    """
    g_h, g_w = pool_grid
    check_count("pool grid height", g_h)
    check_count("pool grid width", g_w)
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

    _, o = kernels.attention(q, latent_k, latent_v)
    y = kernels.linear(merge_heads(o), params.w_o)
    return y, latent_k, latent_v


@lru_cache(maxsize=64)
def _seed_draws(seed, b, h, n, m):
    """The plus-plus seeding draws of every (batch, head) group, read-only.

    Group g = bi*h + hi draws from default_rng([seed, bi, hi]): one
    integers(n) for the first centroid, then one random() per later slot.
    """
    first = np.empty(b * h, dtype=np.intp)
    draws = np.empty((b * h, m - 1))
    for gi in range(b * h):
        rng = np.random.default_rng([seed, *divmod(gi, h)])
        first[gi] = rng.integers(n)
        draws[gi] = rng.random(m - 1)
    first.setflags(write=False)
    draws.setflags(write=False)
    return first, draws


def _uniform_draws(seed, gi, h, n, j, m):
    # Slots j..m-1 of a group whose points all sit on its first j centroids
    # draw integers(n) each, after the j draws that seeded the live slots.
    rng = np.random.default_rng([seed, *divmod(int(gi), h)])
    rng.integers(n)
    rng.random(j - 1)
    return {slot: rng.integers(n) for slot in range(j, m)}


def kmeans_gather(keys, num_slots, iters, seed):
    """Hard routing of tokens to slots by per-(batch, head) k-means on key vectors.

    Returns one-hot assignments [B, h, N, M] in the dtype of keys. Lloyd's
    algorithm with plus-plus seeding runs on all G = B*h groups at once. Each
    (batch, head) group draws from its own random stream derived from the
    master seed, so its assignments do not depend on the rest of the batch.
    The seeding draws are cached per (seed, B, h, N, M), at most 64 entries.
    Keys that are not a non-empty 4-D array raise ShapeError, keys holding
    NaN or inf ContractError, and a negative seed ConfigError.
    """
    check_count("kmeans iters", iters)
    check_count("kmeans num_slots", num_slots)
    check_count("kmeans seed", seed, minimum=0)
    keys = np.asarray(keys)
    if keys.ndim != 4 or keys.size == 0:
        raise ShapeError(f"kmeans keys must be a non-empty [B, h, N, d] array, got {keys.shape}")
    b, h, n, d = keys.shape
    g, m = b * h, num_slots
    points = np.ascontiguousarray(keys, dtype=np.float64).reshape(g, n, d)
    if not np.isfinite(points).all():
        raise ContractError("kmeans keys hold NaN or inf")
    groups = np.arange(g)
    first, draws = _seed_draws(seed, b, h, n, m)

    # Seeding: first centroid uniform, the rest by squared-distance sampling.
    # Generator.choice(n, p=p) searches the normalized cumsum of p at one
    # uniform draw (side="right", which on a non-decreasing cdf counts the
    # entries <= the draw); a group whose points all sit on centroids draws
    # uniformly, and stays so for every later slot.
    centroids = np.empty((g, m, d))
    centroids[:, 0] = points[groups, first]
    d2 = np.square(points - centroids[:, :1]).sum(axis=2)
    uniform = {}
    for j in range(1, m):
        total = d2.sum(axis=1, keepdims=True)
        live = total > 0.0
        cdf = np.cumsum(np.divide(d2, total, out=np.zeros_like(d2), where=live), axis=1)
        np.divide(cdf, cdf[:, -1:], out=cdf, where=live)
        idx = (cdf <= draws[:, j - 1:j]).sum(axis=1)
        for gi in np.flatnonzero(~live[:, 0]):
            if gi not in uniform:
                uniform[gi] = _uniform_draws(seed, gi, h, n, j, m)
            idx[gi] = uniform[gi][j]
        centroids[:, j] = points[groups, idx]
        d2 = np.minimum(d2, np.square(points - centroids[:, j:j + 1]).sum(axis=2))

    sq = np.square(points).sum(axis=2)[:, :, None]
    base = groups[:, None] * m
    cells = np.arange(d)
    for _ in range(iters):
        # Squared Euclidean distances in one [G, N, M] array, bit for bit
        # |p|^2 - 2pc + |c|^2, freed before the member sums index [G, N, d];
        # argmin ties resolve to the lowest slot.
        dist = np.matmul(points, centroids.transpose(0, 2, 1))
        dist *= -2.0
        dist += sq
        dist += np.square(centroids).sum(axis=2)[:, None, :]
        assign = dist.argmin(axis=2)
        own = dist.min(axis=2)
        del dist
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
        # Member means, summed in point order per (slot, dim) cell; a slot
        # re-seeding could not fill (as when M > N) keeps its centroid.
        sums = np.bincount(((base + assign)[..., None] * d + cells).ravel(),
                           weights=points.ravel(), minlength=g * m * d).reshape(g, m, d)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled][:, None]

    return (assign[..., None] == np.arange(m)).astype(keys.dtype).reshape(b, h, n, m)

"""Independent naive-loop oracles for the test suite.

Everything here is written with explicit Python loops and no code shared
with the library, so agreement between the two is meaningful.
"""

import math

import numpy as np


def matmul_loops(a, b):
    """Triple-loop batched matrix product; b may have fewer leading dims."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    p, q = a.shape[-2:]
    r = b.shape[-1]
    out = np.zeros(lead + (p, r))
    for idx in np.ndindex(lead):
        for i in range(p):
            for j in range(r):
                s = 0.0
                for t in range(q):
                    s += a[idx + (i, t)] * b[idx + (t, j)]
                out[idx + (i, j)] = s
    return out


def softmax_vec(v):
    top = max(v)
    exps = [math.exp(float(x) - float(top)) for x in v]
    z = sum(exps)
    return np.array([e / z for e in exps])


def softmax_lastdim_loops(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape[:-1]):
        out[idx] = softmax_vec(x[idx])
    return out


def layer_norm_vec(v, gamma, beta, eps):
    v = [float(t) for t in v]
    d = len(v)
    mu = sum(v) / d
    var = sum((t - mu) ** 2 for t in v) / d
    inv = 1.0 / math.sqrt(var + eps)
    return np.array([(t - mu) * inv * g + b for t, g, b in zip(v, gamma, beta)])


def layer_norm_loops(x, gamma, beta, eps):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape[:-1]):
        out[idx] = layer_norm_vec(x[idx], gamma, beta, eps)
    return out


def depthwise_conv2d_loops(x, kernel, bias):
    """Six-loop same-padded depthwise convolution."""
    x = np.asarray(x, dtype=np.float64)
    b, h, w, c = x.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    out = np.zeros_like(x)
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                for ci in range(c):
                    s = float(bias[ci])
                    for ki in range(k):
                        for kj in range(k):
                            ii = i + ki - pad
                            jj = j + kj - pad
                            if 0 <= ii < h and 0 <= jj < w:
                                s += x[bi, ii, jj, ci] * kernel[ki, kj, ci]
                    out[bi, i, j, ci] = s
    return out


def dense_attention_loops(x, w_q, w_k, w_v, w_o, heads):
    """Nested-loop dense multi-head attention."""
    x = np.asarray(x, dtype=np.float64)
    b, n, c = x.shape
    d = c // heads
    out = np.zeros_like(x)
    for bi in range(b):
        xq = matmul_loops(x[bi], w_q)
        xk = matmul_loops(x[bi], w_k)
        xv = matmul_loops(x[bi], w_v)
        merged = np.zeros((n, c))
        for hi in range(heads):
            q = xq[:, hi * d:(hi + 1) * d]
            k = xk[:, hi * d:(hi + 1) * d]
            v = xv[:, hi * d:(hi + 1) * d]
            for i in range(n):
                scores = [sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d)
                          for j in range(n)]
                weights = softmax_vec(scores)
                for t in range(d):
                    merged[i, hi * d + t] = sum(weights[j] * v[j, t] for j in range(n))
        out[bi] = matmul_loops(merged, w_o)
    return out


def straight_line_forward(x, params, *, heads, num_reps, grid_h, grid_w,
                          epsilon, ln_eps, enable_interact=True, enable_dwc=True):
    """Loop-based reimplementation of the whole layer; returns all intermediates."""
    x = np.asarray(x, dtype=np.float64)
    b, n, c = x.shape
    d = c // heads
    m = num_reps
    scale = 1.0 / math.sqrt(d)

    def project(w):
        flat = np.stack([matmul_loops(x[bi], w) for bi in range(b)])
        per_head = np.zeros((b, heads, n, d))
        for bi in range(b):
            for hi in range(heads):
                per_head[bi, hi] = flat[bi][:, hi * d:(hi + 1) * d]
        return flat, per_head

    _, q = project(params.w_q)
    _, k = project(params.w_k)
    xv_flat, v = project(params.w_v)

    a = np.zeros((b, heads, n, m))
    for bi in range(b):
        for hi in range(heads):
            for ni in range(n):
                logits = [sum(k[bi, hi, ni, di] * params.w_g[di, mi] for di in range(d))
                          for mi in range(m)]
                a[bi, hi, ni] = softmax_vec(logits)

    a_hat = np.zeros_like(a)
    for bi in range(b):
        for hi in range(heads):
            for mi in range(m):
                mass = sum(a[bi, hi, ni, mi] for ni in range(n))
                for ni in range(n):
                    a_hat[bi, hi, ni, mi] = a[bi, hi, ni, mi] / (mass + epsilon)

    k_l = np.zeros((b, heads, m, d))
    v_l = np.zeros((b, heads, m, d))
    for bi in range(b):
        for hi in range(heads):
            for mi in range(m):
                for di in range(d):
                    k_l[bi, hi, mi, di] = sum(
                        a_hat[bi, hi, ni, mi] * k[bi, hi, ni, di] for ni in range(n))
                    v_l[bi, hi, mi, di] = sum(
                        a_hat[bi, hi, ni, mi] * v[bi, hi, ni, di] for ni in range(n))

    k_l_bar = np.zeros_like(k_l)
    v_l_bar = np.zeros_like(v_l)
    for bi in range(b):
        for hi in range(heads):
            for mi in range(m):
                k_l_bar[bi, hi, mi] = layer_norm_vec(
                    k_l[bi, hi, mi], params.ln_k_gamma, params.ln_k_beta, ln_eps)
                v_l_bar[bi, hi, mi] = layer_norm_vec(
                    v_l[bi, hi, mi], params.ln_v_gamma, params.ln_v_beta, ln_eps)

    if enable_interact:
        p_lat = np.zeros((b, heads, m, m))
        z_l = np.zeros_like(v_l_bar)
        for bi in range(b):
            for hi in range(heads):
                q_t = matmul_loops(v_l_bar[bi, hi], params.w_lq)
                k_t = matmul_loops(v_l_bar[bi, hi], params.w_lk)
                v_t = matmul_loops(v_l_bar[bi, hi], params.w_lv)
                for mi in range(m):
                    scores = [sum(q_t[mi, t] * k_t[mj, t] for t in range(d)) * scale
                              for mj in range(m)]
                    p_lat[bi, hi, mi] = softmax_vec(scores)
                    for t in range(d):
                        z_l[bi, hi, mi, t] = v_l_bar[bi, hi, mi, t] + sum(
                            p_lat[bi, hi, mi, mj] * v_t[mj, t] for mj in range(m))
    else:
        p_lat = None
        z_l = v_l_bar.copy()

    p_dist = np.zeros((b, heads, n, m))
    o_global = np.zeros((b, n, c))
    for bi in range(b):
        for hi in range(heads):
            for ni in range(n):
                scores = [sum(q[bi, hi, ni, t] * k_l_bar[bi, hi, mi, t] for t in range(d)) * scale
                          for mi in range(m)]
                p_dist[bi, hi, ni] = softmax_vec(scores)
                for t in range(d):
                    o_global[bi, ni, hi * d + t] = sum(
                        p_dist[bi, hi, ni, mi] * z_l[bi, hi, mi, t] for mi in range(m))

    if enable_dwc:
        grid = xv_flat.reshape(b, grid_h, grid_w, c)
        bypass = depthwise_conv2d_loops(grid, params.dwc_kernel, params.dwc_bias)
        bypass = bypass.reshape(b, n, c)
    else:
        bypass = np.zeros((b, n, c))

    output = np.stack([matmul_loops(o_global[bi] + bypass[bi], params.w_o) for bi in range(b)])
    return {
        "q": q, "k": k, "v": v, "a": a, "a_hat": a_hat, "k_l": k_l, "v_l": v_l,
        "k_l_bar": k_l_bar, "v_l_bar": v_l_bar, "p_lat": p_lat, "z_l": z_l,
        "p_dist": p_dist, "o_global": o_global, "bypass_out": bypass, "output": output,
    }


def kmeans_gather_loops(keys, num_slots, iters, seed):
    """k-means routing with one Python pass per slot for re-seeding and centroids.

    Same seeding, distances and random streams as the layer's k-means (those
    fix which point goes where), but emptiness is tested and every centroid
    is averaged slot by slot. Returns one-hot assignments [B, h, N, M].
    """
    keys = np.asarray(keys, dtype=np.float64)
    b, h, n, _ = keys.shape
    m = num_slots
    out = np.zeros((b, h, n, m))
    for bi in range(b):
        for hi in range(h):
            rng = np.random.default_rng([seed, bi, hi])
            points = keys[bi, hi]
            sq = np.square(points).sum(axis=1)
            centroids = np.empty((m, points.shape[1]))
            centroids[0] = points[rng.integers(n)]
            d2 = np.square(points - centroids[0]).sum(axis=1)
            for j in range(1, m):
                total = d2.sum()
                idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
                centroids[j] = points[idx]
                d2 = np.minimum(d2, np.square(points - centroids[j]).sum(axis=1))
            for _ in range(iters):
                dist = (sq[:, None] - 2.0 * points @ centroids.T
                        + np.square(centroids).sum(axis=1)[None, :])
                assign = dist.argmin(axis=1)
                own = dist[np.arange(n), assign].copy()
                for slot in range(m):
                    if not (assign == slot).any():
                        far = int(own.argmax())
                        assign[far] = slot
                        own[far] = -1.0
                for slot in range(m):
                    members = points[assign == slot]
                    if len(members):
                        centroids[slot] = members.mean(axis=0)
            out[bi, hi, np.arange(n), assign] = 1.0
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

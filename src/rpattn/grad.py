"""Analytic backward passes for the representative-attention layer and the
dense softmax baseline.

Gradients are derived by hand, one reverse per forward stage, run in
reverse order: `_output_backward` (the output projection, then the two
stages that wrote `fused`: `_local_bypass_backward` and
`_blocked_attention_backward` of `distribute_global`),
`_latent_interact_backward` (latent self-attention and the two latent layer
norms), `_gather_backward` (mass-normalized slot gathering, then the
assignment softmax under learned routing, in token tiles that each recompute
their keys and assignments) and `_project_qkv_backward`. The trace keeps no
projection of x: `rpattention_backward` projects the values once for the
bypass and gather reverses, and the tiles recompute the keys and queries.
`_linear_backward` is the one reverse of `inp @ w`, `_attention_backward`
of `kernels.attention`, and `_blocked_attention_backward` of the
query-tiled attention that the layer's distribution and the dense baseline
run: it recomputes each token tile's queries from the trace's x and
params.w_q, and the tile's weights, so the two share one reverse. The
backwards thus read the forward's params as well as its trace, and a trace
is valid only until those params are mutated. A central-finite-difference
harness verifies every parameter.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .attention import (
    AttnConfig,
    ForwardTrace,
    LN_EPS,
    PARAM_FIELDS,
    RPAttnParams,
    init_params,
    latent_qkv,
    merge_heads,
    project_qkv,
    rpattention_forward,
    split_heads,
    tile_assign,
)
from .baselines import DenseTrace
from .errors import ConfigError, ContractError, check_real_array


@dataclass
class GradSet(RPAttnParams):
    """One gradient array per parameter field, plus the input gradient."""

    grad_x: np.ndarray


def _softmax_backward(p, dp):
    # p = softmax(s) rowwise: ds = p * (dp - sum(dp * p)), in one new array
    # laid out like p and dp.
    ds = dp * p
    np.subtract(dp, ds.sum(axis=-1, keepdims=True), out=ds)
    ds *= p
    return ds


def _attention_backward(q, k, v, p, d_o, d_q=None):
    # Reverse of kernels.attention: p = softmax(q k^T / sqrt(d)), o = p v. Like
    # p, d_p (and so d_s) is built key-major: the swapped view of v d_o^T.
    # d_q is written into the given array (rows of a larger one) when passed.
    scale = 1.0 / math.sqrt(q.shape[-1])
    d_p = np.swapaxes(kernels.matmul(v, np.swapaxes(d_o, -1, -2)), -1, -2)
    d_v = kernels.matmul(np.swapaxes(p, -1, -2), d_o)
    d_s = _softmax_backward(p, d_p)
    d_q = kernels.matmul(d_s, k, out=d_q)
    d_q *= scale
    d_k = kernels.matmul(np.swapaxes(d_s, -1, -2), q)
    d_k *= scale
    return d_q, d_k, d_v


def _blocked_attention_backward(x, w_q, k, v, d_o):
    # Reverse of attention in token tiles whose queries are project_qkv of x
    # [B, N, C] through w_q, over per-head keys k and values v: (d_q, d_k,
    # d_v). Each tile's queries and weights are recomputed and its rows of
    # d_q written; its shares of d_k and d_v are summed tile by tile. d_q
    # has [B, N, h, d] memory, so merge_heads(d_q) is a view.
    heads = k.shape[1]
    d_q = split_heads(np.empty(x.shape[:2] + (w_q.shape[1],), dtype=x.dtype), heads)
    d_k, d_v = np.zeros_like(k), np.zeros_like(v)
    for rows in kernels.token_tiles(x.shape[1], kernels.TOKEN_TILE):
        (q,) = project_qkv(x[:, rows], (w_q,), heads)
        _, dk, dv = _attention_backward(q, k, v, kernels.attention_weights(q, k),
                                        d_o[..., rows, :], d_q[..., rows, :])
        d_k += dk
        d_v += dv
    return d_q, d_k, d_v


def _grad_set(params, grads, grad_x):
    # The fields a forward did not read get zero gradients; grad_x is always computed.
    zeros = {name: np.zeros_like(value) for name, value in params.field_dict().items()
             if name not in grads}
    return GradSet(**grads, **zeros, grad_x=grad_x)


def _check_grad_output(grad_output, output):
    # grad_output follows the input's contract, in the output's dtype and shape.
    grad_output = check_real_array("grad_output", grad_output, output.dtype)
    if grad_output.shape != output.shape:
        raise ContractError(f"grad_output shape {grad_output.shape} != output shape {output.shape}")
    return grad_output


def _layer_norm_backward(x, gamma, eps, dy):
    # Forward: xhat = (x - mu) / sqrt(var + eps); y = gamma * xhat + beta
    mu = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mu).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * ivar

    reduce_axes = tuple(range(x.ndim - 1))
    dgamma = (dy * xhat).sum(axis=reduce_axes)
    dbeta = dy.sum(axis=reduce_axes)

    dxhat = dy * gamma
    dx = ivar * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def _linear_backward(inp, d_outs, weights, d_inp=None):
    # Reverse of out_i = inp @ w_i for each pair of d_outs and weights:
    # (d_w_1, .., d_w_n, d_inp). dW[c, k] sums inp[.., c] * d_out[.., k] over
    # all leading positions; the products d_out_i w_iᵀ are summed in order,
    # onto d_inp in place when it is given (a residual's gradient). Every
    # product after the first that d_inp takes lands in one reused buffer.
    inp_t = inp.reshape(-1, inp.shape[-1]).T
    d_weights = [kernels.matmul(inp_t, d_out.reshape(-1, d_out.shape[-1])) for d_out in d_outs]
    d_in = None
    for d_out, w in zip(d_outs, weights):
        if d_inp is None:
            d_inp = kernels.matmul(d_out, w.T)
        else:
            d_in = kernels.matmul(d_out, w.T, out=d_in)
            d_inp += d_in
    return (*d_weights, d_inp)


def _project_qkv_backward(x, d_q, d_k, d_v, params):
    # Reverse of project_qkv from per-head gradients: (d_w_q, d_w_k, d_w_v, d_x).
    # The per-head gradients the backwards build have [B, N, h, d] memory, so
    # their merges are views.
    d_outs = [merge_heads(t) for t in (d_q, d_k, d_v)]
    return _linear_backward(x, d_outs, (params.w_q, params.w_k, params.w_v))


def _depthwise_conv2d_backward(x, kernel, dy):
    # Reverse of kernels.depthwise_conv2d for x and dy [B, H, W, C]: (dx, dkernel,
    # dbias). dx[i, j] sums dy[i+p-ki, j+p-kj] * kernel[ki, kj] over the taps in
    # (ki, kj) order, which is the forward kernel run on dy turned by 180°,
    # turned back: dx is a reversed view of its output. The taps that land in
    # its zero padding add ±0, which leaves a sum begun at +0 unchanged, as
    # does the zero bias. Each dkernel entry sums its tap's product with dy
    # over (B, H, W), every product in one reused buffer, and dbias sums dy.
    # A tap reads x through a shifted view; where it would read the zero
    # padding, the buffer takes 0 * dy (the same ±0), so each whole-buffer
    # sum adds the same values in the same order as over a padded copy.
    # Tap (ki, kj) reads padding in the rows outside i0:i1 and the columns
    # outside j0:j1. No tap of a kernel column writes its border columns
    # with anything but 0 * dy, so they are filled once per kernel column.
    b, h, w, c = x.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    dx = kernels.depthwise_conv2d(dy[:, ::-1, ::-1], kernel, np.zeros(c, dy.dtype))[:, ::-1, ::-1]
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
    return dx, dkernel, dy.sum(axis=(0, 1, 2))


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


def _local_bypass_backward(trace, xv, d_fused, grads):
    # Reverse of local_bypass over the values xv [B, N, C]: d_xv [B, H, W, C]
    # on the token grid (a turned view of the depthwise kernel's output, so
    # it is never copied), or None when the bypass is off.
    config = trace.config
    if not config.enable_dwc:
        return None
    b, n, c = d_fused.shape
    grid = (b, config.grid_h, config.grid_w, c)
    d_xv, grads["dwc_kernel"], grads["dwc_bias"] = _depthwise_conv2d_backward(
        xv.reshape(grid), trace.params.dwc_kernel, d_fused.reshape(grid))
    return d_xv


def _output_backward(trace, v, grad_output, grads):
    # Reverse of output = fused @ w_o and of the two stages that wrote fused,
    # the bypass over the values v and distribute_global: (d_q, d_k_l_bar,
    # d_z_l, d_xv). d_fused has no other reader, so it is freed when this
    # returns.
    grads["w_o"], d_fused = _linear_backward(trace.fused, [grad_output], [trace.params.w_o])
    d_xv = _local_bypass_backward(trace, merge_heads(v), d_fused, grads)
    return (*_blocked_attention_backward(trace.x, trace.params.w_q, trace.k_l_bar, trace.z_l,
                                         split_heads(d_fused, trace.config.heads)), d_xv)


def _latent_interact_backward(trace, d_k_l_bar, d_z_l, grads):
    # Reverse of latent_interact, z = v_bar + attention(latent_qkv(v_bar)) after
    # the two layer norms: (d_k_l, d_v_l).
    params = trace.params
    d_v_l_bar = d_z_l
    if trace.config.enable_interact:
        d_qkv = _attention_backward(*latent_qkv(trace.v_l_bar, params), trace.p_lat, d_z_l)
        grads["w_lq"], grads["w_lk"], grads["w_lv"], d_v_l_bar = _linear_backward(
            trace.v_l_bar, d_qkv, (params.w_lq, params.w_lk, params.w_lv), d_z_l.copy())
    d_k_l, grads["ln_k_gamma"], _ = _layer_norm_backward(
        trace.k_l, params.ln_k_gamma, LN_EPS, d_k_l_bar)
    d_v_l, grads["ln_v_gamma"], grads["ln_v_beta"] = _layer_norm_backward(
        trace.v_l, params.ln_v_gamma, LN_EPS, d_v_l_bar)
    return d_k_l, d_v_l


def _gather_backward(trace, v, d_k_l, d_v_l, grads):
    # Reverse of attention.gather over the values v, k_l = (aᵀ k) / mass and
    # v_l = (aᵀ v) / mass, one token tile at a time: (d_k, d_v). Each tile
    # recomputes its assignments and writes its rows of d_k and d_v, built in
    # v's [B, N, h, d] memory, straight from BLAS or from the add of the
    # routing's share. Hard k-means assignments are constants and read no
    # keys; learned ones re-project the tile's keys from x, add their share
    # to the tile's d_k rows, and their per-head w_g products are summed tile
    # by tile.
    x, w_k, w_g = trace.x, trace.params.w_k, trace.params.w_g
    learned = trace.config.routing == "learned"
    g_k = d_k_l / trace.mass
    g_v = d_v_l / trace.mass
    if learned:
        shift = (trace.k_l * g_k + trace.v_l * g_v).sum(axis=-1, keepdims=True)
    d_k, d_v, d_w_g, k = np.empty_like(v), np.empty_like(v), None, None
    for rows in kernels.token_tiles(x.shape[1], kernels.TOKEN_TILE):
        if learned:
            (k,) = project_qkv(x[:, rows], (w_k,), v.shape[1])
        a = tile_assign(k, w_g, trace.slots, trace.config.num_representatives, rows)
        kernels.matmul(a, g_v, out=d_v[..., rows, :])
        if learned:
            d_k_share, d_w_g_share = _gather_assign_backward(
                a, k, v[..., rows, :], g_k, g_v, shift, w_g)
            np.add(kernels.matmul(a, g_k), d_k_share, out=d_k[..., rows, :])
            d_w_g = d_w_g_share if d_w_g is None else np.add(d_w_g, d_w_g_share, out=d_w_g)
        else:
            kernels.matmul(a, g_k, out=d_k[..., rows, :])
    if learned:
        grads["w_g"] = d_w_g.sum(axis=(0, 1)).T
    return d_k, d_v


def _gather_assign_backward(a, k, v, g_k, g_v, shift, w_g):
    # Reverse of gather_assign over one token tile of assignments a, keys k and
    # values v: (the tile's share of d_k, its per-head w_g products d_logitsᵀ k
    # [B, h, M, d]). Since sum_t a[t,m] k[t] = mass[m] k_l[m], the quotient
    # rule gives d_a[n,m] = k[n].g_k[m] + v[n].g_v[m] - shift[m], with
    # shift[m] = k_l[m].g_k[m] + v_l[m].g_v[m]. Like a, d_a is built
    # slot-major, [B, h, M, T]. The w_g products are summed over (B, h) by the
    # caller: folding the leading axes of the slot-major d_logits would copy it.
    d_a = kernels.matmul(g_k, np.swapaxes(k, -1, -2))
    d_a += kernels.matmul(g_v, np.swapaxes(v, -1, -2))
    d_a -= shift
    d_logits = _softmax_backward(a, np.swapaxes(d_a, -1, -2))
    return kernels.matmul(d_logits, w_g.T), kernels.matmul(np.swapaxes(d_logits, -1, -2), k)


def rpattention_backward(trace: ForwardTrace, grad_output: np.ndarray) -> GradSet:
    """Exact gradients of sum(grad_output * output) w.r.t. every parameter and x.

    Params and config are the forward's own, read from the trace, and
    grad_output follows x's contract. Fields the forward did not read (dwc or
    interaction when disabled, w_g under k-means routing) get zero gradients:
    the hard k-means assignments are constants, so no gradient flows into the
    anchors or through the routing.
    """
    params = trace.params
    grad_output = _check_grad_output(grad_output, trace.output)
    (v,) = project_qkv(trace.x, (params.w_v,), trace.config.heads)
    grads = {}
    d_q, d_k_l_bar, d_z_l, d_xv = _output_backward(trace, v, grad_output, grads)
    d_k_l, d_v_l = _latent_interact_backward(trace, d_k_l_bar, d_z_l, grads)
    d_k, d_v = _gather_backward(trace, v, d_k_l, d_v_l, grads)
    del v  # so the values are not live beside the projection reverse
    if d_xv is not None:
        # The bypass reads the same values: its gradient, a turned [B, H, W, C]
        # view, is added into d_v through a view of d_v's [B, N, h, d] memory
        # on the token grid, and dropped before the projection reverse.
        d_v_grid = merge_heads(d_v).reshape(d_xv.shape)
        d_v_grid += d_xv
    del d_xv
    grads["w_q"], grads["w_k"], grads["w_v"], d_x = _project_qkv_backward(
        trace.x, d_q, d_k, d_v, params)
    return _grad_set(params, grads, d_x)


def softmax_attention_backward(trace: DenseTrace, grad_output: np.ndarray) -> GradSet:
    """Exact gradients of sum(grad_output * output) for the dense baseline.

    Params are the forward's own, read from the trace; grad_output follows
    x's contract. Each token tile's queries and weights are recomputed,
    without its readout; fields the dense forward does not read get zero
    gradients.
    """
    params = trace.params
    grad_output = _check_grad_output(grad_output, trace.output)
    grads = {}
    grads["w_o"], d_merged = _linear_backward(trace.o_merged, [grad_output], [params.w_o])
    d_q, d_k, d_v = _blocked_attention_backward(
        trace.x, params.w_q, trace.k, trace.v, split_heads(d_merged, trace.k.shape[1]))
    grads["w_q"], grads["w_k"], grads["w_v"], d_x = _project_qkv_backward(
        trace.x, d_q, d_k, d_v, params)
    return _grad_set(params, grads, d_x)


def finite_diff_grad(loss_fn: Callable[[np.ndarray], float], tensor: np.ndarray,
                     h: float) -> np.ndarray:
    """Central differences (f(t + h e_i) - f(t - h e_i)) / 2h per entry."""
    if h <= 0:
        raise ConfigError("finite difference step must be positive")
    work = np.array(tensor, dtype=np.float64, copy=True)
    out = np.zeros_like(work)
    for idx in np.ndindex(work.shape):
        orig = work[idx]
        work[idx] = orig + h
        f_plus = loss_fn(work)
        work[idx] = orig - h
        f_minus = loss_fn(work)
        work[idx] = orig
        out[idx] = (f_plus - f_minus) / (2.0 * h)
    return out


@dataclass
class GradcheckEntry:
    name: str
    max_rel_err: float
    passed: bool
    note: str = ""


@dataclass
class GradcheckReport:
    config: AttnConfig
    seed: int
    step: float
    tol: float
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def gradcheck(config: AttnConfig, seed: int, step: float = 1e-5, tol: float = 1e-4,
              batch: int = 1) -> GradcheckReport:
    """Compare the analytic backward against central differences.

    Runs on every parameter tensor and on the input. Requires float64, the
    precision for correctness work (central differences in float32 drown in
    rounding), and learned routing (hard routing has no assignment gradient
    by design).
    """
    if config.dtype != "float64":
        raise ConfigError("gradcheck requires float64")
    if config.routing != "learned":
        raise ConfigError("gradcheck only applies to learned routing")

    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    x = rng.standard_normal((batch, config.num_tokens, config.channels))
    # Small output-weight scale. Some weight gradients have near-zero entries
    # (|grad| 3e-7 to 8e-7 in criterion 1's config) whose central differences
    # err by ~1e-10, a relative error above 1e-4 unscaled; the scale takes
    # them under _max_rel_err's 1e-8 floor. Larger entries' relative errors
    # do not depend on the scale.
    g_out = rng.standard_normal((batch, config.num_tokens, config.channels)) * 2e-3

    y, trace = rpattention_forward(x, params, config)
    grads = rpattention_backward(trace, g_out)

    def loss_with(p: RPAttnParams, xin: np.ndarray) -> float:
        out, _ = rpattention_forward(xin, p, config)
        return float((out * g_out).sum())

    entries = []

    def check(name: str, analytic: np.ndarray, loss_fn, base: np.ndarray):
        if not np.isfinite(analytic).all():
            entries.append(GradcheckEntry(name, math.inf, False, "non-finite analytic gradient"))
            return
        numeric = finite_diff_grad(loss_fn, base, step)
        err = _max_rel_err(analytic, numeric)
        entries.append(GradcheckEntry(name, err, err < tol))

    for name in PARAM_FIELDS:
        base = getattr(params, name)
        check(
            name,
            getattr(grads, name),
            lambda t, _n=name: loss_with(replace(params, **{_n: t}), x),
            base,
        )
    check("x", grads.grad_x, lambda t: loss_with(params, t), x)

    return GradcheckReport(config=config, seed=seed, step=step, tol=tol, entries=entries)

"""Analytic backward passes for the representative-attention layer and the
dense softmax baseline.

Gradients are derived by hand, one reverse per forward stage, run in
reverse order: `_output_backward` (the output projection, then the two
stages that wrote `fused`: `_blocked_attention_backward` of
`attention.blocked_attention`'s readout, then `_local_bypass_backward`),
`_latent_interact_backward` (latent self-attention and the two latent layer
norms), `_gather_backward` (mass-normalized slot gathering, then the
assignment softmax under learned routing, in token tiles that each recompute
their keys and assignments) and `_project_qkv_backward`. The trace keeps no
projection of x and no `fused`: `rpattention_backward` projects the values
once for the bypass and gather reverses, the tiles recompute the keys and
queries, and `_output_backward` rebuilds `fused` for w_o's gradient through
the forward's own stages in the forward's order, `attention.local_bypass`
over a copy of the values, then each tile's readout. It frees `fused`
before the bypass reverse runs, which writes the bypass's value gradient
over `d_fused` (`kernels.depthwise_conv2d_backward`, beside its forward):
that memory is d_v, `_gather_backward` adds its share into it, and the
projection reverse frees d_q, d_k and d_v in turn, so the backward holds
at most five [B, N, C] arrays, the trace's output among them.
`_linear_backward` is the one reverse of `inp @ w` (`_weight_grad` its
weight gradient), `_attention_backward` of `kernels.attention`, and
`_blocked_attention_backward` of `attention.blocked_attention`, the
query-tiled readout that the layer's distribution and the dense baseline
run: it recomputes each token tile's queries from the trace's x and
params.w_q, the tile's weights and its readout, which it adds into the
caller's buffer, so the two share one reverse and neither trace keeps the
array its forward projected through w_o. The backwards thus read the
forward's params as well as its trace, and a trace is valid only until
those params are mutated. A central-finite-difference harness verifies
every parameter.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import attention, kernels
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


def _blocked_attention_backward(x, w_q, k, v, d_o, readout):
    # Reverse of attention.blocked_attention's readout, whose queries are
    # project_qkv of x [B, N, C] through w_q, over per-head keys k and
    # values v, up to the output projection: (d_q, d_k, d_v). Each tile's
    # queries and weights are recomputed, its readout p v added into its
    # rows of readout [B, h, N, d] in place (which rebuilds what the forward
    # projected through w_o, for that weight's gradient) and its rows of d_q
    # written; its shares of d_k and d_v are summed tile by tile. d_q has
    # [B, N, h, d] memory, so merge_heads(d_q) is a view.
    heads = k.shape[1]
    d_q = split_heads(np.empty(x.shape[:2] + (w_q.shape[1],), dtype=x.dtype), heads)
    d_k, d_v = np.zeros_like(k), np.zeros_like(v)
    for rows in kernels.token_tiles(x.shape[1], kernels.TOKEN_TILE):
        (q,) = project_qkv(x[:, rows], (w_q,), heads)
        p = kernels.attention_weights(q, k)
        readout[..., rows, :] += kernels.matmul(p, v)
        _, dk, dv = _attention_backward(q, k, v, p, d_o[..., rows, :], d_q[..., rows, :])
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


def _weight_grad(inp, d_out):
    # Gradient of w in out = inp @ w: dW[c, k] sums inp[.., c] * d_out[.., k]
    # over all leading positions.
    return kernels.matmul(inp.reshape(-1, inp.shape[-1]).T, d_out.reshape(-1, d_out.shape[-1]))


def _linear_backward(inp, d_outs, weights, d_inp=None):
    # Reverse of out_i = inp @ w_i for each pair of the list d_outs and
    # weights: (d_w_1, .., d_w_n, d_inp), each d_w_i a _weight_grad; the
    # products d_out_i w_iᵀ are summed in order, onto d_inp in place when it
    # is given (a residual's gradient). Every product after the first that
    # d_inp takes lands in one reused buffer. The list is emptied as the
    # reverse goes, each d_out_i dropped once its two products are taken,
    # so a gradient the caller keeps no other reference to is freed then.
    d_weights, d_in = [], None
    for w in weights:
        d_out = d_outs.pop(0)
        d_weights.append(_weight_grad(inp, d_out))
        if d_inp is None:
            d_inp = kernels.matmul(d_out, w.T)
        else:
            d_in = kernels.matmul(d_out, w.T, out=d_in)
            d_inp += d_in
    return (*d_weights, d_inp)


def _project_qkv_backward(x, d_heads, params):
    # Reverse of project_qkv from the list of per-head gradients [d_q, d_k,
    # d_v]: (d_w_q, d_w_k, d_w_v, d_x). The per-head gradients the backwards
    # build have [B, N, h, d] memory, so their merges are views. The list is
    # emptied and each gradient freed once its products are taken
    # (_linear_backward), so the caller hands over its only references.
    d_outs = [merge_heads(t) for t in d_heads]
    d_heads.clear()
    return _linear_backward(x, d_outs, (params.w_q, params.w_k, params.w_v))


def _local_bypass_backward(trace, xv, d_fused, grads):
    # Reverse of local_bypass over the values xv [B, N, C]: d_xv, written
    # over d_fused, a C-contiguous [B, N, C] array, so the returned d_xv is
    # d_fused's memory (kernels.depthwise_conv2d_backward). With the bypass
    # off it reads nothing, and d_fused is filled with -0: -0 is the additive
    # identity of every value, ±0 included, so sums built on it keep their
    # bits.
    config = trace.config
    if not config.enable_dwc:
        d_fused.fill(-0.0)
        return d_fused
    b, n, c = d_fused.shape
    grid = (b, config.grid_h, config.grid_w, c)
    dx, grads["dwc_kernel"], grads["dwc_bias"] = kernels.depthwise_conv2d_backward(
        xv.reshape(grid), trace.params.dwc_kernel, d_fused.reshape(grid))
    return dx.reshape(d_fused.shape)


def _output_backward(trace, v, grad_output, grads):
    # Reverse of output = fused @ w_o and of the two stages that wrote fused,
    # the bypass over the values v and distribute_global: (d_q, d_k_l_bar,
    # d_z_l, d_v). The trace keeps no fused, so after d_fused it is rebuilt
    # through the forward's own stages, bit for bit: local_bypass over a
    # copy of the values, then each tile's readout, added by the blocked
    # reverse. fused is freed once it has given w_o's gradient, and only
    # then the bypass reverse runs, so its tap buffer is never live beside
    # fused. d_v is d_fused's memory, which the bypass reverse writes d_xv
    # over: the gather reverse adds its share into it.
    params, config = trace.params, trace.config
    xv = merge_heads(v)
    d_fused = kernels.matmul(grad_output, params.w_o.T)
    fused = attention.local_bypass(xv.copy(), params, config)
    d_q, d_k_l_bar, d_z_l = _blocked_attention_backward(
        trace.x, params.w_q, trace.k_l_bar, trace.z_l, split_heads(d_fused, config.heads),
        split_heads(fused, config.heads))
    grads["w_o"] = _weight_grad(fused, grad_output)
    del fused
    d_v = split_heads(_local_bypass_backward(trace, xv, d_fused, grads), config.heads)
    return d_q, d_k_l_bar, d_z_l, d_v


def _latent_interact_backward(trace, d_k_l_bar, d_z_l, grads):
    # Reverse of latent_interact, z = v_bar + attention(latent_qkv(v_bar)) after
    # the two layer norms: (d_k_l, d_v_l).
    params = trace.params
    d_v_l_bar = d_z_l
    if trace.config.enable_interact:
        d_qkv = list(_attention_backward(*latent_qkv(trace.v_l_bar, params), trace.p_lat, d_z_l))
        grads["w_lq"], grads["w_lk"], grads["w_lv"], d_v_l_bar = _linear_backward(
            trace.v_l_bar, d_qkv, (params.w_lq, params.w_lk, params.w_lv), d_z_l.copy())
    d_k_l, grads["ln_k_gamma"], _ = _layer_norm_backward(
        trace.k_l, params.ln_k_gamma, LN_EPS, d_k_l_bar)
    d_v_l, grads["ln_v_gamma"], grads["ln_v_beta"] = _layer_norm_backward(
        trace.v_l, params.ln_v_gamma, LN_EPS, d_v_l_bar)
    return d_k_l, d_v_l


def _gather_backward(trace, v, d_k_l, d_v_l, d_v, grads):
    # Reverse of attention.gather over the values v, k_l = (aᵀ k) / mass and
    # v_l = (aᵀ v) / mass, one token tile at a time: d_k. Each tile
    # recomputes its assignments, writes its rows of d_k, built in v's
    # [B, N, h, d] memory, straight from BLAS or from the add of the
    # routing's share, and adds its a g_v onto its rows of d_v in place: the
    # caller's gradient of the values, already holding the bypass's share
    # (_output_backward), which thus has the bits of a g_v + d_xv. Hard
    # k-means assignments are constants and read no keys; learned ones
    # re-project the tile's keys from x, add their share to the tile's d_k
    # rows, and their per-head w_g products are summed tile by tile.
    x, w_k, w_g = trace.x, trace.params.w_k, trace.params.w_g
    learned = trace.config.routing == "learned"
    g_k = d_k_l / trace.mass
    g_v = d_v_l / trace.mass
    if learned:
        shift = (trace.k_l * g_k + trace.v_l * g_v).sum(axis=-1, keepdims=True)
    d_k, d_w_g, k = np.empty_like(v), None, None
    for rows in kernels.token_tiles(x.shape[1], kernels.TOKEN_TILE):
        if learned:
            (k,) = project_qkv(x[:, rows], (w_k,), v.shape[1])
        a = tile_assign(k, w_g, trace.slots, trace.config.num_representatives, rows)
        np.add(kernels.matmul(a, g_v), d_v[..., rows, :], out=d_v[..., rows, :])
        if learned:
            d_k_share, d_w_g_share = _gather_assign_backward(
                a, k, v[..., rows, :], g_k, g_v, shift, w_g)
            np.add(kernels.matmul(a, g_k), d_k_share, out=d_k[..., rows, :])
            d_w_g = d_w_g_share if d_w_g is None else np.add(d_w_g, d_w_g_share, out=d_w_g)
        else:
            kernels.matmul(a, g_k, out=d_k[..., rows, :])
    if learned:
        grads["w_g"] = d_w_g.sum(axis=(0, 1)).T
    return d_k


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
    d_q, d_k_l_bar, d_z_l, d_v = _output_backward(trace, v, grad_output, grads)
    d_k_l, d_v_l = _latent_interact_backward(trace, d_k_l_bar, d_z_l, grads)
    d_k = _gather_backward(trace, v, d_k_l, d_v_l, d_v, grads)
    del v  # so the values are not live beside the projection reverse
    d_heads = [d_q, d_k, d_v]
    del d_q, d_k, d_v  # the list holds the only references, which the reverse drops in turn
    grads["w_q"], grads["w_k"], grads["w_v"], d_x = _project_qkv_backward(
        trace.x, d_heads, params)
    return _grad_set(params, grads, d_x)


def softmax_attention_backward(trace: DenseTrace, grad_output: np.ndarray) -> GradSet:
    """Exact gradients of sum(grad_output * output) for the dense baseline.

    Params are the forward's own, read from the trace; grad_output follows
    x's contract. Each token tile's queries, weights and readout are
    recomputed, the readouts into a zero [B, N, h, d] array that gives
    w_o's gradient; fields the dense forward does not read get zero
    gradients.
    """
    params = trace.params
    grad_output = _check_grad_output(grad_output, trace.output)
    grads = {}
    d_merged = kernels.matmul(grad_output, params.w_o.T)
    o = np.zeros_like(trace.k)  # k's [B, N, h, d] memory: merge_heads(o) is a view
    d_heads = list(_blocked_attention_backward(
        trace.x, params.w_q, trace.k, trace.v, split_heads(d_merged, trace.k.shape[1]), o))
    grads["w_o"] = _weight_grad(merge_heads(o), grad_output)
    del o, d_merged
    grads["w_q"], grads["w_k"], grads["w_v"], d_x = _project_qkv_backward(
        trace.x, d_heads, params)
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

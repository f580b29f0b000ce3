"""Analytic backward passes for the representative-attention layer and the
dense softmax baseline.

Gradients are derived by hand, one reverse per forward stage, run in
reverse order: `_output_backward` (the output projection, then the two
stages that wrote `fused`: `_local_bypass_backward` and
`_blocked_attention_backward` of `distribute_global`),
`_latent_interact_backward` (latent self-attention and the two latent layer
norms), `_gather_backward` (mass-normalized slot gathering, then the
assignment softmax under learned routing) and `_project_qkv_backward`.
`_linear_backward` is the one reverse of `inp @ w`, `_attention_backward`
of `kernels.attention`, and `_blocked_attention_backward` of
`kernels.attention_blocks`: it recomputes each block's weights, so the
layer's distribution and the dense baseline share one blocked reverse. A
central-finite-difference harness verifies every parameter.
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
    rpattention_forward,
    split_heads,
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


def _attention_backward(q, k, v, p, d_o):
    # Reverse of kernels.attention: p = softmax(q k^T / sqrt(d)), o = p v. Like
    # p, d_p (and so d_s) is built key-major: the swapped view of v d_o^T.
    scale = 1.0 / math.sqrt(q.shape[-1])
    d_p = np.swapaxes(kernels.matmul(v, np.swapaxes(d_o, -1, -2)), -1, -2)
    d_v = kernels.matmul(np.swapaxes(p, -1, -2), d_o)
    d_s = _softmax_backward(p, d_p)
    d_q = kernels.matmul(d_s, k)
    d_q *= scale
    d_k = kernels.matmul(np.swapaxes(d_s, -1, -2), q)
    d_k *= scale
    return d_q, d_k, d_v


def _blocked_attention_backward(q, k, v, d_o):
    # Reverse of attention run over kernels.attention_blocks: (d_q, d_k, d_v).
    # Each block's weights are recomputed and its rows of d_q written; its
    # shares of d_k and d_v are summed block by block. d_q has q's memory
    # layout, so for per-head q (a split_heads view) merge_heads(d_q) is a view.
    d_q, d_k, d_v = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    for rows, p in kernels.attention_blocks(q, k, kernels.TOKEN_TILE):
        d_q[..., rows, :], dk, dv = _attention_backward(
            q[..., rows, :], k, v, p, d_o[..., rows, :])
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
    # onto d_inp in place when it is given (a residual's gradient).
    inp_t = inp.reshape(-1, inp.shape[-1]).T
    d_weights = [kernels.matmul(inp_t, d_out.reshape(-1, d_out.shape[-1])) for d_out in d_outs]
    for d_out, w in zip(d_outs, weights):
        d_in = kernels.matmul(d_out, w.T)
        d_inp = d_in if d_inp is None else np.add(d_inp, d_in, out=d_inp)
    return (*d_weights, d_inp)


def _project_qkv_backward(x, d_q, d_k, d_v, params, d_xv=None):
    # Reverse of project_qkv from per-head gradients: (d_w_q, d_w_k, d_w_v, d_x).
    # The depthwise bypass reads the same values, so its gradient d_xv [B, N, C]
    # joins the value gradient first.
    if d_xv is not None:
        d_v += split_heads(d_xv, d_v.shape[1])
    return _linear_backward(x, [merge_heads(t) for t in (d_q, d_k, d_v)],
                            (params.w_q, params.w_k, params.w_v))


def _depthwise_conv2d_backward(x, kernel, dy):
    # Reverse of kernels.depthwise_conv2d for x and dy [B, H, W, C]: (dx, dkernel,
    # dbias). In the forward's row layout (kernels.dwc_layout), out[:, i] =
    # sum_{ki,kj} xp[:, i+ki, kj*C : kj*C+W*C] * taps[ki, kj]. The gradient of
    # xp is kept only on the rows dx reads (its padded columns stay) and summed
    # DWC_BAND_ROWS rows at a time, so a band stays in cache through all k^2
    # taps; each element still adds its taps to zero in (ki, kj) order, as one
    # whole-array product per tap would. dkernel and dbias reduce whole
    # arrays, which keeps their order of sums.
    b, h, w, c = x.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    run = w * c
    band_rows = kernels.DWC_BAND_ROWS
    xp, taps = kernels.dwc_layout(x, kernel)
    dy_rows = np.reshape(dy, (b, h, run))
    dxp = np.zeros((b, h, xp.shape[2]), dtype=xp.dtype)  # row i is xp's row pad + i
    band_tap = np.empty((b, min(h, band_rows), run), dtype=xp.dtype)
    for top in range(0, h, band_rows):
        bottom = min(top + band_rows, h)
        for ki in range(k):
            # dy rows j feed dx rows j + ki - pad; keep those inside the band.
            lo, hi = max(top + pad - ki, 0), min(bottom + pad - ki, h)
            if lo >= hi:
                continue
            band, tap = dxp[:, lo + ki - pad:hi + ki - pad], band_tap[:, :hi - lo]
            for kj in range(k):
                band[..., kj * c:kj * c + run] += np.multiply(dy_rows[:, lo:hi], taps[ki, kj],
                                                              out=tap)
    dkernel = np.empty_like(kernel)
    tap = np.empty((b, h, run), dtype=xp.dtype)  # one buffer for every tap's product
    for ki in range(k):
        for kj in range(k):
            dkernel[ki, kj, :] = np.multiply(xp[:, ki:ki + h, kj * c:kj * c + run], dy_rows,
                                             out=tap).reshape(b, h, w, c).sum(axis=(0, 1, 2))
    dx = dxp.reshape(b, h, w + 2 * pad, c)[:, :, pad:pad + w]
    return dx, dkernel, dy.sum(axis=(0, 1, 2))


def _local_bypass_backward(trace, d_fused, grads):
    # Reverse of local_bypass over xv = merge_heads(v): d_xv [B, N, C], or None
    # when the bypass is off.
    config = trace.config
    if not config.enable_dwc:
        return None
    b, n, c = d_fused.shape
    grid = (b, config.grid_h, config.grid_w, c)
    d_xv, grads["dwc_kernel"], grads["dwc_bias"] = _depthwise_conv2d_backward(
        merge_heads(trace.v).reshape(grid), trace.params.dwc_kernel, d_fused.reshape(grid))
    return d_xv.reshape(b, n, c)


def _output_backward(trace, grad_output, grads):
    # Reverse of output = fused @ w_o and of the two stages that wrote fused,
    # the bypass and distribute_global: (d_q, d_k_l_bar, d_z_l, d_xv). d_fused
    # has no other reader, so it is freed when this returns.
    grads["w_o"], d_fused = _linear_backward(trace.fused, [grad_output], [trace.params.w_o])
    d_xv = _local_bypass_backward(trace, d_fused, grads)
    return (*_blocked_attention_backward(trace.q, trace.k_l_bar, trace.z_l,
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
    d_k_l, grads["ln_k_gamma"], grads["ln_k_beta"] = _layer_norm_backward(
        trace.k_l, params.ln_k_gamma, LN_EPS, d_k_l_bar)
    d_v_l, grads["ln_v_gamma"], grads["ln_v_beta"] = _layer_norm_backward(
        trace.v_l, params.ln_v_gamma, LN_EPS, d_v_l_bar)
    return d_k_l, d_v_l


def _gather_backward(trace, d_k_l, d_v_l, grads):
    # Reverse of k_l = (aᵀ k) / mass and v_l = (aᵀ v) / mass: (d_k, d_v). Hard
    # k-means assignments are constants; learned ones add their share to d_k.
    g_k = d_k_l / trace.mass
    g_v = d_v_l / trace.mass
    d_k = kernels.matmul(trace.a, g_k)
    d_v = kernels.matmul(trace.a, g_v)
    if trace.config.routing == "learned":
        d_k += _gather_assign_backward(trace, g_k, g_v, grads)
    return d_k, d_v


def _gather_assign_backward(trace, g_k, g_v, grads):
    # Reverse of gather_assign: the routing's share of d_k. Since
    # sum_t a[t,m] k[t] = mass[m] k_l[m], the quotient rule gives
    # d_a[n,m] = k[n].g_k[m] + v[n].g_v[m] - (k_l[m].g_k[m] + v_l[m].g_v[m]).
    # Like a, d_a is built slot-major, [B, h, M, N]; it and d_logits are
    # freed when this returns.
    d_a = kernels.matmul(g_k, np.swapaxes(trace.k, -1, -2))
    d_a += kernels.matmul(g_v, np.swapaxes(trace.v, -1, -2))
    d_a -= (trace.k_l * g_k + trace.v_l * g_v).sum(axis=-1, keepdims=True)
    d_logits = _softmax_backward(trace.a, np.swapaxes(d_a, -1, -2))
    # Per-head products d_logitsᵀ k, summed over (B, h): folding the
    # leading axes of the slot-major d_logits would copy it.
    grads["w_g"] = kernels.matmul(np.swapaxes(d_logits, -1, -2), trace.k).sum(axis=(0, 1)).T
    return kernels.matmul(d_logits, trace.params.w_g.T)


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
    grads = {}
    d_q, d_k_l_bar, d_z_l, d_xv = _output_backward(trace, grad_output, grads)
    d_k_l, d_v_l = _latent_interact_backward(trace, d_k_l_bar, d_z_l, grads)
    d_k, d_v = _gather_backward(trace, d_k_l, d_v_l, grads)
    grads["w_q"], grads["w_k"], grads["w_v"], d_x = _project_qkv_backward(
        trace.x, d_q, d_k, d_v, params, d_xv)
    return _grad_set(params, grads, d_x)


def softmax_attention_backward(trace: DenseTrace, grad_output: np.ndarray) -> GradSet:
    """Exact gradients of sum(grad_output * output) for the dense baseline.

    Params are the forward's own, read from the trace; grad_output follows
    x's contract. Each query block's weights are recomputed, without its
    readout; fields the dense forward does not read get zero gradients.
    """
    params = trace.params
    grad_output = _check_grad_output(grad_output, trace.output)
    grads = {}
    grads["w_o"], d_merged = _linear_backward(trace.o_merged, [grad_output], [params.w_o])
    d_q, d_k, d_v = _blocked_attention_backward(
        trace.q, trace.k, trace.v, split_heads(d_merged, trace.q.shape[1]))
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
    # Small output-weight scale: keeps central-difference rounding noise on
    # structurally zero gradients (the latent-key LN shift cancels in the
    # distribution softmax) below the relative-error floor. Relative errors
    # of nonzero gradients are scale-free.
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

"""Analytic backward passes for the representative-attention layer and the
dense softmax baseline.

Gradients are derived by hand as the exact reverse of the forward pipeline:
output projection, depthwise bypass, distribution cross-attention, latent
self-attention, the two latent layer norms, slot gathering, the mass
normalization (quotient rule over the slot column sums), the assignment
softmax, and the input projections. The dense backward reuses the same
softmax and weight-gradient steps. A central-finite-difference harness
verifies every parameter.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .attention import (
    AttnConfig,
    ForwardTrace,
    PARAM_FIELDS,
    RPAttnParams,
    init_params,
    merge_heads,
    rpattention_forward,
    split_heads,
)
from .baselines import DenseTrace
from .errors import ConfigError, ContractError


@dataclass
class GradSet:
    """One gradient array per parameter field, plus the input gradient."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    w_lq: np.ndarray
    w_lk: np.ndarray
    w_lv: np.ndarray
    ln_k_gamma: np.ndarray
    ln_k_beta: np.ndarray
    ln_v_gamma: np.ndarray
    ln_v_beta: np.ndarray
    dwc_kernel: np.ndarray
    dwc_bias: np.ndarray
    grad_x: np.ndarray

    def field_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


def _softmax_backward(p, dp):
    # p = softmax(s) rowwise: ds = p * (dp - sum(dp * p))
    return p * (dp - (dp * p).sum(axis=-1, keepdims=True))


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


def _dwc_backward(x_grid, kernel, dy):
    # Same-padded depthwise conv: out = sum_{ki,kj} xp[.., ki:ki+H, kj:kj+W, :] * kernel[ki,kj,:]
    b, h, w, c = x_grid.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    xp = np.pad(x_grid, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    dxp = np.zeros_like(xp)
    dkernel = np.zeros_like(kernel)
    for ki in range(k):
        for kj in range(k):
            dxp[:, ki:ki + h, kj:kj + w, :] += dy * kernel[ki, kj, :]
            dkernel[ki, kj, :] = (xp[:, ki:ki + h, kj:kj + w, :] * dy).sum(axis=(0, 1, 2))
    dbias = dy.sum(axis=(0, 1, 2))
    return dxp[:, pad:pad + h, pad:pad + w, :], dkernel, dbias


def _fold(x):
    return x.reshape(-1, x.shape[-1])


def _weight_grad(inp, dout):
    # dW[c, k] = sum over all leading positions of inp[.., c] * dout[.., k]
    return kernels.matmul(_fold(inp).T, _fold(dout))


def rpattention_backward(trace: ForwardTrace, grad_output: np.ndarray,
                         params: RPAttnParams, config: AttnConfig) -> GradSet:
    """Exact gradients of sum(grad_output * output) w.r.t. every parameter and x.

    The trace must come from rpattention_forward with the same params and
    config. With routing="kmeans" the hard assignments are treated as
    constants: no gradient flows into the anchors or through the routing.
    """
    grad_output = np.asarray(grad_output, dtype=config.np_dtype)
    b, n, c = trace.x.shape
    if grad_output.shape != trace.output.shape:
        raise ContractError(
            f"grad_output shape {grad_output.shape} != output shape {trace.output.shape}")
    if c != config.channels or n != config.num_tokens:
        raise ContractError("trace does not match config (channels or token count differ)")
    if trace.a.shape != (b, config.heads, n, config.num_representatives):
        raise ContractError("trace assignment shape does not match config")
    if (trace.p_lat is None) == config.enable_interact:
        raise ContractError("trace interact state does not match config")

    scale = 1.0 / math.sqrt(config.head_dim)

    # Output projection: output = (o_global + bypass) @ w_o
    fused = trace.o_global + trace.bypass_out
    d_w_o = _weight_grad(fused, grad_output)
    d_fused = kernels.matmul(grad_output, params.w_o.T)

    # Depthwise bypass branch over the projected values xv = merge_heads(v);
    # its gradient d_xv joins the value-projection gradient below.
    d_xv = None
    if config.enable_dwc:
        xv_grid = merge_heads(trace.v).reshape(b, config.grid_h, config.grid_w, c)
        dy_grid = d_fused.reshape(b, config.grid_h, config.grid_w, c)
        d_xv_grid, d_dwc_kernel, d_dwc_bias = _dwc_backward(xv_grid, params.dwc_kernel, dy_grid)
        d_xv = d_xv_grid.reshape(b, n, c)
    else:
        d_dwc_kernel = np.zeros_like(params.dwc_kernel)
        d_dwc_bias = np.zeros_like(params.dwc_bias)

    # Distribution: o = p_dist @ z_l per head, p_dist = softmax(q @ k_l_bar^T * scale)
    d_o_heads = split_heads(d_fused, config.heads)
    d_p_dist = kernels.matmul(d_o_heads, np.swapaxes(trace.z_l, -1, -2))
    d_z_l = kernels.matmul(np.swapaxes(trace.p_dist, -1, -2), d_o_heads)
    d_s_dist = _softmax_backward(trace.p_dist, d_p_dist)
    d_q = kernels.matmul(d_s_dist, trace.k_l_bar) * scale
    d_k_l_bar = kernels.matmul(np.swapaxes(d_s_dist, -1, -2), trace.q) * scale

    # Latent interaction: z = v_bar + p_lat @ (v_bar @ w_lv), attn from v_bar.
    if config.enable_interact:
        v_bar = trace.v_l_bar
        q_t = kernels.matmul(v_bar, params.w_lq)
        k_t = kernels.matmul(v_bar, params.w_lk)
        v_t = kernels.matmul(v_bar, params.w_lv)
        d_v_l_bar = d_z_l.copy()  # residual
        d_p_lat = kernels.matmul(d_z_l, np.swapaxes(v_t, -1, -2))
        d_v_t = kernels.matmul(np.swapaxes(trace.p_lat, -1, -2), d_z_l)
        d_s_lat = _softmax_backward(trace.p_lat, d_p_lat)
        d_q_t = kernels.matmul(d_s_lat, k_t) * scale
        d_k_t = kernels.matmul(np.swapaxes(d_s_lat, -1, -2), q_t) * scale
        d_w_lq = _weight_grad(v_bar, d_q_t)
        d_w_lk = _weight_grad(v_bar, d_k_t)
        d_w_lv = _weight_grad(v_bar, d_v_t)
        d_v_l_bar += kernels.matmul(d_q_t, params.w_lq.T)
        d_v_l_bar += kernels.matmul(d_k_t, params.w_lk.T)
        d_v_l_bar += kernels.matmul(d_v_t, params.w_lv.T)
    else:
        d_v_l_bar = d_z_l
        d_w_lq = np.zeros_like(params.w_lq)
        d_w_lk = np.zeros_like(params.w_lk)
        d_w_lv = np.zeros_like(params.w_lv)

    # Latent layer norms.
    d_k_l, d_ln_k_gamma, d_ln_k_beta = _layer_norm_backward(
        trace.k_l, params.ln_k_gamma, config.ln_eps, d_k_l_bar)
    d_v_l, d_ln_v_gamma, d_ln_v_beta = _layer_norm_backward(
        trace.v_l, params.ln_v_gamma, config.ln_eps, d_v_l_bar)

    # Gathered latents: k_l = a_hat^T @ k, v_l = a_hat^T @ v.
    d_a_hat = kernels.matmul(trace.k, np.swapaxes(d_k_l, -1, -2))
    d_a_hat += kernels.matmul(trace.v, np.swapaxes(d_v_l, -1, -2))
    d_k_att = kernels.matmul(trace.a_hat, d_k_l)
    d_v_att = kernels.matmul(trace.a_hat, d_v_l)

    # Mass normalization: a_hat[n,m] = a[n,m] / (S_m + eps), S_m = sum_t a[t,m].
    denom = trace.a.sum(axis=-2, keepdims=True) + config.epsilon
    d_a = d_a_hat / denom - (d_a_hat * trace.a_hat).sum(axis=-2, keepdims=True) / denom

    # Assignment softmax over slots; skipped entirely for hard k-means routing.
    if config.routing == "learned":
        d_logits = _softmax_backward(trace.a, d_a)
        d_w_g = _weight_grad(trace.k, d_logits)
        d_k_att = d_k_att + kernels.matmul(d_logits, params.w_g.T)
    else:
        d_w_g = np.zeros_like(params.w_g)

    # Input projections.
    d_q_flat = merge_heads(d_q)
    d_k_flat = merge_heads(d_k_att)
    d_v_flat = merge_heads(d_v_att)
    if d_xv is not None:
        d_v_flat = d_v_flat + d_xv
    d_w_q = _weight_grad(trace.x, d_q_flat)
    d_w_k = _weight_grad(trace.x, d_k_flat)
    d_w_v = _weight_grad(trace.x, d_v_flat)
    d_x = kernels.matmul(d_q_flat, params.w_q.T)
    d_x += kernels.matmul(d_k_flat, params.w_k.T)
    d_x += kernels.matmul(d_v_flat, params.w_v.T)

    return GradSet(
        w_q=d_w_q, w_k=d_w_k, w_v=d_w_v, w_o=d_w_o, w_g=d_w_g,
        w_lq=d_w_lq, w_lk=d_w_lk, w_lv=d_w_lv,
        ln_k_gamma=d_ln_k_gamma, ln_k_beta=d_ln_k_beta,
        ln_v_gamma=d_ln_v_gamma, ln_v_beta=d_ln_v_beta,
        dwc_kernel=d_dwc_kernel, dwc_bias=d_dwc_bias,
        grad_x=d_x,
    )


def softmax_attention_backward(trace: DenseTrace, grad_output: np.ndarray,
                               params: RPAttnParams) -> GradSet:
    """Exact gradients of sum(grad_output * output) for the dense baseline.

    The trace must come from an unchunked softmax_attention_forward with the
    same params. Fields the dense forward does not read get zero gradients.
    """
    if trace.p is None:
        raise ContractError("dense backward needs the attention weights of an unchunked forward")
    grad_output = np.asarray(grad_output, dtype=trace.output.dtype)
    if grad_output.shape != trace.output.shape:
        raise ContractError(
            f"grad_output shape {grad_output.shape} != output shape {trace.output.shape}")
    heads = trace.q.shape[1]
    scale = 1.0 / math.sqrt(trace.q.shape[-1])

    d_w_o = _weight_grad(trace.o_merged, grad_output)
    d_o = split_heads(kernels.matmul(grad_output, params.w_o.T), heads)

    d_p = kernels.matmul(d_o, np.swapaxes(trace.v, -1, -2))
    d_v = kernels.matmul(np.swapaxes(trace.p, -1, -2), d_o)
    d_s = _softmax_backward(trace.p, d_p)
    d_q = kernels.matmul(d_s, trace.k) * scale
    d_k = kernels.matmul(np.swapaxes(d_s, -1, -2), trace.q) * scale

    d_q_flat, d_k_flat, d_v_flat = (merge_heads(t) for t in (d_q, d_k, d_v))
    d_x = kernels.matmul(d_q_flat, params.w_q.T)
    d_x += kernels.matmul(d_k_flat, params.w_k.T)
    d_x += kernels.matmul(d_v_flat, params.w_v.T)

    grads = {name: np.zeros_like(value) for name, value in params.field_dict().items()}
    grads.update(w_q=_weight_grad(trace.x, d_q_flat), w_k=_weight_grad(trace.x, d_k_flat),
                 w_v=_weight_grad(trace.x, d_v_flat), w_o=d_w_o)
    return GradSet(**grads, grad_x=d_x)


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
    grads = rpattention_backward(trace, g_out, params, config)

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

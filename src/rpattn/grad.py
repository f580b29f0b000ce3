"""Analytic backward passes for the representative-attention layer and the
dense softmax baseline.

Gradients are derived by hand as the exact reverse of the forward pipeline:
output projection, depthwise bypass, distribution cross-attention, latent
self-attention, the two latent layer norms, slot gathering with its mass
normalization (in slot space, on the M latent rows), the assignment
softmax, and the input projections. The distribution, the latent
interaction and the dense baseline share `_attention_backward`, the reverse
of `kernels.attention`. A central-finite-difference harness verifies every
parameter.
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
    merge_heads,
    rpattention_forward,
    split_heads,
)
from .baselines import DenseTrace, attention_blocks
from .errors import ConfigError, ContractError


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
    d_q = kernels.matmul(d_s, k) * scale
    d_k = kernels.matmul(np.swapaxes(d_s, -1, -2), q) * scale
    return d_q, d_k, d_v


def _grad_set(params, grads, grad_x):
    # The fields a forward did not read get zero gradients; grad_x is always computed.
    zeros = {name: np.zeros_like(value) for name, value in params.field_dict().items()
             if name not in grads}
    return GradSet(**grads, **zeros, grad_x=grad_x)


def _check_grad_output(grad_output, output):
    grad_output = np.asarray(grad_output, dtype=output.dtype)
    if grad_output.shape != output.shape:
        raise ContractError(f"grad_output shape {grad_output.shape} != output shape {output.shape}")
    if not np.isfinite(grad_output).all():
        raise ContractError("grad_output holds NaN or inf")
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


def _dwc_backward(x_grid, kernel, dy):
    # Same-padded depthwise conv in the forward's row layout (kernels.dwc_layout):
    # out[:, i] = sum_{ki,kj} xp[:, i+ki, kj*C : kj*C+W*C] * taps[ki, kj]. The
    # reductions run over whole arrays, not the forward's bands, so every sum
    # keeps its order.
    b, h, w, c = x_grid.shape
    k = kernel.shape[0]
    pad = (k - 1) // 2
    run = w * c
    xp, taps = kernels.dwc_layout(x_grid, kernel)
    dy_rows = dy.reshape(b, h, run)
    dxp = np.zeros_like(xp)
    dkernel = np.zeros_like(kernel)
    tap = np.empty_like(dy_rows)  # one buffer for every tap's product
    for ki in range(k):
        for kj in range(k):
            cols = slice(kj * c, kj * c + run)
            dxp[:, ki:ki + h, cols] += np.multiply(dy_rows, taps[ki, kj], out=tap)
            dkernel[ki, kj, :] = np.multiply(xp[:, ki:ki + h, cols], dy_rows, out=tap).reshape(
                b, h, w, c).sum(axis=(0, 1, 2))
    dbias = dy.sum(axis=(0, 1, 2))
    dx = dxp.reshape(b, h + 2 * pad, w + 2 * pad, c)[:, pad:pad + h, pad:pad + w, :]
    return dx, dkernel, dbias


def _fold(x):
    return x.reshape(-1, x.shape[-1])


def _weight_grad(inp, dout):
    # dW[c, k] = sum over all leading positions of inp[.., c] * dout[.., k]
    return kernels.matmul(_fold(inp).T, _fold(dout))


def _project_qkv_backward(x, d_q, d_k, d_v, params):
    # Reverse of project_qkv from per-head gradients: (d_w_q, d_w_k, d_w_v, d_x).
    d_q, d_k, d_v = (merge_heads(t) for t in (d_q, d_k, d_v))
    d_x = kernels.matmul(d_q, params.w_q.T)
    d_x += kernels.matmul(d_k, params.w_k.T)
    d_x += kernels.matmul(d_v, params.w_v.T)
    return _weight_grad(x, d_q), _weight_grad(x, d_k), _weight_grad(x, d_v), d_x


def rpattention_backward(trace: ForwardTrace, grad_output: np.ndarray) -> GradSet:
    """Exact gradients of sum(grad_output * output) w.r.t. every parameter and x.

    Params and config are the forward's own, read from the trace. Fields the
    forward did not read (dwc or interaction when disabled, w_g under k-means
    routing) get zero gradients: the hard k-means assignments are constants,
    so no gradient flows into the anchors or through the routing.
    """
    params, config = trace.params, trace.config
    grad_output = _check_grad_output(grad_output, trace.output)
    b, n, c = trace.x.shape

    # Output projection: output = fused @ w_o, fused = o_global + bypass
    grads = {"w_o": _weight_grad(trace.fused, grad_output)}
    d_fused = kernels.matmul(grad_output, params.w_o.T)

    # Depthwise bypass branch over the projected values xv = merge_heads(v);
    # its gradient d_xv joins the value-projection gradient below.
    d_xv = None
    if config.enable_dwc:
        xv_grid = merge_heads(trace.v).reshape(b, config.grid_h, config.grid_w, c)
        dy_grid = d_fused.reshape(b, config.grid_h, config.grid_w, c)
        d_xv_grid, grads["dwc_kernel"], grads["dwc_bias"] = _dwc_backward(
            xv_grid, params.dwc_kernel, dy_grid)
        d_xv = d_xv_grid.reshape(b, n, c)

    # Distribution: attention of the queries q over the slots (k_l_bar, z_l).
    d_q, d_k_l_bar, d_z_l = _attention_backward(
        trace.q, trace.k_l_bar, trace.z_l, trace.p_dist, split_heads(d_fused, config.heads))

    # Latent interaction: z = v_bar + attention(v_bar @ w_lq, v_bar @ w_lk, v_bar @ w_lv).
    if config.enable_interact:
        v_bar = trace.v_l_bar
        q_t, k_t, v_t = (kernels.matmul(v_bar, w) for w in (params.w_lq, params.w_lk, params.w_lv))
        d_v_l_bar = d_z_l.copy()  # residual
        d_q_t, d_k_t, d_v_t = _attention_backward(q_t, k_t, v_t, trace.p_lat, d_z_l)
        grads["w_lq"], grads["w_lk"], grads["w_lv"] = (
            _weight_grad(v_bar, t) for t in (d_q_t, d_k_t, d_v_t))
        d_v_l_bar += kernels.matmul(d_q_t, params.w_lq.T)
        d_v_l_bar += kernels.matmul(d_k_t, params.w_lk.T)
        d_v_l_bar += kernels.matmul(d_v_t, params.w_lv.T)
    else:
        d_v_l_bar = d_z_l

    # Latent layer norms.
    d_k_l, grads["ln_k_gamma"], grads["ln_k_beta"] = _layer_norm_backward(
        trace.k_l, params.ln_k_gamma, LN_EPS, d_k_l_bar)
    d_v_l, grads["ln_v_gamma"], grads["ln_v_beta"] = _layer_norm_backward(
        trace.v_l, params.ln_v_gamma, LN_EPS, d_v_l_bar)

    # Gathered latents: k_l = (a^T @ k) / mass, v_l = (a^T @ v) / mass.
    g_k = d_k_l / trace.mass
    g_v = d_v_l / trace.mass
    d_k_att = kernels.matmul(trace.a, g_k)
    d_v_att = kernels.matmul(trace.a, g_v)

    # Assignment softmax; hard k-means assignments get no gradient. Since
    # sum_t a[t,m] k[t] = mass[m] k_l[m], the quotient rule gives
    # d_a[n,m] = k[n].g_k[m] + v[n].g_v[m] - (k_l[m].g_k[m] + v_l[m].g_v[m]).
    # Like a, d_a is built slot-major, [B, h, M, N].
    if config.routing == "learned":
        d_a = kernels.matmul(g_k, np.swapaxes(trace.k, -1, -2))
        d_a += kernels.matmul(g_v, np.swapaxes(trace.v, -1, -2))
        d_a -= (trace.k_l * g_k + trace.v_l * g_v).sum(axis=-1, keepdims=True)
        d_logits = _softmax_backward(trace.a, np.swapaxes(d_a, -1, -2))
        # Per-head products d_logitsᵀ k, summed over (B, h): folding the
        # leading axes of the slot-major d_logits would copy it.
        grads["w_g"] = kernels.matmul(np.swapaxes(d_logits, -1, -2), trace.k).sum(axis=(0, 1)).T
        d_k_att += kernels.matmul(d_logits, params.w_g.T)

    # Input projections; the bypass gradient joins the value gradient first.
    if d_xv is not None:
        d_v_att += split_heads(d_xv, config.heads)
    grads["w_q"], grads["w_k"], grads["w_v"], d_x = _project_qkv_backward(
        trace.x, d_q, d_k_att, d_v_att, params)
    return _grad_set(params, grads, d_x)


def softmax_attention_backward(trace: DenseTrace, grad_output: np.ndarray) -> GradSet:
    """Exact gradients of sum(grad_output * output) for the dense baseline.

    Params are the forward's own, read from the trace. Each query block's
    weights are recomputed, without its readout; fields the dense forward
    does not read get zero gradients.
    """
    params = trace.params
    grad_output = _check_grad_output(grad_output, trace.output)

    grads = {"w_o": _weight_grad(trace.o_merged, grad_output)}
    q, k, v = trace.q, trace.k, trace.v
    d_o = split_heads(kernels.matmul(grad_output, params.w_o.T), q.shape[1])
    d_q, d_k, d_v = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    for rows, p in attention_blocks(q, k):
        d_q[:, :, rows], dk, dv = _attention_backward(q[:, :, rows], k, v, p, d_o[:, :, rows])
        d_k += dk
        d_v += dv
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

"""Backward-pass tests: hand-derived cases, finite differences, properties."""

from dataclasses import replace

import numpy as np
import pytest

from rpattn import (
    PARAM_FIELDS,
    AttnConfig,
    RPAttnParams,
    finite_diff_grad,
    gather_latents,
    gradcheck,
    init_params,
    mass_normalize,
    rpattention_backward,
    rpattention_forward,
)
from rpattn.attention import SLOT_MASS_EPS
from rpattn.baselines import softmax_attention_forward
from rpattn.errors import ConfigError, ContractError
from rpattn.grad import softmax_attention_backward

SMALL = AttnConfig(channels=8, heads=2, num_representatives=3, grid_h=3, grid_w=4)


def _forward_backward(cfg, seed, g_scale=1.0):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    x = rng.standard_normal((1, cfg.num_tokens, cfg.channels))
    g = rng.standard_normal((1, cfg.num_tokens, cfg.channels)) * g_scale
    y, trace = rpattention_forward(x, params, cfg)
    return params, x, g, y, trace


def test_zero_grad_output_gives_zero_grads():
    params, x, _, y, trace = _forward_backward(SMALL, 0)
    grads = rpattention_backward(trace, np.zeros_like(y))
    for name, arr in grads.field_dict().items():
        assert not arr.any(), name
    assert not grads.grad_x.any()


def test_scalar_hand_case():
    # One token, one slot, one channel. Layer norm over a single feature maps
    # everything to its beta (zero here), so the attention path is constant
    # and only the bypass carries gradient: y = (kv * x * w_v + bv) * w_o.
    cfg = AttnConfig(channels=1, heads=1, num_representatives=1, grid_h=1, grid_w=1,
                     dwc_kernel=1)
    x0, w_v, kv, bv, w_o = 1.7, 2.0, 1.5, 0.25, 0.5
    params = RPAttnParams(
        w_q=np.array([[1.0]]), w_k=np.array([[1.0]]), w_v=np.array([[w_v]]),
        w_o=np.array([[w_o]]), w_g=np.array([[0.3]]),
        w_lq=np.array([[1.0]]), w_lk=np.array([[1.0]]), w_lv=np.array([[1.0]]),
        ln_k_gamma=np.ones(1), ln_k_beta=np.zeros(1),
        ln_v_gamma=np.ones(1), ln_v_beta=np.zeros(1),
        dwc_kernel=np.array([[[kv]]]), dwc_bias=np.array([bv]),
    )
    x = np.array([[[x0]]])
    y, trace = rpattention_forward(x, params, cfg)
    assert abs(y[0, 0, 0] - (kv * x0 * w_v + bv) * w_o) < 1e-14

    grads = rpattention_backward(trace, np.ones_like(y))
    assert abs(grads.grad_x[0, 0, 0] - w_v * kv * w_o) < 1e-14
    assert abs(grads.w_v[0, 0] - x0 * kv * w_o) < 1e-14
    assert abs(grads.dwc_bias[0] - w_o) < 1e-14
    assert abs(grads.dwc_kernel[0, 0, 0] - x0 * w_v * w_o) < 1e-14
    assert abs(grads.w_o[0, 0] - (kv * x0 * w_v + bv)) < 1e-14
    # Single-slot softmaxes and the one-feature layer norms are constant maps.
    for name in ("w_q", "w_k", "w_g", "ln_k_gamma", "ln_k_beta", "ln_v_gamma", "w_lv"):
        assert not getattr(grads, name).any(), name
    # The normalized-value shift feeds both the residual and the value path.
    assert abs(grads.ln_v_beta[0] - w_o * (1.0 + 1.0)) < 1e-14


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float((t ** 2).sum()), np.array([1.0, 2.0]), 1e-5)
        assert np.abs(grad - np.array([2.0, 4.0])).max() < 1e-8

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 3.25, np.ones((2, 3)), 1e-5)
        assert not grad.any()

    def test_softmax_jacobian(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(3)
        c = rng.standard_normal(3)

        def loss(t):
            e = np.exp(t - t.max())
            p = e / e.sum()
            return float((c * p).sum())

        e = np.exp(z - z.max())
        p = e / e.sum()
        analytic = p * (c - float((c * p).sum()))
        fd = finite_diff_grad(loss, z, 1e-5)
        assert np.abs(fd - analytic).max() < 1e-7

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            finite_diff_grad(lambda t: 0.0, np.ones(2), 0.0)


class TestGradcheck:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_small_config_passes(self, batch):
        report = gradcheck(SMALL, seed=0, batch=batch)
        assert report.passed
        assert len(report.entries) == 15  # 14 parameter tensors plus x

    def test_zero_tolerance_fails(self):
        report = gradcheck(SMALL, seed=0, tol=0.0)
        assert not report.passed

    def test_disabled_dwc_grads_exactly_zero(self):
        cfg = replace(SMALL, enable_dwc=False)
        params, x, g, y, trace = _forward_backward(cfg, 3)
        grads = rpattention_backward(trace, g)
        assert not grads.dwc_kernel.any() and not grads.dwc_bias.any()
        report = gradcheck(cfg, seed=3)
        assert report.passed
        by_name = {e.name: e for e in report.entries}
        assert by_name["dwc_kernel"].max_rel_err == 0.0
        assert by_name["dwc_bias"].max_rel_err == 0.0

    @pytest.mark.parametrize("batch", [1, 2])
    def test_gather_distribute_variant_passes(self, batch):
        report = gradcheck(replace(SMALL, enable_interact=False), seed=1, batch=batch)
        assert report.passed

    def test_float32_rejected(self):
        with pytest.raises(ConfigError):
            gradcheck(replace(SMALL, dtype="float32"), seed=0)

    def test_kmeans_routing_rejected(self):
        with pytest.raises(ConfigError):
            gradcheck(replace(SMALL, routing="kmeans"), seed=0)


def test_backward_linear_in_grad_output():
    params, x, _, y, trace = _forward_backward(SMALL, 4)
    rng = np.random.default_rng(5)
    g1 = rng.standard_normal(y.shape)
    g2 = rng.standard_normal(y.shape)
    ga = rpattention_backward(trace, g1)
    gb = rpattention_backward(trace, g2)
    gsum = rpattention_backward(trace, g1 + g2)
    for name in gsum.field_dict():
        lhs = getattr(gsum, name)
        rhs = getattr(ga, name) + getattr(gb, name)
        assert np.abs(lhs - rhs).max() < 1e-10, name
    assert np.abs(gsum.grad_x - (ga.grad_x + gb.grad_x)).max() < 1e-10


def test_grad_x_permutation_equivariance():
    cfg = replace(SMALL, enable_dwc=False)
    params = init_params(cfg, 6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 12, 8))
    g = rng.standard_normal((1, 12, 8))
    _, trace = rpattention_forward(x, params, cfg)
    base = rpattention_backward(trace, g)
    perm = rng.permutation(12)
    _, trace_p = rpattention_forward(x[:, perm, :], params, cfg)
    permuted = rpattention_backward(trace_p, g[:, perm, :])
    assert np.abs(permuted.grad_x - base.grad_x[:, perm, :]).max() < 1e-10


def test_kmeans_routing_backward_trains_other_params():
    cfg = replace(SMALL, routing="kmeans")
    params = init_params(cfg, 8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 12, 8))
    y, trace = rpattention_forward(x, params, cfg)
    grads = rpattention_backward(trace, np.ones_like(y))
    assert not grads.w_g.any()          # assignments are constants
    assert grads.w_v.any() and grads.w_o.any()
    assert np.isfinite(grads.grad_x).all()


@pytest.mark.parametrize("slots", [3, 20])
def test_kmeans_routing_backward_matches_finite_differences(slots):
    # Fields that do not feed the keys leave the hard routing fixed, so central
    # differences apply. With 20 slots over 12 tokens some slots stay empty and
    # their mass is SLOT_MASS_EPS alone.
    cfg = replace(SMALL, routing="kmeans", num_representatives=slots)
    params = init_params(cfg, 13)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 12, 8))
    g = rng.standard_normal((2, 12, 8)) * 2e-3
    _, trace = rpattention_forward(x, params, cfg)
    if slots > 12:
        assert (trace.mass == SLOT_MASS_EPS).any()
    grads = rpattention_backward(trace, g)
    for name in sorted(set(PARAM_FIELDS) - {"w_k", "w_g"}):
        def loss(t, _name=name):
            out, _ = rpattention_forward(x, replace(params, **{_name: t}), cfg)
            return float((out * g).sum())

        analytic = getattr(grads, name)
        numeric = finite_diff_grad(loss, getattr(params, name), 1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4, name


@pytest.mark.parametrize("routing", ["learned", "kmeans"])
def test_trace_latents_equal_mass_normalized_gather(routing):
    # The layer's latents are the gather that criterion 2 checks, and equal
    # gathering with the token-space â = a / (column mass + eps) on [N, M].
    cfg = replace(SMALL, routing=routing)
    x = np.random.default_rng(15).standard_normal((2, 12, 8))
    _, trace = rpattention_forward(x, init_params(cfg, 16), cfg)
    mass, k_l, v_l = mass_normalize(trace.a, *gather_latents(trace.a, trace.k, trace.v))
    assert np.array_equal(trace.mass, mass)
    assert np.array_equal(trace.k_l, k_l) and np.array_equal(trace.v_l, v_l)
    a_hat = trace.a / (trace.a.sum(axis=-2, keepdims=True) + SLOT_MASS_EPS)
    a_hat_t = np.swapaxes(a_hat, -1, -2)
    assert np.abs(trace.k_l - a_hat_t @ trace.k).max() < 1e-12
    assert np.abs(trace.v_l - a_hat_t @ trace.v).max() < 1e-12


class TestContract:
    def test_wrong_grad_shape(self):
        params, x, g, y, trace = _forward_backward(SMALL, 10)
        with pytest.raises(ContractError):
            rpattention_backward(trace, np.zeros((1, 12, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grad_output(self, bad):
        params, x, g, y, trace = _forward_backward(SMALL, 10)
        g[0, 3, 1] = bad
        with pytest.raises(ContractError):
            rpattention_backward(trace, g)
        _, dense_trace = softmax_attention_forward(x, params, SMALL)
        with pytest.raises(ContractError):
            softmax_attention_backward(dense_trace, g)

"""Forward-path tests for the representative-attention layer."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rpattn import (
    AttnConfig,
    RPAttnParams,
    gather_assign,
    gather_latents,
    init_params,
    kernels,
    latent_interact,
    local_bypass,
    mass_normalize,
    distribute_global,
    param_count,
    param_shapes,
    project_qkv,
    rpattention_backward,
    rpattention_forward,
)
from rpattn.attention import LN_EPS, SLOT_MASS_EPS, check_input, merge_heads, split_heads
from rpattn.baselines import pooled_proxy_forward, softmax_attention_forward
from rpattn.errors import ConfigError, ContractError, ShapeError
from rpattn.grad import softmax_attention_backward

import oracles
from stages import fused_from_stages

SMALL = AttnConfig(channels=8, heads=2, num_representatives=3, grid_h=3, grid_w=4)


def _identity_params(config):
    c = config.channels
    d = config.head_dim
    k = config.dwc_kernel
    kernel = np.zeros((k, k, c))
    kernel[k // 2, k // 2, :] = 1.0
    return RPAttnParams(
        w_q=np.eye(c), w_k=np.eye(c), w_v=np.eye(c), w_o=np.eye(c),
        w_g=np.zeros((d, config.num_representatives)),
        w_lq=np.eye(d), w_lk=np.eye(d), w_lv=np.eye(d),
        ln_k_gamma=np.ones(d),
        ln_v_gamma=np.ones(d), ln_v_beta=np.zeros(d),
        dwc_kernel=kernel, dwc_bias=np.zeros(c),
    )


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            AttnConfig(channels=7, heads=2, num_representatives=3, grid_h=2, grid_w=2)
        with pytest.raises(ConfigError):
            AttnConfig(channels=8, heads=2, num_representatives=0, grid_h=2, grid_w=2)
        with pytest.raises(ConfigError):
            AttnConfig(channels=8, heads=2, num_representatives=3, grid_h=2, grid_w=2,
                       dwc_kernel=2)
        with pytest.raises(ConfigError):
            AttnConfig(channels=8, heads=2, num_representatives=3, grid_h=2, grid_w=2,
                       routing="nearest")

    def test_more_slots_than_tokens_accepted(self):
        cfg = replace(SMALL, num_representatives=20)
        params = init_params(cfg, 0)
        x = np.random.default_rng(0).standard_normal((1, 12, 8))
        y, trace = rpattention_forward(x, params, cfg)
        assert y.shape == x.shape
        assert trace.a.shape == (1, 2, 12, 20)


class TestProjectQKV:
    def test_identity_single_head(self):
        cfg = AttnConfig(channels=4, heads=1, num_representatives=2, grid_h=2, grid_w=2)
        params = _identity_params(cfg)
        x = np.random.default_rng(0).standard_normal((2, 4, 4))
        q, k, v = project_qkv(x, (params.w_q, params.w_k, params.w_v), cfg.heads)
        for t in (q, k, v):
            assert np.abs(t[:, 0] - x).max() < 1e-15

    def test_zero_input(self):
        params = init_params(SMALL, 0)
        q, k, v = project_qkv(np.zeros((1, 12, 8)), (params.w_q, params.w_k, params.w_v),
                              SMALL.heads)
        assert not q.any() and not k.any() and not v.any()

    def test_head_slicing_oracle(self):
        rng = np.random.default_rng(1)
        params = init_params(SMALL, 1)
        x = rng.standard_normal((2, 12, 8))
        (q,) = project_qkv(x, (params.w_q,), SMALL.heads)
        flat = oracles.matmul_loops(x, params.w_q)
        d = SMALL.head_dim
        for r in range(SMALL.heads):
            assert np.abs(q[:, r] - flat[:, :, r * d:(r + 1) * d]).max() < 1e-12


class TestGatherAssign:
    def test_zero_anchors_give_uniform(self):
        rng = np.random.default_rng(2)
        k = rng.standard_normal((1, 2, 5, 4))
        a = gather_assign(k, np.zeros((4, 3)))
        assert np.abs(a - 1.0 / 3.0).max() < 1e-15

    def test_single_slot_is_one(self):
        rng = np.random.default_rng(3)
        k = rng.standard_normal((1, 1, 4, 3))
        a = gather_assign(k, rng.standard_normal((3, 1)))
        assert np.array_equal(a, np.ones_like(a))

    def test_matches_per_token_softmax_oracle(self):
        rng = np.random.default_rng(4)
        k = rng.standard_normal((1, 1, 4, 3))
        w_g = rng.standard_normal((3, 2))
        a = gather_assign(k, w_g)
        for n in range(4):
            logits = [sum(k[0, 0, n, d] * w_g[d, m] for d in range(3)) for m in range(2)]
            assert np.abs(a[0, 0, n] - oracles.softmax_vec(logits)).max() < 1e-12

    def test_rows_stochastic(self):
        rng = np.random.default_rng(5)
        a = gather_assign(rng.standard_normal((2, 2, 9, 4)), rng.standard_normal((4, 5)))
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-6
        assert (a >= 0).all()


def _gather(a, k, v):
    """The layer's gather (slot sums, then the mass division) and its â = a / massᵀ."""
    mass, k_l, v_l = mass_normalize(*gather_latents(a, k, v))
    return a / np.swapaxes(mass, -1, -2), k_l, v_l


class TestMassNormalize:
    def test_uniform(self):
        n, m, eps = 6, 3, SLOT_MASS_EPS
        a = np.full((1, 1, n, m), 1.0 / m)
        k = np.ones((1, 1, n, 2))
        a_hat, k_l, _ = _gather(a, k, k)
        expect = (1.0 / m) / (n / m + eps)
        assert np.abs(a_hat - expect).max() < 1e-15
        assert np.abs(k_l - n * expect).max() < 1e-15

    def test_zero_column_stays_zero(self):
        a = np.zeros((1, 1, 4, 2))
        a[..., 0] = 0.5
        k = np.random.default_rng(6).standard_normal((1, 1, 4, 3))
        a_hat, k_l, v_l = _gather(a, k, k)
        assert np.isfinite(a_hat).all() and np.isfinite(k_l).all()
        assert not a_hat[..., 1].any()
        assert not k_l[..., 1, :].any() and not v_l[..., 1, :].any()

    def test_column_sums(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (2, 2, 7, 3))
        k = rng.standard_normal((2, 2, 7, 4))
        eps = SLOT_MASS_EPS
        a_hat, _, _ = _gather(a, k, k)
        s = a.sum(axis=-2)
        assert np.abs(a_hat.sum(axis=-2) - s / (s + eps)).max() < 1e-12
        assert (a_hat.sum(axis=-2) < 1.0).all()


class TestGatherLatents:
    def test_constant_token_collapse(self):
        rng = np.random.default_rng(7)
        token = rng.standard_normal(4)
        k = np.broadcast_to(token, (1, 1, 6, 4)).copy()
        a = gather_assign(k, rng.standard_normal((4, 3)))
        eps = SLOT_MASS_EPS
        _, k_l, _ = _gather(a, k, k)
        s = a.sum(axis=-2)[0, 0]
        for m in range(3):
            assert np.abs(k_l[0, 0, m] - token * s[m] / (s[m] + eps)).max() < 1e-12

    def test_one_hot_permutation(self):
        rng = np.random.default_rng(8)
        n = 5
        k = rng.standard_normal((1, 1, n, 3))
        perm = rng.permutation(n)
        a = np.zeros((1, 1, n, n))
        a[0, 0, np.arange(n), perm] = 1.0
        _, k_l, v_l = gather_latents(a, k, k)
        inv = np.argsort(perm)
        assert np.abs(k_l[0, 0] - k[0, 0][inv]).max() < 1e-15
        assert np.abs(v_l[0, 0] - k[0, 0][inv]).max() < 1e-15

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 0.3, (2, 2, 6, 3))
        k = rng.standard_normal((2, 2, 6, 4))
        v = rng.standard_normal((2, 2, 6, 4))
        _, k_l, v_l = gather_latents(a, k, v)
        for bi in range(2):
            for hi in range(2):
                for m in range(3):
                    expect_k = sum(a[bi, hi, n, m] * k[bi, hi, n] for n in range(6))
                    expect_v = sum(a[bi, hi, n, m] * v[bi, hi, n] for n in range(6))
                    assert np.abs(k_l[bi, hi, m] - expect_k).max() < 1e-12
                    assert np.abs(v_l[bi, hi, m] - expect_v).max() < 1e-12


class TestLatentInteract:
    def test_single_slot_residual_plus_value(self):
        cfg = AttnConfig(channels=8, heads=2, num_representatives=1, grid_h=2, grid_w=2)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(10)
        k_l = rng.standard_normal((1, 2, 1, 4))
        v_l = rng.standard_normal((1, 2, 1, 4))
        k_l_bar, v_l_bar, p_lat, z_l = latent_interact(k_l, v_l, params, cfg)
        assert np.array_equal(p_lat, np.ones_like(p_lat))
        v_t = np.einsum("bhmd,de->bhme", v_l_bar, params.w_lv)
        assert np.abs(z_l - (v_l_bar + v_t)).max() < 1e-12

    def test_zero_value_weights_give_pure_residual(self):
        params = replace(init_params(SMALL, 1), w_lv=np.zeros((4, 4)))
        rng = np.random.default_rng(11)
        k_l = rng.standard_normal((1, 2, 3, 4))
        v_l = rng.standard_normal((1, 2, 3, 4))
        _, v_l_bar, _, z_l = latent_interact(k_l, v_l, params, SMALL)
        assert np.array_equal(z_l, v_l_bar)

    def test_disabled_interact_is_exactly_normalized_values(self):
        cfg = replace(SMALL, enable_interact=False)
        params = init_params(cfg, 2)
        rng = np.random.default_rng(12)
        k_l = rng.standard_normal((1, 2, 3, 4))
        v_l = rng.standard_normal((1, 2, 3, 4))
        _, v_l_bar, p_lat, z_l = latent_interact(k_l, v_l, params, cfg)
        assert p_lat is None
        assert np.array_equal(z_l, v_l_bar)

    def test_matches_step_by_step_oracle(self):
        params = init_params(SMALL, 3)
        rng = np.random.default_rng(13)
        k_l = rng.standard_normal((2, 2, 3, 4))
        v_l = rng.standard_normal((2, 2, 3, 4))
        k_l_bar, v_l_bar, p_lat, z_l = latent_interact(k_l, v_l, params, SMALL)

        k_bar_o = oracles.layer_norm_loops(k_l, params.ln_k_gamma, np.zeros_like(params.ln_k_gamma), LN_EPS)
        v_bar_o = oracles.layer_norm_loops(v_l, params.ln_v_gamma, params.ln_v_beta, LN_EPS)
        assert np.abs(k_l_bar - k_bar_o).max() < 1e-12
        scale = 1.0 / np.sqrt(4.0)
        for bi in range(2):
            for hi in range(2):
                q_t = oracles.matmul_loops(v_bar_o[bi, hi], params.w_lq)
                k_t = oracles.matmul_loops(v_bar_o[bi, hi], params.w_lk)
                v_t = oracles.matmul_loops(v_bar_o[bi, hi], params.w_lv)
                p_o = oracles.softmax_lastdim_loops(oracles.matmul_loops(q_t, k_t.T) * scale)
                z_o = v_bar_o[bi, hi] + oracles.matmul_loops(p_o, v_t)
                assert np.abs(p_lat[bi, hi] - p_o).max() < 1e-12
                assert np.abs(z_l[bi, hi] - z_o).max() < 1e-12


def _distribute(q, k_l_bar, z_l):
    # distribute_global adds its readout into a [B, N, C] buffer; start from
    # zeros. It keeps no weights: they are kernels.attention_weights(q, k_l_bar).
    b, h, n, d = q.shape
    fused = np.zeros((b, n, h * d))
    assert distribute_global(q, k_l_bar, z_l, fused) is None
    return kernels.attention_weights(q, k_l_bar), split_heads(fused, h)


class TestDistribute:
    def test_single_slot_broadcast(self):
        rng = np.random.default_rng(14)
        q = rng.standard_normal((1, 2, 5, 4))
        k_l_bar = rng.standard_normal((1, 2, 1, 4))
        z_l = rng.standard_normal((1, 2, 1, 4))
        _, o = _distribute(q, k_l_bar, z_l)
        assert np.abs(o - z_l).max() < 1e-12

    def test_zero_queries_average_slots(self):
        rng = np.random.default_rng(15)
        k_l_bar = rng.standard_normal((1, 2, 3, 4))
        z_l = rng.standard_normal((1, 2, 3, 4))
        p, o = _distribute(np.zeros((1, 2, 5, 4)), k_l_bar, z_l)
        assert np.abs(p - 1.0 / 3.0).max() < 1e-15
        assert np.abs(o - z_l.mean(axis=2, keepdims=True)).max() < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(16)
        q = rng.standard_normal((1, 2, 5, 4))
        k_l_bar = rng.standard_normal((1, 2, 3, 4))
        z_l = rng.standard_normal((1, 2, 3, 4))
        p, o = _distribute(q, k_l_bar, z_l)
        scale = 1.0 / np.sqrt(4.0)
        for hi in range(2):
            p_o = oracles.softmax_lastdim_loops(
                oracles.matmul_loops(q[0, hi], k_l_bar[0, hi].T) * scale)
            o_o = oracles.matmul_loops(p_o, z_l[0, hi])
            assert np.abs(p[0, hi] - p_o).max() < 1e-12
            assert np.abs(o[0, hi] - o_o).max() < 1e-12

    def test_readout_adds_to_what_fused_holds(self):
        # The readout lands on top of the bypass already in fused, head r in
        # channels [r*d, (r+1)*d).
        rng = np.random.default_rng(20)
        q = rng.standard_normal((2, 3, 6, 4))
        k_l_bar = rng.standard_normal((2, 3, 5, 4))
        z_l = rng.standard_normal((2, 3, 5, 4))
        bypass = rng.standard_normal((2, 6, 12))
        fused = bypass.copy()
        distribute_global(q, k_l_bar, z_l, fused)
        _, o = _distribute(q, k_l_bar, z_l)
        assert np.array_equal(fused, bypass + merge_heads(o))


class TestLocalBypass:
    # local_bypass writes the bypass over the values it is given and returns them.
    def test_delta_kernel_identity(self):
        cfg = AttnConfig(channels=4, heads=1, num_representatives=2, grid_h=3, grid_w=3)
        params = _identity_params(cfg)
        x = np.random.default_rng(17).standard_normal((2, 9, 4))
        xv = x.copy()
        got = local_bypass(xv, params, cfg)
        assert got is xv
        assert np.abs(got - x).max() < 1e-15

    def test_disabled_returns_zeros(self):
        cfg = replace(SMALL, enable_dwc=False)
        params = init_params(cfg, 0)
        x = np.random.default_rng(18).standard_normal((1, 12, 8))
        got = local_bypass(x, params, cfg)
        assert got is x and not got.any()

    def test_matches_conv_oracle(self):
        params = init_params(SMALL, 4)
        x = np.random.default_rng(19).standard_normal((2, 12, 8))
        xv = oracles.matmul_loops(x, params.w_v)
        expect = oracles.depthwise_conv2d_loops(
            xv.copy().reshape(2, 3, 4, 8), params.dwc_kernel, params.dwc_bias)
        got = local_bypass(xv, params, SMALL)
        assert got is xv
        assert np.abs(got - expect.reshape(2, 12, 8)).max() < 1e-12

    def test_non_contiguous_values_rejected(self):
        # A reshape of a strided xv would copy it, and the bypass land in the copy.
        params = init_params(SMALL, 4)
        wide = np.random.default_rng(19).standard_normal((2, 12, 16))
        with pytest.raises(ContractError):
            local_bypass(wide[..., ::2], params, SMALL)


class TestForward:
    def test_zero_input_zero_output(self):
        cfg = AttnConfig(channels=4, heads=2, num_representatives=2, grid_h=2, grid_w=2)
        params = init_params(cfg, 0)
        y, _ = rpattention_forward(np.zeros((1, 4, 4)), params, cfg)
        assert not y.any()

    def test_output_shape_matches_input(self):
        params = init_params(SMALL, 5)
        x = np.random.default_rng(20).standard_normal((3, 12, 8))
        y, trace = rpattention_forward(x, params, SMALL)
        assert y.shape == x.shape
        assert trace.output is y or np.array_equal(trace.output, y)

    def test_trace_invariants(self):
        params = init_params(SMALL, 6)
        x = np.random.default_rng(21).standard_normal((2, 12, 8))
        _, trace = rpattention_forward(x, params, SMALL)
        assert np.abs(trace.a.sum(axis=-1) - 1.0).max() < 1e-6
        assert trace.mass.shape == (2, 2, 3, 1)
        assert (trace.mass > SLOT_MASS_EPS).all()
        assert np.abs(trace.p_lat.sum(axis=-1) - 1.0).max() < 1e-6
        (q,) = project_qkv(trace.x, (params.w_q,), SMALL.heads)
        p_dist = kernels.attention_weights(q, trace.k_l_bar)
        assert np.abs(p_dist.sum(axis=-1) - 1.0).max() < 1e-6

    def test_permutation_equivariance_without_dwc(self):
        cfg = replace(SMALL, enable_dwc=False)
        params = init_params(cfg, 7)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 12, 8))
        y, _ = rpattention_forward(x, params, cfg)
        for _ in range(3):
            perm = rng.permutation(12)
            y_perm, _ = rpattention_forward(x[:, perm, :], params, cfg)
            assert np.abs(y_perm - y[:, perm, :]).max() < 1e-10

    def test_constant_tokens_collapse_rows(self):
        cfg = AttnConfig(channels=4, heads=2, num_representatives=3, grid_h=2, grid_w=2)
        params = replace(init_params(cfg, 8),
                         dwc_kernel=_identity_params(cfg).dwc_kernel,
                         dwc_bias=np.zeros(4))
        token = np.random.default_rng(23).standard_normal(4)
        x = np.broadcast_to(token, (1, 4, 4)).copy()
        y, trace = rpattention_forward(x, params, cfg)
        fused = fused_from_stages(trace)
        assert np.abs(fused - fused[:, :1, :]).max() < 1e-12
        assert np.abs(y - y[:, :1, :]).max() < 1e-12

    def test_golden_straight_line_reimplementation(self):
        params = init_params(SMALL, 9)
        x = np.random.default_rng(24).standard_normal((2, 12, 8))
        _, trace = rpattention_forward(x, params, SMALL)
        expect = oracles.straight_line_forward(
            x, params, heads=2, num_reps=3, grid_h=3, grid_w=4,
            epsilon=SLOT_MASS_EPS, ln_eps=LN_EPS)
        # The trace keeps the slot mass instead of â, neither the readout nor
        # the bypass nor their sum, and no projections of x or distribution
        # weights (all recomputed from x, w_q, w_k and w_v, and the latents).
        fused = expect.pop("o_global") + expect.pop("bypass_out")
        q, k, v = project_qkv(trace.x, (params.w_q, params.w_k, params.w_v), SMALL.heads)
        for name, got in (("q", q), ("k", k), ("v", v)):
            assert np.abs(got - expect.pop(name)).max() < 1e-12, name
        p_dist = kernels.attention_weights(q, trace.k_l_bar)
        assert np.abs(p_dist - expect.pop("p_dist")).max() < 1e-12
        a_hat = trace.a / np.swapaxes(trace.mass, -1, -2)
        assert np.abs(a_hat - expect.pop("a_hat")).max() < 1e-12
        assert np.abs(fused_from_stages(trace) - fused).max() < 1e-12
        for name, val in expect.items():  # output among them
            got = getattr(trace, name)
            assert np.abs(got - val).max() < 1e-12, name

    def test_gather_distribute_variant_forward(self):
        cfg = replace(SMALL, enable_interact=False)
        params = init_params(cfg, 10)
        x = np.random.default_rng(25).standard_normal((1, 12, 8))
        _, trace = rpattention_forward(x, params, cfg)
        assert trace.p_lat is None
        assert np.array_equal(trace.z_l, trace.v_l_bar)
        expect = oracles.straight_line_forward(
            x, params, heads=2, num_reps=3, grid_h=3, grid_w=4,
            epsilon=SLOT_MASS_EPS, ln_eps=LN_EPS, enable_interact=False)
        assert np.abs(trace.output - expect["output"]).max() < 1e-12

    def test_empty_batch_rejected(self):
        params = init_params(SMALL, 0)
        with pytest.raises(ConfigError):
            rpattention_forward(np.zeros((0, 12, 8)), params, SMALL)

    def test_wrong_token_count_rejected(self):
        params = init_params(SMALL, 0)
        with pytest.raises(ConfigError):
            rpattention_forward(np.zeros((1, 10, 8)), params, SMALL)

    @pytest.mark.parametrize("name", list(param_shapes(SMALL)))
    def test_misshapen_param_rejected(self, name):
        # One axis too long, a scalar and an all-ones shape that broadcasts:
        # each is a ShapeError naming the field, never a numpy error or a
        # forward that runs silently.
        params = init_params(SMALL, 0)
        shape = param_shapes(SMALL)[name]
        for wrong in (shape[:-1] + (shape[-1] + 1,), (), (1,) * len(shape)):
            bad = replace(params, **{name: np.ones(wrong)})
            for forward in (rpattention_forward, softmax_attention_forward,
                            lambda *args: pooled_proxy_forward(*args, (3, 2))):
                with pytest.raises(ShapeError, match=name):
                    forward(np.zeros((1, 12, 8)), bad, SMALL)

    @pytest.mark.parametrize("x,cause,dtype,target", [
        # x's cases keep their bare ids; grad_output's name the backward.
        pytest.param(x, cause, dtype, target, id=name + ("" if target == "input" else "-" + target))
        for name, x, cause, dtype in [
            ("str", np.full((1, 12, 8), "a"), None, "float64"),
            ("numeric-str", np.full((1, 12, 8), "1.5"), None, "float64"),
            ("complex", np.ones((1, 12, 8), dtype=np.complex128), None, "float64"),
            ("datetime", np.zeros((1, 12, 8), dtype="datetime64[s]"), None, "float64"),
            ("ragged", [[[0.0] * 8] * 12, [[0.0] * 8] * 11], ValueError, "float64"),
            ("huge-int", [[[10**400] + [0] * 7] * 12], OverflowError, "float64"),
            ("complex-list", [[[1j] * 8] * 12], TypeError, "float64"),
            ("str-list", [[["a"] * 8] * 12], ValueError, "float64"),
            ("beyond-float32", np.full((1, 12, 8), 1e40), FloatingPointError, "float32"),
        ]
        for target in ("input", "grad_output", "dense_grad_output")
    ])
    def test_input_that_is_not_real_rejected(self, x, cause, dtype, target):
        # Named, never a numpy error, a warning or a cast that drops the
        # imaginary part; a failed cast is the cause of the ContractError. A
        # backward's grad_output follows the same contract as x.
        cfg = replace(SMALL, dtype=dtype)
        params = init_params(cfg, 0)
        if target != "input":
            forward, backward = {
                "grad_output": (rpattention_forward, rpattention_backward),
                "dense_grad_output": (softmax_attention_forward, softmax_attention_backward),
            }[target]
            _, trace = forward(np.zeros((1, 12, 8)), params, cfg)
        with pytest.raises(ContractError) as err:
            check_input(x, params, cfg) if target == "input" else backward(trace, x)
        assert type(err.value.__cause__) is (cause or type(None))


def _slot_major(t):
    return np.swapaxes(t, -1, -2).flags.c_contiguous


@pytest.mark.parametrize("routing", ["learned", "kmeans"])
@pytest.mark.parametrize("grid", [32, 64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_memory_budget(dtype, batch, grid, routing):
    # At the benchmark's layer shape, the forward's peak traced memory stays
    # within the trace's own arrays (x excluded), none of them [B, h, N, M]
    # and none of them a projection of x, plus a stated slack: every other
    # intermediate is freed or reused before the next one is made, the
    # bypass, the readout and the output projection are written over the
    # values, which become the output, and the keys, the gather's
    # assignments, the queries, the distribution weights and the bypass's
    # padded input live one token tile or one band at a time.
    cfg = AttnConfig(channels=64, heads=2, num_representatives=49, grid_h=grid, grid_w=grid,
                     routing=routing, dtype=dtype)
    params = init_params(cfg, 0)
    x = np.random.default_rng(40).standard_normal((batch, cfg.num_tokens, 64)).astype(dtype)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, trace = rpattention_forward(x, params, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    nm = (cfg.num_tokens, cfg.num_representatives)
    assert [name for name, v in vars(trace).items() if np.shape(v)[-2:] == nm] == []
    per_head = (batch, cfg.heads, cfg.num_tokens, cfg.head_dim)
    assert [name for name, v in vars(trace).items() if np.shape(v) == per_head] == []
    assert [name for name, v in vars(trace).items() if np.shape(v) == x.shape] == [
        "x", "output"]
    trace_bytes = sum(v.nbytes for name, v in vars(trace).items()
                      if isinstance(v, np.ndarray) and name != "x")
    itemsize = np.dtype(dtype).itemsize
    pad, rows, c = cfg.dwc_kernel - 1, kernels.DWC_BAND_ROWS, cfg.channels
    # The bypass's scratch: its padded band, its tap buffer, and its kernel
    # and bias rows tiled W times.
    scratch = (batch * (rows + pad) * (grid + pad) * c + batch * rows * grid * c
               + (cfg.dwc_kernel ** 2 + 1) * grid * c)
    tile = batch * min(kernels.TOKEN_TILE, nm[0]) * (2 * c + cfg.heads * nm[1])
    # numpy's own temporaries, a broadcast add's buffer or the copy of the
    # rows the band buffer moves up, and a few KB of Python objects.
    temps = max(np.getbufsize(), batch * pad * (grid + pad) * c) * itemsize + 16 * 1024
    # Beyond the trace, learned routing holds at most the bypass's scratch
    # or one distribution tile's queries, weights and readout, both over the
    # values, which are already the output array the trace counts
    # (0.44-0.48 [B, N, C] arrays above the trace measured at N = 4096, the
    # bypass, and 1.77-1.79 at N = 1024, two tiles). k-means routing also
    # holds the whole keys that kmeans_gather reads, before the values
    # exist, and that routine's float64 scratch: one [B*h, N, M] distance
    # array, float64 in either dtype, plus one [B, N, C] array. The output,
    # which the trace counts, does not exist yet (float32: 5.87-6.02
    # [B, N, C] arrays above the trace measured against this slack's 6.06).
    if routing == "learned":
        slack = max(scratch, tile) * itemsize + temps
    else:
        slack = 3 * x.nbytes + batch * cfg.heads * nm[0] * nm[1] * np.dtype(np.float64).itemsize
    assert peak <= trace_bytes + slack, (peak, trace_bytes, slack)
    if routing == "learned":  # k-means expands its slot indices token-major
        assert _slot_major(trace.a)


class TestInitAndCount:
    def test_same_seed_byte_identical(self):
        a = init_params(SMALL, 42)
        b = init_params(SMALL, 42)
        for name, arr in a.field_dict().items():
            assert arr.tobytes() == getattr(b, name).tobytes()

    def test_shapes_match_config(self):
        params = init_params(SMALL, 0)
        for name, shape in param_shapes(SMALL).items():
            assert getattr(params, name).shape == shape

    def test_reference_layer_count(self):
        cfg = AttnConfig(channels=192, heads=3, num_representatives=49, grid_h=14, grid_w=14)
        assert param_count(cfg) == 164992

    def test_tiny_count(self):
        cfg = AttnConfig(channels=2, heads=1, num_representatives=1, grid_h=1, grid_w=1,
                         dwc_kernel=1)
        assert param_count(cfg) == 40

    def test_doubling_slots_grows_by_head_dim(self):
        base = param_count(SMALL)
        doubled = param_count(replace(SMALL, num_representatives=6))
        assert doubled - base == 3 * SMALL.head_dim

    def test_count_matches_serialized_length(self):
        params = init_params(SMALL, 1)
        total = sum(arr.size for arr in params.field_dict().values())
        assert total == param_count(SMALL)


def test_split_merge_heads_roundtrip():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((2, 5, 6))
    assert np.array_equal(merge_heads(split_heads(x, 3)), x)

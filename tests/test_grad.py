"""Backward-pass tests: hand-derived cases, finite differences, properties."""

from dataclasses import replace

import numpy as np
import pytest

from rpattn import (
    PARAM_FIELDS,
    AttnConfig,
    RPAttnParams,
    distribute_global,
    finite_diff_grad,
    gather_latents,
    gradcheck,
    init_params,
    kernels,
    latent_interact,
    local_bypass,
    mass_normalize,
    project_qkv,
    rpattention_backward,
    rpattention_forward,
)
from rpattn import attention
from rpattn.attention import SLOT_MASS_EPS, merge_heads, split_heads
from rpattn.baselines import softmax_attention_forward
from rpattn.errors import ConfigError, ContractError
from rpattn.grad import (
    _blocked_attention_backward,
    _depthwise_conv2d_backward,
    _gather_backward,
    _latent_interact_backward,
    _linear_backward,
    _local_bypass_backward,
    _project_qkv_backward,
    softmax_attention_backward,
)

import oracles
from stages import fused_from_stages, peak_by_stage

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
    # One token, one slot, one channel. A layer norm over a single feature maps
    # everything to its shift: the key norm, which has none, to zero and the
    # value norm to its beta (zero here). So the attention path is constant
    # and only the bypass carries gradient: y = (kv * x * w_v + bv) * w_o.
    cfg = AttnConfig(channels=1, heads=1, num_representatives=1, grid_h=1, grid_w=1,
                     dwc_kernel=1)
    x0, w_v, kv, bv, w_o = 1.7, 2.0, 1.5, 0.25, 0.5
    params = RPAttnParams(
        w_q=np.array([[1.0]]), w_k=np.array([[1.0]]), w_v=np.array([[w_v]]),
        w_o=np.array([[w_o]]), w_g=np.array([[0.3]]),
        w_lq=np.array([[1.0]]), w_lk=np.array([[1.0]]), w_lv=np.array([[1.0]]),
        ln_k_gamma=np.ones(1),
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
    for name in ("w_q", "w_k", "w_g", "ln_k_gamma", "ln_v_gamma", "w_lv"):
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
        assert len(report.entries) == 14  # 13 parameter tensors plus x

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
    a = trace.a
    k, v = project_qkv(trace.x, (trace.params.w_k, trace.params.w_v), cfg.heads)
    mass, k_l, v_l = mass_normalize(*gather_latents(a, k, v))
    assert np.array_equal(trace.mass, mass)
    assert np.array_equal(trace.k_l, k_l) and np.array_equal(trace.v_l, v_l)
    a_hat = a / (a.sum(axis=-2, keepdims=True) + SLOT_MASS_EPS)
    a_hat_t = np.swapaxes(a_hat, -1, -2)
    assert np.abs(trace.k_l - a_hat_t @ k).max() < 1e-12
    assert np.abs(trace.v_l - a_hat_t @ v).max() < 1e-12


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


def _stage(name, trace):
    # (inputs, stage, reverse) of one forward stage at the trace's point:
    # stage(**inputs) runs the forward stage itself and returns its outputs;
    # reverse(*output_grads) returns the gradients by input name.
    p, cfg = trace.params, trace.config
    if name == "out":  # over fused, which the trace does not keep
        fused = fused_from_stages(trace)
        return ({"fused": fused, "w_o": p.w_o},
                lambda fused, w_o: (kernels.linear(fused, w_o),),
                lambda g: dict(zip(("w_o", "fused"), _linear_backward(fused, [g], [p.w_o]))))
    if name == "bypass":  # over the values x @ w_v, which the trace does not keep
        xv = kernels.linear(trace.x, p.w_v)

        def reverse(g):
            grads = {}
            grads["xv"] = _local_bypass_backward(trace, xv, g, grads).reshape(g.shape)
            return grads

        # local_bypass writes over its input, so each call gets a copy.
        return ({"xv": xv, "dwc_kernel": p.dwc_kernel, "dwc_bias": p.dwc_bias},
                lambda xv, **w: (local_bypass(xv.copy(), replace(p, **w), cfg),), reverse)
    if name == "distribute":  # the reverse recomputes q from x and w_q
        def stage(q, k_l_bar, z_l):
            fused = np.zeros_like(trace.output)
            distribute_global(q, k_l_bar, z_l, fused)
            return (fused,)

        def reverse(g):  # its readouts land in a scratch buffer
            readout = split_heads(np.zeros_like(g), cfg.heads)
            return dict(zip(("q", "k_l_bar", "z_l"), _blocked_attention_backward(
                trace.x, p.w_q, trace.k_l_bar, trace.z_l, split_heads(g, cfg.heads), readout)))

        (q,) = project_qkv(trace.x, (p.w_q,), cfg.heads)
        return {"q": q, "k_l_bar": trace.k_l_bar, "z_l": trace.z_l}, stage, reverse
    if name == "interact":
        names = ("w_lq", "w_lk", "w_lv", "ln_k_gamma", "ln_v_gamma", "ln_v_beta")

        def stage(k_l, v_l, **w):
            k_l_bar, _, _, z_l = latent_interact(k_l, v_l, replace(p, **w), cfg)
            return k_l_bar, z_l

        def reverse(g_k_l_bar, g_z_l):
            grads = {}
            grads["k_l"], grads["v_l"] = _latent_interact_backward(trace, g_k_l_bar, g_z_l, grads)
            return grads

        return ({"k_l": trace.k_l, "v_l": trace.v_l, **{n: getattr(p, n) for n in names}},
                stage, reverse)
    if name == "gather":  # the reverse recomputes k from x and w_k
        def stage(k, v, w_g):
            # The keys as gather's x, through the identity; hard k-means
            # assignments (trace.slots) are constants.
            _, k_l, v_l = attention.gather(merge_heads(k), v, np.eye(cfg.channels), w_g,
                                           trace.slots, cfg.num_representatives)
            return k_l, v_l

        def reverse(g_k_l, g_v_l):
            grads = {"v": np.full_like(v, -0.0)}  # the values' other readers' share: none
            grads["k"] = _gather_backward(trace, v, g_k_l, g_v_l, grads["v"], grads)
            return grads

        k, v = project_qkv(trace.x, (p.w_k, p.w_v), cfg.heads)
        return {"k": k, "v": v, "w_g": p.w_g}, stage, reverse
    assert name == "project"

    def stage(x, w_q, w_k, w_v):  # the bypass reads the values as merge_heads(v)
        q, k, v = project_qkv(x, (w_q, w_k, w_v), cfg.heads)
        return q, k, v, merge_heads(v)

    return ({"x": trace.x, "w_q": p.w_q, "w_k": p.w_k, "w_v": p.w_v}, stage,
            lambda g_q, g_k, g_v, g_xv: dict(zip(("w_q", "w_k", "w_v", "x"), _project_qkv_backward(
                trace.x, [g_q, g_k, g_v + split_heads(g_xv, cfg.heads)], p))))


@pytest.mark.parametrize("stage", ["out", "bypass", "distribute", "interact", "interact-off",
                                   "gather", "gather-kmeans", "project"])
def test_stage_reverse_matches_its_forward_stage(stage):
    # <reverse(g), delta> equals the central difference of <g, stage(inputs + t delta)>
    # along a random direction delta of every input, so a failing whole-layer
    # gradcheck can be pinned on one stage. Gradients a reverse does not return
    # (interaction off, w_g under k-means) must be zero.
    cfg = replace(SMALL, enable_interact=stage != "interact-off",
                  routing="kmeans" if stage == "gather-kmeans" else "learned")
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, cfg.num_tokens, cfg.channels))
    _, trace = rpattention_forward(x, init_params(cfg, 18), cfg)
    inputs, forward, reverse = _stage(stage.split("-")[0], trace)
    g_outs = [rng.standard_normal(out.shape) for out in forward(**inputs)]
    delta = {name: rng.standard_normal(value.shape) for name, value in inputs.items()}
    grads = reverse(*g_outs)
    assert set(grads) <= set(inputs)
    analytic = sum(float((grads[name] * delta[name]).sum()) for name in grads)

    def along(t):
        outs = forward(**{name: value + t * delta[name] for name, value in inputs.items()})
        return sum(float((g * out).sum()) for g, out in zip(g_outs, outs))

    h = 1e-5
    numeric = (along(h) - along(-h)) / (2 * h)
    assert abs(analytic - numeric) <= 1e-7 * max(1.0, abs(numeric)), (analytic, numeric)


@pytest.mark.parametrize("last", [1, 2, 3])
@pytest.mark.parametrize("dwc", [True, False])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("routing", ["learned", "kmeans"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_output_and_w_o_gradient_read_the_rebuilt_fused(dtype, routing, batch, dwc, last):
    # The trace keeps no fused: the forward projects it through w_o over
    # itself one token tile at a time, and the backward rebuilds it. With
    # fused rebuilt from the public stages, at the default TOKEN_TILE and a
    # last tile of 1-3 rows, the output is the one product
    # kernels.linear(fused, w_o) and w_o's gradient is fusedᵀ grad_output,
    # bit for bit. The one exception is a tile of a single row (B = 1, one
    # row left over): numpy sends a one-row product to BLAS gemv, which
    # rounds its sums unlike gemm, so that row agrees within a few ulps.
    grid_h, grid_w = {1: (27, 19), 2: (2, 257), 3: (5, 103)}[last]
    cfg = AttnConfig(channels=8, heads=2, num_representatives=5, grid_h=grid_h, grid_w=grid_w,
                     enable_dwc=dwc, routing=routing, dtype=dtype)
    assert cfg.num_tokens % kernels.TOKEN_TILE == last
    rng = np.random.default_rng(last)
    x = rng.standard_normal((batch, cfg.num_tokens, cfg.channels)).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    y, trace = rpattention_forward(x, init_params(cfg, 19), cfg)
    grads = rpattention_backward(trace, g)
    fused = fused_from_stages(trace)
    assert grads.w_o.tobytes() == kernels.matmul(fused.reshape(-1, 8).T, g.reshape(-1, 8)).tobytes()
    ref = kernels.linear(fused, trace.params.w_o)
    whole = slice(None) if batch * last > 1 else slice(None, -1)
    assert y[:, whole].tobytes() == ref[:, whole].tobytes()
    assert np.abs(y - ref).max() <= 8 * np.finfo(dtype).eps * np.abs(ref).max()


@pytest.mark.parametrize("routing", ["learned", "kmeans"])
@pytest.mark.parametrize("grid", [32, 64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_memory_budget(monkeypatch, dtype, batch, grid, routing):
    # At test_forward_memory_budget's shapes, a forward plus backward, x and
    # grad_output allocated before it, holds at most 8.5 [B, N, C] arrays
    # beyond the gradients the backward returns (4.83-8.41 measured) and
    # no [B, h, N, M] array. The trace holds one of them (the output). The
    # backward recomputes the values once and rebuilds fused from them into
    # a new array; the gather's keys and assignments and the distribution's
    # queries, weights and readouts are recomputed one token tile at a time,
    # and the per-head gradients merge as views. fused is freed before the
    # bypass reverse, whose input gradient is d_v's memory, d_fused and the
    # values after their last readers, and the projection reverse frees d_q,
    # d_k and d_v in turn. So at most five [B, N, C] arrays are live at
    # once. Under learned routing the peak sits in the gather reverse (the
    # output, the values, d_q, d_v, d_k and one tile's routing reverse);
    # under k-means in the distribution reverse (the output, the values,
    # d_fused, fused, d_q and one tile's queries, weights and readout), or
    # at float32 N = 4096 in the forward's kmeans_gather. The failure
    # message names the stage that held the peak.
    cfg = AttnConfig(channels=64, heads=2, num_representatives=49, grid_h=grid, grid_w=grid,
                     routing=routing, dtype=dtype)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((batch, cfg.num_tokens, 64)).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    params = init_params(cfg, 0)
    grads, peak, stage = peak_by_stage(
        lambda: rpattention_backward(rpattention_forward(x, params, cfg)[1], g), monkeypatch)
    grad_bytes = sum(v.nbytes for v in vars(grads).values())
    assert peak - grad_bytes <= 8.5 * x.nbytes, (stage, peak, grad_bytes, x.nbytes)


@pytest.mark.parametrize("routing", ["learned", "kmeans"])
def test_no_weights_outlive_a_token_tile(monkeypatch, routing):
    # Forward and backward form attention weights over at most TOKEN_TILE
    # queries at a time, whatever N: the distribution's tiles, and the
    # latent interaction's M queries. The gather's assignments (learned
    # softmax or k-means one-hot rows) come in the same tiles, and so do the
    # keys they are formed from: only k-means projects all the keys, once,
    # for kmeans_gather, and its backward projects none.
    monkeypatch.setattr(kernels, "TOKEN_TILE", 5)
    cfg = replace(SMALL, grid_h=4, grid_w=4, routing=routing)
    shapes, assigned, keyed = [], [], []

    def recorded(q, k):
        shapes.append(q.shape)
        return attention_weights(q, k)

    def recorded_assign(k, w_g):
        assigned.append(k.shape[-2])
        return gather_assign(k, w_g)

    def recorded_one_hot(slots, num_slots, dtype):
        assigned.append(slots.shape[-1])
        return slot_one_hot(slots, num_slots, dtype)

    def recorded_linear(x, w):
        if w is params.w_k:
            keyed.append(x.shape[-2])
        return linear(x, w)

    attention_weights, linear = kernels.attention_weights, kernels.linear
    gather_assign, slot_one_hot = attention.gather_assign, attention.slot_one_hot
    monkeypatch.setattr(kernels, "attention_weights", recorded)
    monkeypatch.setattr(kernels, "linear", recorded_linear)
    monkeypatch.setattr(attention, "gather_assign", recorded_assign)
    monkeypatch.setattr(attention, "slot_one_hot", recorded_one_hot)
    params = init_params(cfg, 19)
    rng = np.random.default_rng(19)
    x = rng.standard_normal((1, cfg.num_tokens, cfg.channels))
    _, trace = rpattention_forward(x, params, cfg)
    rpattention_backward(trace, rng.standard_normal(x.shape))
    tiles = [shape[-2] for shape in shapes if shape[-2] != cfg.num_representatives]
    assert tiles == [5, 5, 5, 1] * 2  # forward, then the backward's recompute
    assert max(shape[-2] for shape in shapes) <= 5
    assert assigned == [5, 5, 5, 1] * 2
    assert keyed == ([5, 5, 5, 1] * 2 if routing == "learned" else [16, 5, 5, 5, 1])


@pytest.mark.parametrize("k", [1, 3, 5, 7, 17])
@pytest.mark.parametrize("grid", [(1, 5), (7, 5), (8, 5), (9, 5), (17, 5), (128, 5), (128, 128)])
def test_depthwise_reverse_bytes_equal_to_whole_array_taps(grid, k):
    # The banded reverse against one whole-array product per tap: grids
    # shorter than, equal to and one row over a band, several bands with a
    # short last one and pads up to a whole band (k = 17); each input and
    # output gradient also as a non-contiguous view, with 20% signed zeros.
    # dx is a new upright C-contiguous array, not a view turned by 180°.
    h, w = grid
    rng = np.random.default_rng(h * 1000 + w * 10 + k)
    for batch in (1, 3):
        for dtype in (np.float32, np.float64):
            wide = rng.standard_normal((2, batch, h, w, 6)).astype(dtype)
            zeros = rng.random(wide.shape) < 0.2
            wide[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
            kernel = rng.standard_normal((k, k, 3)).astype(dtype)
            for x, dy in (np.ascontiguousarray(wide[..., :3]), wide[..., ::2]):
                got = _depthwise_conv2d_backward(x, kernel, dy)
                want = oracles.depthwise_conv2d_backward_taps(x, kernel, dy)
                for name, a, b in zip(("dx", "dkernel", "dbias"), got, want):
                    assert a.shape == b.shape and a.dtype == dtype, name
                    assert a.tobytes() == b.tobytes(), (name, batch, dtype, x.flags.c_contiguous)
                dx = got[0]
                assert dx.flags.c_contiguous and min(dx.strides) > 0, dx.strides

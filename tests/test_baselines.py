"""Tests for the dense, pooled-proxy, and k-means routing baselines."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from rpattn import (
    AttnConfig,
    init_params,
    kernels,
    kmeans_gather,
    pooled_proxy_forward,
    project_qkv,
    rpattention_forward,
)
from rpattn.attention import slot_one_hot
from rpattn.baselines import _seed_draws, _uniform_draws, softmax_attention_forward
from rpattn.errors import ConfigError, ContractError, ShapeError
from rpattn.grad import finite_diff_grad, softmax_attention_backward

import oracles

DENSE_FIELDS = ("w_q", "w_k", "w_v", "w_o")


def _dense_config(c, n):
    return AttnConfig(channels=c, heads=2, num_representatives=1, grid_h=1, grid_w=n)


class TestDenseAttention:
    def test_single_token_is_projected_value(self):
        cfg = _dense_config(6, 1)
        params = init_params(cfg, 0)
        x = np.random.default_rng(1).standard_normal((2, 1, 6))
        out, _ = softmax_attention_forward(x, params, cfg)
        expect = oracles.matmul_loops(oracles.matmul_loops(x, params.w_v), params.w_o)
        assert np.abs(out - expect).max() < 1e-12

    def test_identical_keys_ignore_queries(self):
        c = 4
        cfg = _dense_config(c, 5)
        rng = np.random.default_rng(2)
        w_q1 = rng.standard_normal((c, c))
        w_q2 = rng.standard_normal((c, c))
        w_v = rng.standard_normal((c, c))
        w_o = rng.standard_normal((c, c))
        # all keys identical -> uniform attention
        params1 = replace(init_params(cfg, 0), w_q=w_q1, w_k=np.zeros((c, c)), w_v=w_v, w_o=w_o)
        params2 = replace(params1, w_q=w_q2)
        x = rng.standard_normal((1, 5, c))
        out1, _ = softmax_attention_forward(x, params1, cfg)
        out2, _ = softmax_attention_forward(x, params2, cfg)
        assert np.abs(out1 - out2).max() < 1e-12
        # every row is the mean value, projected
        v_mean = oracles.matmul_loops(x, w_v).mean(axis=1, keepdims=True)
        expect = oracles.matmul_loops(np.broadcast_to(v_mean, x.shape).copy(), w_o)
        assert np.abs(out1 - expect).max() < 1e-12

    def test_matches_loop_oracle(self):
        cfg = _dense_config(8, 6)
        params = init_params(cfg, 3)
        x = np.random.default_rng(4).standard_normal((1, 6, 8))
        out, _ = softmax_attention_forward(x, params, cfg)
        expect = oracles.dense_attention_loops(x, params.w_q, params.w_k, params.w_v,
                                               params.w_o, heads=2)
        assert np.abs(out - expect).max() < 1e-12

    def test_trace_keeps_no_readout(self):
        # The forward projects each tile's readout into its rows of the
        # output, and the backward recomputes the readouts: x and the output
        # are the trace's only [B, N, C] arrays.
        cfg = _dense_config(8, 7)
        x = np.random.default_rng(7).standard_normal((2, 7, 8))
        _, trace = softmax_attention_forward(x, init_params(cfg, 5), cfg)
        assert [name for name, v in vars(trace).items() if np.shape(v) == x.shape] == [
            "x", "output"]

    def test_attention_rows_sum_to_one(self):
        # The trace keeps no queries or weights; the ones the backward
        # recomputes from it (queries from x and w_q) are row-stochastic.
        cfg = _dense_config(8, 7)
        x = np.random.default_rng(6).standard_normal((1, 7, 8))
        _, trace = softmax_attention_forward(x, init_params(cfg, 5), cfg)
        (q,) = project_qkv(trace.x, (trace.params.w_q,), cfg.heads)
        p, _ = kernels.attention(q, trace.k, trace.v)
        assert p.shape == (1, 2, 7, 7)
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("batch", [1, 2])
    def test_two_blocks_match_one_block(self, monkeypatch, batch):
        # A 17 x 32 grid is two query blocks. Its output and all 14 gradients
        # match one block holding the full [B, h, N, N] weights.
        cfg = AttnConfig(channels=4, heads=2, num_representatives=1, grid_h=17, grid_w=32)
        assert kernels.TOKEN_TILE < cfg.num_tokens <= 2 * kernels.TOKEN_TILE
        params = init_params(cfg, 12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((batch, cfg.num_tokens, 4))
        g = rng.standard_normal(x.shape)

        def run():
            out, trace = softmax_attention_forward(x, params, cfg)
            grads = softmax_attention_backward(trace, g)
            return {"output": out, "x": grads.grad_x, **grads.field_dict()}

        blocked = run()
        monkeypatch.setattr(kernels, "TOKEN_TILE", cfg.num_tokens)
        single = run()
        assert len(single) == 15
        for name, ref in single.items():
            scale = np.abs(ref).max()
            assert np.abs(blocked[name] - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("batch", [1, 2])
    def test_backward_matches_finite_differences(self, batch):
        cfg = _dense_config(6, 5)
        params = init_params(cfg, 9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((batch, 5, 6))
        g = rng.standard_normal((batch, 5, 6)) * 1e-2
        _, trace = softmax_attention_forward(x, params, cfg)
        grads = softmax_attention_backward(trace, g)

        def loss(p, xin):
            out, _ = softmax_attention_forward(xin, p, cfg)
            return float((out * g).sum())

        def rel_err(analytic, numeric):
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
            return (np.abs(numeric - analytic) / denom).max()

        for name in DENSE_FIELDS:
            fd = finite_diff_grad(lambda t, _n=name: loss(replace(params, **{_n: t}), x),
                                  getattr(params, name), 1e-5)
            assert rel_err(getattr(grads, name), fd) < 1e-4, name
        fd_x = finite_diff_grad(lambda t: loss(params, t), x, 1e-5)
        assert rel_err(grads.grad_x, fd_x) < 1e-4
        # the dense layer reads no other field, so their gradients are zero
        for name, value in grads.field_dict().items():
            if name not in DENSE_FIELDS:
                assert not value.any(), name


class TestPooledProxy:
    CFG = AttnConfig(channels=8, heads=2, num_representatives=4, grid_h=4, grid_w=4)

    def test_full_grid_pool_is_mean_token(self):
        params = init_params(self.CFG, 0)
        x = np.random.default_rng(1).standard_normal((1, 16, 8))
        _, latent_k, latent_v = pooled_proxy_forward(x, params, self.CFG, (1, 1))
        k, v = project_qkv(x, (params.w_k, params.w_v), self.CFG.heads)
        assert latent_k.shape == (1, 2, 1, 4)
        assert np.abs(latent_k[:, :, 0, :] - k.mean(axis=2)).max() < 1e-12
        assert np.abs(latent_v[:, :, 0, :] - v.mean(axis=2)).max() < 1e-12

    def test_unit_cells_equal_dense_attention(self):
        params = init_params(self.CFG, 2)
        x = np.random.default_rng(3).standard_normal((1, 16, 8))
        y, latent_k, _ = pooled_proxy_forward(x, params, self.CFG, (4, 4))
        dense, _ = softmax_attention_forward(x, params, self.CFG)
        assert latent_k.shape[2] == 16
        assert np.abs(y - dense).max() < 1e-12

    def test_pooled_keys_match_cell_averages(self):
        params = init_params(self.CFG, 4)
        x = np.random.default_rng(5).standard_normal((1, 16, 8))
        _, latent_k, _ = pooled_proxy_forward(x, params, self.CFG, (2, 2))
        (k,) = project_qkv(x, (params.w_k,), self.CFG.heads)
        grid = k.reshape(1, 2, 4, 4, 4)
        for ci, (rows, cols) in enumerate([((0, 1), (0, 1)), ((0, 1), (2, 3)),
                                           ((2, 3), (0, 1)), ((2, 3), (2, 3))]):
            expect = grid[:, :, rows[0]:rows[1] + 1, cols[0]:cols[1] + 1, :].mean(axis=(2, 3))
            assert np.abs(latent_k[:, :, ci, :] - expect).max() < 1e-12

    def test_indivisible_grid_rejected(self):
        params = init_params(self.CFG, 6)
        x = np.zeros((1, 16, 8))
        for pool_grid in [(3, 3), (0, 2), (-2, 2)]:
            with pytest.raises(ConfigError):
                pooled_proxy_forward(x, params, self.CFG, pool_grid)

    def test_cross_cell_swap_changes_latents(self):
        # Latents are tied to grid cells: swapping one token between two cells
        # changes the pooled keys, unlike the gather mechanism.
        params = init_params(self.CFG, 7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 16, 8))
        _, latent_k, _ = pooled_proxy_forward(x, params, self.CFG, (2, 2))
        swapped = x.copy()
        swapped[:, [0, 15], :] = swapped[:, [15, 0], :]
        _, latent_k_swapped, _ = pooled_proxy_forward(swapped, params, self.CFG, (2, 2))
        assert np.abs(latent_k - latent_k_swapped).max() > 1e-3


def _kmeans_one_hot(keys, num_slots, iters, seed):
    # kmeans_gather's slot indices as the one-hot rows the layer gathers with.
    return slot_one_hot(kmeans_gather(keys, num_slots, iters, seed), num_slots, keys.dtype)


class TestKMeans:
    def test_identical_points_deterministic(self):
        keys = np.ones((1, 1, 6, 3))
        a = _kmeans_one_hot(keys, num_slots=3, iters=2, seed=0)
        b = _kmeans_one_hot(keys, num_slots=3, iters=2, seed=0)
        assert np.array_equal(a, b)
        assert a.shape == (1, 1, 6, 3)
        assert np.array_equal(a.sum(axis=-1), np.ones((1, 1, 6)))
        # one slot holds nearly all points, re-seeded slots get one each
        counts = sorted(a[0, 0].sum(axis=0))
        assert counts == [1.0, 1.0, 4.0]

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        sigma = 0.1
        blob_a = rng.normal(0.0, sigma, (8, 3))
        blob_b = rng.normal(0.0, sigma, (8, 3)) + 10.0 * sigma * 20
        keys = np.concatenate([blob_a, blob_b])[None, None]
        a = _kmeans_one_hot(keys, num_slots=2, iters=3, seed=1)
        assign = a[0, 0].argmax(axis=1)
        assert len(set(assign[:8])) == 1
        assert len(set(assign[8:])) == 1
        assert assign[0] != assign[8]

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        keys = rng.standard_normal((2, 2, 20, 4))
        inertias = []
        for iters in (1, 2, 3, 5):
            a = _kmeans_one_hot(keys, num_slots=4, iters=iters, seed=3)
            inertias.append(oracles.kmeans_inertia(keys, a))
        for prev, cur in zip(inertias, inertias[1:]):
            assert cur <= prev + 1e-9

    def test_one_hot_and_seed_streams(self):
        rng = np.random.default_rng(4)
        keys = rng.standard_normal((4, 2, 10, 3))
        a = _kmeans_one_hot(keys, num_slots=3, iters=2, seed=5)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.array_equal(a.sum(axis=-1), np.ones((4, 2, 10)))
        b = _kmeans_one_hot(keys[:1, :1], num_slots=3, iters=2, seed=5)
        assert np.array_equal(a[:1, :1], b)
        # Each (batch, head) group draws from the stream of its position, so
        # its slice does not depend on the other groups routed with it.
        for bi in range(4):
            for hi in range(2):
                other = rng.standard_normal(keys.shape)
                other[bi, hi] = keys[bi, hi]
                got = _kmeans_one_hot(other, num_slots=3, iters=2, seed=5)
                assert np.array_equal(got[bi:bi + 1, hi:hi + 1], a[bi:bi + 1, hi:hi + 1])

    def test_one_hot_in_key_dtype(self):
        keys = np.random.default_rng(8).standard_normal((2, 2, 10, 3)).astype(np.float32)
        a32 = _kmeans_one_hot(keys, num_slots=3, iters=2, seed=9)
        a64 = _kmeans_one_hot(keys.astype(np.float64), num_slots=3, iters=2, seed=9)
        assert a32.dtype == np.float32
        assert a64.dtype == np.float64
        # Routing runs in float64 either way, so the slots are the same.
        assert np.array_equal(a32, a64)

    def test_more_slots_than_points(self):
        # Slots that cannot all be filled keep their centroids: no empty-set
        # means, no NaN, no RuntimeWarning.
        keys = np.random.default_rng(6).standard_normal((2, 2, 12, 4))
        cfg = AttnConfig(channels=8, heads=2, num_representatives=20, grid_h=3, grid_w=4,
                         routing="kmeans")
        x = np.random.default_rng(7).standard_normal((2, 12, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = _kmeans_one_hot(keys, num_slots=20, iters=3, seed=0)
            y, trace = rpattention_forward(x, init_params(cfg, 0), cfg)
        for assign in (a, trace.a):
            assert set(np.unique(assign)) <= {0.0, 1.0}
            assert np.array_equal(assign.sum(axis=-1), np.ones(assign.shape[:-1]))
        assert np.isfinite(y).all()

    def test_matches_per_slot_oracle(self):
        # Random shapes with d >= 2, B up to 4 and B*h >= 2, half of them with
        # M > N, and duplicated points from rounding and copied rows. Every
        # third call also holds a group of identical points, whose seeding
        # draws uniformly (zero total distance), next to ordinary groups.
        # (With d = 1 numpy sums a [k, 1] slice pairwise, so exact ties may
        # round differently.)
        rng = np.random.default_rng(20)
        for trial in range(300):
            b = int(rng.integers(1, 5))
            h = int(rng.integers(2 if b == 1 else 1, 3))
            n = int(rng.integers(1, 25))
            m = int(rng.integers(n + 1, n + 6)) if trial % 4 < 2 else int(rng.integers(1, n + 1))
            keys = rng.standard_normal((b, h, n, int(rng.integers(2, 6))))
            if trial % 3 == 0:
                keys = np.round(keys)
            keys[..., : n // 3, :] = keys[..., :1, :]
            if trial % 3 == 1:
                keys[int(rng.integers(b)), int(rng.integers(h))] = rng.standard_normal(keys.shape[-1])
            iters = int(rng.integers(1, 5))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _kmeans_one_hot(keys, m, iters, trial)
            assert np.array_equal(got, oracles.kmeans_gather_loops(keys, m, iters, trial)), trial

    def test_group_dead_from_third_slot_matches_oracle(self):
        # A group of exactly two distinct points has zero total distance once
        # both are centroids, so slots 2..M-1 draw uniformly from its stream;
        # the live groups beside it keep their own draws.
        rng = np.random.default_rng(21)
        for trial in range(20):
            m = int(rng.integers(4, 8))
            keys = rng.standard_normal((3, 2, 9, 3))
            bi, hi = int(rng.integers(3)), int(rng.integers(2))
            pair = rng.standard_normal((2, 3))
            keys[bi, hi] = pair[np.arange(9) % 2]
            got = _kmeans_one_hot(keys, m, 2, trial)
            assert np.array_equal(got, oracles.kmeans_gather_loops(keys, m, 2, trial)), trial

    def test_interleaved_seeding_keys_match_oracle(self):
        # Calls that differ in one of (seed, B, h, N, M) each get their own
        # cached seeding draws, whatever order they come in.
        cases = [(0, (2, 2, 6, 3), 3), (1, (2, 2, 6, 3), 3), (0, (1, 2, 6, 3), 3),
                 (0, (2, 1, 6, 3), 3), (0, (2, 2, 7, 3), 3), (0, (2, 2, 6, 3), 4),
                 (0, (4, 1, 6, 3), 3)]
        rng = np.random.default_rng(22)
        keys = [rng.standard_normal(shape) for _, shape, _ in cases]
        for _ in range(2):
            for (seed, _, m), k in zip(cases, keys):
                expect = oracles.kmeans_gather_loops(k, m, 2, seed)
                assert np.array_equal(_kmeans_one_hot(k, m, 2, seed), expect), (seed, k.shape, m)

    @pytest.mark.parametrize("seed", [0, 17])
    def test_dead_group_draws_replay_oracle_stream(self, seed):
        # A group whose points all sit on its first j centroids draws slots
        # j..M-1 with integers(n), after one integers(n) and j-1 choice(n, p)
        # calls. No kmeans_gather output was seen to change when this replay
        # is off by one draw, so it is checked against the oracle's calls here.
        b, h, n, m = 2, 3, 7, 6
        p = np.random.default_rng(23).dirichlet(np.ones(n))
        for bi in range(b):
            for hi in range(h):
                for j in range(1, m):
                    rng = np.random.default_rng([seed, bi, hi])
                    rng.integers(n)
                    for _ in range(1, j):
                        rng.choice(n, p=p)
                    expect = {slot: rng.integers(n) for slot in range(j, m)}
                    gi = np.intp(bi * h + hi)  # as kmeans_gather passes it
                    assert _uniform_draws(seed, gi, h, n, j, m) == expect, (bi, hi, j)

    def test_cached_seeding_draws_read_only(self):
        first, draws = _seed_draws(3, 2, 2, 5, 4)
        assert first.shape == (4,) and draws.shape == (4, 3)
        for arr in (first, draws):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_bad_iters(self):
        with pytest.raises(ConfigError):
            kmeans_gather(np.zeros((1, 1, 4, 2)), num_slots=2, iters=0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^kmeans seed must be an integer >= 0"):
            kmeans_gather(np.zeros((1, 1, 4, 2)), num_slots=2, iters=1, seed=-1)

    @pytest.mark.parametrize("shape", [(4, 2), (1, 4, 2), (1, 1, 1, 4, 2), (1, 1, 0, 2)])
    def test_keys_not_4d_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"^kmeans keys must be a non-empty \[B, h, N, d\]"):
            kmeans_gather(np.zeros(shape), num_slots=2, iters=1, seed=0)

    @pytest.mark.parametrize("fill", ["one", "all"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_keys_rejected(self, fill, bad):
        keys = np.random.default_rng(24).standard_normal((2, 2, 5, 3)).astype(np.float32)
        if fill == "all":
            keys[:] = bad
        else:
            keys[1, 0, 3, 2] = bad
        with pytest.raises(ContractError, match="kmeans keys hold NaN or inf"):
            kmeans_gather(keys, num_slots=2, iters=1, seed=0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_non_integer_block_and_grid_sizes_rejected(bad):
    # pool_grid counts the pooled proxy's blocks per grid axis.
    cfg = AttnConfig(channels=8, heads=2, num_representatives=4, grid_h=4, grid_w=4)
    params = init_params(cfg, 0)
    x = np.random.default_rng(12).standard_normal((1, 16, 8))
    for pool_grid in [(bad, 2), (2, bad)]:
        with pytest.raises(ConfigError):
            pooled_proxy_forward(x, params, cfg, pool_grid)
    # numpy integers are integers
    pooled = pooled_proxy_forward(x, params, cfg, (np.int64(2), 2))[0]
    assert np.array_equal(pooled, pooled_proxy_forward(x, params, cfg, (2, 2))[0])


def test_all_baselines_preserve_token_shape():
    cfg = AttnConfig(channels=8, heads=2, num_representatives=4, grid_h=4, grid_w=4)
    params = init_params(cfg, 0)
    x = np.random.default_rng(0).standard_normal((2, 16, 8))
    dense, _ = softmax_attention_forward(x, params, cfg)
    pooled, _, _ = pooled_proxy_forward(x, params, cfg, (2, 2))
    gd, _ = rpattention_forward(x, params, replace(cfg, enable_interact=False))
    km, _ = rpattention_forward(x, params, replace(cfg, routing="kmeans"))
    for out in (dense, pooled, gd, km):
        assert out.shape == x.shape


FORWARDS = {
    "rpattention": rpattention_forward,
    "softmax_dense": softmax_attention_forward,
    "pooled_proxy": lambda x, params, cfg: pooled_proxy_forward(x, params, cfg, (2, 2)),
}


@pytest.mark.parametrize("name", sorted(FORWARDS))
def test_forwards_share_input_contract(name):
    forward = FORWARDS[name]
    cfg = AttnConfig(channels=8, heads=2, num_representatives=4, grid_h=4, grid_w=4)
    params = init_params(cfg, 0)
    with pytest.raises(ShapeError):
        forward(np.zeros((16, 8)), params, cfg)
    with pytest.raises(ShapeError):
        forward(np.zeros((1, 16, 6)), params, cfg)
    with pytest.raises(ConfigError):
        forward(np.zeros((0, 16, 8)), params, cfg)
    with pytest.raises(ConfigError):
        forward(np.zeros((1, 12, 8)), params, cfg)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((1, 16, 8))
        x[0, 5, 3] = bad
        with pytest.raises(ContractError):
            forward(x, params, cfg)


@pytest.mark.parametrize("name", sorted(FORWARDS))
def test_forwards_reject_params_of_another_dtype(name):
    forward = FORWARDS[name]
    cfg64 = AttnConfig(channels=8, heads=2, num_representatives=4, grid_h=4, grid_w=4)
    cfg32 = replace(cfg64, dtype="float32")
    x = np.random.default_rng(0).standard_normal((1, 16, 8))
    with pytest.raises(ContractError):
        forward(x, init_params(cfg64, 0), cfg32)
    # one field of another dtype is enough
    params = init_params(cfg32, 0)
    with pytest.raises(ContractError):
        forward(x, replace(params, dwc_bias=params.dwc_bias.astype(np.float64)), cfg32)
    out = forward(x, params, cfg32)[0]
    assert out.dtype == np.float32

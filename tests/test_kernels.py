"""Kernel-level tests against naive loop oracles and frozen values."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rpattn import kernels
from rpattn.errors import ConfigError, ContractError, ShapeError

import oracles


class TestMatmul:
    def test_identity_exact(self):
        eye = np.eye(3)
        assert np.array_equal(kernels.matmul(eye, eye), eye)

    def test_permutation_matrix(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(kernels.matmul(a, p), np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_random_vs_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        assert np.abs(kernels.matmul(a, b) - oracles.matmul_loops(a, b)).max() < 1e-12

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((5, 6))
        got = kernels.matmul(a, b)
        assert got.shape == (2, 3, 4, 6)
        assert np.abs(got - oracles.matmul_loops(a, b)).max() < 1e-12
        b4 = rng.standard_normal((2, 3, 5, 6))
        assert np.abs(kernels.matmul(a, b4) - oracles.matmul_loops(a, b4)).max() < 1e-12

    def test_identity_associativity_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4))
        assert np.array_equal(kernels.matmul(x, np.eye(4)), x)

    def test_shape_mismatch_names_both_shapes(self):
        # Inner dims differ, leading dims do not broadcast, a 1-d operand.
        for a, b in [((2, 3), (4, 5)), ((2, 1, 3), (3, 3, 4)), ((3,), (3, 4))]:
            with pytest.raises(ShapeError, match=re.escape(str(a)) + ".*" + re.escape(str(b))):
                kernels.matmul(np.zeros(a), np.zeros(b))

    def test_float32_path(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        got = kernels.matmul(a, b)
        assert got.dtype == np.float32
        assert np.abs(got.astype(np.float64) - oracles.matmul_loops(a, b)).max() < 1e-5


class TestSoftmax:
    def test_uniform(self):
        out = kernels.softmax_lastdim(np.array([0.0, 0.0, 0.0]))
        assert np.abs(out - 1.0 / 3.0).max() < 1e-15

    def test_stability_limit(self):
        out = kernels.softmax_lastdim(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_frozen_values(self):
        out = kernels.softmax_lastdim(np.array([1.0, 2.0, 3.0]))
        assert np.abs(out - np.array([0.09003, 0.24473, 0.66524])).max() < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_large_range(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1e4, 1e4, (4, 6, 9))
        out = kernels.softmax_lastdim(x)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        out32 = kernels.softmax_lastdim(x.astype(np.float32))
        assert np.abs(out32.sum(axis=-1) - 1.0).max() < 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5))
        assert np.abs(kernels.softmax_lastdim(x) - oracles.softmax_lastdim_loops(x)).max() < 1e-12

    def test_integer_input_promotes_like_exp(self):
        out = kernels.softmax_lastdim(np.array([1, 2, 3]))
        assert out.dtype == np.float64
        assert np.array_equal(out, kernels.softmax_lastdim(np.array([1.0, 2.0, 3.0])))


class TestWeightsLayout:
    """softmax_lastdim keeps the key-major layout of the attention weights
    (tests/test_properties.py checks the weights themselves)."""

    def test_softmax_leaves_its_input_unchanged(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 7, 5))
        for view in (x, np.swapaxes(x, -1, -2)):
            before = view.copy()
            kernels.softmax_lastdim(view)
            assert np.array_equal(view, before)

    def test_softmax_keeps_a_swapped_layout(self):
        # A slot-major [2, 3, 49, 40] array seen as [2, 3, 40, 49]: the result
        # keeps that layout and equals the softmax of the same values in C order.
        rng = np.random.default_rng(25)
        slot_major = np.swapaxes(rng.standard_normal((2, 3, 49, 40)) * 5.0, -1, -2)
        got = kernels.softmax_lastdim(slot_major)
        assert np.swapaxes(got, -1, -2).flags.c_contiguous
        want = kernels.softmax_lastdim(np.ascontiguousarray(slot_major))
        assert want.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-15


class TestSoftmaxInPlace:
    """softmax_lastdim(s, out=s) normalizes in the caller's buffer, with the
    bits of the copying form."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_bit_equal_to_copying_form(self, dtype, swapped):
        rng = np.random.default_rng(26)
        s = (rng.standard_normal((2, 3, 49, 40)) * 5.0).astype(dtype)
        if swapped:
            s = np.swapaxes(s, -1, -2)
        want = kernels.softmax_lastdim(s)
        got = kernels.softmax_lastdim(s, out=s)
        assert got is s
        assert np.swapaxes(got, -1, -2).flags.c_contiguous == swapped
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestLayerNorm:
    def test_constant_slice_is_zero(self):
        x = np.full((2, 4), 3.7)
        out = kernels.layer_norm(x, np.ones(4), np.zeros(4), 1e-5)
        assert np.abs(out).max() < 1e-12

    def test_two_point_normalization(self):
        out = kernels.layer_norm(np.array([1.0, 3.0]), np.ones(2), np.zeros(2), 1e-12)
        assert np.abs(out - np.array([-1.0, 1.0])).max() < 1e-6

    def test_moments(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 16))
        out = kernels.layer_norm(x, np.ones(16), np.zeros(16), 1e-5)
        assert np.abs(out.mean(axis=-1)).max() < 1e-7
        var = out.var(axis=-1)
        assert (var > 1.0 - 1e-4).all() and (var <= 1.0 + 1e-12).all()

    def test_beta_sets_output_mean(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 8))
        beta = rng.standard_normal(8)
        out = kernels.layer_norm(x, np.ones(8), beta, 1e-5)
        assert np.abs(out.mean(axis=-1) - beta.mean()).max() < 1e-7

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 5))
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        got = kernels.layer_norm(x, gamma, beta, 1e-5)
        assert np.abs(got - oracles.layer_norm_loops(x, gamma, beta, 1e-5)).max() < 1e-12

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            kernels.layer_norm(np.zeros((2, 2)), np.ones(2), np.zeros(2), 0.0)


def _delta_kernel(k, c):
    kernel = np.zeros((k, k, c))
    kernel[k // 2, k // 2, :] = 1.0
    return kernel


class TestDepthwiseConv:
    def test_delta_kernel_identity_exact(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 5, 3))
        out = kernels.depthwise_conv2d(x, _delta_kernel(3, 3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_ones_kernel_counts_padded_support(self):
        x = np.ones((1, 5, 5, 1))
        out = kernels.depthwise_conv2d(x, np.ones((3, 3, 1)), np.zeros(1))[0, :, :, 0]
        assert np.array_equal(out[1:-1, 1:-1], np.full((3, 3), 9.0))
        for corner in (out[0, 0], out[0, -1], out[-1, 0], out[-1, -1]):
            assert corner == 4.0
        assert out[0, 2] == 6.0 and out[2, 0] == 6.0

    def test_matches_six_loop_oracle(self):
        # Kernel sizes 1, 3 and 5 zero-pad a border of width 0, 1 and 2.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 4, 3))
        for k in (1, 3, 5):
            kernel = rng.standard_normal((k, k, 3))
            bias = rng.standard_normal(3)
            got = kernels.depthwise_conv2d(x, kernel, bias)
            assert np.abs(got - oracles.depthwise_conv2d_loops(x, kernel, bias)).max() < 1e-12, k

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 17, 19])
    @pytest.mark.parametrize("h", [1, 7, 8, 9, 17, 128])
    def test_bytes_equal_to_whole_array_taps(self, h, k):
        # The forward pads one band of input rows at a time; the oracle pads
        # the whole input once. Grids h x 5 and h x h: shorter than, equal to
        # and one row over a band, several bands with a short last one, and
        # pads of a whole band (k = 17) and more (k = 19), so a band's padded
        # rows reach past its neighbours'; each input also as a
        # non-contiguous view and as a view turned by 180°, as the backward
        # passes it.
        rng = np.random.default_rng(h * 100 + k)
        for w in (5, h):
            for batch in (1, 3):
                for dtype in (np.float32, np.float64):
                    wide = rng.standard_normal((batch, h, w, 6)).astype(dtype)
                    kernel = rng.standard_normal((k, k, 3)).astype(dtype)
                    bias = rng.standard_normal(3).astype(dtype)
                    for x in (np.ascontiguousarray(wide[..., :3]), wide[..., ::2],
                              np.ascontiguousarray(wide[..., :3])[:, ::-1, ::-1]):
                        got = kernels.depthwise_conv2d(x, kernel, bias)
                        want = oracles.depthwise_conv2d_taps(x, kernel, bias)
                        assert got.shape == x.shape and got.dtype == dtype
                        assert got.tobytes() == want.tobytes(), (w, batch, dtype, x.strides)

    @pytest.mark.parametrize("h", [1, 7, 8, 9, 16, 17, 24, 25])
    def test_in_place_bytes_equal_to_out_of_place(self, h):
        # out=x overwrites x band by band, each band keeping the input rows
        # the next one reads before writing them. H below, at and above
        # multiples of a band; every odd k to 19, so pads of a whole band
        # (k = 17) and more (k = 19) make the halo move overlap itself;
        # W = 1 and C = 1; 20% signed zeros in x.
        rng = np.random.default_rng(h)
        for k in range(1, 20, 2):
            for w, c in ((5, 3), (1, 2), (4, 1)):
                for dtype in (np.float32, np.float64):
                    x = rng.standard_normal((2, h, w, c)).astype(dtype)
                    zeros = rng.random(x.shape) < 0.2
                    x[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
                    kernel = rng.standard_normal((k, k, c)).astype(dtype)
                    bias = rng.standard_normal(c).astype(dtype)
                    before = x.tobytes()
                    want = kernels.depthwise_conv2d(x, kernel, bias)
                    assert x.tobytes() == before
                    got = kernels.depthwise_conv2d(x, kernel, bias, out=x)
                    assert np.shares_memory(got, x)
                    assert got.tobytes() == want.tobytes(), (k, w, c, dtype)

    def test_out_must_be_x_or_disjoint(self):
        x = np.zeros((1, 9, 4, 2))
        kernel, bias = np.zeros((3, 3, 2)), np.zeros(2)
        with pytest.raises(ContractError):  # overlaps x without being x
            kernels.depthwise_conv2d(x[:, :8], kernel, bias, out=x[:, 1:])
        for out in (np.zeros((1, 9, 4, 3)), np.zeros((1, 9, 4, 2), np.float32),
                    np.zeros((1, 9, 8, 2))[:, :, ::2]):
            with pytest.raises(ShapeError):
                kernels.depthwise_conv2d(x, kernel, bias, out=out)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            kernels.depthwise_conv2d(np.zeros((1, 4, 4, 2)), np.zeros((2, 2, 2)), np.zeros(2))

    @pytest.mark.parametrize("bias_shape", [(), (1,), (3,), (2, 1)])
    def test_bias_not_per_channel_rejected(self, bias_shape):
        with pytest.raises(ShapeError):
            kernels.depthwise_conv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2)),
                                     np.zeros(bias_shape))

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 7, 7, 2))
        kernel = rng.standard_normal((3, 3, 2))
        shifted = np.zeros_like(x)
        shifted[:, 1:, :, :] = x[:, :-1, :, :]
        out = kernels.depthwise_conv2d(x, kernel, np.zeros(2))
        out_shifted = kernels.depthwise_conv2d(shifted, kernel, np.zeros(2))
        # interior rows: row i of the shifted output equals row i-1 of the original
        assert np.abs(out_shifted[:, 2:-1, :, :] - out[:, 1:-2, :, :]).max() < 1e-12


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 4))
        assert np.array_equal(kernels.linear(x, np.eye(4)), x)

    def test_matches_matmul_plus_add(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 5, 4))
        w = rng.standard_normal((4, 3))
        expect = oracles.matmul_loops(x, w)
        assert np.abs(kernels.linear(x, w) - expect).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kernels.linear(np.zeros((2, 3)), np.zeros((4, 5)))


def test_kernels_bit_deterministic():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 6, 5))
    b = rng.standard_normal((3, 5, 4))
    x = rng.standard_normal((2, 3 * kernels.DWC_BAND_ROWS + 1, 4, 3))  # several bands
    kernel = rng.standard_normal((3, 3, 3))
    runs = []
    for _ in range(2):
        runs.append((
            kernels.matmul(a, b).tobytes(),
            kernels.softmax_lastdim(a).tobytes(),
            kernels.layer_norm(a, np.ones(5), np.zeros(5), 1e-5).tobytes(),
            kernels.depthwise_conv2d(x, kernel, np.zeros(3)).tobytes(),
        ))
    assert runs[0] == runs[1]


# Float64 forward + backward at a shape large enough that BLAS splits its
# GEMMs across threads. Prints one sha256 per output/gradient array.
_HASH_SCRIPT = """
import hashlib
import numpy as np
from rpattn import AttnConfig, init_params, rpattention_backward, rpattention_forward

cfg = AttnConfig(channels=64, heads=2, num_representatives=49, grid_h=32, grid_w=32)
params = init_params(cfg, 0)
rng = np.random.default_rng(1)
x = rng.standard_normal((2, cfg.num_tokens, cfg.channels))
g = rng.standard_normal(x.shape)
y, trace = rpattention_forward(x, params, cfg)
grads = rpattention_backward(trace, g)
arrays = {"output": y, "grad_x": grads.grad_x, **grads.field_dict()}
for name, arr in arrays.items():
    print(name, arr.dtype, hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest())
"""


def _hash_run(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", _HASH_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_float64_bytes_independent_of_blas_threads():
    one = _hash_run(1)
    two = _hash_run(2)
    assert len(one) == 15 and all(" float64 " in line for line in one)
    assert one == two

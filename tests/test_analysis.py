"""Tests for the cost model, EM oracle, shift experiment, scaling harness,
and assignment-map export."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from rpattn import (
    AttnConfig,
    em_one_step_oracle,
    flops_estimate,
    init_params,
    make_blob_image,
    measure_scaling,
    softmax_flops,
)
from rpattn.analysis import (
    bench_mechanisms,
    em_deviations,
    export_assignment_maps,
    make_constant_dummy,
    make_linear_dummy,
    make_quadratic_dummy,
    mean_shift_report,
    patch_embed,
    shift_experiment,
    shift_image,
    shift_robustness,
)
from rpattn.attention import SLOT_MASS_EPS, gather_assign, gather_latents, mass_normalize
from rpattn.errors import ConfigError


class TestFlops:
    def test_reference_breakdown(self):
        fb = flops_estimate(196, 49, 192, 3)
        assert fb.proj == 28_901_376
        assert fb.gather == 5_531_904
        assert fb.interaction == 921_984
        assert fb.distribute == 3_687_936
        assert fb.dwc == 338_688
        assert fb.total == 39_381_888

    def test_unit_case(self):
        fb = flops_estimate(1, 1, 1, 1)
        assert (fb.proj, fb.gather, fb.interaction, fb.distribute, fb.dwc) == (4, 3, 2, 2, 1)
        assert fb.total == 12

    def test_zero_slot_rejected(self):
        with pytest.raises(ConfigError):
            flops_estimate(196, 0, 192, 3)
        with pytest.raises(ConfigError):
            flops_estimate(196, 49, 192, 3.0)

    def test_doubling_tokens_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n, m, c = (int(v) for v in rng.integers(1, 512, 3))
            k = int(rng.choice([1, 3, 5, 7]))
            lhs = flops_estimate(2 * n, m, c, k).total
            rhs = 2 * flops_estimate(n, m, c, k).total - 2 * m * m * c
            assert lhs == rhs

    def test_huge_inputs_exact(self):
        fb = flops_estimate(10**9, 10**6, 10**5, 9)
        assert fb.proj == 4 * 10**9 * 10**10  # no wraparound, exact ints

    def test_softmax_reference(self):
        assert softmax_flops(196, 192) == 28_901_376 + 14_751_744
        assert softmax_flops(1, 1) == 6

    def test_crossover_scan(self):
        m, c, k = 49, 192, 3
        crossover = next(
            n for n in range(1, 10_000)
            if softmax_flops(n, c) > flops_estimate(n, m, c, k).total)
        assert crossover == 144
        assert softmax_flops(143, c) <= flops_estimate(143, m, c, k).total


class TestEMOracle:
    def test_single_token(self):
        rng = np.random.default_rng(1)
        keys = rng.standard_normal((1, 1, 3))
        w_g = rng.standard_normal((3, 2))
        eps = 1e-6
        a, a_hat, k_l = em_one_step_oracle(keys, w_g, eps)
        for m in range(2):
            assert abs(a_hat[0, 0, m] - a[0, 0, m] / (a[0, 0, m] + eps)) < 1e-15
            assert np.abs(k_l[0, m] - a_hat[0, 0, m] * keys[0, 0]).max() < 1e-15

    def test_orthogonal_anchors_give_uniform(self):
        # keys confined to the first two dims, anchors to the third
        keys = np.zeros((1, 4, 3))
        keys[0, :, :2] = np.random.default_rng(2).standard_normal((4, 2))
        w_g = np.zeros((3, 2))
        w_g[2, :] = [1.0, -1.0]
        a, a_hat, k_l = em_one_step_oracle(keys, w_g, SLOT_MASS_EPS)
        assert np.abs(a - 0.5).max() < 1e-15
        a_p = gather_assign(keys[None], w_g)
        _, k_l_p, _ = mass_normalize(a_p, *gather_latents(a_p, keys[None], keys[None]))
        assert np.abs(a_p[0] - a).max() < 1e-12
        assert np.abs(k_l_p[0] - k_l).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gather_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.standard_normal((2, 9, 5))
        w_g = rng.standard_normal((5, 4))
        a_o, a_hat_o, k_l_o = em_one_step_oracle(keys, w_g, SLOT_MASS_EPS)
        a = gather_assign(keys[None], w_g)
        mass, k_l, _ = mass_normalize(a, *gather_latents(a, keys[None], keys[None]))
        assert np.abs(a[0] - a_o).max() < 1e-12
        assert np.abs(a[0] / np.swapaxes(mass[0], -1, -2) - a_hat_o).max() < 1e-12
        assert np.abs(k_l[0] - k_l_o).max() < 1e-12

    def test_em_deviations_one_per_trial(self):
        # Trial t's draws do not depend on how many trials follow it.
        deviations = em_deviations(trials=7, seed=3)
        assert len(deviations) == 7 and max(deviations) < 1e-12
        assert em_deviations(trials=3, seed=3) == deviations[:3]


def _shift_setup(seed, size=32, cin=8, patch=4, channels=32):
    grid = size // patch
    cfg = AttnConfig(channels=channels, heads=2, num_representatives=16,
                     grid_h=grid, grid_w=grid)
    rng = np.random.default_rng([seed, 17])
    embed_w = rng.normal(0.0, 1.0 / np.sqrt(patch * patch * cin),
                         (patch * patch * cin, channels))
    return cfg, embed_w, init_params(cfg, seed), init_params(cfg, seed + 1000)


class TestShift:
    def test_shift_image_modes(self):
        img = np.arange(12, dtype=np.float64).reshape(2, 6, 1)
        zero = shift_image(img, 2, mode="zero")
        assert not zero[:, :2].any()
        assert np.array_equal(zero[:, 2:], img[:, :-2])
        wrap = shift_image(img, 2, mode="wrap")
        assert np.array_equal(wrap, np.roll(img, 2, axis=1))
        with pytest.raises(ConfigError):
            shift_image(img, 6)
        for shift in (0, 2):
            with pytest.raises(ConfigError, match="mode must be 'zero' or 'wrap', got 'wrapp'"):
                shift_image(img, shift, mode="wrapp")

    def test_patch_embed_layout(self):
        img = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
        w = np.eye(4)
        tokens = patch_embed(img, 2, w)
        assert tokens.shape == (1, 4, 4)
        # token 1 is the top-right patch, rows then columns within the patch
        assert np.array_equal(tokens[0, 1], np.array([2.0, 3.0, 6.0, 7.0]))

    def test_zero_shift_gives_cosine_one(self):
        cfg, embed_w, p_rp, p_pool = _shift_setup(0)
        image = make_blob_image(32, 8, 3, 0, margin=12)
        rep = shift_robustness(image, embed_w, p_rp, p_pool, cfg, (4, 4), [0, 1], patch_size=4)
        assert abs(rep.cosine_rp[0] - 1.0) < 1e-6
        assert abs(rep.cosine_pooled[0] - 1.0) < 1e-6
        assert all(-1.0 <= v <= 1.0 for v in rep.cosine_rp + rep.cosine_pooled)

    def test_shift_list_must_start_at_zero(self):
        cfg, embed_w, p_rp, p_pool = _shift_setup(1)
        image = make_blob_image(32, 8, 3, 1, margin=12)
        for shifts in ([1, 2], [0, 32], [0], []):
            with pytest.raises(ConfigError):
                shift_robustness(image, embed_w, p_rp, p_pool, cfg, (4, 4), shifts, patch_size=4)

    def test_wrap_sanity_full_cell_recovers(self):
        # Image periodic with the pool-cell size: a full-cell wrap reproduces
        # the input exactly, so the pooled cosine dips at misaligned shifts
        # and rises back to 1; zero-fill at the same shift does not recover.
        cfg, embed_w, p_rp, p_pool = _shift_setup(2)
        rng = np.random.default_rng([2, 3])
        image = np.tile(rng.standard_normal((8, 8, 8)), (4, 4, 1))
        wrap = shift_robustness(image, embed_w, p_rp, p_pool, cfg, (4, 4),
                                [0, 2, 6, 8], patch_size=4, mode="wrap")
        zero = shift_robustness(image, embed_w, p_rp, p_pool, cfg, (4, 4),
                                [0, 8], patch_size=4, mode="zero")
        aligned = wrap.cosine_pooled[3]
        assert aligned > 1.0 - 1e-9
        assert wrap.cosine_rp[3] > 1.0 - 1e-9
        assert max(wrap.cosine_pooled[1], wrap.cosine_pooled[2]) < aligned - 0.2
        assert zero.cosine_pooled[1] < aligned - 0.05

    def test_ordering_against_pooled_proxy(self):
        cfg = AttnConfig(channels=32, heads=2, num_representatives=16, grid_h=8, grid_w=8)
        mean = mean_shift_report(shift_experiment(
            cfg, range(3), list(range(0, 9)), image_size=32, image_channels=8, num_blobs=3,
            patch_size=4, pool_grid=(4, 4)))
        for i, s in enumerate(mean.shifts):
            if s > 0:
                assert mean.cosine_rp[i] >= mean.cosine_pooled[i]


class TestScaling:
    def test_dummy_slopes_monotone(self):
        report = measure_scaling(
            [make_constant_dummy(), make_linear_dummy(), make_quadratic_dummy(repeats=2)],
            [512, 2048, 8192], reps=2, warmup=1, iters=5)
        s_const = report.results["constant_dummy"].slope
        s_lin = report.results["linear_dummy"].slope
        s_quad = report.results["quadratic_dummy"].slope
        assert abs(s_const) < 0.2
        assert s_const < s_lin < s_quad
        for res in report.results.values():
            assert all(m > 0 for m in res.median_s)

    def test_size_preconditions(self):
        mech = [make_constant_dummy()]
        with pytest.raises(ConfigError):
            measure_scaling(mech, [512, 2048], reps=1, warmup=0, iters=1)
        with pytest.raises(ConfigError):
            measure_scaling(mech, [2048, 512, 8192], reps=1, warmup=0, iters=1)
        with pytest.raises(ConfigError):
            measure_scaling(mech, [512, 1024, 2048], reps=1, warmup=0, iters=1)
        with pytest.raises(ConfigError, match=r"^sizes\[0\] must be an integer >= 1, got 64.7"):
            measure_scaling(mech, [64.7, 512, 4096.9], reps=1, warmup=0, iters=1)
        for name, value in (("reps", 0), ("iters", 1.5), ("warmup", -1), ("iters", True)):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
                measure_scaling(mech, [512, 2048, 8192], **{"reps": 1, "warmup": 0, "iters": 1,
                                                            name: value})

    def test_defaults_are_the_criterion_4_protocol(self):
        # rpattn bench runs measure_scaling(bench_mechanisms(names)) on these
        # defaults; criterion 4 passes the same values explicitly.
        def defaults(fn):
            return {name: p.default for name, p in inspect.signature(fn).parameters.items()
                    if p.default is not inspect.Parameter.empty}

        assert defaults(measure_scaling) == {
            "sizes": (256, 1024, 4096, 16384), "reps": 3, "warmup": 2, "iters": 5}
        assert defaults(bench_mechanisms) == {
            "channels": 64, "heads": 2, "num_representatives": 49, "row_chunk": 1024}

    def test_bench_layer_shape_checked_before_timing(self):
        # channels not divisible by heads fails when the subjects are built,
        # not when the first layer subject is prepared after the dummies ran.
        with pytest.raises(ConfigError, match="not divisible by heads"):
            bench_mechanisms(["constant_dummy", "rpattention"], channels=6, heads=4)


def _trace_with(a, grid):
    grid_h, grid_w = grid
    return SimpleNamespace(a=a, config=SimpleNamespace(grid_h=grid_h, grid_w=grid_w))


def _read_pgm(path):
    data = path.read_bytes()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


class TestAssignmentMaps:
    def test_uniform_is_flat_gray(self, tmp_path):
        a = np.full((1, 1, 6, 2), 0.125)
        paths = export_assignment_maps(_trace_with(a, (2, 3)), tmp_path)
        assert len(paths) == 2
        for path in paths:
            img = _read_pgm(path)
            assert img.shape == (2, 3)
            assert (img == 128).all()

    def test_one_hot_is_binary_partition(self, tmp_path):
        a = np.zeros((1, 1, 4, 2))
        a[0, 0, [0, 3], 0] = 0.5
        a[0, 0, [1, 2], 1] = 0.5
        paths = export_assignment_maps(_trace_with(a, (2, 2)), tmp_path)
        imgs = [_read_pgm(p) for p in paths]
        assert set(np.unique(imgs[0])) == {0, 255}
        assert np.array_equal(imgs[0], 255 - imgs[1])

    def test_pixel_index_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 0.2, (2, 2, 12, 3))
        paths = export_assignment_maps(_trace_with(a, (3, 4)), tmp_path)
        assert len(paths) == 2 * 2 * 3
        img = _read_pgm(tmp_path / "assign_b1_h0_slot2.pgm")
        flat = a[1, 0, :, 2]
        lo, hi = flat.min(), flat.max()
        for r in range(3):
            for c in range(4):
                expect = np.rint((flat[r * 4 + c] - lo) / (hi - lo) * 255.0)
                assert img[r, c] == int(expect)

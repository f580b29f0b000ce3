"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line.
The tolerances are pinned here. The CLI's pass bounds are fixed copies of
some of them (the bench slope bands, the emcheck tolerance and gradcheck's
default tol), so a change to one of those tolerances changes both places.
Criterion 4 measures wall-clock scaling and takes a few minutes; everything
else runs in seconds.
"""

import time
from dataclasses import replace

import numpy as np

import rpattn
from rpattn import (
    AttnConfig,
    SyntheticTask,
    TrainConfig,
    flops_estimate,
    gradcheck,
    init_params,
    kernels,
    pooled_proxy_forward,
    rpattention_forward,
    train_tiny,
)
from rpattn.analysis import (
    bench_mechanisms,
    em_deviations,
    mean_shift_report,
    measure_scaling,
    shift_experiment,
)
from rpattn.tensor_io import read_tensor, write_tensor

import oracles

GRADCHECK_CONFIG = AttnConfig(channels=8, heads=2, num_representatives=3,
                              grid_h=3, grid_w=4)


def _report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    ok = True
    for seed in range(5):
        report = gradcheck(GRADCHECK_CONFIG, seed, step=1e-5, tol=1e-4, batch=1)
        ok = ok and report.passed
        worst = max(worst, max(e.max_rel_err for e in report.entries))
    elapsed = time.time() - start
    ok = ok and worst < 1e-4 and elapsed < 60.0
    _report(1, "gradient correctness", ok,
            f"worst_rel_err={worst:.3e} over 5 seeds, {elapsed:.1f}s")


def test_criterion_2_em_equivalence():
    worst = max(em_deviations(trials=20, seed=0))
    _report(2, "one-step EM equivalence", worst < 1e-12,
            f"worst_abs_diff={worst:.3e} over 20 trials")


def test_criterion_3_flops_model():
    fb = flops_estimate(196, 49, 192, 3)
    breakdown_ok = (
        fb.proj == 28_901_376 and fb.gather == 5_531_904
        and fb.interaction == 921_984 and fb.distribute == 3_687_936
        and fb.dwc == 338_688 and fb.total == 39_381_888)
    rng = np.random.default_rng(1)
    identity_ok = True
    for _ in range(100):
        n, m, c = (int(v) for v in rng.integers(1, 1024, 3))
        k = int(rng.choice([1, 3, 5, 7, 9]))
        lhs = flops_estimate(2 * n, m, c, k).total
        rhs = 2 * flops_estimate(n, m, c, k).total - 2 * m * m * c
        identity_ok = identity_ok and lhs == rhs
    _report(3, "cost model", breakdown_ok and identity_ok,
            f"total={fb.total}, doubling identity exact on 100 tuples")


def test_criterion_4_linear_scaling():
    start = time.time()
    mechanisms = bench_mechanisms(
        ["constant_dummy", "quadratic_dummy", "rpattention", "softmax_dense"],
        channels=64, heads=2, num_representatives=49, row_chunk=1024)
    report = measure_scaling(mechanisms, [256, 1024, 4096, 16384], reps=3, warmup=2, iters=5)
    elapsed = time.time() - start

    slopes = {name: res.slope for name, res in report.results.items()}
    # self-calibration dummies must land in their bands first
    assert abs(slopes["constant_dummy"]) <= 0.2, slopes
    assert 1.8 <= slopes["quadratic_dummy"] <= 2.3, slopes
    ok = (0.8 <= slopes["rpattention"] <= 1.4
          and 1.6 <= slopes["softmax_dense"] <= 2.4
          and elapsed < 600.0)
    _report(4, "linear runtime scaling", ok,
            f"slopes={{{', '.join(f'{k}={v:.2f}' for k, v in slopes.items())}}}, "
            f"{elapsed:.0f}s")


def test_criterion_5_permutation_equivariance():
    cfg = replace(GRADCHECK_CONFIG, enable_dwc=False)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 12, 8))
    y, _ = rpattention_forward(x, params, cfg)
    worst = 0.0
    for _ in range(10):
        perm = rng.permutation(12)
        y_perm, _ = rpattention_forward(x[:, perm, :], params, cfg)
        worst = max(worst, float(np.abs(y_perm - y[:, perm, :]).max()))

    # the pooled proxy is coordinate-bound: a cross-cell swap moves latents
    pooled_cfg = AttnConfig(channels=8, heads=2, num_representatives=4,
                            grid_h=4, grid_w=4)
    pooled_params = init_params(pooled_cfg, 1)
    xp = rng.standard_normal((1, 16, 8))
    _, latent_k, _ = pooled_proxy_forward(xp, pooled_params, pooled_cfg, (2, 2))
    swapped = xp.copy()
    swapped[:, [0, 15], :] = swapped[:, [15, 0], :]
    _, latent_k_swapped, _ = pooled_proxy_forward(swapped, pooled_params, pooled_cfg,
                                                  (2, 2))
    pooled_moved = float(np.abs(latent_k - latent_k_swapped).max())
    ok = worst < 1e-10 and pooled_moved > 1e-3
    _report(5, "permutation equivariance", ok,
            f"max_dev={worst:.3e} over 10 perms; pooled latents moved {pooled_moved:.3e}")


def test_criterion_6_shift_robustness():
    start = time.time()
    cfg = AttnConfig(channels=32, heads=2, num_representatives=16, grid_h=8, grid_w=8)
    shifts = list(range(0, 9))
    mean = mean_shift_report(shift_experiment(
        cfg, range(6), shifts, image_size=32, image_channels=8, num_blobs=3, patch_size=4,
        pool_grid=(4, 4)))
    elapsed = time.time() - start

    zero_ok = abs(mean.cosine_rp[0] - 1.0) < 1e-6 and abs(mean.cosine_pooled[0] - 1.0) < 1e-6
    ordering_ok = all(mean.cosine_rp[i] >= mean.cosine_pooled[i]
                      for i in range(1, len(shifts)))
    min_gap = min(mean.cosine_rp[i] - mean.cosine_pooled[i] for i in range(1, len(shifts)))
    ok = zero_ok and ordering_ok and elapsed < 120.0
    _report(6, "shift robustness ordering", ok,
            f"min gap rp-pooled={min_gap:+.4f} over shifts 1..8, 6 seeds, {elapsed:.1f}s")


def test_criterion_7_ablation_trainability():
    task = SyntheticTask(grid_h=4, grid_w=4, channels=8, num_clusters=3,
                         mean_scale=1.0, sigma=0.05, seed=7, num_samples=120)
    attn = AttnConfig(channels=8, heads=2, num_representatives=3, grid_h=4, grid_w=4)
    details = []
    ok = True
    for variant in ("full", "gather_distribute", "kmeans"):
        cfg = TrainConfig(steps=300, batch_size=16, lr=0.01, seed=3, variant=variant)
        h1 = train_tiny(task, attn, cfg)
        h2 = train_tiny(task, attn, cfg)
        improved = h1.final_loss < h1.initial_loss
        deterministic = h1.losses == h2.losses
        ok = ok and improved and deterministic
        details.append(f"{variant}: {h1.initial_loss:.3f}->{h1.final_loss:.3f}"
                       f"{'' if deterministic else ' NONDETERMINISTIC'}")
    _report(7, "ablation trainability", ok, "; ".join(details))


def test_criterion_8_kernel_oracles(tmp_path):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        p, q, r = (int(v) for v in rng.integers(1, 7, 3))
        lead = tuple(int(v) for v in rng.integers(1, 4, int(rng.integers(0, 3))))
        a = rng.standard_normal(lead + (p, q))
        b = rng.standard_normal(lead + (q, r))
        worst = max(worst, float(np.abs(kernels.matmul(a, b)
                                        - oracles.matmul_loops(a, b)).max()))
    for _ in range(20):
        shape = tuple(int(v) for v in rng.integers(1, 8, int(rng.integers(1, 4))))
        x = rng.standard_normal(shape)
        worst = max(worst, float(np.abs(kernels.softmax_lastdim(x)
                                        - oracles.softmax_lastdim_loops(x)).max()))
    for _ in range(20):
        d = int(rng.integers(1, 9))
        lead = tuple(int(v) for v in rng.integers(1, 4, int(rng.integers(1, 3))))
        x = rng.standard_normal(lead + (d,))
        gamma = rng.standard_normal(d)
        beta = rng.standard_normal(d)
        worst = max(worst, float(np.abs(
            kernels.layer_norm(x, gamma, beta, 1e-5)
            - oracles.layer_norm_loops(x, gamma, beta, 1e-5)).max()))
    for _ in range(20):
        bsz = int(rng.integers(1, 3))
        h = int(rng.integers(2, 7))
        w = int(rng.integers(2, 7))
        c = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal((bsz, h, w, c))
        kernel = rng.standard_normal((k, k, c))
        bias = rng.standard_normal(c)
        worst = max(worst, float(np.abs(
            kernels.depthwise_conv2d(x, kernel, bias)
            - oracles.depthwise_conv2d_loops(x, kernel, bias)).max()))

    io_ok = True
    for i, shape in enumerate([(), (0,), (5,), (2, 3), (2, 0, 4), (1, 2, 3, 4),
                               (2, 2, 2, 2, 2), (1, 2, 1, 3, 1, 2)]):
        for dtype in (np.float32, np.float64):
            arr = rng.standard_normal(shape).astype(dtype)
            path = tmp_path / f"t{i}_{dtype.__name__}.rptn"
            write_tensor(path, arr)
            back = read_tensor(path)
            io_ok = io_ok and back.tobytes() == arr.tobytes() and back.dtype == arr.dtype

    ok = worst < 1e-12 and io_ok
    _report(8, "kernel oracles and tensor files", ok,
            f"worst_abs_diff={worst:.3e} over 20 shapes per kernel; "
            f"round-trips byte-exact={io_ok}")

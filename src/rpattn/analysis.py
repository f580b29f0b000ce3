"""Analytical artifacts: cost model, one-step-EM oracle and check, shift
robustness, runtime scaling measurement, and assignment-map export.

All counts in the cost model are exact Python integers (arbitrary
precision, no wraparound) in the multiply-accumulate-pair convention of the
five-term breakdown.
"""

import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List

import numpy as np

from . import kernels
from .attention import (SLOT_MASS_EPS, AttnConfig, gather_assign, gather_latents, init_params,
                        mass_normalize, rpattention_forward)
from .baselines import pooled_proxy_forward, softmax_attention_forward
from .errors import ConfigError, ShapeError, check_count
from .synthetic import make_blob_image


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlopsBreakdown:
    """Five-term multiply count for one layer at N tokens, M slots, C channels."""

    proj: int
    gather: int
    interaction: int
    distribute: int
    dwc: int

    @property
    def total(self) -> int:
        return self.proj + self.gather + self.interaction + self.distribute + self.dwc

    def as_rows(self):
        return [
            ("proj", self.proj), ("gather", self.gather),
            ("interaction", self.interaction), ("distribute", self.distribute),
            ("dwc", self.dwc), ("total", self.total),
        ]


def flops_estimate(n: int, m: int, c: int, k: int) -> FlopsBreakdown:
    """Dominant cost of one representative-attention layer.

    Projections 4NC^2; gather NMC logits + 2NMC aggregation; latent
    interaction 2M^2C; distribution 2NMC; depthwise bypass k^2 NC. Lower
    order terms (latent projections, normalizations) are omitted.
    """
    n, m, c, k = (check_count(name, val) for name, val in zip("nmck", (n, m, c, k)))
    return FlopsBreakdown(
        proj=4 * n * c * c,
        gather=3 * n * m * c,
        interaction=2 * m * m * c,
        distribute=2 * n * m * c,
        dwc=k * k * n * c,
    )


def softmax_flops(n: int, c: int) -> int:
    """Dense attention cost: 4NC^2 projections plus 2N^2C for the attention
    matrix and value aggregation."""
    n, c = check_count("n", n), check_count("c", c)
    return 4 * n * c * c + 2 * n * n * c


# ---------------------------------------------------------------------------
# One-step EM oracle
# ---------------------------------------------------------------------------

def em_one_step_oracle(keys, w_g, epsilon):
    """Straight-loop E-step/M-step over one head batch.

    keys: [h, N, d], w_g: [d, M]. The E-step softly assigns each token to
    each slot by the softmax over slots of its key-anchor inner products;
    the M-step divides each slot column by its total mass (plus epsilon) and
    takes the weighted sum of keys. Deliberately written with explicit loops
    and no shared code with the layer implementation.
    """
    keys = np.asarray(keys, dtype=np.float64)
    w_g = np.asarray(w_g, dtype=np.float64)
    h, n, d = keys.shape
    m = w_g.shape[1]

    a = np.zeros((h, n, m))
    for hi in range(h):
        for ni in range(n):
            logits = []
            for mi in range(m):
                s = 0.0
                for di in range(d):
                    s += keys[hi, ni, di] * w_g[di, mi]
                logits.append(s)
            top = max(logits)
            exps = [math.exp(v - top) for v in logits]
            z = sum(exps)
            for mi in range(m):
                a[hi, ni, mi] = exps[mi] / z

    a_hat = np.zeros_like(a)
    for hi in range(h):
        for mi in range(m):
            mass = 0.0
            for ni in range(n):
                mass += a[hi, ni, mi]
            for ni in range(n):
                a_hat[hi, ni, mi] = a[hi, ni, mi] / (mass + epsilon)

    k_l = np.zeros((h, m, d))
    for hi in range(h):
        for mi in range(m):
            for di in range(d):
                s = 0.0
                for ni in range(n):
                    s += a_hat[hi, ni, mi] * keys[hi, ni, di]
                k_l[hi, mi, di] = s
    return a, a_hat, k_l


def em_deviations(trials=20, seed=0):
    """Worst absolute deviation of the layer's gather from em_one_step_oracle, per trial.

    Each trial draws h in 1..3, N in 1..12, d in 1..6 and M in 1..5, in that
    order, from one default_rng(seed), then keys [h, N, d] and anchors [d, M],
    so M > N and d = 1 both occur. The layer's assignments a, its
    column-normalized a / mass^T and its latent keys are compared with the
    oracle's a, a_hat and k_l; a trial's deviation is the largest of the three.
    """
    rng = np.random.default_rng(seed)
    deviations = []
    for _ in range(trials):
        h = int(rng.integers(1, 4))
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        keys = rng.standard_normal((h, n, d))
        w_g = rng.standard_normal((d, m))
        a_o, a_hat_o, k_l_o = em_one_step_oracle(keys, w_g, SLOT_MASS_EPS)
        a = gather_assign(keys[None], w_g)
        mass, k_l, _ = mass_normalize(a, *gather_latents(a, keys[None], keys[None]))
        deviations.append(max(float(np.abs(a[0] - a_o).max()),
                              float(np.abs(a[0] / np.swapaxes(mass[0], -1, -2) - a_hat_o).max()),
                              float(np.abs(k_l[0] - k_l_o).max())))
    return deviations


# ---------------------------------------------------------------------------
# Shift robustness
# ---------------------------------------------------------------------------

@dataclass
class ShiftReport:
    """Cosine similarity of latent values against the unshifted input, per shift."""

    shifts: List[int]
    cosine_rp: List[float]
    cosine_pooled: List[float]


def patch_embed(image, patch_size, embed_w):
    """Non-overlapping p x p patches through a single linear projection.

    image: [H, W, C_in] -> tokens [1, (H//p)*(W//p), C], row-major patch order.
    """
    image = np.asarray(image)
    h, w, c_in = image.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise ConfigError(f"image {h}x{w} not divisible by patch size {p}")
    if embed_w.shape[0] != p * p * c_in:
        raise ShapeError(f"embed weight rows {embed_w.shape[0]} != p*p*C_in {p * p * c_in}")
    gh, gw = h // p, w // p
    patches = image.reshape(gh, p, gw, p, c_in).transpose(0, 2, 1, 3, 4).reshape(gh * gw, -1)
    return kernels.matmul(patches, embed_w)[None, :, :]


def shift_image(image, shift, mode="zero"):
    """Translate an [H, W, C] image right by `shift` pixels.

    mode "zero" fills the vacated columns with zeros; "wrap" rolls
    periodically.
    """
    image = np.asarray(image)
    if mode not in ("zero", "wrap"):
        raise ConfigError(f"shift mode must be 'zero' or 'wrap', got {mode!r}")
    if shift == 0:
        return image.copy()
    if shift < 0 or shift >= image.shape[1]:
        raise ConfigError(f"shift {shift} out of range for width {image.shape[1]}")
    if mode == "wrap":
        return np.roll(image, shift, axis=1)
    out = np.zeros_like(image)
    out[:, shift:, :] = image[:, :-shift, :]
    return out


def _cosine(a, b):
    a = a.reshape(-1).astype(np.float64)
    b = b.reshape(-1).astype(np.float64)
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ConfigError("cosine undefined for zero latents")
    return min(1.0, max(-1.0, float(a @ b) / (na * nb)))


def shift_robustness(image, embed_w, params_rp, params_pooled, config: AttnConfig,
                     pool_grid, shifts, patch_size=4, mode="zero") -> ShiftReport:
    """Latent stability of both mechanisms under pixel shifts of one image.

    For each shift the image is translated, patch-embedded, and the flattened
    per-head latent values (the layer's gathered v_l, the proxy's pooled
    values) are compared (cosine) against the unshifted ones. Both mechanisms
    share the layer shape config; each has its own params.
    The representative mechanism gathers by feature similarity, so its
    latents depend only on the token features; the pooled proxy ties latents
    to grid cells and reacts to content crossing cell boundaries.
    """
    shifts = list(shifts)
    if len(shifts) < 2 or shifts[0] != 0:
        raise ConfigError(f"shifts must start at 0 and hold a second shift, got {shifts}")
    if max(shifts) >= np.asarray(image).shape[1]:
        raise ConfigError("max shift must be smaller than the image width")

    cos_rp, cos_pooled = [], []
    ref_rp = ref_pooled = None
    for s in shifts:
        tokens = patch_embed(shift_image(image, s, mode=mode), patch_size, embed_w)
        lat_rp = rpattention_forward(tokens, params_rp, config)[1].v_l
        _, _, lat_pooled = pooled_proxy_forward(tokens, params_pooled, config, pool_grid)
        if s == 0:
            ref_rp, ref_pooled = lat_rp, lat_pooled
        cos_rp.append(_cosine(lat_rp, ref_rp))
        cos_pooled.append(_cosine(lat_pooled, ref_pooled))
    return ShiftReport(shifts=shifts, cosine_rp=cos_rp, cosine_pooled=cos_pooled)


def shift_experiment(config, seeds, shifts, image_size, image_channels, num_blobs,
                     patch_size, pool_grid):
    """One shift_robustness report per seed, on that seed's blob image.

    Seed s draws the image from make_blob_image(..., s) with a margin of
    max(shifts) + 4 pixels, the patch embedding from default_rng([s, 17]), the
    layer's params from init_params(config, s) and the proxy's from
    init_params(config, s + 1000). Shifts zero-fill the vacated pixels. The
    settings that constrain each other are checked before the first seed.
    """
    margin = max(shifts) + 4
    if 2 * margin >= image_size:
        raise ConfigError(f"image_size {image_size} too small for shifts up to {max(shifts)}: "
                          f"blobs keep max(shifts) + 4 = {margin} pixels from every edge, "
                          f"so image_size must exceed {2 * margin}")
    g_h, g_w = (check_count(f"pool_grid[{i}]", g) for i, g in enumerate(pool_grid))
    if config.grid_h % g_h or config.grid_w % g_w:
        raise ConfigError(f"pool_grid {[g_h, g_w]} does not divide the layer's "
                          f"{config.grid_h}x{config.grid_w} patch grid")
    reports = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 17])
        image = make_blob_image(image_size, image_channels, num_blobs, seed,
                                margin=margin)
        fan_in = patch_size * patch_size * image_channels
        embed_w = rng.normal(0.0, 1.0 / fan_in ** 0.5, (fan_in, config.channels))
        reports.append(shift_robustness(
            image, embed_w, init_params(config, seed), init_params(config, seed + 1000),
            config, pool_grid, shifts, patch_size=patch_size))
    return reports


def mean_shift_report(reports) -> ShiftReport:
    """Average several ShiftReports with identical shift lists."""
    reports = list(reports)
    shifts = reports[0].shifts
    for r in reports:
        if r.shifts != shifts:
            raise ConfigError("shift lists differ between reports")
    n = len(reports)
    return ShiftReport(
        shifts=list(shifts),
        cosine_rp=[sum(r.cosine_rp[i] for r in reports) / n for i in range(len(shifts))],
        cosine_pooled=[sum(r.cosine_pooled[i] for r in reports) / n for i in range(len(shifts))],
    )


# ---------------------------------------------------------------------------
# Runtime scaling
# ---------------------------------------------------------------------------

@dataclass
class Mechanism:
    """A named benchmark subject: prepare(n) returns a zero-arg callable that
    runs one forward at n tokens (inputs preallocated in prepare)."""

    name: str
    prepare: Callable[[int], Callable[[], object]]


@dataclass
class MechanismScaling:
    median_s: List[float]
    slope: float


@dataclass
class ScalingReport:
    """Median forward latency and fitted log-log slope per mechanism.

    results maps each mechanism name to its MechanismScaling; the timings
    vary run to run.
    """

    sizes: List[int]
    results: dict


MIN_SAMPLE_S = 2e-3  # a timed sample batches calls until it lasts this long


def _autorange(fn):
    """Calls per timed sample so one sample lasts >= MIN_SAMPLE_S, at most 4096."""
    number = 1
    while number < 4096:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= MIN_SAMPLE_S:
            return number
        number *= 2
    return number


def measure_scaling(mechanisms, sizes=(256, 1024, 4096, 16384), reps=3, warmup=2,
                    iters=5) -> ScalingReport:
    """Median wall-clock per forward across sizes, plus log-log slope.

    Protocol per (mechanism, size) and repetition: `warmup` untimed calls,
    then `iters` timed samples whose median is kept; the reported latency is
    the median across repetitions. The defaults are the scaling protocol of
    `rpattn bench` and criterion 4. Samples batch multiple calls when a
    single call is shorter than MIN_SAMPLE_S so timer overhead stays
    negligible. Mechanisms run strictly one at a time, each repetition a
    round over all sizes, so a transient host slowdown hits one repetition
    of several sizes, not every repetition of one size.
    """
    sizes = [check_count(f"sizes[{i}]", n) for i, n in enumerate(sizes)]
    reps, iters = check_count("reps", reps), check_count("iters", iters)
    warmup = check_count("warmup", warmup, minimum=0)
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ConfigError("sizes must be strictly increasing")
    if len(sizes) < 3 or sizes[-1] < 8 * sizes[0]:
        raise ConfigError("need >= 3 sizes spanning at least an 8x range")

    results = {}
    for mech in mechanisms:
        fns = [mech.prepare(n) for n in sizes]
        numbers = [_autorange(fn) for fn in fns]
        rep_medians = [[] for _ in sizes]
        for _ in range(reps):
            for i, (fn, number) in enumerate(zip(fns, numbers)):
                for _ in range(warmup):
                    fn()
                samples = []
                for _ in range(iters):
                    t0 = time.perf_counter()
                    for _ in range(number):
                        fn()
                    samples.append((time.perf_counter() - t0) / number)
                rep_medians[i].append(statistics.median(samples))
        medians = [statistics.median(r) for r in rep_medians]
        if min(medians) <= 0:
            raise ConfigError(f"non-positive latency measured for {mech.name}")
        slope = float(np.polyfit(np.log(np.array(sizes, dtype=np.float64)),
                                 np.log(np.array(medians)), 1)[0])
        results[mech.name] = MechanismScaling(median_s=medians, slope=slope)

    return ScalingReport(sizes=sizes, results=results)


def make_constant_dummy() -> Mechanism:
    """Self-calibration subject with size-independent work (slope about 0)."""
    u = np.linspace(0.0, 1.0, 65536, dtype=np.float32)
    v = np.linspace(1.0, 0.0, 65536, dtype=np.float32)

    def prepare(n):
        return lambda: float(np.dot(u, v))

    return Mechanism("constant_dummy", prepare)


def make_linear_dummy() -> Mechanism:
    """Self-calibration subject with O(N) work."""

    def prepare(n):
        a = np.linspace(0.0, 1.0, 16 * n, dtype=np.float32)
        return lambda: float(np.dot(a, a))

    return Mechanism("linear_dummy", prepare)


def make_quadratic_dummy(repeats=4) -> Mechanism:
    """Self-calibration subject with O(N^2) work.

    Each call makes `repeats` passes over the N x N outer product in fixed
    256 x 256 blocks: every size then runs the same kernel on the same
    shapes, while whole-row blocks varied up to 6x in cost per element.
    """

    def prepare(n):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        buf = np.empty((256, 256), dtype=np.float32)

        def run():
            acc = 0.0
            for _ in range(repeats):
                for i in range(0, n, 256):
                    for j in range(0, n, 256):
                        block = buf[: min(256, n - i), : min(256, n - j)]
                        np.multiply.outer(a[i:i + 256], b[j:j + 256], out=block)
                        acc += float(block.sum())
            return acc

        return run

    return Mechanism("quadratic_dummy", prepare)


def _forward_mechanism(name, forward, channels, heads, num_representatives, **kwargs):
    """One float32 forward, batch 1, on a near-square grid of n tokens.

    Weights come from init_params(config, 0) and the input from
    default_rng(1), the same for every mechanism built here. The layer shape
    is checked here, before any mechanism is timed.
    """
    base = AttnConfig(channels=channels, heads=heads, num_representatives=num_representatives,
                      grid_h=1, grid_w=1, dtype="float32")

    def prepare(n):
        grid_h = math.isqrt(n)
        while n % grid_h:
            grid_h -= 1
        config = replace(base, grid_h=grid_h, grid_w=n // grid_h)
        params = init_params(config, 0)
        x = np.random.default_rng(1).standard_normal((1, n, channels)).astype(np.float32)
        return lambda: forward(x, params, config, **kwargs)

    return Mechanism(name, prepare)


def bench_mechanisms(names, channels=64, heads=2, num_representatives=49, row_chunk=1024):
    """The named scaling-benchmark subjects, in the given order.

    rpattention and softmax_dense share one set-up; the dense forward runs
    in row_chunk query blocks so that N = 16384 fits in memory.
    """
    factory = {
        "constant_dummy": make_constant_dummy,
        "linear_dummy": make_linear_dummy,
        "quadratic_dummy": make_quadratic_dummy,
        "rpattention": lambda: _forward_mechanism(
            "rpattention", rpattention_forward, channels, heads, num_representatives),
        "softmax_dense": lambda: _forward_mechanism(
            "softmax_dense", softmax_attention_forward, channels, heads, num_representatives,
            row_chunk=row_chunk),
    }
    unknown = [name for name in names if name not in factory]
    if unknown:
        raise ConfigError(f"unknown mechanism {unknown[0]!r}; choose from {sorted(factory)}")
    return [factory[name]() for name in names]


# ---------------------------------------------------------------------------
# Assignment-map export
# ---------------------------------------------------------------------------

def write_pgm(path, image_u8):
    """Binary PGM (P5, maxval 255) from a [H, W] uint8 array."""
    image_u8 = np.asarray(image_u8, dtype=np.uint8)
    h, w = image_u8.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image_u8.tobytes(order="C"))


def export_assignment_maps(trace, out_dir):
    """One grayscale PGM per (batch, head, slot) of a forward trace's assignments.

    The grid is the forward's, read from trace.config. Pixel (r, c) of slot
    m is a[r*grid_w + c, m] rescaled per slot to [0, 255], which cancels the
    slot's mass normalization; a constant slot renders mid-gray. Returns the
    written paths.
    """
    grid_h, grid_w = trace.config.grid_h, trace.config.grid_w
    a = trace.a
    b, h, _, m = a.shape
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for bi in range(b):
        for hi in range(h):
            for mi in range(m):
                img = a[bi, hi, :, mi].reshape(grid_h, grid_w)
                lo, hi_v = float(img.min()), float(img.max())
                if hi_v > lo:
                    scaled = np.rint((img - lo) / (hi_v - lo) * 255.0)
                else:
                    scaled = np.full_like(img, 128.0)
                path = out_dir / f"assign_b{bi}_h{hi}_slot{mi}.pgm"
                write_pgm(path, scaled.astype(np.uint8))
                paths.append(path)
    return paths

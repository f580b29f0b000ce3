"""Analytical artifacts: cost model, one-step-EM oracle, shift robustness,
runtime scaling measurement, and assignment-map export.

All counts in the cost model are exact Python integers (arbitrary
precision, no wraparound) in the multiply-accumulate-pair convention of the
five-term breakdown; every report type documents its CSV columns.
"""

import csv
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np

from . import kernels
from .attention import AttnConfig, init_params, rpattention_forward
from .baselines import pooled_proxy_forward, softmax_attention_forward
from .errors import ConfigError, ShapeError


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
    for name, val in (("n", n), ("m", m), ("c", c), ("k", k)):
        if not isinstance(val, int) or val < 1:
            raise ConfigError(f"flops_estimate requires positive integer {name}, got {val!r}")
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
    if not isinstance(n, int) or not isinstance(c, int) or n < 1 or c < 1:
        raise ConfigError("softmax_flops requires positive integers")
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


# ---------------------------------------------------------------------------
# Shift robustness
# ---------------------------------------------------------------------------

@dataclass
class ShiftReport:
    """Cosine similarity of latent values against the unshifted input.

    CSV columns: shift, cosine_rp, cosine_pooled.
    """

    shifts: List[int]
    cosine_rp: List[float]
    cosine_pooled: List[float]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shift", "cosine_rp", "cosine_pooled"])
            for s, cr, cp in zip(self.shifts, self.cosine_rp, self.cosine_pooled):
                writer.writerow([s, repr(cr), repr(cp)])


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


def shift_robustness(image, embed_w, params_rp, config_rp: AttnConfig,
                     params_pooled, config_pooled: AttnConfig, pool_grid,
                     shifts, patch_size=4, mode="zero") -> ShiftReport:
    """Latent stability of both mechanisms under pixel shifts of one image.

    For each shift the image is translated, patch-embedded, and the flattened
    per-head latent values (the layer's gathered v_l, the proxy's pooled
    values) are compared (cosine) against the unshifted ones.
    The representative mechanism gathers by feature similarity, so its
    latents depend only on the token features; the pooled proxy ties latents
    to grid cells and reacts to content crossing cell boundaries.
    """
    shifts = list(shifts)
    if not shifts or shifts[0] != 0:
        raise ConfigError("shift list must start at 0")
    if max(shifts) >= np.asarray(image).shape[1]:
        raise ConfigError("max shift must be smaller than the image width")

    cos_rp, cos_pooled = [], []
    ref_rp = ref_pooled = None
    for s in shifts:
        tokens = patch_embed(shift_image(image, s, mode=mode), patch_size, embed_w)
        lat_rp = rpattention_forward(tokens, params_rp, config_rp)[1].v_l
        _, _, lat_pooled = pooled_proxy_forward(tokens, params_pooled, config_pooled, pool_grid)
        if s == 0:
            ref_rp, ref_pooled = lat_rp, lat_pooled
        cos_rp.append(_cosine(lat_rp, ref_rp))
        cos_pooled.append(_cosine(lat_pooled, ref_pooled))
    return ShiftReport(shifts=shifts, cosine_rp=cos_rp, cosine_pooled=cos_pooled)


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
    """Median forward latency per mechanism and fitted log-log slope.

    Times CSV columns: mechanism, n, median_ms:volatile. Slopes CSV columns:
    mechanism, slope:volatile. Timing columns are volatile: they vary run to
    run and are excluded from determinism guarantees.
    """

    sizes: List[int]
    results: dict
    warnings: List[str] = field(default_factory=list)
    settings: dict = field(default_factory=dict)

    def write_csv(self, out_dir):
        out_dir = Path(out_dir)
        with open(out_dir / "bench_times.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mechanism", "n", "median_ms:volatile"])
            for name, res in self.results.items():
                for n, med in zip(self.sizes, res.median_s):
                    writer.writerow([name, n, repr(med * 1e3)])
        with open(out_dir / "bench_slopes.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mechanism", "slope:volatile"])
            for name, res in self.results.items():
                writer.writerow([name, repr(res.slope)])


def _autorange(fn, min_sample_s):
    """Calls per timed sample so one sample lasts >= min_sample_s, at most 4096."""
    number = 1
    while number < 4096:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_sample_s:
            return number
        number *= 2
    return number


def measure_scaling(mechanisms, sizes, reps=3, warmup=30, iters=100,
                    min_sample_s=2e-3) -> ScalingReport:
    """Median wall-clock per forward across sizes, plus log-log slope.

    Protocol per (mechanism, size): `warmup` untimed calls, then per
    repetition `iters` timed samples whose median is kept; the reported
    latency is the median across repetitions. Samples batch multiple calls
    when a single call is shorter than min_sample_s so timer overhead stays
    negligible. Mechanisms are measured strictly one at a time.
    """
    sizes = [int(n) for n in sizes]
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ConfigError("sizes must be strictly increasing")
    if len(sizes) < 3 or sizes[-1] < 8 * sizes[0]:
        raise ConfigError("need >= 3 sizes spanning at least an 8x range")
    if reps < 1 or iters < 1 or warmup < 0:
        raise ConfigError("reps/iters must be >= 1 and warmup >= 0")

    resolution = time.get_clock_info("perf_counter").resolution
    warnings = []
    results = {}
    for mech in mechanisms:
        medians = []
        for n in sizes:
            fn = mech.prepare(n)
            number = _autorange(fn, min_sample_s)
            rep_medians = []
            min_batch = math.inf
            for _ in range(reps):
                for _ in range(warmup):
                    fn()
                samples = []
                for _ in range(iters):
                    t0 = time.perf_counter()
                    for _ in range(number):
                        fn()
                    dt = time.perf_counter() - t0
                    min_batch = min(min_batch, dt)
                    samples.append(dt / number)
                rep_medians.append(statistics.median(samples))
            if min_batch < 100.0 * resolution:
                warnings.append(
                    f"{mech.name}@N={n}: sample duration {min_batch:.3e}s too close to "
                    f"timer resolution {resolution:.1e}s")
            medians.append(statistics.median(rep_medians))
        if min(medians) <= 0:
            raise ConfigError(f"non-positive latency measured for {mech.name}")
        slope = float(np.polyfit(np.log(np.array(sizes, dtype=np.float64)),
                                 np.log(np.array(medians)), 1)[0])
        results[mech.name] = MechanismScaling(median_s=medians, slope=slope)

    return ScalingReport(
        sizes=sizes, results=results, warnings=warnings,
        settings={"reps": reps, "warmup": warmup, "iters": iters,
                  "min_sample_s": min_sample_s},
    )


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


def make_quadratic_dummy(repeats=8) -> Mechanism:
    """Self-calibration subject with O(N^2) work, chunked to bound memory."""

    def prepare(n):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        chunk = min(n, max(1, (1 << 22) // n))
        buf = np.empty((chunk, n), dtype=np.float32)

        def run():
            acc = 0.0
            for _ in range(repeats):
                for start in range(0, n, chunk):
                    stop = min(start + chunk, n)
                    np.multiply.outer(a[start:stop], b, out=buf[: stop - start])
                    acc += float(buf[: stop - start].sum())
            return acc

        return run

    return Mechanism("quadratic_dummy", prepare)


def _forward_mechanism(name, forward, channels, heads, num_representatives, **kwargs):
    """One float32 forward, batch 1, on a near-square grid of n tokens.

    Weights come from init_params(config, 0) and the input from
    default_rng(1), the same for every mechanism built here.
    """

    def prepare(n):
        grid_h = math.isqrt(n)
        while n % grid_h:
            grid_h -= 1
        config = AttnConfig(channels=channels, heads=heads,
                            num_representatives=num_representatives,
                            grid_h=grid_h, grid_w=n // grid_h, dtype="float32")
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


def export_assignment_maps(trace, grid, out_dir):
    """One grayscale PGM per (batch, head, slot) of the assignments.

    Pixel (r, c) of slot m is a[r*grid_w + c, m] rescaled per slot to [0, 255],
    which cancels the slot's mass normalization; a constant slot renders
    mid-gray. Returns the written paths.
    """
    grid_h, grid_w = grid
    a = trace.a
    b, h, n, m = a.shape
    if n != grid_h * grid_w:
        raise ConfigError(f"trace token count {n} does not match grid {grid_h}x{grid_w}")
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

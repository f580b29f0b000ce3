"""Deterministic synthetic data for the desk-scale experiments."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SyntheticTask:
    """Token-cluster classification task.

    Each sample draws every grid token from one of G Gaussian clusters; the
    cluster of a token is independent of its grid position, so the label (the
    cluster holding the most tokens) is a global grouping signal with no
    spatial locality to exploit.
    """

    grid_h: int
    grid_w: int
    channels: int          # token feature width
    num_clusters: int      # G >= 2
    mean_scale: float = 1.0
    sigma: float = 0.1
    seed: int = 0
    num_samples: int = 64

    def __post_init__(self):
        if self.num_clusters < 2:
            raise ConfigError("need at least 2 clusters")
        if self.grid_h < 1 or self.grid_w < 1 or self.channels < 1 or self.num_samples < 1:
            raise ConfigError("grid, channels and num_samples must be positive")
        if self.sigma < 0:
            raise ConfigError("sigma must be >= 0")

    @property
    def num_tokens(self) -> int:
        return self.grid_h * self.grid_w


def majority_label(assignments, num_clusters) -> int:
    """Cluster with the most tokens; ties go to the lowest index."""
    counts = np.bincount(assignments, minlength=num_clusters)
    return int(counts.argmax())


def gen_synthetic(task: SyntheticTask):
    """Generate (tokens [B, N, C], labels [B]); pure function of the task seed."""
    rng = np.random.default_rng(task.seed)
    n = task.num_tokens
    means = rng.normal(0.0, task.mean_scale, (task.num_clusters, task.channels))
    tokens = np.empty((task.num_samples, n, task.channels))
    labels = np.empty(task.num_samples, dtype=np.int64)
    for i in range(task.num_samples):
        assign = rng.integers(0, task.num_clusters, n)
        noise = rng.standard_normal((n, task.channels))
        tokens[i] = means[assign] + task.sigma * noise
        labels[i] = majority_label(assign, task.num_clusters)
    return tokens, labels


def make_blob_image(size, channels, num_blobs, seed, margin=10):
    """Structured test image: Gaussian blobs with random channel signatures.

    Blob radii draw uniform(3, 6) pixels. Blob centers keep `margin` pixels
    of clearance from every edge so the image can be translated by up to
    `margin` pixels without content leaving the frame. Background is exactly
    zero.
    """
    if 2 * margin >= size:
        raise ConfigError(f"margin {margin} too large for image size {size}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    image = np.zeros((size, size, channels))
    for _ in range(num_blobs):
        cy = rng.uniform(margin, size - margin)
        cx = rng.uniform(margin, size - margin)
        r = rng.uniform(3.0, 6.0)
        signature = rng.normal(0.0, 1.0, channels)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * r * r))
        bump[bump < 1e-8] = 0.0  # keep the background exactly zero
        image += bump[:, :, None] * signature
    return image

"""Tiny deterministic trainer proving each variant learns.

The model is one attention layer, mean pooling over output tokens, and a
linear classification head; the loss is cross entropy against the majority
cluster label. Every trainable array is a view into one vector in the
layer's dtype, so each Adam step is one pass over that vector. Two runs
with the same seed produce byte-identical loss curves.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import kernels
from .attention import AttnConfig, RPAttnParams, init_params, rpattention_forward
from .baselines import softmax_attention_forward
from .errors import ConfigError, TrainDivergedError, check_count, check_real
from .grad import rpattention_backward, softmax_attention_backward
from .synthetic import SyntheticTask, gen_synthetic

VARIANTS = ("full", "gather_distribute", "kmeans", "softmax_baseline")

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
EVAL_FRACTION = 0.2    # leading share of the task's samples held out for accuracy


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int
    lr: float
    seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        check_count("steps", self.steps)
        check_count("batch_size", self.batch_size)
        check_count("seed", self.seed, minimum=0)
        check_real("lr", self.lr, minimum=0)
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class AdamState:
    """Step count and the first and second moments, shaped like the parameter after step 1."""

    t: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr) -> AdamState:
    """Bias-corrected Adam update, applied in place to param."""
    if state.m is None:
        state.m, state.v = np.zeros_like(param), np.zeros_like(param)
    state.t += 1
    t, m, v = state.t, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(grad)
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def variant_config(base: AttnConfig, variant: str) -> AttnConfig:
    if variant == "gather_distribute":
        return replace(base, enable_interact=False)
    if variant == "kmeans":
        return replace(base, routing="kmeans")
    return base


@dataclass
class TrainHistory:
    losses: List[float]
    final_accuracy: float
    variant: str

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train_tiny(task: SyntheticTask, attn_config: AttnConfig,
               train_config: TrainConfig) -> TrainHistory:
    """Train one variant on the synthetic task; returns the loss curve and
    held-out accuracy.

    The layer expects tokens already in its channel width, so the task must
    be generated with channels == attn_config.channels. The k-means variant
    treats routing assignments as constants; every other parameter trains.
    """
    if task.channels != attn_config.channels:
        raise ConfigError("task channels must equal the layer channels")
    if (task.grid_h, task.grid_w) != (attn_config.grid_h, attn_config.grid_w):
        raise ConfigError("task grid must match the layer grid")

    cfg = variant_config(attn_config, train_config.variant)
    variant = train_config.variant
    g = task.num_clusters

    tokens, labels = gen_synthetic(task)
    n_eval = max(1, int(len(tokens) * EVAL_FRACTION))
    x_train, y_train = tokens[n_eval:], labels[n_eval:]
    x_eval, y_eval = tokens[:n_eval], labels[:n_eval]
    if len(x_train) == 0:
        raise ConfigError("no training samples left after the eval split")

    head_rng = np.random.default_rng([train_config.seed, 1])
    bound = 1.0 / math.sqrt(cfg.channels)
    arrays = [*init_params(cfg, train_config.seed).field_dict().values(),
              head_rng.uniform(-bound, bound, (cfg.channels, g)), np.zeros(g)]
    flat = np.concatenate([a.ravel() for a in arrays]).astype(cfg.np_dtype, copy=False)
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    *fields, head_w, head_b = (part.reshape(a.shape) for part, a in zip(parts, arrays))
    layer = RPAttnParams(*fields)

    # Names read at call time, so patching them (as perfbench's tracer does) takes effect.
    if variant == "softmax_baseline":
        forward, backward = softmax_attention_forward, softmax_attention_backward
    else:
        forward, backward = rpattention_forward, rpattention_backward

    state = AdamState()
    batch_rng = np.random.default_rng([train_config.seed, 2])
    full_batch = train_config.batch_size >= len(x_train)

    def train_step(step):
        # One forward, backward and Adam step; returns its loss. Every array
        # of the step is a local here, so none outlives it: the step before's
        # output, trace and gradients are gone before the next forward.
        if full_batch:
            xb, yb = x_train, y_train
        else:
            idx = batch_rng.integers(0, len(x_train), train_config.batch_size)
            xb, yb = x_train[idx], y_train[idx]

        out, trace = forward(xb, layer, cfg)
        pooled = out.mean(axis=1)                       # [b, C]
        logits = pooled @ head_w + head_b
        probs = kernels.softmax_lastdim(logits)
        bsz, n = out.shape[:2]
        loss = float(-np.log(probs[np.arange(bsz), yb] + 1e-300).mean())
        if not math.isfinite(loss):
            raise TrainDivergedError(step)

        d_logits = probs.copy()
        d_logits[np.arange(bsz), yb] -= 1.0
        d_logits /= bsz
        d_pooled = d_logits @ head_w.T
        grad_out = np.repeat(d_pooled[:, None, :] / n, n, axis=1)
        grads = [*backward(trace, grad_out).field_dict().values(),
                 pooled.T @ d_logits, d_logits.sum(axis=0)]
        adam_step(flat, np.concatenate([gr.ravel() for gr in grads]), state, train_config.lr)
        return loss

    losses = [train_step(step) for step in range(train_config.steps)]

    out_eval, _ = forward(x_eval, layer, cfg)
    logits_eval = out_eval.mean(axis=1) @ head_w + head_b
    accuracy = float((logits_eval.argmax(axis=1) == y_eval).mean())
    return TrainHistory(losses=losses, final_accuracy=accuracy, variant=variant)

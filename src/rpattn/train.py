"""Tiny deterministic trainer proving each variant learns.

The model is one attention layer, mean pooling over output tokens, and a
linear classification head; the loss is cross entropy against the majority
cluster label. Adam updates run in float64 so two runs with the same seed
produce byte-identical loss curves.
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import List

import numpy as np

from . import kernels
from .attention import AttnConfig, init_params, rpattention_forward
from .baselines import softmax_attention_forward
from .errors import ConfigError, TrainDivergedError
from .grad import rpattention_backward, softmax_attention_backward
from .synthetic import SyntheticTask, gen_synthetic

VARIANTS = ("full", "gather_distribute", "kmeans", "softmax_baseline")


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    variant: str = "full"
    weight_decay: float = 0.0  # decoupled decay, off by default at desk scale

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState,
              lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0) -> AdamState:
    """Bias-corrected Adam update, applied in place to the parameter dict."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        if weight_decay:
            p -= lr * weight_decay * p
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
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


def train_tiny(task: SyntheticTask, attn_config: AttnConfig, train_config: TrainConfig,
               eval_fraction: float = 0.2) -> TrainHistory:
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
    n_eval = max(1, int(len(tokens) * eval_fraction))
    x_train, y_train = tokens[n_eval:], labels[n_eval:]
    x_eval, y_eval = tokens[:n_eval], labels[:n_eval]
    if len(x_train) == 0:
        raise ConfigError("no training samples left after the eval split")

    layer = init_params(cfg, train_config.seed)
    head_rng = np.random.default_rng([train_config.seed, 1])
    bound = 1.0 / math.sqrt(cfg.channels)
    head_w = head_rng.uniform(-bound, bound, (cfg.channels, g))
    head_b = np.zeros(g)

    trainable = dict(layer.field_dict())
    trainable["head_w"] = head_w
    trainable["head_b"] = head_b

    if variant == "softmax_baseline":
        forward = softmax_attention_forward
        backward = partial(softmax_attention_backward, params=layer)
    else:
        forward = rpattention_forward
        backward = partial(rpattention_backward, params=layer, config=cfg)

    state = AdamState()
    batch_rng = np.random.default_rng([train_config.seed, 2])
    losses = []

    full_batch = train_config.batch_size >= len(x_train)
    for step in range(train_config.steps):
        if full_batch:
            xb, yb = x_train, y_train
        else:
            idx = batch_rng.integers(0, len(x_train), train_config.batch_size)
            xb = x_train[idx]
            yb = y_train[idx]

        out, trace = forward(xb, layer, cfg)
        pooled = out.mean(axis=1)                       # [b, C]
        logits = pooled @ head_w + head_b
        probs = kernels.softmax_lastdim(logits)
        bsz = len(xb)
        loss = float(-np.log(probs[np.arange(bsz), yb] + 1e-300).mean())
        if not math.isfinite(loss):
            raise TrainDivergedError(step)
        losses.append(loss)

        d_logits = probs.copy()
        d_logits[np.arange(bsz), yb] -= 1.0
        d_logits /= bsz
        d_pooled = d_logits @ head_w.T
        grad_out = np.repeat(d_pooled[:, None, :], out.shape[1], axis=1) / out.shape[1]
        grads = backward(trace, grad_out).field_dict()
        grads["head_w"] = pooled.T @ d_logits
        grads["head_b"] = d_logits.sum(axis=0)

        adam_step(trainable, grads, state, train_config.lr,
                  train_config.beta1, train_config.beta2, train_config.eps,
                  train_config.weight_decay)

    out_eval, _ = forward(x_eval, layer, cfg)
    logits_eval = out_eval.mean(axis=1) @ head_w + head_b
    accuracy = float((logits_eval.argmax(axis=1) == y_eval).mean())
    return TrainHistory(losses=losses, final_accuracy=accuracy, variant=variant)

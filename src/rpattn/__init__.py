"""Representative attention: linear-cost token routing through learned
representatives, with exact analytic gradients and a desk-scale experiment
harness.

RPATTN_THREADS caps BLAS worker threads (0 or 1 means one). BLAS reads its cap
when numpy loads, so it is set here, before this package imports numpy, and
has no effect if numpy was imported first. Explicit OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS still win.
"""

import os as _os

from .errors import ConfigError as _ConfigError

if (_cap := _os.environ.get("RPATTN_THREADS")) is not None:
    try:
        _cap = str(max(1, int(_cap)))
    except ValueError:
        raise _ConfigError(f"RPATTN_THREADS must be an integer, got {_cap!r}") from None
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .attention import (
    AttnConfig,
    ForwardTrace,
    PARAM_FIELDS,
    RPAttnParams,
    gather_assign,
    gather_latents,
    init_params,
    latent_interact,
    local_bypass,
    mass_normalize,
    distribute_global,
    param_count,
    param_shapes,
    project_qkv,
    rpattention_forward,
)
from .analysis import (
    FlopsBreakdown,
    Mechanism,
    ScalingReport,
    ShiftReport,
    em_one_step_oracle,
    export_assignment_maps,
    flops_estimate,
    measure_scaling,
    shift_robustness,
    softmax_flops,
)
from .baselines import (
    kmeans_gather,
    pooled_proxy_forward,
    softmax_attention_forward,
)
from .grad import GradSet, finite_diff_grad, gradcheck, rpattention_backward
from .synthetic import SyntheticTask, gen_synthetic, make_blob_image
from .tensor_io import load_params, read_tensor, save_params, write_tensor
from .train import AdamState, TrainConfig, TrainHistory, adam_step, train_tiny

__all__ = [
    "AttnConfig", "ForwardTrace", "PARAM_FIELDS", "RPAttnParams",
    "gather_assign", "gather_latents", "init_params", "latent_interact",
    "local_bypass", "mass_normalize", "distribute_global", "param_count",
    "param_shapes", "project_qkv", "rpattention_forward",
    "FlopsBreakdown", "Mechanism", "ScalingReport", "ShiftReport",
    "em_one_step_oracle", "export_assignment_maps", "flops_estimate",
    "measure_scaling", "shift_robustness", "softmax_flops",
    "kmeans_gather", "pooled_proxy_forward",
    "softmax_attention_forward",
    "GradSet", "finite_diff_grad", "gradcheck", "rpattention_backward",
    "SyntheticTask", "gen_synthetic", "make_blob_image",
    "load_params", "read_tensor", "save_params", "write_tensor",
    "AdamState", "TrainConfig", "TrainHistory", "adam_step", "train_tiny",
]

__version__ = "0.1.0"

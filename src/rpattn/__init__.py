"""Representative attention: linear-cost token routing through learned
representatives, with exact analytic gradients and a desk-scale experiment
harness."""

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

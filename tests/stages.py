"""Stage-level views of the layer for tests.

`fused_from_stages` rebuilds the layer's `fused`, the readout plus bypass
that its output projection reads, from the package's public stages; the
trace does not keep it. `peak_by_stage` runs an op under tracemalloc and
names the stage that held its peak, so a memory budget that fails says
where.
"""

import gc
import tracemalloc

from rpattn import attention, baselines, distribute_global, grad, kernels, local_bypass, project_qkv

# (module, attribute) of every stage peak_by_stage attributes memory to: the
# forward's whole-array stages and every private reverse of the backward.
# Callers look each name up on its module at call time, so patching the
# attribute reaches every call.
PEAK_STAGES = (
    [(baselines, "kmeans_gather")]
    + [(kernels, name) for name in ("depthwise_conv2d", "depthwise_conv2d_backward")]
    + [(attention, name) for name in ("gather", "latent_interact", "local_bypass")]
    + [(grad, name) for name in (
        "_output_backward", "_blocked_attention_backward", "_local_bypass_backward",
        "_latent_interact_backward", "_gather_backward", "_project_qkv_backward",
        "_linear_backward")]
)
OUTSIDE = "outside the stages"


def fused_from_stages(trace):
    """The bypass over x @ w_v, plus each token tile's distribution readout."""
    p, cfg = trace.params, trace.config
    fused = local_bypass(kernels.linear(trace.x, p.w_v), p, cfg)
    for rows in kernels.token_tiles(cfg.num_tokens, kernels.TOKEN_TILE):
        (q,) = project_qkv(trace.x[:, rows], (p.w_q,), cfg.heads)
        distribute_global(q, trace.k_l_bar, trace.z_l, fused[:, rows])
    return fused


def peak_by_stage(op, monkeypatch):
    """(op(), peak, stage): the peak traced bytes above the starting level
    while op() runs, and the innermost PEAK_STAGES stage that was running
    when it was reached (OUTSIDE between stages).

    Each stage is wrapped, through monkeypatch, to credit the peak so far to
    the stage that ran until then and reset it, on entry and on return.
    """
    running, peaks = [OUTSIDE], {}

    def credit():
        peaks[running[-1]] = max(peaks.get(running[-1], 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def wrap(name, fn):
        def stage(*args, **kwargs):
            credit()
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                credit()
                running.pop()
        return stage

    for module, attr in PEAK_STAGES:
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        monkeypatch.setattr(module, attr, wrap(name, getattr(module, attr)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = op()
        credit()
    finally:
        tracemalloc.stop()
    stage = max(peaks, key=peaks.get)
    return result, peaks[stage] - base, stage

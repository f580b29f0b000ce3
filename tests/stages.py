"""The layer's `fused`, the readout plus bypass that its output projection
reads, rebuilt from the package's public stages; the trace does not keep it."""

from rpattn import distribute_global, kernels, local_bypass, project_qkv


def fused_from_stages(trace):
    """The bypass over x @ w_v, plus each token tile's distribution readout."""
    p, cfg = trace.params, trace.config
    fused = local_bypass(kernels.linear(trace.x, p.w_v), p, cfg)
    for rows in kernels.token_tiles(cfg.num_tokens, kernels.TOKEN_TILE):
        (q,) = project_qkv(trace.x[:, rows], (p.w_q,), cfg.heads)
        distribute_global(q, trace.k_l_bar, trace.z_l, fused[:, rows])
    return fused

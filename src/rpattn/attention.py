"""Representative attention: gather -> interact -> distribute.

The layer replaces dense token-to-token attention with a compact latent
bottleneck. Per head, the N spatial tokens are softly routed onto M latent
representatives by similarity of their key features to learned anchor
columns (gather), the representatives exchange information through a small
residual self-attention (interact), and every spatial query reads the
refined representatives back through cross-attention (distribute). A
depthwise-convolution bypass on the value features preserves local detail
and is fused before the output projection.

Shape conventions: inputs are [B, N, C] with N = grid_h * grid_w tokens in
row-major grid order; per-head tensors are [B, h, N, d] with C = h * d, head
r owning channels [r*d, (r+1)*d).
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import kernels
from .errors import (ConfigError, ContractError, ShapeError, check_count, check_flag,
                     check_real_array)

_DTYPES = {"float64": np.float64, "float32": np.float32}

ROUTING_MODES = ("learned", "kmeans")

SLOT_MASS_EPS = 1e-6   # added to every slot's token mass before the latents divide by it
LN_EPS = 1e-5          # latent layer-norm epsilon
KMEANS_ITERS = 3       # Lloyd iterations of k-means routing


@dataclass(frozen=True)
class AttnConfig:
    """Hyperparameters of one representative-attention layer."""

    channels: int                  # C
    heads: int                     # h, with d = C // h
    num_representatives: int       # M latent slots
    grid_h: int
    grid_w: int
    dwc_kernel: int = 3            # odd depthwise kernel size
    enable_interact: bool = True
    enable_dwc: bool = True
    routing: str = "learned"       # "learned" soft gather or "kmeans" hard routing
    dtype: str = "float64"         # "float64" correctness / "float32" benchmark
    kmeans_seed: int = 0

    def __post_init__(self):
        for name in ("channels", "heads", "num_representatives", "grid_h", "grid_w", "dwc_kernel"):
            check_count(name, getattr(self, name))
        check_count("kmeans_seed", self.kmeans_seed, minimum=0)
        check_flag("enable_interact", self.enable_interact)
        check_flag("enable_dwc", self.enable_dwc)
        if self.channels % self.heads != 0:
            raise ConfigError(f"channels ({self.channels}) not divisible by heads ({self.heads})")
        if self.dwc_kernel % 2 == 0:
            raise ConfigError(f"dwc_kernel must be odd, got {self.dwc_kernel}")
        if self.routing not in ROUTING_MODES:
            raise ConfigError(f"routing must be one of {ROUTING_MODES}, got {self.routing!r}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"dtype must be one of {tuple(_DTYPES)}, got {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads

    @property
    def num_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


@dataclass
class RPAttnParams:
    """Learnable weights of one layer. Arrays are never mutated by forward/backward."""

    w_q: np.ndarray        # [C, C]
    w_k: np.ndarray        # [C, C]
    w_v: np.ndarray        # [C, C]
    w_o: np.ndarray        # [C, C]
    w_g: np.ndarray        # [d, M] gather anchors, shared across heads
    w_lq: np.ndarray       # [d, d]
    w_lk: np.ndarray       # [d, d]
    w_lv: np.ndarray       # [d, d]
    ln_k_gamma: np.ndarray  # [d]
    ln_v_gamma: np.ndarray  # [d]
    ln_v_beta: np.ndarray   # [d]
    dwc_kernel: np.ndarray  # [k, k, C]
    dwc_bias: np.ndarray    # [C]

    def field_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


# Serialization order of parameter fields: the declaration order of
# RPAttnParams. Fixed; tensor files written by save_params/load_params follow
# exactly this sequence.
PARAM_FIELDS = tuple(f.name for f in fields(RPAttnParams))


def param_shapes(config: AttnConfig) -> dict:
    """Shape of every parameter field for the given config, in field order."""
    c = config.channels
    d = config.head_dim
    m = config.num_representatives
    k = config.dwc_kernel
    return {
        "w_q": (c, c), "w_k": (c, c), "w_v": (c, c), "w_o": (c, c),
        "w_g": (d, m),
        "w_lq": (d, d), "w_lk": (d, d), "w_lv": (d, d),
        "ln_k_gamma": (d,), "ln_v_gamma": (d,), "ln_v_beta": (d,),
        "dwc_kernel": (k, k, c), "dwc_bias": (c,),
    }


def param_count(config: AttnConfig) -> int:
    """Exact number of scalar parameters in one layer."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def init_params(config: AttnConfig, seed: int) -> RPAttnParams:
    """Deterministic initialization.

    Projection matrices draw uniform(+-1/sqrt(fan_in)); the gather anchors
    draw normal(0, 0.02) so the initial routing is near uniform and no slot
    starts dead; layer-norm affines start at identity; the depthwise kernel
    draws uniform(+-1/k) with zero bias.
    """
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    shapes = param_shapes(config)
    c = config.channels
    d = config.head_dim
    k = config.dwc_kernel

    def uni(name, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, shapes[name]).astype(dt)

    return RPAttnParams(
        w_q=uni("w_q", c), w_k=uni("w_k", c), w_v=uni("w_v", c), w_o=uni("w_o", c),
        w_g=(rng.normal(0.0, 0.02, shapes["w_g"])).astype(dt),
        w_lq=uni("w_lq", d), w_lk=uni("w_lk", d), w_lv=uni("w_lv", d),
        ln_k_gamma=np.ones(d, dtype=dt),
        ln_v_gamma=np.ones(d, dtype=dt), ln_v_beta=np.zeros(d, dtype=dt),
        dwc_kernel=uni("dwc_kernel", k * k),
        dwc_bias=np.zeros(c, dtype=dt),
    )


@dataclass
class ForwardTrace:
    """The record of one rpattention_forward call, everything its backward reads.

    Each intermediate is held once, with the call's own params and config
    (references, not copies). No [B, h, N, M] array and no projection of x
    is kept: the keys, the gather's assignments, the queries and the
    distribution weights exist one token tile at a time, and the backward
    recomputes them per tile from x, params.w_k and params.w_g (or the
    k-means slot indices), and from x, params.w_q and k_l_bar. The values
    are gone too: the forward wrote the bypass over them, and `fused` is
    that same memory. The backward projects the values once more from x and
    params.w_v. `a` recomputes all the keys and assignments on each read.

    A trace is valid only until its params are mutated: `a` and the
    backward read trace.params (w_k, w_v and w_q, and w_g under learned
    routing), which are references, so an in-place update (train_tiny's
    Adam step after each backward) leaves a trace that no longer describes
    its forward.
    """

    x: np.ndarray          # [B, N, C] layer input
    slots: Optional[np.ndarray]  # [B, h, N] k-means slot indices, None under learned routing
    mass: np.ndarray       # [B, h, M, 1] slot token mass plus SLOT_MASS_EPS
    k_l: np.ndarray        # [B, h, M, d] gathered latent keys
    v_l: np.ndarray        # [B, h, M, d] gathered latent values
    k_l_bar: np.ndarray    # [B, h, M, d] normalized latent keys
    v_l_bar: np.ndarray    # [B, h, M, d] normalized latent values
    p_lat: Optional[np.ndarray]  # [B, h, M, M] latent attention, None when interact is off
    z_l: np.ndarray        # [B, h, M, d] refined latent values
    fused: np.ndarray      # [B, N, C] readout plus depthwise bypass, in the values' memory
    output: np.ndarray     # [B, N, C]
    params: RPAttnParams   # the forward's params
    config: AttnConfig     # the forward's config

    @property
    def a(self) -> np.ndarray:
        """[B, h, N, M] row-stochastic assignments, recomputed on each read.

        gather_assign of the keys, x @ params.w_k, and params.w_g under learned
        routing (slot-major), the one-hot rows of the slot indices under
        k-means (token-major), which read no keys.
        """
        k = None
        if self.slots is None:
            (k,) = project_qkv(self.x, (self.params.w_k,), self.config.heads)
        return tile_assign(k, self.params.w_g, self.slots, self.config.num_representatives,
                           slice(None))


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[B, N, C] -> [B, h, N, d] with d = C // h."""
    b, n, c = x.shape
    return x.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """[B, h, N, d] -> [B, N, h*d], inverse of split_heads."""
    b, h, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def project_qkv(x: np.ndarray, weights, heads: int) -> tuple:
    """Projections x @ w of x [B, T, C] for each w of `weights`, as per-head
    [B, h, T, d] views (split_heads) of their [B, T, C] results."""
    return tuple(split_heads(kernels.linear(x, w), heads) for w in weights)


def gather_assign(k: np.ndarray, w_g: np.ndarray) -> np.ndarray:
    """Soft assignment of tokens to slots: softmax over slots of key-anchor products.

    [B, h, N, M], stored slot-major: the logits are formed as w_gᵀ kᵀ and
    normalized in place through their swapped view.
    """
    logits = np.swapaxes(kernels.matmul(w_g.T, np.swapaxes(k, -1, -2)), -1, -2)
    return kernels.softmax_lastdim(logits, out=logits)


def slot_one_hot(slots: np.ndarray, num_slots: int, dtype) -> np.ndarray:
    """Slot indices [..., N] -> one-hot rows [..., N, M] in dtype, token-major."""
    return (slots[..., None] == np.arange(num_slots)).astype(dtype)


def tile_assign(k: Optional[np.ndarray], w_g: np.ndarray, slots: Optional[np.ndarray],
                num_slots: int, rows: slice):
    """Assignments [B, h, T, M] of the tokens `rows` (a slice of the token axis).

    Learned routing (slots None) is gather_assign of the tile's own keys k
    [B, h, T, d]; k-means routing expands the tile's slot indices to one-hot
    rows in w_g's dtype (the layer's), num_slots wide, and reads neither k
    (which may be None) nor w_g's values.
    """
    if slots is None:
        return gather_assign(k, w_g)
    return slot_one_hot(slots[..., rows], num_slots, w_g.dtype)


def gather_latents(a: np.ndarray, k: np.ndarray, v: np.ndarray, sums=None):
    """Raw slot sums (Σ_n a [B, h, M, 1], aᵀk, aᵀv): every slot's mass and
    assignment-weighted totals of keys and values.

    A gather in token tiles passes the totals of its earlier tiles as
    `sums`: the tile's shares are added into them in place, and they are
    returned. The first tile's shares are the totals, so a gather in one
    tile is the untiled gather bit for bit.
    """
    a_t = np.swapaxes(a, -1, -2)
    shares = a.sum(axis=-2)[..., None], kernels.matmul(a_t, k), kernels.matmul(a_t, v)
    if sums is None:
        return shares
    for total, share in zip(sums, shares):
        total += share
    return sums


def mass_normalize(a_sum: np.ndarray, k_sum: np.ndarray, v_sum: np.ndarray):
    """Slot sums over slot mass: (mass, k_l, v_l), mass = Σ_n a + SLOT_MASS_EPS [B, h, M, 1].

    Takes gather_latents' totals. Equals gathering with the column-normalized
    â = a / massᵀ, never built on [N, M]; the epsilon keeps a slot with no
    mass at zero.
    """
    mass = a_sum + SLOT_MASS_EPS
    return mass, k_sum / mass, v_sum / mass


def gather(x: np.ndarray, v: np.ndarray, w_k: np.ndarray, w_g: np.ndarray,
           slots: Optional[np.ndarray], num_slots: int):
    """The gather of the keys x @ w_k and the values v [B, h, N, d] onto the
    M = num_slots slots, in token tiles: (mass, k_l, v_l).

    Each tile of kernels.TOKEN_TILE tokens projects its keys from its rows
    of x [B, N, C] (project_qkv), forms its assignments (tile_assign) and
    adds its slot sums to those of the tiles before it (gather_latents);
    mass_normalize then divides the totals by the slot mass. Each token's
    key is its own row's product and its assignments its own softmax over
    the M slots (or its one-hot k-means row), so no keys or assignments
    outlive their tile.
    """
    sums = None
    for rows in kernels.token_tiles(x.shape[1], kernels.TOKEN_TILE):
        (k,) = project_qkv(x[:, rows], (w_k,), v.shape[1])
        sums = gather_latents(tile_assign(k, w_g, slots, num_slots, rows), k, v[..., rows, :],
                              sums)
    return mass_normalize(*sums)


def latent_qkv(v_l_bar: np.ndarray, params: RPAttnParams):
    """Latent queries, keys and values: v_l_bar @ w_lq, w_lk and w_lv."""
    return tuple(kernels.matmul(v_l_bar, w) for w in (params.w_lq, params.w_lk, params.w_lv))


def latent_interact(k_l: np.ndarray, v_l: np.ndarray, params: RPAttnParams, config: AttnConfig):
    """Normalize the latents and run residual self-attention among them.

    Latent queries, keys and values all derive from the normalized latent
    values, keeping the key space dedicated to routing. Returns
    (k_l_bar, v_l_bar, p_lat, z_l); with interact disabled z_l is exactly
    v_l_bar and p_lat is None.
    """
    # No key shift: it would add one q·beta to all M logits, which the slot softmax cancels.
    k_l_bar = kernels.layer_norm(k_l, params.ln_k_gamma, 0.0, LN_EPS)
    v_l_bar = kernels.layer_norm(v_l, params.ln_v_gamma, params.ln_v_beta, LN_EPS)
    if not config.enable_interact:
        return k_l_bar, v_l_bar, None, v_l_bar
    p_lat, o_lat = kernels.attention(*latent_qkv(v_l_bar, params))
    return k_l_bar, v_l_bar, p_lat, v_l_bar + o_lat


def distribute_global(q: np.ndarray, k_l_bar: np.ndarray, z_l: np.ndarray,
                      fused: np.ndarray) -> None:
    """Cross-attention of spatial queries q [B, h, T, d] over the M slots.

    Forms the queries' slot-major weights (kernels.attention_weights), reads
    out z_l and adds the readout into their rows fused [B, T, C] in place,
    through its split_heads view. Each token's weights are a softmax over
    its own M slots, so the forward runs it one token tile at a time and no
    weights outlive their tile.
    """
    fused_heads = split_heads(fused, q.shape[1])  # a view: the adds land in fused
    fused_heads += kernels.matmul(kernels.attention_weights(q, k_l_bar), z_l)


def local_bypass(xv: np.ndarray, params: RPAttnParams, config: AttnConfig) -> np.ndarray:
    """Depthwise convolution over the value features xv [B, N, C] on the token grid, in place.

    xv is the already projected value tensor (x @ w_v, heads merged), so the
    bypass adds no projection of its own. It must be C-contiguous: the
    bypass is written over it (kernels.depthwise_conv2d with out= its own
    input), and xv itself is returned, so no second [B, N, C] array exists.
    With the bypass disabled, xv is zeroed and returned.
    """
    b, n, c = xv.shape
    if not config.enable_dwc:
        xv.fill(0)
        return xv
    if n != config.num_tokens:
        raise ConfigError(f"token count {n} does not match grid {config.grid_h}x{config.grid_w}")
    if not xv.flags.c_contiguous:  # a reshape would copy it, and the bypass land in the copy
        raise ContractError("local_bypass writes over xv, which must be C-contiguous")
    grid = xv.reshape(b, config.grid_h, config.grid_w, c)
    kernels.depthwise_conv2d(grid, params.dwc_kernel, params.dwc_bias, out=grid)
    return xv


def check_input(x, params: RPAttnParams, config: AttnConfig) -> np.ndarray:
    """The input contract shared by every attention forward; returns x cast to config's dtype.

    x must be real-valued and finite in config's dtype (errors.check_real_array),
    [B, N, C] with B >= 1, C = config.channels and N = the grid's token
    count; every params field must already hold config's dtype and its
    param_shapes(config) shape.
    """
    x = check_real_array("input", x, config.np_dtype)
    if x.ndim != 3:
        raise ShapeError(f"input must be [B, N, C], got {x.shape}")
    b, n, c = x.shape
    if b == 0:
        raise ConfigError("batch dimension must be >= 1")
    if c != config.channels:
        raise ShapeError(f"input channels {c} != config channels {config.channels}")
    if n != config.num_tokens:
        raise ConfigError(f"token count {n} does not match grid {config.grid_h}x{config.grid_w}")
    shapes = param_shapes(config)
    for name, value in params.field_dict().items():
        if value.dtype != config.np_dtype:
            raise ContractError(f"param {name} is {value.dtype}, config dtype is {config.dtype}")
        if value.shape != shapes[name]:
            raise ShapeError(f"param {name} has shape {value.shape}, config needs {shapes[name]}")
    return x


def rpattention_forward(x: np.ndarray, params: RPAttnParams, config: AttnConfig):
    """Full layer forward. Returns (output, ForwardTrace).

    Output shape equals input shape. The trace retains every intermediate
    needed by the analytic backward pass except the projections of x and
    the gather's assignments and distribution weights: the keys, the
    assignments, the queries and the weights all run in token tiles. The
    bypass is written over the values (local_bypass), so that one [B, N, C]
    array becomes the trace's `fused`, and each tile adds its distribution
    readout into it. Beyond the trace's own arrays no step holds more than
    one tile's keys, assignments, queries, weights and readout or one band
    of the bypass, and the forward peaks at the output projection, where
    fused, output and the latents are live. k-means routing first projects
    all the keys once for kmeans_gather and drops them when it returns,
    before the values are projected. The trace holds references to params,
    and is valid only until they are mutated (see ForwardTrace).
    """
    x = check_input(x, params, config)
    slots = None
    if config.routing == "kmeans":
        from .baselines import kmeans_gather  # runtime import: baselines builds on this module

        (k,) = project_qkv(x, (params.w_k,), config.heads)
        slots = kmeans_gather(k, config.num_representatives, KMEANS_ITERS, config.kmeans_seed)
        del k  # before the values are projected, so the two are never live together
    (v,) = project_qkv(x, (params.w_v,), config.heads)
    mass, k_l, v_l = gather(x, v, params.w_k, params.w_g, slots, config.num_representatives)
    k_l_bar, v_l_bar, p_lat, z_l = latent_interact(k_l, v_l, params, config)
    fused = local_bypass(merge_heads(v), params, config)  # over v's memory
    del v
    for rows in kernels.token_tiles(config.num_tokens, kernels.TOKEN_TILE):
        (q,) = project_qkv(x[:, rows], (params.w_q,), config.heads)
        distribute_global(q, k_l_bar, z_l, fused[:, rows])
    del q  # so no query tile is live beside the output, the forward's peak
    output = kernels.linear(fused, params.w_o)

    trace = ForwardTrace(
        x=x, slots=slots, mass=mass, k_l=k_l, v_l=v_l,
        k_l_bar=k_l_bar, v_l_bar=v_l_bar, p_lat=p_lat, z_l=z_l,
        fused=fused, output=output, params=params, config=config,
    )
    return output, trace

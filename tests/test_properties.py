"""Property-based tests under the deterministic hypothesis profile of conftest.py."""

import contextlib
import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from rpattn import SyntheticTask, TrainConfig, cli, kernels  # noqa: E402
from rpattn.attention import (  # noqa: E402
    KMEANS_ITERS, PARAM_FIELDS, AttnConfig, RPAttnParams, init_params, rpattention_forward,
    slot_one_hot)
from rpattn.baselines import kmeans_gather, softmax_attention_forward  # noqa: E402
from rpattn.errors import BadMagicError, TensorFileError, TruncatedPayloadError  # noqa: E402
from rpattn.grad import (  # noqa: E402
    _attention_backward, finite_diff_grad, rpattention_backward, softmax_attention_backward)
from rpattn.tensor_io import read_record, read_tensor, write_tensor  # noqa: E402

import oracles  # noqa: E402

DTYPES = st.sampled_from([np.float32, np.float64])


@given(batch=st.integers(1, 2), heads=st.integers(1, 2), d=st.integers(1, 3),
       n_q=st.integers(1, 4), n_k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_attention_backward_matches_finite_differences(batch, heads, d, n_q, n_k, seed):
    # Queries and keys/values differ in length, so a swapped axis cannot pass.
    if n_q == n_k:
        n_k += 1
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((batch, heads, n_q, d))
    k = rng.standard_normal((batch, heads, n_k, d))
    v = rng.standard_normal((batch, heads, n_k, d))
    d_o = rng.standard_normal((batch, heads, n_q, d))

    p, o = kernels.attention(q, k, v)
    assert p.shape == (batch, heads, n_q, n_k) and o.shape == q.shape
    d_q, d_k, d_v = _attention_backward(q, k, v, p, d_o)

    def loss(q_, k_, v_):
        return float((kernels.attention(q_, k_, v_)[1] * d_o).sum())

    numeric = (
        finite_diff_grad(lambda t: loss(t, k, v), q, 1e-5),
        finite_diff_grad(lambda t: loss(q, t, v), k, 1e-5),
        finite_diff_grad(lambda t: loss(q, k, t), v, 1e-5),
    )
    for name, analytic, fd in zip("qkv", (d_q, d_k, d_v), numeric):
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8, err_msg=name)


@given(lead=st.lists(st.integers(1, 3), max_size=2), d=st.integers(1, 4),
       n_q=st.integers(1, 40), n_k=st.integers(1, 40), scale=st.sampled_from([0.1, 1.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_attention_weights_match_query_major_softmax(lead, d, n_q, n_k, scale, seed):
    # kernels.attention stores its weights key-major; the values must equal
    # the query-major softmax(q k^T / sqrt(d)) over every leading batch shape.
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((*lead, n_q, d)) * scale
    k = rng.standard_normal((*lead, n_k, d))
    v = rng.standard_normal((*lead, n_k, 2))
    p, o = kernels.attention(q, k, v)
    logits = np.matmul(q, np.swapaxes(k, -1, -2)) / np.sqrt(d)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    assert p.shape == want.shape and np.swapaxes(p, -1, -2).flags.c_contiguous
    assert np.abs(p - want).max() < 1e-12
    assert np.array_equal(o, np.matmul(p, v))


@given(batch=st.integers(1, 3), heads=st.integers(1, 2), head_dim=st.integers(1, 3),
       grid_h=st.integers(1, 3), grid_w=st.integers(1, 3), num_reps=st.integers(1, 12),
       interact=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_learned_forward_contract_and_token_equivariance(batch, heads, head_dim, grid_h, grid_w,
                                                         num_reps, interact, seed):
    # Learned routing without the depthwise bypass sees the tokens as a set,
    # so permuting the input tokens permutes the output rows; M may exceed N.
    cfg = AttnConfig(channels=heads * head_dim, heads=heads, num_representatives=num_reps,
                     grid_h=grid_h, grid_w=grid_w, enable_interact=interact, enable_dwc=False)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, int(rng.integers(2**31)))
    x = rng.standard_normal((batch, cfg.num_tokens, cfg.channels))
    y, _ = rpattention_forward(x, params, cfg)
    assert y.shape == x.shape and y.dtype == np.float64 and np.isfinite(y).all()

    perm = rng.permutation(cfg.num_tokens)
    y_perm, _ = rpattention_forward(x[:, perm], params, cfg)
    np.testing.assert_allclose(y_perm, y[:, perm], rtol=0, atol=1e-12)


@settings(max_examples=40)
@given(batch=st.integers(1, 3), heads=st.integers(1, 2), head_dim=st.integers(1, 3),
       grid_h=st.integers(1, 3), grid_w=st.integers(1, 3), num_reps=st.integers(1, 6),
       interact=st.booleans(), dwc=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_learned_backward_matches_finite_differences(batch, heads, head_dim, grid_h, grid_w,
                                                     num_reps, interact, dwc, seed):
    # Every parameter and the input, at unit-scale grad_output; M may exceed N.
    # The bound has an absolute floor, unlike gradcheck's relative metric:
    # central differences at step 1e-6 carry rounding noise of order 1e-9,
    # which a relative error blows up on near-zero entries.
    cfg = AttnConfig(channels=heads * head_dim, heads=heads, num_representatives=num_reps,
                     grid_h=grid_h, grid_w=grid_w, enable_interact=interact, enable_dwc=dwc)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, int(rng.integers(2**31)))
    x = rng.standard_normal((batch, cfg.num_tokens, cfg.channels))
    g = rng.standard_normal(x.shape)
    _, trace = rpattention_forward(x, params, cfg)
    grads = rpattention_backward(trace, g)

    def loss(p, xin):
        return float((rpattention_forward(xin, p, cfg)[0] * g).sum())

    for name in PARAM_FIELDS:
        fd = finite_diff_grad(lambda t, _n=name: loss(replace(params, **{_n: t}), x),
                              getattr(params, name), 1e-6)
        np.testing.assert_allclose(getattr(grads, name), fd, rtol=1e-5, atol=1e-6, err_msg=name)
    fd_x = finite_diff_grad(lambda t: loss(params, t), x, 1e-6)
    np.testing.assert_allclose(grads.grad_x, fd_x, rtol=1e-5, atol=1e-6, err_msg="x")


@given(batch=st.integers(1, 2), heads=st.integers(1, 2), head_dim=st.integers(1, 3),
       n=st.integers(5, 12), tile=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_dense_blocked_reverse_matches_finite_differences(batch, heads, head_dim, n, tile, seed):
    # The dense forward and the blocked reverse it shares with the layer's
    # distribution, over two to twelve token tiles: the reverse recomputes
    # each tile's queries from x and w_q. Every field the dense forward
    # reads and the input, at unit-scale grad_output, with the bounds of
    # test_learned_backward_matches_finite_differences; every other field's
    # gradient is zero.
    cfg = AttnConfig(channels=heads * head_dim, heads=heads, num_representatives=1,
                     grid_h=1, grid_w=n)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, int(rng.integers(2**31)))
    x = rng.standard_normal((batch, n, cfg.channels))
    g = rng.standard_normal(x.shape)

    def loss(p, xin):
        return float((softmax_attention_forward(xin, p, cfg)[0] * g).sum())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TOKEN_TILE", tile)
        _, trace = softmax_attention_forward(x, params, cfg)
        grads = softmax_attention_backward(trace, g)
        dense = ("w_q", "w_k", "w_v", "w_o")
        for name in dense:
            fd = finite_diff_grad(lambda t, _n=name: loss(replace(params, **{_n: t}), x),
                                  getattr(params, name), 1e-6)
            np.testing.assert_allclose(getattr(grads, name), fd, rtol=1e-5, atol=1e-6,
                                       err_msg=name)
        fd_x = finite_diff_grad(lambda t: loss(params, t), x, 1e-6)
    np.testing.assert_allclose(grads.grad_x, fd_x, rtol=1e-5, atol=1e-6, err_msg="x")
    assert not any(getattr(grads, name).any() for name in PARAM_FIELDS if name not in dense)


@given(batch=st.integers(1, 3), heads=st.integers(1, 2), head_dim=st.integers(3, 4),
       tile=st.integers(2, 6), length=st.sampled_from(["1", "T-1", "T", "T+1", "3T+5"]),
       routing=st.sampled_from(["learned", "kmeans"]), num_reps=st.integers(1, 6),
       interact=st.booleans(), dwc=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_many_token_tiles_match_one_tile(batch, heads, head_dim, tile, length, routing, num_reps,
                                         interact, dwc, seed):
    # The distribution forward and its reverse run in token tiles of
    # kernels.TOKEN_TILE queries. In float64, the output and all 15 gradients
    # of many tiles agree with one tile within 1e-12 of each array's largest
    # entry (the structurally zero ln_k_beta absolutely), and are the same
    # bytes when the tokens fit in one tile. head_dim >= 3: a two-channel
    # layer norm is flat, which leaves the key gradients rounding noise.
    n = {"1": 1, "T-1": tile - 1, "T": tile, "T+1": tile + 1, "3T+5": 3 * tile + 5}[length]
    cfg = AttnConfig(channels=heads * head_dim, heads=heads, num_representatives=num_reps,
                     grid_h=1, grid_w=n, routing=routing, enable_interact=interact,
                     enable_dwc=dwc)
    rng = np.random.default_rng(seed)
    # Unit-scale anchors: at init's near-uniform routing the slots' latents
    # nearly coincide, and the gradients through the distribution and latent
    # softmaxes are then differences of nearly equal terms, many times
    # smaller than the rounding of those terms that a tile moves.
    params = replace(init_params(cfg, int(rng.integers(2**31))),
                     w_g=rng.standard_normal((head_dim, num_reps)))
    x = rng.standard_normal((batch, n, cfg.channels))
    g = rng.standard_normal(x.shape)

    def run(rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "TOKEN_TILE", rows)
            y, trace = rpattention_forward(x, params, cfg)
            grads = rpattention_backward(trace, g)
        return {"output": y, **grads.field_dict(), "grad_x": grads.grad_x}

    tiled, whole = run(tile), run(n)
    assert len(whole) == 16
    for name, ref in whole.items():
        if n <= tile:
            assert tiled[name].tobytes() == ref.tobytes(), name
        scale = 1.0 if name == "ln_k_beta" else np.abs(ref).max()
        assert np.abs(tiled[name] - ref).max() <= 1e-12 * scale, name


@given(batch=st.integers(1, 3), heads=st.integers(1, 2), head_dim=st.integers(1, 4),
       grid_h=st.integers(1, 4), grid_w=st.integers(1, 4), num_reps=st.integers(1, 6),
       interact=st.booleans(), dwc=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_float32_tracks_float64(batch, heads, head_dim, grid_h, grid_w, num_reps, interact, dwc,
                                seed):
    # The float32 forward and backward against float64 on the same values:
    # the float32 params, input and grad_output, upcast. Each gap is bounded
    # against the largest float64 entry over all its arrays, not per array:
    # a gradient that is only rounding noise in float64 (w_q at N = 1) has no
    # scale of its own. Learned routing only, since a float32 key can flip a
    # hard k-means assignment.
    cfg32 = AttnConfig(channels=heads * head_dim, heads=heads, num_representatives=num_reps,
                       grid_h=grid_h, grid_w=grid_w, enable_interact=interact,
                       enable_dwc=dwc, dtype="float32")
    cfg64 = replace(cfg32, dtype="float64")
    rng = np.random.default_rng(seed)
    params32 = init_params(cfg32, int(rng.integers(2**31)))
    params64 = RPAttnParams(**{name: value.astype(np.float64)
                               for name, value in params32.field_dict().items()})
    x = rng.standard_normal((batch, cfg32.num_tokens, cfg32.channels)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)

    y32, trace32 = rpattention_forward(x, params32, cfg32)
    y64, trace64 = rpattention_forward(x.astype(np.float64), params64, cfg64)
    # With d = 1, dwc off and the initial params, the one-channel layer norm
    # returns beta = 0, so the output is exactly zero and has no scale.
    assume(y64.any())
    assert y32.dtype == np.float32
    assert np.abs(y32 - y64).max() <= 1e-4 * np.abs(y64).max()

    grads32 = rpattention_backward(trace32, g)
    grads64 = rpattention_backward(trace64, g.astype(np.float64))
    names = [*PARAM_FIELDS, "grad_x"]
    scale = max(np.abs(getattr(grads64, name)).max() for name in names)
    for name in names:
        got = getattr(grads32, name)
        assert got.dtype == np.float32, name
        assert np.abs(got - getattr(grads64, name)).max() <= 1e-4 * scale, name


@given(batch=st.integers(1, 3), heads=st.integers(1, 3), n=st.integers(1, 12),
       m=st.integers(1, 6), d=st.integers(1, 4), dtype=DTYPES, seed=st.integers(0, 2**32 - 1))
def test_kmeans_routing_contract(batch, heads, n, m, d, dtype, seed):
    # [B, h, N] slot indices below M whose one-hot [B, h, N, M] rows, in the
    # keys' dtype, equal the per-slot oracle; M may exceed N, and d may be 1.
    keys = np.random.default_rng(seed).standard_normal((batch, heads, n, d)).astype(dtype)
    slots = kmeans_gather(keys, m, KMEANS_ITERS, seed)
    assert slots.shape == (batch, heads, n) and ((slots >= 0) & (slots < m)).all()
    a = slot_one_hot(slots, m, keys.dtype)
    assert a.shape == (batch, heads, n, m) and a.dtype == dtype
    assert set(np.unique(a)) <= {0.0, 1.0} and (a.sum(axis=-1) == 1).all()
    assert np.array_equal(a, oracles.kmeans_gather_loops(keys, m, KMEANS_ITERS, seed))


@given(shape=st.lists(st.integers(0, 3), max_size=5), dtype=DTYPES,
       seed=st.integers(0, 2**32 - 1))
def test_tensor_file_round_trip_and_prefixes(tmp_path_factory, shape, dtype, seed):
    # A written file reads back byte for byte; every strict prefix of it is
    # a tensor-file error of its own kind, never a numpy error.
    arr = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    path = tmp_path_factory.mktemp("rptn") / "t.rptn"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()

    data = path.read_bytes()
    for size in range(len(data)):
        # read_tensor is read_record on the opened file plus a trailing-byte check
        with pytest.raises(TensorFileError) as err:
            read_record(io.BytesIO(data[:size]))
        assert err.type is (BadMagicError if size < 4 else TruncatedPayloadError), size


# Values that are wrong for every setting of a kind; JSON null (None) is wrong everywhere.
WRONG = {
    "count": ["x", True, 2.5, -1, [], None],
    "real": ["x", True, -1, [], None],
    "flag": ["x", 1, 0, [], None],
    "str": [True, 2.5, -1, [], 3, None],
    "list": ["x", True, 2.5, -1, [], 3, None],
    "section": ["x", True, 2.5, -1, [], 3, None],
}
FIELD_KINDS = {int: "count", float: "real", bool: "flag", str: "str"}
SECTIONS = {"attn": AttnConfig, "task": SyntheticTask, "train": TrainConfig}
LAYER = {"channels": 4, "heads": 2, "num_representatives": 2, "grid_h": 2, "grid_w": 2}
TRAIN = {"task": {"grid_h": 2, "grid_w": 2, "channels": 4, "num_clusters": 2, "num_samples": 8},
         "attn": {"heads": 2, "num_representatives": 2},
         "train": {"steps": 1, "batch_size": 4, "lr": 0.01}}
# A valid, quick config per subcommand.
VALID = {
    "gradcheck": {"attn": LAYER},
    "flops": {"n": 196, "m": 49, "c": 192, "k": 3},
    "bench": {"mechanisms": ["constant_dummy"]},
    "shift": {"attn": {"channels": 8, "heads": 2, "num_representatives": 4}, "image_size": 16,
              "image_channels": 4, "num_blobs": 2, "pool_grid": [2, 2], "shifts": [0, 1],
              "seeds": [0]},
    "train": TRAIN,
    "ablate": {**TRAIN, "variants": ["full"]},
    "emcheck": {},
    "maps": {"attn": LAYER},
}


def _kind(default, rule):
    if rule is cli._section:
        return "section"
    if isinstance(default, list):
        return "list"
    if isinstance(default, float):
        return "real"
    return "str" if rule is cli._path else "count"


# (subcommand, section or None, key, kind): every table key and every section field.
SETTINGS = [(command, None, key, _kind(default, rule))
            for command, table in cli.TABLES.items()
            for key, (default, rule) in table.items()]
SETTINGS += [(command, key, f.name, FIELD_KINDS[f.type])
             for command, section, key, kind in SETTINGS if kind == "section"
             for f in fields(SECTIONS[key])]


@settings(max_examples=300)
@given(setting=st.sampled_from(SETTINGS), data=st.data())
def test_cli_rejects_a_wrong_value_by_name(tmp_path_factory, setting, data):
    # One wrong value anywhere in a config is a config error (exit 2) that
    # names the key, found before any work runs; never a traceback.
    command, section, key, kind = setting
    value = data.draw(st.sampled_from(WRONG[kind]), label="value")
    cfg = json.loads(json.dumps(VALID[command]))
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([command, "--config", str(path), "--out", str(tmp / "out")])
    assert rc == 2, (cfg, err.getvalue())
    assert key in err.getvalue() and "Traceback" not in err.getvalue()

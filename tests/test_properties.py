"""Property-based tests under the deterministic hypothesis profile of conftest.py."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpattn import kernels  # noqa: E402
from rpattn.attention import AttnConfig, init_params, rpattention_forward  # noqa: E402
from rpattn.grad import _attention_backward, finite_diff_grad  # noqa: E402


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

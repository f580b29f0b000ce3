"""Property-based tests under the deterministic hypothesis profile of conftest.py."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpattn import kernels  # noqa: E402
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

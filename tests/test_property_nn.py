"""Property-based tests (hypothesis) for the autograd engine.

Every sampled computation graph must satisfy: autograd gradient ==
central-difference gradient. This is the load-bearing invariant of
`repro.nn` — if it holds for arbitrary shapes and op chains, GAN training
gradients are trustworthy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F
from tests.lstm_oracle import lstm_cell
from tests.test_nn_tensor import numerical_gradient

_settings = settings(max_examples=25, deadline=None)


def small_arrays(min_side=1, max_side=4, max_dims=2):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=max_dims,
                               min_side=min_side, max_side=max_side),
        elements=st.floats(-2.0, 2.0, allow_nan=False),
    )


def assert_gradient_matches(build_loss, array, tolerance=1e-5):
    tensor = Tensor(array, requires_grad=True)
    build_loss(tensor).backward()
    numeric = numerical_gradient(
        lambda: float(build_loss(Tensor(array)).data), array
    )
    assert tensor.grad == pytest.approx(numeric, abs=tolerance)


class TestElementwiseProperties:
    @_settings
    @given(small_arrays())
    def test_tanh_gradient(self, array):
        assert_gradient_matches(lambda x: x.tanh().sum(), array)

    @_settings
    @given(small_arrays())
    def test_sigmoid_gradient(self, array):
        assert_gradient_matches(lambda x: x.sigmoid().sum(), array)

    @_settings
    @given(small_arrays())
    def test_exp_gradient(self, array):
        assert_gradient_matches(lambda x: x.exp().sum(), array, tolerance=1e-4)

    @_settings
    @given(small_arrays())
    def test_square_gradient(self, array):
        assert_gradient_matches(lambda x: (x ** 2.0).sum(), array)

    @_settings
    @given(small_arrays())
    def test_chained_composite_gradient(self, array):
        assert_gradient_matches(
            lambda x: (x.tanh() * x.sigmoid() + x).mean(), array
        )


class TestBroadcastProperties:
    @_settings
    @given(
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-2, 2)),
        hnp.arrays(np.float64, (4,), elements=st.floats(-2, 2)),
    )
    def test_add_broadcast_gradients(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ((ta + tb) ** 2.0).sum().backward()
        numeric_a = numerical_gradient(
            lambda: float(((Tensor(a) + Tensor(b)) ** 2.0).sum().data), a
        )
        numeric_b = numerical_gradient(
            lambda: float(((Tensor(a) + Tensor(b)) ** 2.0).sum().data), b
        )
        assert ta.grad == pytest.approx(numeric_a, abs=1e-5)
        assert tb.grad == pytest.approx(numeric_b, abs=1e-5)

    @_settings
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_matmul_gradients_all_shapes(self, rows, inner, cols):
        rng = np.random.default_rng(rows * 16 + inner * 4 + cols)
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        numeric_a = numerical_gradient(
            lambda: float((Tensor(a) @ Tensor(b)).sum().data), a
        )
        assert ta.grad == pytest.approx(numeric_a, abs=1e-5)


class TestLstmCellProperty:
    @_settings
    @given(st.integers(1, 5), st.integers(1, 4))
    def test_fused_cell_gradient(self, batch, hidden):
        rng = np.random.default_rng(batch * 8 + hidden)
        gates = rng.standard_normal((batch, 4 * hidden))
        c_prev = rng.standard_normal((batch, hidden))

        tg = Tensor(gates, requires_grad=True)
        tc = Tensor(c_prev, requires_grad=True)
        h, c = lstm_cell(tg, tc)
        ((h ** 2.0).sum() + (c ** 2.0).sum()).backward()

        def loss():
            h2, c2 = lstm_cell(Tensor(gates), Tensor(c_prev))
            return float(((h2 ** 2.0).sum() + (c2 ** 2.0).sum()).data)

        assert tg.grad == pytest.approx(numerical_gradient(loss, gates),
                                        abs=1e-5)
        assert tc.grad == pytest.approx(numerical_gradient(loss, c_prev),
                                        abs=1e-5)


class TestLossProperties:
    @_settings
    @given(
        hnp.arrays(np.float64, (4, 1), elements=st.floats(-8, 8)),
        hnp.arrays(np.float64, (4, 1), elements=st.floats(0, 1)),
    )
    def test_bce_nonnegative_and_finite(self, logits, targets):
        loss = F.bce_with_logits(Tensor(logits), targets)
        assert np.isfinite(loss.item())
        assert loss.item() >= 0.0

    @_settings
    @given(hnp.arrays(np.float64, (4, 1), elements=st.floats(-8, 8)))
    def test_bce_gradient_bounded(self, logits):
        # d/dx softplus(x) - t*x = sigmoid(x) - t, always within [-1, 1];
        # divided by element count by the mean.
        tensor = Tensor(logits, requires_grad=True)
        F.bce_with_logits(tensor, np.full((4, 1), 0.5)).backward()
        assert np.all(np.abs(tensor.grad) <= 1.0)

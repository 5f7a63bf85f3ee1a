"""Tests for repro.nn.recurrent, repro.nn.optim, repro.nn.init,
repro.nn.serialization.

One LSTM step through a cell's parameters is the per-step oracle's
(``tests/lstm_oracle.py``); production scans whole layers at once.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    Adam,
    BiLSTM,
    LSTM,
    LSTMCell,
    Linear,
    Module,
    SGD,
    Tensor,
    load_state,
    save_state,
)
from repro.nn import init
from tests.lstm_oracle import cell_step
from tests.test_nn_tensor import check_gradient, numerical_gradient


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(4, 3, rng)
        h, c = cell_step(cell, Tensor(rng.standard_normal((6, 4))),
                         cell.initial_state(6))
        assert h.shape == (6, 3)
        assert c.shape == (6, 3)

    def test_forget_gate_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 3, rng)
        assert cell.bias.data[3:6] == pytest.approx(np.ones(3))
        assert cell.bias.data[:3] == pytest.approx(np.zeros(3))

    def test_parameter_gradient_check(self, rng):
        cell = LSTMCell(2, 2, rng)
        x_data = rng.standard_normal((3, 2))

        def loss_value():
            x = Tensor(x_data)
            h, c = cell_step(cell, x, cell.initial_state(3))
            return float(((h ** 2.0).sum() + (c ** 2.0).sum()).data)

        x = Tensor(x_data, requires_grad=True)
        h, c = cell_step(cell, x, cell.initial_state(3))
        ((h ** 2.0).sum() + (c ** 2.0).sum()).backward()
        numeric = numerical_gradient(loss_value, cell.weight_hh.data, 1e-6)
        assert cell.weight_hh.grad == pytest.approx(numeric, abs=1e-5)

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ConfigurationError):
            LSTMCell(0, 3, rng)


class TestLSTM:
    def test_sequence_output(self, rng):
        lstm = LSTM(3, 5, rng, num_layers=2)
        outputs = lstm(Tensor(rng.standard_normal((6, 4, 3))))
        assert outputs.shape == (6, 4, 5)

    def test_state_carries_information(self, rng):
        # The same input at t=1 must produce different output depending on
        # what was seen at t=0 — i.e. the LSTM actually has memory.
        lstm = LSTM(2, 4, rng)
        shared = rng.standard_normal((1, 2))
        run_a = lstm(Tensor(np.stack([np.ones((1, 2)), shared])))
        run_b = lstm(Tensor(np.stack([-np.ones((1, 2)), shared])))
        assert not np.allclose(run_a.data[1], run_b.data[1])

    def test_initial_state_override(self, rng):
        lstm = LSTM(2, 3, rng, num_layers=2)
        inputs = Tensor(rng.standard_normal((1, 2, 2)))
        states = [(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
                  for _ in range(2)]
        custom = lstm(inputs, states)
        default = lstm(inputs)
        assert not np.allclose(custom.data[0], default.data[0])

    def test_wrong_state_count_rejected(self, rng):
        lstm = LSTM(2, 3, rng, num_layers=2)
        with pytest.raises(ConfigurationError):
            lstm(Tensor(np.zeros((1, 1, 2))),
                 [(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))])

    def test_gradients_flow_through_time(self, rng):
        lstm = LSTM(2, 3, rng)
        inputs = Tensor(rng.standard_normal((6, 2, 2)), requires_grad=True)
        outputs = lstm(inputs)
        (outputs[-1] ** 2.0).sum().backward()  # loss only at the last step
        assert inputs.grad is not None
        assert np.abs(inputs.grad[0]).max() > 0

    def test_empty_sequence_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            LSTM(2, 3, rng)(Tensor(np.zeros((0, 1, 2))))


class TestBiLSTM:
    def test_per_step_output_width(self, rng):
        bilstm = BiLSTM(3, 4, rng)
        outputs = bilstm(Tensor(rng.standard_normal((5, 2, 3))))
        assert outputs.shape == (5, 2, 8)

    def test_final_summary_shape(self, rng):
        bilstm = BiLSTM(3, 4, rng)
        inputs = Tensor(rng.standard_normal((5, 2, 3)))
        assert bilstm.final_summary(inputs).shape == (2, 8)

    def test_backward_direction_sees_future(self, rng):
        # Changing the LAST input must change the FIRST output's backward
        # half — the defining property of bidirectionality.
        bilstm = BiLSTM(2, 3, rng)
        base = np.zeros((4, 1, 2))
        changed = base.copy()
        changed[-1] = 1.0
        out_base = bilstm(Tensor(base)).data[0]
        out_changed = bilstm(Tensor(changed)).data[0]
        assert not np.allclose(out_base[:, 3:], out_changed[:, 3:])
        # The forward half of the first step cannot see the future.
        assert np.allclose(out_base[:, :3], out_changed[:, :3])


class TestInitializers:
    def test_xavier_bound(self, rng):
        weights = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6 / 150)
        assert np.abs(weights).max() <= bound

    def test_orthogonal_is_orthogonal(self, rng):
        matrix = init.orthogonal((8, 8), rng)
        assert matrix @ matrix.T == pytest.approx(np.eye(8), abs=1e-10)

    def test_orthogonal_semi(self, rng):
        matrix = init.orthogonal((4, 8), rng)
        assert matrix @ matrix.T == pytest.approx(np.eye(4), abs=1e-10)

    def test_orthogonal_rejects_1d(self, rng):
        with pytest.raises(ConfigurationError):
            init.orthogonal((4,), rng)

    def test_zeros(self):
        assert np.all(init.zeros((3, 2)) == 0)

    def test_uniform_bound(self, rng):
        weights = init.uniform((100,), rng, bound=0.2)
        assert np.abs(weights).max() <= 0.2


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        parameter = Tensor(np.zeros(2), requires_grad=True)
        return parameter, target

    def test_sgd_converges_on_quadratic(self):
        parameter, target = self._quadratic_problem()
        optimizer = SGD([parameter], learning_rate=0.1, momentum=0.5)
        for _ in range(200):
            optimizer.zero_grad()
            loss = ((parameter - Tensor(target)) ** 2.0).sum()
            loss.backward()
            optimizer.step()
        assert parameter.data == pytest.approx(target, abs=1e-3)

    def test_adam_converges_on_quadratic(self):
        parameter, target = self._quadratic_problem()
        optimizer = Adam([parameter], learning_rate=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss = ((parameter - Tensor(target)) ** 2.0).sum()
            loss.backward()
            optimizer.step()
        assert parameter.data == pytest.approx(target, abs=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_step_is_the_written_out_formula_bitwise(self, dtype):
        rng = np.random.default_rng(9)
        shapes = [(7, 12), (12,), (3, 5, 4)]
        parameters = [Tensor(rng.standard_normal(shape), dtype=dtype,
                             requires_grad=True) for shape in shapes]
        expected = [p.data.copy() for p in parameters]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in expected]
        lr, beta1, beta2, eps = 2e-3, 0.5, 0.9, 1e-8
        optimizer = Adam(parameters, lr, beta1=beta1, beta2=beta2,
                         epsilon=eps)
        for step in range(1, 6):
            grads = [rng.standard_normal(p.shape).astype(dtype)
                     for p in parameters]
            for parameter, grad in zip(parameters, grads):
                parameter.grad = grad.copy()
            optimizer.step()
            for data, (m, v), grad in zip(expected, moments, grads):
                m *= beta1
                m += (1.0 - beta1) * grad
                v *= beta2
                v += (1.0 - beta2) * grad ** 2
                m_hat = m / (1.0 - beta1 ** step)
                v_hat = v / (1.0 - beta2 ** step)
                data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for parameter, data in zip(parameters, expected):
            assert parameter.data.dtype == dtype
            assert parameter.data.tobytes() == data.tobytes()
        for (m, v), got_m, got_v in zip(moments, optimizer._first_moment,
                                        optimizer._second_moment):
            assert got_m.tobytes() == m.tobytes()
            assert got_v.tobytes() == v.tobytes()

    def test_clip_gradients(self):
        parameter = Tensor(np.zeros(3), requires_grad=True)
        parameter.grad = np.array([3.0, 4.0, 0.0])
        optimizer = SGD([parameter], learning_rate=0.1)
        norm = optimizer.clip_gradients(1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_below_limit(self):
        parameter = Tensor(np.zeros(2), requires_grad=True)
        parameter.grad = np.array([0.3, 0.4])
        SGD([parameter], 0.1).clip_gradients(1.0)
        assert parameter.grad == pytest.approx([0.3, 0.4])

    def test_step_skips_gradless_parameters(self):
        parameter = Tensor(np.ones(2), requires_grad=True)
        Adam([parameter], 0.1).step()
        assert parameter.data == pytest.approx([1.0, 1.0])

    def test_rejects_empty_parameters(self):
        with pytest.raises(ConfigurationError):
            SGD([], 0.1)

    def test_rejects_non_grad_parameters(self):
        with pytest.raises(ConfigurationError):
            Adam([Tensor([1.0])], 0.1)

    def test_rejects_bad_learning_rate(self):
        parameter = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ConfigurationError):
            SGD([parameter], 0.0)


class TestSerialization:
    def _model(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 2, rng)

            def forward(self, x):
                return self.layer(x)

        return Net()

    def test_save_load_roundtrip(self, rng, tmp_path):
        source = self._model(rng)
        destination = self._model(np.random.default_rng(99))
        path = tmp_path / "weights.npz"
        save_state(source, path)
        load_state(destination, path)
        assert destination.layer.weight.data == pytest.approx(
            source.layer.weight.data
        )

    def test_load_rejects_architecture_mismatch(self, rng, tmp_path):
        source = self._model(rng)
        path = tmp_path / "weights.npz"
        save_state(source, path)

        class Other(Module):
            def __init__(self):
                super().__init__()
                self.different = Linear(3, 2, rng)

            def forward(self, x):
                return self.different(x)

        with pytest.raises(ConfigurationError):
            load_state(Other(), path)

    def test_load_rejects_shape_mismatch(self, rng, tmp_path):
        source = self._model(rng)
        path = tmp_path / "weights.npz"
        save_state(source, path)

        class Bigger(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 5, rng)

            def forward(self, x):
                return self.layer(x)

        with pytest.raises(ConfigurationError):
            load_state(Bigger(), path)

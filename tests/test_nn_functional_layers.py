"""Tests for repro.nn.functional and repro.nn.layers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GradientError
from repro.nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    Sequential,
    Tanh,
    Tensor,
    functional as F,
)
from tests import lstm_oracle
from tests.test_nn_tensor import check_gradient


class TestConcatStack:
    def test_concat_values(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
        out = F.concat([a, b], axis=1)
        assert out.data == pytest.approx(np.array([[1.0, 2.0, 3.0, 4.0]]))

    def test_concat_gradient(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        check_gradient(lambda x, y: (F.concat([x, y], axis=1) ** 2.0).sum(),
                       a, b)

    def test_concat_rejects_empty(self):
        with pytest.raises(GradientError):
            F.concat([])

    def test_stack_values_and_gradient(self, rng):
        a = rng.standard_normal((3,))
        b = rng.standard_normal((3,))
        out = F.stack([Tensor(a), Tensor(b)], axis=0)
        assert out.shape == (2, 3)
        check_gradient(lambda x, y: (F.stack([x, y], axis=1) ** 2.0).sum(),
                       a, b)

    def test_stack_rejects_mismatched_shapes(self):
        with pytest.raises(GradientError):
            F.stack([Tensor([1.0]), Tensor([1.0, 2.0])])


class TestEmbedding:
    def test_lookup_values(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = F.embedding(weight, np.array([2, 0]))
        assert out.data == pytest.approx(np.array([[6.0, 7.0, 8.0],
                                                   [0.0, 1.0, 2.0]]))

    def test_gradient_accumulates_repeated_rows(self):
        weight = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = F.embedding(weight, np.array([1, 1, 2]))
        out.sum().backward()
        assert weight.grad == pytest.approx(np.array([[0, 0], [2, 2], [1, 1]],
                                                     dtype=float))

    def test_rejects_out_of_range(self):
        weight = Tensor(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            F.embedding(weight, np.array([3]))

    def test_rejects_float_indices(self):
        weight = Tensor(np.zeros((3, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            F.embedding(weight, np.array([1.0]))


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out.data == pytest.approx(np.ones((4, 4)))

    def test_inverted_scaling_preserves_mean(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_gradient_masked_like_forward(self, rng):
        x = Tensor(np.ones((1000,)), requires_grad=True)
        out = F.dropout(x, 0.5, rng, training=True)
        out.sum().backward()
        # Grad is 2.0 where kept, 0.0 where dropped — matching the output.
        assert np.all((x.grad == 0) == (out.data == 0))

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(GradientError):
            F.dropout(Tensor([1.0]), 1.0, rng)


class TestLstmCellOp:
    def test_matches_composed_ops(self, rng):
        from repro.nn import LSTMCell
        cell = LSTMCell(4, 3, rng)
        x = Tensor(rng.standard_normal((5, 4)))
        state = cell.initial_state(5)
        h_fused, c_fused = lstm_oracle.cell_step(cell, x, state)
        h_ref, c_ref = lstm_oracle.cell_step_composed(cell, x, state)
        assert h_fused.data == pytest.approx(h_ref.data)
        assert c_fused.data == pytest.approx(c_ref.data)

    def test_gradient(self, rng):
        gates = rng.standard_normal((3, 8))
        c_prev = rng.standard_normal((3, 2))

        def loss(g, c):
            h, c_out = lstm_oracle.lstm_cell(g, c)
            return (h ** 2.0).sum() + (c_out ** 2.0).sum()

        check_gradient(loss, gates, c_prev, tolerance=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(GradientError):
            lstm_oracle.lstm_cell(Tensor(np.zeros((2, 7))),
                                  Tensor(np.zeros((2, 2))))
        with pytest.raises(GradientError):
            lstm_oracle.lstm_cell(Tensor(np.zeros((2, 8))),
                                  Tensor(np.zeros((3, 2))))


class TestLosses:
    def test_bce_with_logits_matches_manual(self, rng):
        logits = rng.standard_normal((6, 1))
        targets = rng.random((6, 1))
        loss = F.bce_with_logits(Tensor(logits), targets)
        probabilities = 1 / (1 + np.exp(-logits))
        manual = -(targets * np.log(probabilities)
                   + (1 - targets) * np.log(1 - probabilities)).mean()
        assert loss.item() == pytest.approx(float(manual), rel=1e-9)

    def test_bce_stable_for_extreme_logits(self):
        logits = Tensor(np.array([[100.0], [-100.0]]), requires_grad=True)
        loss = F.bce_with_logits(logits, np.array([[1.0], [0.0]]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_bce_gradient(self, rng):
        logits = rng.standard_normal((4, 1))
        targets = rng.random((4, 1))
        check_gradient(lambda x: F.bce_with_logits(x, targets), logits,
                       tolerance=1e-6)

    def test_bce_rejects_bad_targets(self):
        with pytest.raises(GradientError):
            F.bce_with_logits(Tensor([[0.0]]), np.array([[1.5]]))
        with pytest.raises(GradientError):
            F.bce_with_logits(Tensor([[0.0]]), np.array([0.5]))


class TestLayers:
    def test_linear_forward(self, rng):
        layer = Linear(3, 2, rng)
        layer.weight.data = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer(Tensor([[1.0, 2.0, 3.0]]))
        assert out.data == pytest.approx(np.array([[1.5, 4.5]]))

    def test_linear_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_embedding_layer(self, rng):
        layer = Embedding(5, 4, rng)
        out = layer(np.array([0, 4]))
        assert out.shape == (2, 4)

    def test_dropout_module_respects_mode(self, rng):
        layer = Dropout(0.5, rng)
        x = Tensor(np.ones((100, 100)))
        layer.eval()
        assert layer(x).data == pytest.approx(np.ones((100, 100)))
        layer.train()
        assert np.any(layer(x).data == 0)

    def test_sequential_composition(self, rng):
        model = Sequential(Linear(3, 4, rng), Tanh(), Linear(4, 1, rng))
        out = model(Tensor(rng.standard_normal((5, 3))))
        assert out.shape == (5, 1)

    def test_sequential_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            Sequential()


class TestModuleProtocol:
    def _model(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.first = Linear(3, 4, rng)
                self.blocks = [Linear(4, 4, rng), Linear(4, 4, rng)]
                self.head = Linear(4, 1, rng)

            def forward(self, x):
                x = self.first(x).tanh()
                for block in self.blocks:
                    x = block(x).tanh()
                return self.head(x)

        return Net()

    def test_parameters_found_recursively(self, rng):
        model = self._model(rng)
        # 4 linears x (weight + bias) = 8 parameter tensors.
        assert len(list(model.parameters())) == 8

    def test_named_parameters_unique(self, rng):
        model = self._model(rng)
        names = [name for name, _tensor in model.named_parameters()]
        assert len(names) == len(set(names)) == 8
        assert "blocks.0.weight" in names

    def test_num_parameters(self, rng):
        model = self._model(rng)
        expected = (3 * 4 + 4) + 2 * (4 * 4 + 4) + (4 * 1 + 1)
        assert model.num_parameters() == expected

    def test_zero_grad_clears_all(self, rng):
        model = self._model(rng)
        out = model(Tensor(rng.standard_normal((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_frozen_parameters_take_no_gradient(self, rng):
        model = self._model(rng)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with model.frozen():
            assert list(model.parameters()) == []
            model(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is None for p in model.parameters())

    def test_frozen_forward_of_constants_builds_no_graph(self, rng):
        model = self._model(rng)
        x = Tensor(rng.standard_normal((2, 3)))
        expected = model(x).data
        with model.frozen():
            out = model(x)
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(out.data, expected)

    def test_frozen_restores_the_same_parameters(self, rng):
        model = self._model(rng)
        before = list(model.named_parameters())
        with model.frozen():
            with model.frozen():
                pass
            assert list(model.parameters()) == []
        assert list(model.named_parameters()) == before
        assert all(p.requires_grad for _name, p in before)

    def test_frozen_restores_after_an_exception(self, rng):
        model = self._model(rng)
        before = list(model.parameters())
        with pytest.raises(RuntimeError):
            with model.frozen():
                raise RuntimeError("boom")
        assert list(model.parameters()) == before
        assert all(p.requires_grad for p in before)

    def test_train_eval_propagates(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.dropout = Dropout(0.5, rng)

            def forward(self, x):
                return self.dropout(x)

        model = Net()
        model.eval()
        assert not model.dropout.training
        model.train()
        assert model.dropout.training

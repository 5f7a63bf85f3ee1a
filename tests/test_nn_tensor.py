"""Tests for repro.nn.tensor: autograd correctness against numerical grads."""

import numpy as np
import pytest

from repro.errors import GradientError
from repro.nn import Tensor


def numerical_gradient(func, array, epsilon=1e-6):
    """Central-difference gradient of scalar ``func()`` w.r.t. ``array``."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + epsilon
        plus = func()
        array[index] = original - epsilon
        minus = func()
        array[index] = original
        grad[index] = (plus - minus) / (2 * epsilon)
    return grad


def check_gradient(build_loss, *arrays, tolerance=1e-6):
    """Assert autograd and numerical gradients agree for every input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for tensor, array in zip(tensors, arrays):
        numeric = numerical_gradient(
            lambda: float(build_loss(*[Tensor(a) for a in arrays]).data),
            array,
        )
        assert tensor.grad == pytest.approx(numeric, abs=tolerance), (
            "gradient mismatch"
        )


class TestTensorBasics:
    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_rejects_non_scalar(self):
        with pytest.raises(GradientError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_numpy_returns_copy(self):
        x = Tensor([1.0, 2.0])
        copy = x.numpy()
        copy[0] = 99.0
        assert x.data[0] == 1.0

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_with_seed_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0]))
        assert x.grad == pytest.approx([3.0, 30.0])

    def test_gradient_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 1.0).sum().backward()
        (x * 1.0).sum().backward()
        assert x.grad == pytest.approx([2.0])

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_node_grad_counted_once_per_path(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        z = (y + y).sum()   # two paths through y
        z.backward()
        assert x.grad == pytest.approx([4.0])


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        check_gradient(lambda x, y: (x + y).sum(), a, b)

    def test_mul_broadcast(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((1, 3, 1))
        check_gradient(lambda x, y: (x * y).sum(), a, b)

    def test_sub_and_div(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 3.0
        check_gradient(lambda x, y: (x / y - y).sum(), a, b, tolerance=1e-5)

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        y = (1.0 - x) + (4.0 / x)
        y.sum().backward()
        assert x.grad == pytest.approx([-1.0 - 4.0 / 4.0])

    def test_pow(self, rng):
        a = np.abs(rng.standard_normal((4,))) + 0.5
        check_gradient(lambda x: x.pow(3.0).sum(), a, tolerance=1e-4)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).pow(np.array([2.0]))

    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu", "abs"])
    def test_elementwise_ops(self, op, rng):
        a = rng.standard_normal((5,)) + 0.1  # avoid relu/abs kink at 0
        check_gradient(lambda x: getattr(x, op)().sum(), a, tolerance=1e-5)

    def test_log(self, rng):
        a = np.abs(rng.standard_normal((5,))) + 0.5
        check_gradient(lambda x: x.log().sum(), a, tolerance=1e-5)

    def test_clip_gradient_masked(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert x.grad == pytest.approx([0.0, 1.0, 0.0])

    def test_clip_rejects_bad_bounds(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).clip(1.0, 1.0)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self, rng):
        a = rng.standard_normal((3, 4))
        check_gradient(lambda x: (x.sum(axis=0, keepdims=True) ** 2.0).sum(), a)

    def test_mean(self, rng):
        a = rng.standard_normal((4, 5))
        check_gradient(lambda x: (x.mean(axis=1) ** 2.0).sum(), a)

    def test_mean_all(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.mean().backward()
        assert x.grad == pytest.approx(np.full((2, 3), 1 / 6))

    def test_reshape(self, rng):
        a = rng.standard_normal((2, 6))
        check_gradient(lambda x: (x.reshape(3, 4) ** 2.0).sum(), a)

    def test_transpose(self, rng):
        a = rng.standard_normal((2, 3, 4))
        check_gradient(
            lambda x: (x.transpose((2, 0, 1)) ** 2.0).sum(), a
        )

    def test_getitem_scatter(self, rng):
        a = rng.standard_normal((5, 3))
        check_gradient(lambda x: (x[1:4, :2] ** 2.0).sum(), a)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x[np.array([0, 0, 1])].sum()
        y.backward()
        assert x.grad == pytest.approx([2.0, 1.0])


class TestMatmulGradients:
    def test_matrix_matrix(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_matrix_vector(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_vector_matrix(self, rng):
        a = rng.standard_normal((4,))
        b = rng.standard_normal((4, 5))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_vector_vector(self, rng):
        a = rng.standard_normal((4,))
        b = rng.standard_normal((4,))
        check_gradient(lambda x, y: x @ y, a, b)

    def test_batched_matmul(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)

    def test_broadcast_batched_matmul(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        check_gradient(lambda x, y: (x @ y).sum(), a, b)


    @pytest.mark.parametrize("shapes", [((3, 4), (4, 5)),
                                        ((2, 3, 4), (2, 4, 5)),
                                        ((2, 3, 4), (4, 5))])
    def test_guarded_backward_matches_unguarded(self, rng, shapes):
        """An operand taking no gradient skips only its own product."""
        a_data = rng.standard_normal(shapes[0])
        b_data = rng.standard_normal(shapes[1])
        seed = rng.standard_normal(np.broadcast_shapes(
            shapes[0][:-2], shapes[1][:-2]) + (shapes[0][-2], shapes[1][-1]))

        def grads(a_requires, b_requires):
            a = Tensor(a_data, requires_grad=a_requires)
            b = Tensor(b_data, requires_grad=b_requires)
            (a @ b).backward(seed)
            return a.grad, b.grad

        full_a, full_b = grads(True, True)
        only_a, none_b = grads(True, False)
        none_a, only_b = grads(False, True)
        assert none_a is None and none_b is None
        assert np.array_equal(only_a, full_a)
        assert np.array_equal(only_b, full_b)


class TestConstantResults:
    def test_constant_result_records_no_graph(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)))
        out = (x @ w).tanh().sum()
        assert not out.requires_grad
        assert out._parents == ()

    def test_result_of_a_requiring_operand_keeps_its_graph(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        hidden = x @ w
        assert hidden.requires_grad
        assert hidden._parents == (x, w)
        hidden.tanh().sum().backward()
        assert w.grad is not None and x.grad is None


class TestCompositeGraphs:
    def test_mlp_like_graph(self, rng):
        w1 = rng.standard_normal((4, 8))
        w2 = rng.standard_normal((8, 1))
        x = rng.standard_normal((10, 4))

        def loss(a, b, c):
            hidden = (a @ b).tanh()
            return ((hidden @ c).sigmoid() ** 2.0).mean()

        check_gradient(loss, x, w1, w2, tolerance=1e-5)

    def test_diamond_dependency(self, rng):
        a = rng.standard_normal((3,))
        check_gradient(lambda x: (x.tanh() * x.sigmoid()).sum(), a,
                       tolerance=1e-5)

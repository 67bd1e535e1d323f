"""Tests for the autograd engine: gradients are checked against finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Tensor


def numerical_gradient(function, value, eps=1e-6):
    """Central finite-difference gradient of a scalar-valued ``function``."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        index = it.multi_index
        plus = value.copy()
        plus[index] += eps
        minus = value.copy()
        minus[index] -= eps
        grad[index] = (function(plus) - function(minus)) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build, value, rtol=1e-5, atol=1e-7):
    """Compare autograd and numerical gradients for a scalar graph output."""
    tensor = Tensor(value, requires_grad=True)
    output = build(tensor)
    output.backward()
    numeric = numerical_gradient(lambda v: float(build(Tensor(v, requires_grad=True)).data), value)
    np.testing.assert_allclose(tensor.grad, numeric, rtol=rtol, atol=atol)


class TestElementwiseOps:
    def test_add_mul_grad(self):
        value = np.random.default_rng(0).normal(size=(3, 4))
        check_gradient(lambda t: ((t * 2.0 + 1.0) * t).sum(), value)

    def test_sub_div_grad(self):
        value = np.random.default_rng(1).normal(size=(3, 3)) + 3.0
        check_gradient(lambda t: ((t - 0.5) / (t + 2.0)).sum(), value)

    def test_pow_grad(self):
        value = np.abs(np.random.default_rng(2).normal(size=(4,))) + 0.1
        check_gradient(lambda t: (t ** 3).sum(), value)

    def test_relu_grad(self):
        value = np.random.default_rng(3).normal(size=(5, 2)) + 0.05
        check_gradient(lambda t: t.relu().sum(), value)

    def test_sigmoid_tanh_exp_log_grad(self):
        value = np.abs(np.random.default_rng(4).normal(size=(3, 3))) + 0.5
        check_gradient(lambda t: (t.sigmoid() + t.tanh() + t.exp() * 0.01 + t.log()).sum(), value)


class TestMatmulAndShape:
    def test_matmul_grad(self):
        rng = np.random.default_rng(5)
        other = rng.normal(size=(4, 2))
        value = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), value)

    def test_matmul_grad_right_operand(self):
        rng = np.random.default_rng(6)
        left = rng.normal(size=(3, 4))
        value = rng.normal(size=(4, 2))
        check_gradient(lambda t: (Tensor(left) @ t).sum(), value)

    def test_sparse_matmul_grad(self):
        rng = np.random.default_rng(7)
        sparse = sp.random(5, 5, density=0.4, random_state=0, format="csr")
        value = rng.normal(size=(5, 3))
        check_gradient(lambda t: t.matmul_sparse(sparse).sum(), value)

    def test_transpose_reshape_grad(self):
        value = np.random.default_rng(8).normal(size=(2, 6))
        check_gradient(lambda t: (t.T.reshape(3, 4) * 2.0).sum(), value)

    def test_getitem_grad(self):
        value = np.random.default_rng(9).normal(size=(6, 3))
        index = np.array([0, 2, 4])
        check_gradient(lambda t: (t[index] ** 2).sum(), value)

    def test_concatenate_grad(self):
        rng = np.random.default_rng(10)
        other = rng.normal(size=(3, 2))
        value = rng.normal(size=(3, 4))
        check_gradient(
            lambda t: (Tensor.concatenate([t, Tensor(other, requires_grad=False)], axis=1) ** 2).sum(),
            value,
        )


class TestReductionsAndSoftmax:
    def test_mean_axis_grad(self):
        value = np.random.default_rng(11).normal(size=(4, 5))
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), value)

    def test_sum_keepdims_grad(self):
        value = np.random.default_rng(12).normal(size=(4, 5))
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), value)

    def test_log_softmax_grad(self):
        value = np.random.default_rng(13).normal(size=(4, 6))
        target = np.zeros((4, 6))
        target[np.arange(4), [0, 1, 2, 3]] = 1.0
        check_gradient(lambda t: -(t.log_softmax(axis=1) * Tensor(target)).sum(), value)

    def test_broadcast_add_bias_grad(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(5, 3))
        value = rng.normal(size=(3,))
        check_gradient(lambda t: ((Tensor(data) + t) ** 2).sum(), value)


class TestBackwardSemantics:
    def test_backward_on_non_scalar_requires_grad_argument(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_gradient_accumulates_across_uses(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        out = tensor * 3.0 + tensor * 4.0
        out.backward()
        assert tensor.grad[0] == pytest.approx(7.0)

    def test_detach_stops_gradients(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        out = (tensor.detach() * 3.0).sum()
        assert not out.requires_grad

    def test_diamond_graph_gradient(self):
        tensor = Tensor(np.array([3.0]), requires_grad=True)
        a = tensor * 2.0
        b = tensor * 5.0
        out = (a * b).sum()  # d/dx (10 x^2) = 20 x
        out.backward()
        assert tensor.grad[0] == pytest.approx(60.0)


class _UfuncCounter(np.ndarray):
    """An ndarray view that counts the ufunc calls it takes part in."""

    calls: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _UfuncCounter.calls[ufunc] = _UfuncCounter.calls.get(ufunc, 0) + 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _UfuncCounter) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _counted(*tensors):
    for tensor in tensors:
        tensor.data = tensor.data.view(_UfuncCounter)


class TestConstantOperandsGetNoGradient:
    """A backward computes no product for an operand that needs no gradient."""

    def test_matmul_with_constant_input_computes_one_product(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)))
        weight = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        _counted(x, weight)
        out = (x @ weight).sum()
        _UfuncCounter.calls = {}
        out.backward()
        assert _UfuncCounter.calls.get(np.matmul) == 1
        np.testing.assert_array_equal(
            weight.grad, x.data.view(np.ndarray).T @ np.ones((5, 4)))
        assert x.grad is None

    def test_mul_by_constant_mask_computes_one_product(self):
        rng = np.random.default_rng(1)
        hidden = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = Tensor((rng.random((4, 3)) < 0.5) * 2.0)
        _counted(hidden, mask)
        out = (hidden * mask).sum()
        _UfuncCounter.calls = {}
        out.backward()
        assert _UfuncCounter.calls.get(np.multiply) == 1
        np.testing.assert_array_equal(hidden.grad, mask.data.view(np.ndarray))
        assert mask.grad is None

    @pytest.mark.parametrize("op", ["add", "mul", "div", "matmul"])
    def test_gradients_match_with_either_operand_constant(self, op):
        rng = np.random.default_rng(2)
        left, right = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)) + 3.0
        apply = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b,
                 "div": lambda a, b: a / b, "matmul": lambda a, b: a @ b}[op]
        both = [Tensor(left, requires_grad=True),
                Tensor(right, requires_grad=True)]
        apply(*both).sum().backward()
        for constant in (0, 1):
            pair = [Tensor(left, requires_grad=True),
                    Tensor(right, requires_grad=True)]
            pair[constant].requires_grad = False
            apply(*pair).sum().backward()
            assert pair[constant].grad is None
            trained = 1 - constant
            np.testing.assert_array_equal(pair[trained].grad, both[trained].grad)

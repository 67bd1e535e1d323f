"""Reverse-mode automatic differentiation on numpy arrays.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it in a dynamic computation graph.  Calling :meth:`Tensor.backward`
on a scalar result accumulates gradients into every ``requires_grad`` leaf.

Only the operations required by the models in this repository are implemented
(dense matmul, element-wise arithmetic, relu/tanh/sigmoid/exp/log, reductions,
indexing, concatenation), which keeps the engine small and auditable.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    # A binary backward computes an operand's gradient only if that operand
    # requires one: for a constant (an input batch, a dropout mask) the
    # product would be discarded by _accumulate.
    def __add__(self, other) -> "Tensor":
        other = self._ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.data.shape)
                )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return self._make(data, (self, other), backward)

    def matmul_sparse(self, sparse_matrix) -> "Tensor":
        """Compute ``sparse_matrix @ self`` where ``sparse_matrix`` is a constant.

        The sparse propagation matrix is treated as data (it never requires a
        gradient), which is exactly the situation in GCN-style message
        passing: gradients flow through the dense feature operand only.
        """
        data = sparse_matrix @ self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(sparse_matrix.T @ grad)

        return self._make(np.asarray(data), (self,), backward)

    # ------------------------------------------------------------------ #
    # element-wise non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        pos = self.data >= 0
        data = np.empty_like(self.data)
        data[pos] = 1.0 / (1.0 + np.exp(-self.data[pos]))
        exp_x = np.exp(self.data[~pos])
        data[~pos] = exp_x / (1.0 + exp_x)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis)
                expanded = np.broadcast_to(grad, self.data.shape)
            self._accumulate(expanded.copy())

        return self._make(data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 1) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

        out = Tensor(data, requires_grad=any(t.requires_grad for t in tensors))
        if out.requires_grad:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # stable composite ops used by losses
    # ------------------------------------------------------------------ #
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - logsumexp
        softmax = np.exp(data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to 1 for scalar outputs; supplying it explicitly is
        required for non-scalar roots.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological ordering of the graph reachable from this tensor.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

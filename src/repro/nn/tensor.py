"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the computational substrate for every neural network in the
library (the paper's WCNN and LSTM classifiers and their simplified
theoretical variants).  It provides a :class:`Tensor` wrapper around
``numpy.ndarray`` that records a dynamic computation graph and can
back-propagate gradients through it.

Only the operations needed by the text classifiers are implemented, but each
is broadcasting-aware and exactly differentiable, which is what the attack
algorithms rely on: Algorithm 3 of the paper requires the gradient of the
classifier output with respect to the *embedding* of every input word.

Example
-------
>>> import numpy as np
>>> from repro.nn.tensor import Tensor
>>> x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([2., 4.])
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Return True when operations record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: "Tensor | np.ndarray | float | int | Sequence") -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; coerced to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: "np.ndarray | float | int | Sequence",
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------------
    # shape / dtype passthroughs
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        o = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data + o.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            o._accumulate(_unbroadcast(grad, o.data.shape))

        return Tensor._make(data, (self, o), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-(other if isinstance(other, Tensor) else Tensor(_as_array(other))))

    def __rsub__(self, other) -> "Tensor":
        return Tensor(_as_array(other)) + (-self)

    def __mul__(self, other) -> "Tensor":
        o = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data * o.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * o.data, self.data.shape))
            o._accumulate(_unbroadcast(grad * self.data, o.data.shape))

        return Tensor._make(data, (self, o), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        o = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data / o.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / o.data, self.data.shape))
            o._accumulate(_unbroadcast(-grad * self.data / (o.data**2), o.data.shape))

        return Tensor._make(data, (self, o), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        o = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data @ o.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if o.data.ndim == 1:
                    ga = np.multiply.outer(grad, o.data) if grad.ndim else grad * o.data
                else:
                    ga = grad @ np.swapaxes(o.data, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(ga), self.data.shape))
            if o.requires_grad:
                if self.data.ndim == 1:
                    if grad.ndim == 0:
                        gb = self.data * grad
                    else:
                        gb = np.multiply.outer(self.data, grad)
                else:
                    a = self.data
                    g = grad
                    if g.ndim == 1:
                        g = g[..., None]
                        gb = np.swapaxes(a, -1, -2) @ g
                        gb = gb[..., 0]
                    else:
                        gb = np.swapaxes(a, -1, -2) @ g
                o._accumulate(_unbroadcast(np.asarray(gb), o.data.shape))

        return Tensor._make(data, (self, o), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along ``axis``; gradient flows to the (first) argmax."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        argmax = self.data.argmax(axis=axis)

        def backward(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            full = np.zeros_like(self.data)
            idx = list(np.indices(argmax.shape))
            pos = axis % self.data.ndim
            idx.insert(pos, argmax)
            full[tuple(idx)] = np.squeeze(g, axis=axis) if g.shape[axis] == 1 else g
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (axis 0) by an integer index array.

        This is the embedding-lookup primitive: the backward pass
        scatter-adds gradients into the selected rows, so repeated indices
        accumulate correctly.
        """
        idx = np.asarray(indices)
        data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # clip(x, -60, 60) without np.clip's Python-level dispatch
        data = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(self.data, -60.0), 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def clip_min(self, lo: float) -> "Tensor":
        """Elementwise ``max(x, lo)``; gradient passes where ``x > lo``."""
        data = np.maximum(self.data, lo)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > lo))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # graph traversal
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            t._accumulate(grad[tuple(sl)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * cond, a.data.shape))
        b._accumulate(_unbroadcast(grad * ~cond, b.data.shape))

    return Tensor._make(data, (a, b), backward)

"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient buffer. Differentiable
ops build new tensors that remember their parents and a backward closure;
``backward()`` on a scalar walks the recorded graph once in reverse
topological order, accumulating gradients additively so fan-out just works.
It releases each interior node just before calling its closure with the
node's gradient: a second ``backward()`` through that node raises ValueError,
and unless the caller holds the node it is freed with its output. From
CPython 3.11 the call moves the gradient in, so the closure may free it early
(Conv2d does); below 3.11 it lives until the closure returns. The leaves keep
their gradients.

The ops: ``+`` and ``*`` (with a tensor or a python scalar), ``**`` (python
scalar exponent), ``sum`` and ``reshape``; ``argmax`` and ``item`` read values
without recording. Layers and losses record their own nodes via ``from_op``.

Conventions fixed here and relied on throughout the package:
  * dtype is float32 unless float64 is requested explicitly; binary ops
    require matching dtypes (scalars adopt the tensor's dtype)
  * argmax ties resolve to the lowest index
  * forward ops never mutate their inputs
  * tensors own their storage, except the parameters of an Optimizer's
    registry: their data and first gradient are views into its flat buffers
"""

import contextlib
import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class DomainError(ValueError):
    """An op left its numeric domain: a non-finite ``**`` result, or bad loss inputs."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure-numpy forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def recording(parents) -> bool:
    """Whether an op on these parents is recorded for backward."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _as_float_dtype(dtype):
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(f"only float32/float64 tensors are supported, got {dt}")
    return dt


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "grad_view", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        dt = _as_float_dtype(np.float32 if dtype is None else dtype)
        self.data = np.array(data, dtype=dt)  # always copies: tensors own their storage
        self.requires_grad = bool(requires_grad)
        self.grad = self.grad_view = None  # an Optimizer sets grad_view: where the first gradient lands
        self._parents = ()
        self._backward = None

    @classmethod
    def from_op(cls, data: np.ndarray, parents, backward):
        """Build a non-leaf tensor. `backward(g)` must accumulate into parents."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = out.grad_view = None
        out.requires_grad = rec = recording(parents)
        out._parents, out._backward = (tuple(parents), backward) if rec else ((), None)
        return out

    # ---- introspection ----

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # ---- gradient plumbing ----

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:  # 0 + g in one pass: -0.0 -> +0.0, rounds and broadcasts like +=
            self.grad = np.add(g, 0, out=np.empty_like(self.data) if self.grad_view is None else self.grad_view)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse pass seeded with d(self)/d(self) = 1 that hands each closure its node's gradient. Scalar roots only."""
        if self.data.size != 1:
            raise ShapeError(f"backward() root must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        self.grad = np.ones_like(self.data)
        nodes = topo_order(self)
        while nodes:
            backward = nodes[-1]._backward
            if backward is None:  # a leaf: it keeps its gradient and serves the next walk
                nodes.pop()
                continue
            # release the node before its closure runs: a second walk through it raises, and
            # the walk holds it no longer, so unless the caller does it is freed with its output
            nodes[-1]._parents, nodes[-1]._backward = (), _spent
            backward(nodes.pop().grad)  # CPython >= 3.11 moves the gradient into the closure

    # ---- binary elementwise ----

    def _coerce(self, other, opname):
        """Return (other_tensor_or_None, other_data). None marks a python scalar."""
        if isinstance(other, Tensor):
            if other.dtype != self.dtype:
                raise TypeError(
                    f"{opname}: mixed dtypes {self.dtype.name} vs {other.dtype.name}"
                )
            if other.shape != self.shape:
                raise ShapeError(
                    f"{opname}: shape mismatch {self.shape} vs {other.shape}"
                )
            return other, other.data
        if isinstance(other, (int, float)):
            return None, self.dtype.type(other)
        raise TypeError(f"{opname}: unsupported operand type {type(other).__name__}")

    def __add__(self, other):
        ot, od = self._coerce(other, "add")
        out_data = self.data + od
        parents = (self,) if ot is None else (self, ot)

        def backward(g):
            self.accumulate_grad(g)
            if ot is not None:
                ot.accumulate_grad(g)

        return Tensor.from_op(out_data, parents, backward)

    __radd__ = __add__

    def __mul__(self, other):
        ot, od = self._coerce(other, "mul")
        out_data = self.data * od
        parents = (self,) if ot is None else (self, ot)
        a_data = self.data

        def backward(g):
            self.accumulate_grad(g * od)
            if ot is not None:
                ot.accumulate_grad(g * a_data)

        return Tensor.from_op(out_data, parents, backward)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("pow: exponent must be a python scalar")
        e = float(exponent)
        a_data = self.data
        out_data = a_data ** self.dtype.type(e)
        if not np.all(np.isfinite(out_data)):
            raise DomainError(f"pow: non-finite result for exponent {e}")

        def backward(g):
            if e == 0.0:
                return
            self.accumulate_grad(g * self.dtype.type(e) * a_data ** self.dtype.type(e - 1.0))

        return Tensor.from_op(out_data, (self,), backward)

    # ---- shape ----

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        new_size = math.prod(map(int, shape))  # python ints: a huge shape must not wrap around
        if new_size != self.size or any(d <= 0 for d in shape):
            raise ShapeError(f"reshape: cannot view {self.shape} as {shape}")
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            self.accumulate_grad(g.reshape(old_shape))

        return Tensor.from_op(out_data, (self,), backward)

    # ---- reductions ----

    def _check_axis(self, axis, opname):
        if axis is not None and not (-self.ndim <= axis < self.ndim):
            raise ShapeError(f"{opname}: axis {axis} out of range for shape {self.shape}")

    def sum(self, axis: int | None = None):
        self._check_axis(axis, "sum")
        shape = self.shape
        out_data = self.data.sum(axis=axis)

        def backward(g):
            if axis is None:
                self.accumulate_grad(np.broadcast_to(g, shape))
            else:
                self.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), shape))

        return Tensor.from_op(out_data, (self,), backward)

    def argmax(self, axis: int | None = None):
        """Index of the first maximum (plain ndarray/int, not differentiable)."""
        self._check_axis(axis, "argmax")
        if self.size == 0:
            raise ShapeError("argmax: empty tensor")
        if axis is None:
            return int(np.argmax(self.data))
        return np.argmax(self.data, axis=axis)


def _spent(g) -> None:
    raise ValueError("backward() through a graph that an earlier backward() already walked and released")


def topo_order(root: Tensor) -> list:
    """The recorded graph under root, each node after every tensor it depends on,
    so one reversed walk sees each node's output gradient fully accumulated."""
    # iterative post-order DFS: robust against deep op chains
    nodes: list[Tensor] = []
    visited: set[int] = {id(root)}
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, child_i = stack[-1]
        if child_i < len(node._parents):
            stack[-1] = (node, child_i + 1)
            child = node._parents[child_i]
            if child.requires_grad and id(child) not in visited:
                visited.add(id(child))
                stack.append((child, 0))
        else:
            stack.pop()
            nodes.append(node)
    return nodes

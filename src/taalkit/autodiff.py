"""Small reverse-mode automatic differentiation engine with higher-order support.

Every primitive's backward rule is itself written in terms of ``Tensor``
operations, so the gradients returned by :func:`grad` are ordinary graph
nodes.  Calling :func:`grad` on an expression that already contains
gradients therefore differentiates through them, which is what the
second-order meta-update needs: the outer loss is a function of inner-loop
gradient steps, and its exact derivative has to flow through those steps.

The engine is deliberately tiny: float64 numpy arrays, a dozen primitives,
no views, no in-place ops.  Everything a two-layer tanh network with a
softmax cross-entropy loss needs, and nothing else.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Vjp = Callable[["Tensor"], tuple["Tensor | None", ...]]


class Tensor:
    """A float64 array plus the recipe for back-propagating through it."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_needs")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Vjp | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp
        self._needs = self.requires_grad or any(p._needs for p in _parents)

    # --- introspection ---

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
        return self.data.item()

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flags})"

    # --- graph control ---

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # --- arithmetic ---

    def __add__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out = Tensor(
            self.data + other.data,
            _parents=(self, other),
            _vjp=lambda g: (_sum_to(g, self.shape), _sum_to(g, other.shape)),
        )
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        a, b = self, other
        return Tensor(
            a.data * b.data,
            _parents=(a, b),
            _vjp=lambda g: (_sum_to(g * b, a.shape), _sum_to(g * a, b.shape)),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor(-self.data, _parents=(self,), _vjp=lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        return self + (-ensure_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return ensure_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        return self * ensure_tensor(other).recip()

    def __rtruediv__(self, other) -> "Tensor":
        return ensure_tensor(other) * self.recip()

    def __pow__(self, exponent: float) -> "Tensor":
        c = float(exponent)
        x = self
        return Tensor(
            x.data**c,
            _parents=(x,),
            _vjp=lambda g: (g * (c * x ** (c - 1.0)),),
        )

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        a, b = self, other
        return Tensor(
            a.data @ b.data,
            _parents=(a, b),
            _vjp=lambda g: (g @ b.T, a.T @ g),
        )

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ValueError("transpose supports 2-D tensors only")
        return Tensor(self.data.T, _parents=(self,), _vjp=lambda g: (g.T,))

    # --- elementwise functions ---

    def recip(self) -> "Tensor":
        out = Tensor(1.0 / self.data, _parents=(self,))
        out._vjp = lambda g: (-g * out * out,)
        return out

    def exp(self) -> "Tensor":
        out = Tensor(np.exp(self.data), _parents=(self,))
        out._vjp = lambda g: (g * out,)
        return out

    def log(self) -> "Tensor":
        x = self
        return Tensor(np.log(x.data), _parents=(x,), _vjp=lambda g: (g / x,))

    def tanh(self) -> "Tensor":
        out = Tensor(np.tanh(self.data), _parents=(self,))
        out._vjp = lambda g: (g * (1.0 - out * out),)
        return out

    def clip_min_const(self, lower: float) -> "Tensor":
        """Elementwise max with a constant; gradient passes only where unclipped."""
        mask = Tensor((self.data > lower).astype(np.float64))
        return Tensor(
            np.maximum(self.data, lower),
            _parents=(self,),
            _vjp=lambda g: (g * mask,),
        )

    # --- shape functions ---

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor(
            self.data.reshape(shape),
            _parents=(self,),
            _vjp=lambda g: (g.reshape(old),),
        )

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        old = self.shape
        return Tensor(
            np.broadcast_to(self.data, shape).copy(),
            _parents=(self,),
            _vjp=lambda g: (_sum_to(g, old),),
        )

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        x = self
        shape = x.shape

        def vjp(g: "Tensor") -> tuple["Tensor"]:
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(shape) for a in axes)
                kept = [1 if i in axes else d for i, d in enumerate(shape)]
                g = g.reshape(kept)
            return (g.broadcast_to(shape),)

        return Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,), _vjp=vjp)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        total = self.sum(axis=axis, keepdims=keepdims)
        return total * (total.size / self.size)

    def max_const(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum along an axis, detached from the graph (piecewise constant)."""
        return Tensor(self.data.max(axis=axis, keepdims=keepdims))


def ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros(t.shape))


def _sum_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a gradient back to ``shape`` after numpy-style broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (have, want) in enumerate(zip(g.shape, shape)) if want == 1 and have != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._needs:
                stack.append((p, False))
    return order


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Tensor | None = None,
    create_graph: bool = False,
) -> list[Tensor]:
    """Gradients of ``output`` with respect to each tensor in ``inputs``.

    With ``create_graph=True`` the returned tensors stay attached to the
    graph, so they can be differentiated again; otherwise they are detached
    constants.  Inputs that ``output`` does not depend on get zeros.
    """
    if grad_output is None:
        if output.size != 1:
            raise ValueError("grad of a non-scalar output needs an explicit grad_output")
        grad_output = Tensor(np.ones(output.shape))
    gmap: dict[int, Tensor] = {id(output): grad_output}
    for node in reversed(_toposort(output)):
        g = gmap.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent._needs:
                continue
            held = gmap.get(id(parent))
            gmap[id(parent)] = pg if held is None else held + pg
    results = []
    for inp in inputs:
        g = gmap.get(id(inp))
        if g is None:
            g = zeros_like(inp)
        results.append(g if create_graph else g.detach())
    return results


# --- composite functions ----------------------------------------------------


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp.

    The subtracted maximum is detached, which is derivative-exact at every
    order: writing f(x, c) = c + log(sum(exp(x - c))), df/dc is identically
    zero, so dropping the dependence of c on x loses nothing.
    """
    c = t.max_const(axis=axis, keepdims=True)
    shifted = (t - c).exp().sum(axis=axis, keepdims=True).log() + c
    if keepdims:
        return shifted
    new_shape = tuple(d for i, d in enumerate(t.shape) if i != axis % t.ndim)
    return shifted.reshape(new_shape)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    return t - logsumexp(t, axis=axis, keepdims=True)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(t, axis=axis).exp()

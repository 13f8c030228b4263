"""Small reverse-mode automatic differentiation engine with higher-order support.

Every primitive's backward rule is written once and runs in two modes,
picked by the type of the gradient it receives.  Under
``grad(..., create_graph=True)`` the gradient is a ``Tensor`` and the rule
records ``Tensor`` operations, so the gradients returned are ordinary graph
nodes: calling :func:`grad` on an expression that already contains them
differentiates through them, which is what the second-order meta-update
needs (the outer loss is a function of inner-loop gradient steps, and its
exact derivative has to flow through those steps).  Without
``create_graph`` the gradient is a bare float64 array and the rule runs the
same numpy operations, in the same order, on the operands' arrays: no
``Tensor`` is built until :func:`grad` wraps its results as fresh leaves,
and the results are bitwise those of the graph mode.

The engine is deliberately tiny: float64 numpy arrays, a few primitives,
no views, no in-place ops.  Everything a two-layer tanh network needs, and
the few operations the loss's backward rule is written in; the loss itself
(``surrogate.wce_loss``) is one node with its own rule, built like the
primitives here.  ``@`` broadcasts over leading axes like ``np.matmul``, so
a stack of tasks with a leading task axis runs through one graph instead of
one graph per task.

Nodes whose backward rule needs their own output (``exp``, ``tanh``,
``recip``) hold it through a weak reference: a closure over the node itself
would make every graph a reference cycle, freed only by the cyclic garbage
collector.  The node is alive whenever its rule runs, because ``grad`` holds
it.  With ``create_graph`` the gradient nodes the rule builds hold it after
that through their ``_parents``; without it the rule reads only its
``.data`` and nothing it returns refers to the node.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Sequence

import numpy as np

# A gradient flowing through a backward rule: a graph node under
# ``grad(..., create_graph=True)``, a bare float64 array otherwise.
Gradient = "Tensor | np.ndarray"
Vjp = Callable[[Gradient], tuple["Gradient | None", ...]]

# Creation order of tensors.  A node is always created after its parents, so
# a node older than a tensor cannot depend on it.
_next_index = itertools.count().__next__


class Tensor:
    """A float64 array plus the recipe for back-propagating through it."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_needs", "_index", "__weakref__")

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
        needs = self.requires_grad
        for p in _parents:
            needs = needs or p._needs
        self._needs = needs
        self._index = _next_index()

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

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flags})"

    # --- arithmetic ---

    def __add__(self, other) -> "Tensor":
        a, b = self, ensure_tensor(other)
        return Tensor(
            a.data + b.data,
            _parents=(a, b),
            _vjp=lambda g: (
                _sum_to(g, a.shape) if a._needs else None,
                _sum_to(g, b.shape) if b._needs else None,
            ),
        )

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        a, b = self, ensure_tensor(other)
        return Tensor(
            a.data * b.data,
            _parents=(a, b),
            _vjp=lambda g: (
                _sum_to(g * _like(g, b), a.shape) if a._needs else None,
                _sum_to(g * _like(g, a), b.shape) if b._needs else None,
            ),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor(-self.data, _parents=(self,), _vjp=lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        a, b = self, ensure_tensor(other)
        return Tensor(
            a.data - b.data,
            _parents=(a, b),
            _vjp=lambda g: (
                _sum_to(g, a.shape) if a._needs else None,
                -_sum_to(g, b.shape) if b._needs else None,
            ),
        )

    def __rsub__(self, other) -> "Tensor":
        return ensure_tensor(other) - self

    def __matmul__(self, other) -> "Tensor":
        """Matrix product over the last two axes, broadcasting leading axes."""
        other = ensure_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul needs operands of at least 2 dimensions")
        a, b = self, other
        return Tensor(
            a.data @ b.data,
            _parents=(a, b),
            _vjp=lambda g: (
                _sum_to(g @ _like(g, b).mT, a.shape) if a._needs else None,
                _sum_to(_like(g, a).mT @ g, b.shape) if b._needs else None,
            ),
        )

    @property
    def mT(self) -> "Tensor":
        """Swap the last two axes."""
        if self.ndim < 2:
            raise ValueError("transpose needs at least 2 dimensions")
        return Tensor(np.swapaxes(self.data, -1, -2), _parents=(self,), _vjp=lambda g: (g.mT,))

    # --- elementwise functions ---

    def recip(self) -> "Tensor":
        out = Tensor(1.0 / self.data, _parents=(self,))
        ref = weakref.ref(out)
        out._vjp = lambda g: (-g * _like(g, ref()) * _like(g, ref()),)
        return out

    def exp(self) -> "Tensor":
        out = Tensor(np.exp(self.data), _parents=(self,))
        ref = weakref.ref(out)
        out._vjp = lambda g: (g * _like(g, ref()),)
        return out

    def tanh(self) -> "Tensor":
        out = Tensor(np.tanh(self.data), _parents=(self,))
        ref = weakref.ref(out)
        out._vjp = lambda g: (g * (1.0 - _like(g, ref()) * _like(g, ref())),)
        return out

    # --- shape functions ---

    def reshape(self, shape: tuple[int, ...] | list[int]) -> "Tensor":
        old = self.shape
        return Tensor(
            self.data.reshape(shape),
            _parents=(self,),
            _vjp=lambda g: (g.reshape(old),),
        )

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        old = self.shape
        return Tensor(_filled(shape, self.data), _parents=(self,), _vjp=lambda g: (_sum_to(g, old),))

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        x = self
        shape = x.shape

        def vjp(g: Gradient) -> tuple[Gradient]:
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % len(shape) for a in axes)
                kept = [1 if i in axes else d for i, d in enumerate(shape)]
                g = g.reshape(kept)
            return (g.broadcast_to(shape) if isinstance(g, Tensor) else _filled(shape, g),)

        return Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,), _vjp=vjp)


def ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros(t.shape))


def _like(g: Gradient, x: Tensor) -> Gradient:
    """Operand ``x`` of a backward rule, in the mode of its gradient ``g``:
    the node itself when the rule records a graph, its array when not."""
    return x if isinstance(g, Tensor) else x.data


def _filled(shape: tuple[int, ...], value) -> np.ndarray:
    """A fresh array of ``shape`` holding ``value`` broadcast to it.

    Not an ``np.broadcast_to`` view: that is read-only, and ``np.matmul``
    rounds differently on its zero strides, so the bare backward pass would
    no longer match the graph one bit for bit.
    """
    out = np.empty(shape)
    out[...] = value
    return out


def _sum_to(g: Gradient, shape: tuple[int, ...]) -> Gradient:
    """Reduce a gradient back to ``shape`` after numpy-style broadcasting."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, want in enumerate(shape) if want == 1 and g.shape[lead + i] != 1
    )
    g = g.sum(axis=axes)
    return g if g.shape == shape else g.reshape(shape)


def _toposort(root: Tensor, inputs: Sequence[Tensor]) -> tuple[list[Tensor], set[Tensor]]:
    """Nodes between ``root`` and ``inputs``, parents first, and the set of
    those nodes and the inputs that need a gradient."""
    # Tensors hash by identity, so they key the sets and dicts directly.
    live = {t for t in inputs if t._needs}
    floor = min((t._index for t in live), default=float("inf"))
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if not live.isdisjoint(node._parents):  # parents come first
                order.append(node)
                live.add(node)
            continue
        if node in seen or node._index < floor:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._needs and p not in seen:
                stack.append((p, False))
    return order, live


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Tensor | None = None,
    create_graph: bool = False,
) -> list[Tensor]:
    """Gradients of ``output`` with respect to each tensor in ``inputs``.

    With ``create_graph=True`` the returned tensors stay attached to the
    graph, so they can be differentiated again.  Otherwise the backward
    rules run on bare arrays and record nothing, and each result is a new
    leaf constant with the values the graph mode would give.  Inputs that
    ``output`` does not depend on get zeros.

    Back-propagation runs only through the nodes between ``output`` and
    the inputs: an inner-loop step asks for the gradient at the current
    parameters, and the earlier steps those were computed from take no
    part in it.  Nodes older than every input that needs a gradient are
    not even visited, so a step's sort does not grow with earlier steps.
    """
    if grad_output is None:
        if output.size != 1:
            raise ValueError("grad of a non-scalar output needs an explicit grad_output")
        grad_output = Tensor(np.ones(output.shape))
    order, live = _toposort(output, inputs)
    gmap: dict[Tensor, Gradient] = {output: grad_output if create_graph else grad_output.data}
    for node in reversed(order):
        g = gmap.get(node)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or parent not in live:
                continue
            held = gmap.get(parent)
            gmap[parent] = pg if held is None else held + pg
    results = []
    for inp in inputs:
        g = gmap.get(inp)
        if g is None:
            g = zeros_like(inp)
        elif not create_graph:
            g = Tensor(g)
        results.append(g)
    return results

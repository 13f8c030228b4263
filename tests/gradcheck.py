"""Finite-difference helpers shared by the gradient tests.

Gradients are checked against central differences over a flat parameter
vector, so a head (a list of tensors) is flattened and rebuilt around the
function under test.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from taalkit.autodiff import Tensor


def central_difference(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.array(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * eps)
    return out


def param_shapes(params: Sequence[Tensor]) -> list[tuple[int, ...]]:
    """Layout descriptor of a parameter list (one shape per layer)."""
    return [tuple(p.shape) for p in params]


def flatten_params(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate parameter values into one flat float64 vector."""
    return np.concatenate([np.asarray(p.data, dtype=np.float64).ravel() for p in params])


def unflatten_params(vec: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[Tensor]:
    """Rebuild fresh leaf tensors from a flat vector and a layout."""
    vec = np.asarray(vec, dtype=np.float64)
    sizes = [int(np.prod(s)) if len(s) else 1 for s in shapes]
    if vec.size != sum(sizes):
        raise ValueError(f"vector of size {vec.size} does not fit layout {list(shapes)}")
    out, start = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(Tensor(vec[start : start + size].reshape(shape).copy(), requires_grad=True))
        start += size
    return out

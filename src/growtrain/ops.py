"""Dense float64 tensor primitives with hand-written adjoints.

Tensors are plain ``numpy.ndarray`` objects with dtype float64.  Every
differentiable operation here ships an explicit backward function; there is
no autograd tape.  The finite-difference checker at the bottom is the test
oracle the adjoints are validated against.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ParamError, ShapeError
from .rng import Rng

GELU_COEF = 0.044715
SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b with an explicit shape check."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return a @ b


def matmul_backward(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Adjoint of matmul: returns (d/da, d/db) given upstream gradient g."""
    return g @ b.T, a.T @ g


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction for overflow safety."""
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_rows_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Adjoint of softmax_rows given its output y."""
    out = g - (g * y).sum(axis=-1, keepdims=True)
    out *= y
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))).

    Powers are written as products: ``x**3`` goes through ``pow``, which is
    about 40x slower than two multiplies on float64 arrays.
    """
    inner = SQRT_2_OVER_PI * (x + GELU_COEF * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    t = np.tanh(SQRT_2_OVER_PI * (x + GELU_COEF * (x2 * x)))
    d_inner = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               eps: float = 1e-12):
    """Per-row normalization (population variance) followed by affine.

    Returns (y, cache); the cache holds the normalized rows and their
    standard deviations for ``layer_norm_backward``.  The sums divided by D
    are the reductions ``x.mean``/``x.var`` perform, bit for bit.
    """
    if eps <= 0:
        raise ParamError(f"layer_norm: eps must be > 0, got {eps}")
    D = x.shape[1]
    xhat = x - x.sum(axis=1, keepdims=True) / D
    s = np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) / D + eps)
    xhat /= s
    y = xhat * gain
    y += bias
    return y, (xhat, s)


def layer_norm_backward(g: np.ndarray, cache, gain: np.ndarray):
    """Adjoint of layer_norm given its cache; returns (dx, dgain, dbias)."""
    xhat, s = cache
    D = xhat.shape[1]
    gg = g * gain
    dgain = np.sum(g * xhat, axis=0)
    dbias = np.sum(g, axis=0)
    dx = gg - gg.sum(axis=1, keepdims=True) / D
    dx -= xhat * ((gg * xhat).sum(axis=1, keepdims=True) / D)
    dx /= s
    return dx, dgain, dbias


def dropout_mask(shape, p: float, rng: Rng, training: bool, rows=None):
    """Boolean keep-mask (True with probability 1 - p), or None when inactive.

    Equals ``rng.uniform(size=shape) >= p`` bit for bit and draws the same
    stream: a Philox double is ``(raw >> 11) * 2**-53``, so it is >= p
    exactly when ``raw >> 11 >= ceil(p * 2**53)``.  With ``rows`` the mask
    is still drawn at ``shape`` and only those indices of its second-to-last
    axis are returned, so each kept row has the bits of the full draw.
    """
    if not 0.0 <= p < 1.0:
        raise ParamError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    keep = rng.random_raw(shape) >= np.uint64(math.ceil(p * 2.0**53) << 11)
    return keep if rows is None else keep[..., rows, :]


def apply_dropout(x: np.ndarray, keep: np.ndarray, p: float, out=None) -> np.ndarray:
    """``x * (keep / (1 - p))`` bit for bit, signed zeros included; pass
    ``out=x`` to scale a fresh array in place."""
    out = np.multiply(x, 1.0 / (1.0 - p), out=out)
    out *= keep
    return out


def cross_entropy_logits(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean negative log softmax at the target indices.

    Returns (loss, analytic gradient w.r.t. logits).
    """
    targets = np.asarray(targets, dtype=np.int64)
    m, v = logits.shape
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= v:
        raise IndexError(f"cross_entropy_logits: target out of range [0, {v})")
    p = softmax_rows(logits)
    rows = np.arange(m)
    loss = float(-np.log(p[rows, targets]).mean())
    grad = p
    grad[rows, targets] -= 1.0
    grad /= m
    return loss, grad


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_diff_check(f: Callable[[np.ndarray], float], x: np.ndarray,
                      analytic_grad: np.ndarray, h: float = 1e-5) -> float:
    """Max over elements of |fd - analytic| / max(1, |fd|, |analytic|)."""
    if h <= 0:
        raise ParamError(f"finite_diff_check: h must be > 0, got {h}")
    fd = finite_diff_grad(f, x.copy(), h)
    denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(analytic_grad)))
    return float(np.max(np.abs(fd - analytic_grad) / denom))

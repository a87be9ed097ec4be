"""Dense float64 tensor primitives with hand-written adjoints.

Tensors are plain ``numpy.ndarray`` objects with dtype float64.  Every
differentiable operation here ships an explicit backward function; there is
no autograd tape.  The finite-difference checker at the bottom is the test
oracle the adjoints are validated against.

The kernels allocate only their results and the few working arrays they
write in place, and ``softmax_rows``, ``softmax_rows_backward`` and
``apply_dropout`` take ``out=`` for a caller whose input is dead after the
call.  No kernel writes an input it was not given as ``out``.  The in-place
steps keep the operations and operand order of the plain expressions (up
to commuting one + or *), so the results have the same bits.
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


def softmax_rows(x: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis with max subtraction for overflow safety.

    ``out`` receives the result; pass ``out=x`` when x is dead after the
    call, and the softmax runs in place with the same bits.
    """
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_rows_backward(g: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Adjoint of softmax_rows given its output y; ``out=g`` reuses the
    upstream gradient's buffer."""
    out = np.subtract(g, (g * y).sum(axis=-1, keepdims=True), out=out)
    out *= y
    return out


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi)(x + 0.044715 x^3)) in one fresh array, its steps in
    place in the formula's order.  Powers are written as products: ``x**3``
    goes through ``pow``, which is about 40x slower than two multiplies on
    float64 arrays.  A 0-d input gives a 0-d array."""
    t = np.multiply(x, x, out=np.empty(np.shape(x)))
    t *= x
    t *= GELU_COEF
    t += x
    t *= SQRT_2_OVER_PI
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi)(x + 0.044715 x^3))),
    in two working arrays."""
    t = _gelu_tanh(x)
    t += 1.0
    out = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    out *= t
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d gelu / dx: 0.5 (1 + t) + 0.5 x (1 - t^2) d_inner, with t the tanh
    of the forward pass and d_inner = sqrt(2/pi)(1 + 3 * 0.044715 x^2).

    Three working arrays, in the formula's order; x * x is formed twice
    rather than kept in a fourth array.
    """
    t = _gelu_tanh(x)
    b = np.multiply(t, t, out=np.empty(np.shape(x)))
    np.subtract(1.0, b, out=b)
    half_x = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    half_x *= b
    b = np.multiply(x, x, out=b)
    b *= 3.0 * GELU_COEF
    b += 1.0
    b *= SQRT_2_OVER_PI
    half_x *= b
    t += 1.0
    t *= 0.5
    t += half_x
    return t


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               eps: float = 1e-12):
    """Per-row normalization (population variance) followed by affine.

    Returns (y, cache); the cache holds the normalized rows and their
    standard deviations for ``layer_norm_backward``.  The sums divided by D
    are the reductions ``x.mean``/``x.var`` perform, bit for bit.  y is
    written into the buffer of the squared deviations.
    """
    if eps <= 0:
        raise ParamError(f"layer_norm: eps must be > 0, got {eps}")
    D = x.shape[1]
    xhat = x - x.sum(axis=1, keepdims=True) / D
    y = xhat * xhat
    s = np.sqrt(y.sum(axis=1, keepdims=True) / D + eps)
    xhat /= s
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, (xhat, s)


def layer_norm_backward(g: np.ndarray, cache, gain: np.ndarray):
    """Adjoint of layer_norm given its cache; returns (dx, dgain, dbias).

    dx is built in the buffer of g * gain, with one more working array.
    """
    xhat, s = cache
    D = xhat.shape[1]
    gg = g * gain
    tmp = g * xhat
    dgain = tmp.sum(axis=0)
    dbias = np.sum(g, axis=0)
    np.multiply(gg, xhat, out=tmp)
    proj = tmp.sum(axis=1, keepdims=True) / D
    gg -= gg.sum(axis=1, keepdims=True) / D
    gg -= np.multiply(xhat, proj, out=tmp)
    gg /= s
    return gg, dgain, dbias


def dropout_mask(shape, p: float, rng: Rng, training: bool):
    """Boolean keep-mask (True with probability 1 - p), or None when inactive.

    Equals ``rng.uniform(size=shape) >= p`` bit for bit and draws the same
    stream: a Philox double is ``(raw >> 11) * 2**-53``, so it is >= p
    exactly when ``raw >> 11 >= ceil(p * 2**53)``.  It consumes exactly
    ``prod(shape)`` words, so a caller draws at the shape it computes.
    """
    if not 0.0 <= p < 1.0:
        raise ParamError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    return rng.random_raw(shape) >= np.uint64(math.ceil(p * 2.0**53) << 11)


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

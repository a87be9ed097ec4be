import math

import numpy as np
import numpy.testing as npt
import pytest

from growtrain import ops
from growtrain.errors import ParamError, ShapeError
from growtrain.rng import Rng


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(ops.matmul(a, np.eye(2)), a)

    def test_hand_arithmetic(self):
        out = ops.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        npt.assert_array_equal(out, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ops.matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_adjoint_vs_finite_differences(self):
        rng = Rng(0)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        g = rng.uniform(-1, 1, (3, 2))
        ga, gb = ops.matmul_backward(g, a, b)
        err_a = ops.finite_diff_check(lambda x: float((ops.matmul(x, b) * g).sum()), a, ga)
        err_b = ops.finite_diff_check(lambda x: float((ops.matmul(a, x) * g).sum()), b, gb)
        assert err_a <= 1e-6 and err_b <= 1e-6


class TestSoftmaxRows:
    def test_symmetry(self):
        npt.assert_allclose(ops.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_no_overflow_at_large_inputs(self):
        out = ops.softmax_rows(np.array([[1000.0, 1000.0]]))
        npt.assert_allclose(out, [[0.5, 0.5]])

    def test_direct_evaluation(self):
        out = ops.softmax_rows(np.array([[0.0, math.log(3.0)]]))
        npt.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = Rng(1)
        x = rng.uniform(-2, 2, (5, 7))
        y = ops.softmax_rows(x)
        npt.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(ops.softmax_rows(x + 3.7), y, atol=1e-12)

    def test_adjoint(self):
        rng = Rng(2)
        x = rng.uniform(-2, 2, (3, 4))
        g = rng.uniform(-1, 1, (3, 4))
        gx = ops.softmax_rows_backward(g, ops.softmax_rows(x))
        err = ops.finite_diff_check(
            lambda z: float((ops.softmax_rows(z) * g).sum()), x, gx)
        assert err <= 1e-6


class TestGelu:
    def test_zero(self):
        assert ops.gelu(np.array(0.0)) == 0.0

    def test_asymptote(self):
        assert abs(ops.gelu(np.array(10.0)) - 10.0) < 1e-6

    def test_formula_at_one(self):
        inner = math.sqrt(2 / math.pi) * (1 + 0.044715)
        expected = 0.5 * (1 + math.tanh(inner))
        npt.assert_allclose(ops.gelu(np.array(1.0)), expected, rtol=1e-15)

    def test_adjoint(self):
        x = np.array([1.0, 0.5, -0.3, 2.0])
        g = np.ones(4)
        err = ops.finite_diff_check(lambda z: float(ops.gelu(z).sum()), x,
                                    ops.gelu_grad(x) * g)
        assert err <= 1e-6


class TestLayerNorm:
    def test_zero_variance_collapses_to_bias(self):
        out, _ = ops.layer_norm(np.ones((1, 3)), np.ones(3), np.zeros(3))
        npt.assert_allclose(out, 0.0, atol=1e-5)

    def test_already_normalized(self):
        out, _ = ops.layer_norm(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2),
                                eps=1e-15)
        npt.assert_allclose(out, [[-1.0, 1.0]], atol=1e-7)

    def test_eps_must_be_positive(self):
        with pytest.raises(ParamError):
            ops.layer_norm(np.ones((1, 2)), np.ones(2), np.zeros(2), eps=0.0)

    def test_adjoint(self):
        rng = Rng(3)
        x = rng.uniform(-2, 2, (2, 4))
        gain = rng.uniform(0.5, 1.5, 4)
        bias = rng.uniform(-0.5, 0.5, 4)
        g = rng.uniform(-1, 1, (2, 4))
        _, cache = ops.layer_norm(x, gain, bias)
        dx, dgain, dbias = ops.layer_norm_backward(g, cache, gain)

        def loss(z, gn=gain, b=bias):
            return float((ops.layer_norm(z, gn, b)[0] * g).sum())

        assert ops.finite_diff_check(loss, x, dx) <= 1e-6
        assert ops.finite_diff_check(
            lambda gn: float((ops.layer_norm(x, gn, bias)[0] * g).sum()), gain,
            dgain) <= 1e-6
        assert ops.finite_diff_check(
            lambda b: float((ops.layer_norm(x, gain, b)[0] * g).sum()), bias,
            dbias) <= 1e-6


def layer_norm_by_mean_var(x, gain, bias, eps=1e-12):
    """The np.mean/np.var formulation layer_norm replaced: (y, xhat, s)."""
    mu = x.mean(axis=1, keepdims=True)
    s = np.sqrt(x.var(axis=1, keepdims=True) + eps)
    xhat = (x - mu) / s
    return xhat * gain + bias, xhat, s


@pytest.mark.parametrize("D", [1, 2, 3, 5, 8, 31, 32, 33, 64, 127, 256])
def test_layer_norm_bit_identical_to_mean_var(D):
    rng = Rng(40 + D)
    x = rng.normal(0.3, 2.0, (7, D))
    gain, bias = rng.uniform(0.5, 1.5, D), rng.uniform(-0.5, 0.5, D)
    g = rng.uniform(-1, 1, (7, D))
    y, cache = ops.layer_norm(x, gain, bias)
    ref_y, xhat, s = layer_norm_by_mean_var(x, gain, bias)
    npt.assert_array_equal(y, ref_y)
    dx, dgain, dbias = ops.layer_norm_backward(g, cache, gain)
    gg = g * gain
    ref_dx = (gg - gg.mean(axis=1, keepdims=True)
              - xhat * np.mean(gg * xhat, axis=1, keepdims=True)) / s
    npt.assert_array_equal(dx, ref_dx)
    npt.assert_array_equal(dgain, np.sum(g * xhat, axis=0))
    npt.assert_array_equal(dbias, np.sum(g, axis=0))


class TestDropout:
    """Inverted dropout as the model applies it: ``apply_dropout(x,
    dropout_mask(...), p)``, and ``x`` itself when there is no mask."""

    def test_p_zero_identity(self):
        assert ops.dropout_mask((4, 4), 0.0, Rng(0), True) is None

    def test_inference_identity(self):
        assert ops.dropout_mask((4, 4), 0.9, Rng(0), False) is None

    def test_p_at_least_one_rejected(self):
        with pytest.raises(ParamError):
            ops.dropout_mask((3,), 1.0, Rng(0), True)

    def test_mean_preserved_within_3_sigma(self):
        n = 100_000
        p = 0.5
        out = ops.apply_dropout(np.ones(n), ops.dropout_mask((n,), p, Rng(8), True), p)
        # survivor count is Binomial(n, 1-p); output mean = count/(n(1-p))
        sigma = math.sqrt(p * (1 - p) / n) / (1 - p)
        assert abs(out.mean() - 1.0) < 3 * sigma

    def test_determinism_per_seed(self):
        x = np.ones((8, 8))
        a = ops.apply_dropout(x, ops.dropout_mask(x.shape, 0.3, Rng(9).fork("d"), True), 0.3)
        b = ops.apply_dropout(x, ops.dropout_mask(x.shape, 0.3, Rng(9).fork("d"), True), 0.3)
        npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 1 / 3, 0.5, 0.9, 1 - 2.0**-53])
    @pytest.mark.parametrize("shape", [(1,), (1000,), (7, 13), (2, 128, 128), (3, 5, 4)])
    def test_mask_equals_uniform_threshold(self, p, shape):
        """The raw-bit keep-mask equals ``uniform >= p`` and leaves the
        stream where ``uniform`` leaves it."""
        a, b = Rng(21).fork("drop"), Rng(21).fork("drop")
        keep = ops.dropout_mask(shape, p, a, True)
        assert keep.dtype == bool and keep.shape == shape
        npt.assert_array_equal(keep, b.uniform(size=shape) >= p)
        npt.assert_array_equal(a.uniform(size=4), b.uniform(size=4))

    def test_mask_at_uniform_boundary(self):
        """A draw of exactly p is kept, the double just below p is not."""
        p = 0.3
        c = math.ceil(p * 2.0**53)
        raw = np.array([c << 11, (c << 11) - 1, ((c - 1) << 11) + 2047], dtype=np.uint64)

        class FixedRaw:
            def random_raw(self, size):
                return raw

        keep = ops.dropout_mask(raw.shape, p, FixedRaw(), True)
        npt.assert_array_equal(keep, (raw >> 11) * 2.0**-53 >= p)
        npt.assert_array_equal(keep, [True, False, False])

    @pytest.mark.parametrize("p", [0.1, 1 / 3, 0.9])
    def test_dropout_equals_float_mask_product(self, p):
        """``x * keep * 1/(1-p)`` equals the product with the float mask
        ``keep / (1-p)`` bit for bit, signed zeros included."""
        x = Rng(22).normal(0.0, 3.0, (6, 50))
        out = ops.apply_dropout(x, ops.dropout_mask(x.shape, p, Rng(23).fork("d"), True), p)
        keep = Rng(23).fork("d").uniform(size=x.shape) >= p
        ref = x * (keep / (1.0 - p))
        assert out.tobytes() == ref.tobytes()
        assert np.signbit(out[~keep]).any() and not np.signbit(out[~keep]).all()


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = ops.cross_entropy_logits(np.zeros((2, 4)), [0, 3])
        npt.assert_allclose(loss, math.log(4.0), rtol=1e-12)

    def test_confident_correct(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 20.0
        loss, _ = ops.cross_entropy_logits(logits, [2])
        assert loss < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ops.cross_entropy_logits(np.zeros((1, 4)), [4])

    def test_gradient_vs_finite_differences(self):
        rng = Rng(10)
        logits = rng.uniform(-2, 2, (3, 5))
        targets = [1, 4, 0]
        _, grad = ops.cross_entropy_logits(logits, targets)
        err = ops.finite_diff_check(
            lambda z: ops.cross_entropy_logits(z, targets)[0], logits, grad)
        assert err <= 1e-6


class TestFiniteDiffCheck:
    def test_quadratic_nearly_exact(self):
        x = np.array([1.0, 2.0])
        err = ops.finite_diff_check(lambda z: float((z**2).sum()), x,
                                    np.array([2.0, 4.0]))
        assert err <= 1e-8

    def test_matmul_then_sum(self):
        rng = Rng(12)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        analytic = np.ones((3, 2)) @ b.T
        err = ops.finite_diff_check(lambda z: float(ops.matmul(z, b).sum()), a,
                                    analytic)
        assert err <= 1e-6

    def test_gelu_sum_at_half(self):
        x = np.array([0.5])
        err = ops.finite_diff_check(lambda z: float(ops.gelu(z).sum()), x,
                                    ops.gelu_grad(x))
        assert err <= 1e-6

    def test_h_must_be_positive(self):
        with pytest.raises(ParamError):
            ops.finite_diff_check(lambda z: 0.0, np.ones(2), np.ones(2), h=0.0)


@pytest.mark.parametrize("seed", range(20))
def test_all_adjoints_on_random_inputs(seed):
    """Per-op adjoint vs. central finite differences, tolerance 1e-5."""
    rng = Rng(100 + seed)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 3))
    g = rng.uniform(-1, 1, (3, 3))
    ga, gb = ops.matmul_backward(g, a, b)
    assert ops.finite_diff_check(
        lambda z: float((ops.matmul(z, b) * g).sum()), a, ga) <= 1e-5
    assert ops.finite_diff_check(
        lambda z: float((ops.matmul(a, z) * g).sum()), b, gb) <= 1e-5

    x = rng.uniform(-2, 2, (3, 5))
    gs = rng.uniform(-1, 1, (3, 5))
    assert ops.finite_diff_check(
        lambda z: float((ops.softmax_rows(z) * gs).sum()), x,
        ops.softmax_rows_backward(gs, ops.softmax_rows(x))) <= 1e-5
    assert ops.finite_diff_check(
        lambda z: float((ops.gelu(z) * gs).sum()), x, ops.gelu_grad(x) * gs) <= 1e-5

    gain = rng.uniform(0.5, 1.5, 5)
    bias = rng.uniform(-0.5, 0.5, 5)
    dx, _, _ = ops.layer_norm_backward(gs, ops.layer_norm(x, gain, bias)[1], gain)
    assert ops.finite_diff_check(
        lambda z: float((ops.layer_norm(z, gain, bias)[0] * gs).sum()), x, dx) <= 1e-5


# ---------------------------------------------------------------------------
# The in-place kernels against the out-of-place formulas they replaced
# ---------------------------------------------------------------------------

def softmax_out_of_place(x):
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_backward_out_of_place(g, y):
    out = g - (g * y).sum(axis=-1, keepdims=True)
    out *= y
    return out


def gelu_out_of_place(x):
    inner = ops.SQRT_2_OVER_PI * (x + ops.GELU_COEF * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad_out_of_place(x):
    x2 = x * x
    t = np.tanh(ops.SQRT_2_OVER_PI * (x + ops.GELU_COEF * (x2 * x)))
    d_inner = ops.SQRT_2_OVER_PI * (1.0 + 3.0 * ops.GELU_COEF * x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner


def layer_norm_out_of_place(x, gain, bias, eps):
    D = x.shape[1]
    xhat = x - x.sum(axis=1, keepdims=True) / D
    s = np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) / D + eps)
    xhat /= s
    y = xhat * gain
    y += bias
    return y, (xhat, s)


def layer_norm_backward_out_of_place(g, cache, gain):
    xhat, s = cache
    D = xhat.shape[1]
    gg = g * gain
    dgain = np.sum(g * xhat, axis=0)
    dbias = np.sum(g, axis=0)
    dx = gg - gg.sum(axis=1, keepdims=True) / D
    dx -= xhat * ((gg * xhat).sum(axis=1, keepdims=True) / D)
    dx /= s
    return dx, dgain, dbias


SPECIAL = (0.0, -0.0, 1e300, -1e300, 7e150, -3e100, 1e-310, np.inf, -np.inf)
KERNEL_SHAPES = [(19, 32), (128, 64), (2, 128, 128)]
LN_EPS = 1e-12


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).reshape(-1).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    npt.assert_array_equal(bits(got), bits(want))


def with_specials(shape, seed):
    """Uniform values of magnitude up to 8 and up to 1e4, with each of
    SPECIAL spread over the array; rows between them stay finite."""
    rng = Rng(seed)
    x = rng.uniform(-8.0, 8.0, shape) * 10.0 ** rng.integers(0, 5, shape)
    flat = x.reshape(-1)
    stride = flat.size // len(SPECIAL)
    for i, v in enumerate(SPECIAL):
        flat[i * stride + i % 7] = v
    return x


def scalars():
    return [np.array(v) for v in SPECIAL + (0.5, -2.25, 40.0)]


def check_untouched(fn, *args):
    """fn(*args), asserting that no array argument changes a bit."""
    before = [bits(a).copy() for a in args]
    result = fn(*args)
    for a, b in zip(args, before):
        npt.assert_array_equal(bits(a), b)
    return result


class TestInPlaceKernelsKeepTheirBits:
    """Each kernel equals its out-of-place formula bit for bit, over shapes
    of the encoder and inputs with signed zeros, huge and subnormal values
    and infinities, and reads its inputs without writing them."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", KERNEL_SHAPES + [()])
    def test_gelu_and_gelu_grad(self, shape):
        inputs = scalars() if shape == () else [with_specials(shape, 1)]
        for x in inputs:
            assert_same_bits(check_untouched(ops.gelu, x), gelu_out_of_place(x))
            assert_same_bits(check_untouched(ops.gelu_grad, x), gelu_grad_out_of_place(x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_softmax_rows_and_backward(self, shape):
        x = with_specials(shape, 2)
        y = check_untouched(ops.softmax_rows, x)
        assert_same_bits(y, softmax_out_of_place(x))
        g = with_specials(shape, 3)
        y = ops.softmax_rows(Rng(4).uniform(-3.0, 3.0, shape))
        assert_same_bits(check_untouched(ops.softmax_rows_backward, g, y),
                         softmax_backward_out_of_place(g, y))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_softmax_out_reuses_the_argument(self, shape):
        x = with_specials(shape, 5)
        want = ops.softmax_rows(x.copy())
        out = ops.softmax_rows(x, out=x)
        assert out is x
        assert_same_bits(x, want)
        g, y = with_specials(shape, 6), ops.softmax_rows(Rng(7).uniform(-3.0, 3.0, shape))
        want = ops.softmax_rows_backward(g.copy(), y)
        assert ops.softmax_rows_backward(g, y, out=g) is g
        assert_same_bits(g, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", [s for s in KERNEL_SHAPES if len(s) == 2])
    @pytest.mark.parametrize("finite", [True, False])
    def test_layer_norm_and_backward(self, shape, finite):
        rng = Rng(8)
        D = shape[1]
        x = rng.uniform(-3.0, 3.0, shape) if finite else with_specials(shape, 9)
        gain, bias = rng.uniform(0.5, 1.5, D), rng.uniform(-0.5, 0.5, D)
        y, cache = check_untouched(ops.layer_norm, x, gain, bias, LN_EPS)
        ref_y, ref_cache = layer_norm_out_of_place(x, gain, bias, LN_EPS)
        for got, want in zip((y,) + cache, (ref_y,) + ref_cache):
            assert_same_bits(got, want)
        g = rng.uniform(-1.0, 1.0, shape) if finite else with_specials(shape, 10)
        got = check_untouched(lambda g, xhat, s, gain: ops.layer_norm_backward(
            g, (xhat, s), gain), g, *cache, gain)
        for a, b in zip(got, layer_norm_backward_out_of_place(g, cache, gain)):
            assert_same_bits(a, b)


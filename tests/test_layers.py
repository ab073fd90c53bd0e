import tracemalloc

import numpy as np
import pytest

import bct.layers
from bct.layers import (
    Activation,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    Model,
    build_backbone,
    build_cnn,
    relu,
    sigmoid,
    softmax,
)
from bct.rng import Rng
from bct.tensor import ShapeError, Tensor, no_grad

from conftest import check_gradients


def conv2d_oracle(x, w, b, stride, padding):
    """Nested-loop cross-correlation, the reference the fast path must match."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    assert c == ic
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(oc):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(ic):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[ni, ci, yi * stride + ky, xi * stride + kx]
                                    * w[oi, ci, ky, kx]
                                )
                    out[ni, oi, yi, xi] = acc + b[oi]
    return out


def maxpool_oracle(x, window, stride):
    """Window scan with first-index tie handling."""
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(ho):
                for xi in range(wo):
                    win = x[ni, ci, yi * stride : yi * stride + window, xi * stride : xi * stride + window]
                    out[ni, ci, yi, xi] = win.reshape(-1)[np.argmax(win)]
    return out


def t64(data):
    return Tensor(np.asarray(data, np.float64), requires_grad=True, dtype=np.float64)


class TestConvForward:
    def test_identity_kernel_reproduces_input(self):
        # 3x3 kernel with center 1 and zero bias maps any map to itself
        x = Rng(1).uniform(2 * 1 * 5 * 5).reshape(2, 1, 5, 5)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        conv = Conv2d(1, 1, 3, padding=1, weight=w, dtype=np.float64)
        out = conv(Tensor(x, dtype=np.float64))
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_all_ones_hand_value(self):
        # all-ones 3x3 input and kernel, no padding: single output equals 9
        conv = Conv2d(1, 1, 3, weight=np.ones((1, 1, 3, 3)), dtype=np.float64)
        out = conv(Tensor(np.ones((1, 1, 3, 3)), dtype=np.float64))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_matches_oracle_random_shapes(self):
        rng = Rng(2)
        cases = [
            (1, 1, 5, 5, 1, 3, 1, 0),
            (2, 3, 6, 6, 4, 3, 1, 1),
            (1, 2, 7, 5, 3, 3, 2, 1),
            (3, 1, 4, 4, 2, 2, 2, 0),
            (2, 4, 5, 5, 1, 5, 1, 2),
            (1, 3, 8, 8, 2, 3, 1, 0),
        ]
        for n, c, h, w, oc, k, s, p in cases:
            x = rng.uniform(n * c * h * w, -1, 1).reshape(n, c, h, w)
            wt = rng.uniform(oc * c * k * k, -1, 1).reshape(oc, c, k, k)
            b = rng.uniform(oc, -1, 1)
            conv = Conv2d(c, oc, k, stride=s, padding=p, weight=wt, bias=b, dtype=np.float64)
            got = conv(Tensor(x, dtype=np.float64)).data
            want = conv2d_oracle(x, wt, b, s, p)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_shape_errors(self):
        conv = Conv2d(3, 8, 3, weight=np.zeros((8, 3, 3, 3)))
        with pytest.raises(ShapeError):
            conv(Tensor(np.zeros((1, 4, 8, 8))))  # wrong channel count
        with pytest.raises(ShapeError):
            Conv2d(1, 1, 3, stride=2, weight=np.zeros((1, 1, 3, 3)))(
                Tensor(np.zeros((1, 1, 6, 6)))
            )  # (6-3) % 2 != 0
        with pytest.raises(ShapeError):
            conv(Tensor(np.zeros((3, 8, 8))))  # missing batch dim


class TestPoolForward:
    def test_hand_value_2x2(self):
        x = np.array([[[[1.0, 2.0, 5.0, 3.0], [4.0, 0.0, 1.0, 1.0],
                        [7.0, 2.0, 0.0, 1.0], [3.0, 8.0, 2.0, 2.0]]]])
        out = MaxPool2d(2)(Tensor(x, dtype=np.float64))
        np.testing.assert_allclose(out.data, [[[[4.0, 5.0], [8.0, 2.0]]]])

    def test_matches_oracle(self):
        rng = Rng(3)
        for n, c, h, w, k, s in [(1, 1, 4, 4, 2, 2), (2, 3, 6, 6, 2, 2), (1, 2, 5, 5, 3, 1), (2, 1, 6, 4, 2, 1)]:
            x = rng.uniform(n * c * h * w, -1, 1).reshape(n, c, h, w)
            got = MaxPool2d(k, s)(Tensor(x, dtype=np.float64)).data
            np.testing.assert_allclose(got, maxpool_oracle(x, k, s), rtol=1e-12)

    def test_window_fit_errors(self):
        with pytest.raises(ShapeError):
            MaxPool2d(2)(Tensor(np.zeros((1, 1, 5, 5))))  # odd size, stride 2
        with pytest.raises(ShapeError):
            MaxPool2d(4)(Tensor(np.zeros((1, 1, 3, 3))))  # window too big

    def test_tie_gradient_goes_to_lowest_flat_index(self):
        x = t64(np.full((1, 1, 2, 2), 3.0))
        out = MaxPool2d(2)(x)
        out.sum().backward()
        np.testing.assert_allclose(x.grad.reshape(-1), [1.0, 0.0, 0.0, 0.0])


class TestDenseAndFlatten:
    def test_dense_hand_value(self):
        # x=[1,2], W=[[1,1],[0,1]], b=0 -> y=[3,2]
        d = Dense(2, 2, weight=np.array([[1.0, 1.0], [0.0, 1.0]]), dtype=np.float64)
        out = d(Tensor([[1.0, 2.0]], dtype=np.float64))
        np.testing.assert_allclose(out.data, [[3.0, 2.0]])

    def test_flatten_row_major(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2))
        out = Flatten()(x)
        assert out.shape == (2, 12)
        np.testing.assert_array_equal(out.data[0], np.arange(12))

    def test_dense_feature_mismatch(self):
        with pytest.raises(ShapeError):
            Dense(4, 2, weight=np.zeros((2, 4)))(Tensor(np.zeros((1, 5))))


class TestActivations:
    def test_sigmoid_values(self):
        x = Tensor([0.0, 100.0, -100.0], dtype=np.float64)
        s = sigmoid(x)
        np.testing.assert_allclose(s.data, [0.5, 1.0, 0.0], atol=1e-40)
        assert np.all(np.isfinite(s.data))

    def test_relu_values_and_zero_grad_at_zero(self):
        x = t64([-1.0, 0.0, 2.0])
        out = relu(x)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        x = Tensor([[1.0, 2.0, 3.0], [1000.0, 1000.0, 999.0]], dtype=np.float64)
        s = softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=1), [1.0, 1.0], rtol=1e-12)
        shifted = softmax(Tensor(x.data + 50.0, dtype=np.float64))
        np.testing.assert_allclose(s.data, shifted.data, rtol=1e-9)

    def test_softmax_uniform_on_equal_logits(self):
        s = softmax(Tensor([[0.0, 0.0]], dtype=np.float64))
        np.testing.assert_allclose(s.data, [[0.5, 0.5]])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("tanh")


class TestLayerGradients:
    """Finite differences against every layer's backward, multiple shapes."""

    def test_conv_gradients(self):
        rng = Rng(4)
        for n, c, h, w, oc, k, s, p in [
            (1, 1, 4, 4, 1, 3, 1, 0),
            (2, 2, 5, 5, 3, 3, 1, 1),
            (1, 3, 7, 7, 2, 3, 2, 0),
            (2, 1, 4, 4, 2, 2, 2, 0),
        ]:
            x = t64(rng.uniform(n * c * h * w, -1, 1).reshape(n, c, h, w))
            conv = Conv2d(
                c, oc, k, stride=s, padding=p,
                weight=rng.uniform(oc * c * k * k, -1, 1).reshape(oc, c, k, k),
                bias=rng.uniform(oc, -1, 1),
                dtype=np.float64,
            )
            wsum = Tensor(rng.uniform(), dtype=np.float64)  # scale makes the scalar generic
            check_gradients(
                lambda: (conv(x) ** 2).sum() * wsum, [x, conv.weight, conv.bias]
            )

    def test_pool_gradients(self):
        rng = Rng(5)
        for n, c, h, w, k, s in [(1, 1, 4, 4, 2, 2), (2, 2, 6, 6, 2, 2), (1, 1, 5, 5, 3, 1)]:
            # unique-ish entries keep the argmax stable under perturbation
            vals = rng.permutation(n * c * h * w).astype(np.float64) * 0.173
            x = t64(vals.reshape(n, c, h, w))
            check_gradients(lambda: (MaxPool2d(k, s)(x) ** 2).sum(), [x])

    def test_dense_gradients(self):
        rng = Rng(6)
        for n, fi, fo in [(1, 3, 2), (4, 6, 3), (2, 8, 1)]:
            x = t64(rng.uniform(n * fi, -1, 1).reshape(n, fi))
            d = Dense(
                fi, fo,
                weight=rng.uniform(fo * fi, -1, 1).reshape(fo, fi),
                bias=rng.uniform(fo, -1, 1),
                dtype=np.float64,
            )
            check_gradients(lambda: (d(x) ** 2).sum(), [x, d.weight, d.bias])

    def test_activation_gradients(self):
        rng = Rng(7)
        x = t64(rng.uniform(12, -2, 2).reshape(3, 4))
        check_gradients(lambda: (sigmoid(x) ** 2).sum(), [x])
        x2 = t64(rng.uniform(12, -2, 2).reshape(3, 4))
        x2.data[np.abs(x2.data) < 0.05] += 0.1  # keep away from the relu kink
        check_gradients(lambda: (relu(x2) ** 2).sum(), [x2])
        x3 = t64(rng.uniform(8, -2, 2).reshape(2, 4))
        w3 = Tensor(rng.uniform(8, -1, 1).reshape(2, 4), dtype=np.float64)
        check_gradients(lambda: (softmax(x3) * w3).sum(), [x3])

    def test_full_stack_gradient(self):
        # conv -> sigmoid -> pool -> flatten -> dense -> softmax, end to end
        rng = Rng(8)
        x = t64(rng.uniform(1 * 2 * 6 * 6, -1, 1).reshape(1, 2, 6, 6))
        conv = Conv2d(2, 3, 3, padding=1,
                      weight=rng.uniform(3 * 2 * 9, -0.5, 0.5).reshape(3, 2, 3, 3),
                      dtype=np.float64)
        dense = Dense(27, 2, weight=rng.uniform(54, -0.5, 0.5).reshape(2, 27), dtype=np.float64)
        w = Tensor(rng.uniform(2).reshape(1, 2), dtype=np.float64)

        def loss():
            h = MaxPool2d(2)(sigmoid(conv(x)))
            return (softmax(dense(Flatten()(h))) * w).sum()

        check_gradients(loss, [x, conv.weight, conv.bias, dense.weight, dense.bias])


class TestModelBuilders:
    def test_cnn_shapes_and_param_names(self):
        m = build_cnn(input_shape=(3, 64, 64), seed=0)
        assert sorted(m.params) == [
            "conv1.bias", "conv1.weight", "conv2.bias", "conv2.weight",
            "conv3.bias", "conv3.weight", "dense1.bias", "dense1.weight",
            "dense2.bias", "dense2.weight",
        ]
        assert m.params["conv1.weight"].shape == (8, 3, 3, 3)
        assert m.params["dense1.weight"].shape == (64, 32 * 8 * 8)
        out = m(Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32)))
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out.data.sum(axis=1), [1.0, 1.0], rtol=1e-5)

    def test_cnn_init_deterministic_and_seed_sensitive(self):
        a, b = build_cnn(seed=7), build_cnn(seed=7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        c = build_cnn(seed=8)
        assert any(
            not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
        )

    def test_cnn_biases_zero_weights_bounded(self):
        m = build_cnn(seed=3)
        for name, p in m.params.items():
            if name.endswith(".bias"):
                assert not p.data.any()
            else:
                assert np.abs(p.data).max() <= 1.0  # glorot limits are all < 1 here

    def test_cnn_rejects_unpoolable_input(self):
        with pytest.raises(ShapeError):
            build_cnn(input_shape=(3, 65, 65))

    def test_backbone_name_partition(self):
        m = build_backbone(seed=0)
        groups = {n.split(".")[0] for n in m.params}
        assert groups == {"backbone", "head"}
        backbone = [n for n in m.params if n.startswith("backbone.")]
        head = [n for n in m.params if n.startswith("head.")]
        assert len(backbone) == 8 and len(head) == 4
        out = m(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (1, 2)

    def test_param_count_reported(self):
        m = build_cnn()
        want = sum(p.data.size for p in m.params.values())
        assert m.param_count() == want
        # conv1 8*3*3*3+8, conv2 16*8*9+16, conv3 32*16*9+32, dense sizes
        assert m.param_count() == (8 * 27 + 8) + (16 * 72 + 16) + (32 * 144 + 32) + (
            64 * 2048 + 64
        ) + (2 * 64 + 2)

    def test_model_state_roundtrip(self):
        m = build_cnn(seed=1)
        state = m.state()
        m2 = build_cnn(seed=2)
        m2.load_state(state)
        for name in state:
            np.testing.assert_array_equal(m2.params[name].data, state[name])
        with pytest.raises(KeyError):
            m2.load_state({k: v for k, v in list(state.items())[:-1]})

    def test_failed_load_state_leaves_the_model_untouched(self):
        # conv1.* and conv2.* match, conv3.weight does not: nothing may be written
        m = build_cnn(seed=1)
        state = build_cnn(seed=2).state()
        state["conv3.weight"] = np.zeros((32, 16, 1, 1), np.float32)
        before = m.state()
        with pytest.raises(ShapeError, match=r"conv3\.weight"):
            m.load_state(state)
        for name, arr in before.items():
            assert m.params[name].data.tobytes() == arr.tobytes()


def test_model_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Model([
            ("d", Dense(2, 2, weight=np.zeros((2, 2)))),
            ("d", Dense(2, 2, weight=np.zeros((2, 2)))),
        ])


# ---- byte equivalence with the reference kernels ----
#
# The kernels below are the first implementation of each layer, kept as
# oracles: im2col by per-offset patch gathering with argmax pooling, a
# two-`where` sigmoid, a `tensordot` weight gradient and a pad + scatter-add
# input gradient. The layers must reproduce their floats bit for bit, so a
# pinned training trajectory cannot move. Upstream gradients are fed to the
# backward closures directly, because the tape would turn a -0.0 into +0.0
# before the layer saw it.
#
# One known exception: the conv weight gradient is one GEMM over N*ho*wo that
# computes its transpose, im2col columns times g transposed, without the
# reference's transposed copy of the columns. OpenBLAS sends GEMMs of at most
# about 1e6 multiply-adds to small-matrix kernels whose summation order depends
# on the operand layout, so below that size the weight gradient may differ in
# the last bits. Every conv of the desk network is above it, and the byte
# tests below use such shapes; test_conv_small_shapes pins what still holds
# below it.

DESK_BATCHES = (16, 64, 32, 20)  # train batch, eval batch, eval remainders
DESK_CONVS = ((3, 8, 64), (8, 16, 32), (16, 32, 16))  # (in_c, out_c, size) per block
DTYPES = (np.float32, np.float64)


def ref_windows(k, s, ho, wo):
    return [
        (ky, kx, (..., slice(ky, ky + s * ho, s), slice(kx, kx + s * wo, s)))
        for ky in range(k)
        for kx in range(k)
    ]


def ref_gather(xp, k, s, ho, wo):
    n, c = xp.shape[:2]
    out = np.empty((n, c, k, k, ho, wo), dtype=xp.dtype)
    for ky, kx, v in ref_windows(k, s, ho, wo):
        out[:, :, ky, kx] = xp[v]
    return out


def ref_scatter(dxp, dp, k, s, ho, wo):
    for ky, kx, v in ref_windows(k, s, ho, wo):
        dxp[v] += dp[:, :, ky, kx]


def ref_conv(x, w, b, stride, padding, g):
    """-> (out, dx, dweight, dbias)."""
    n, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    p = padding
    ho, wo = (h + 2 * p - k) // stride + 1, (wd + 2 * p - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    patches = ref_gather(xp, k, stride, ho, wo).reshape(n, c * k * k, ho * wo)
    w2 = w.reshape(oc, c * k * k)
    out = np.matmul(w2, patches)
    out += b[None, :, None]
    g2 = g.reshape(n, oc, ho * wo)
    dw = np.tensordot(g2, patches, axes=([0, 2], [0, 2])).reshape(w.shape)
    dxp = np.zeros_like(xp)
    ref_scatter(dxp, np.matmul(w2.T, g2).reshape(n, c, k, k, ho, wo), k, stride, ho, wo)
    return out.reshape(n, oc, ho, wo), dxp[:, :, p : p + h, p : p + wd], dw, g2.sum(axis=(0, 2))


def ref_pool(x, k, s, g):
    """-> (out, dx)."""
    n, c, h, w = x.shape
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    windows = ref_gather(x, k, s, ho, wo).reshape(n, c, k * k, ho * wo)
    idx = np.argmax(windows, axis=2)
    out = np.take_along_axis(windows, idx[:, :, None, :], axis=2)[:, :, 0, :]
    dwin = np.zeros((n, c, k * k, ho * wo), dtype=g.dtype)
    np.put_along_axis(dwin, idx[:, :, None, :], g.reshape(n, c, 1, ho * wo), axis=2)
    dx = np.zeros_like(x)
    ref_scatter(dx, dwin.reshape(n, c, k, k, ho, wo), k, s, ho, wo)
    return out.reshape(n, c, ho, wo), dx


def ref_sigmoid(a, g):
    """-> (out, dx)."""
    pos = a >= 0
    e = np.exp(np.where(pos, -a, a))
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(a.dtype)
    return s, g * s * (1.0 - s)


def accumulated(d):
    """What Tensor.accumulate_grad stores for a first contribution d."""
    acc = np.zeros_like(d)
    acc += d
    return acc


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"max abs diff {np.abs(got - want).max()}"


def with_negative_zeros(rng, g):
    """A quarter of the upstream gradient set to -0.0."""
    g = g.copy()
    g[rng.random(g.shape) < 0.25] = -0.0
    return g


def check_conv(rng, dtype, n, c, oc, size, k=3, stride=1, padding=1, exact_dweight=True):
    x = rng.standard_normal((n, c, size, size)).astype(dtype)
    w = (rng.standard_normal((oc, c, k, k)) * 0.3).astype(dtype)
    b = rng.standard_normal(oc).astype(dtype)
    conv = Conv2d(c, oc, k, stride=stride, padding=padding, weight=w, bias=b, dtype=dtype)
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    out = conv(xt)
    g = with_negative_zeros(rng, rng.standard_normal(out.shape).astype(dtype))
    out._backward(g)
    want = ref_conv(x, w, b, stride, padding, g)
    assert_same_bytes(out.data, want[0])
    assert_same_bytes(xt.grad, accumulated(want[1]))
    assert_same_bytes(conv.bias.grad, accumulated(want[3]))
    if exact_dweight:
        assert_same_bytes(conv.weight.grad, accumulated(want[2]))
    else:
        # a different summation order: a few ulps of sum |g * x| per entry
        scale = ref_conv(np.abs(x), w, b, stride, padding, np.abs(g))[2]
        assert (np.abs(conv.weight.grad - want[2]) <= 8 * np.finfo(dtype).eps * scale).all()


def check_pool(rng, dtype, x, k=2, stride=None):
    stride = k if stride is None else stride
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    out = MaxPool2d(k, stride)(xt)
    g = with_negative_zeros(rng, rng.standard_normal(out.shape).astype(dtype))
    out._backward(g)
    want = ref_pool(x, k, stride, g)
    assert_same_bytes(out.data, want[0])
    assert_same_bytes(xt.grad, accumulated(want[1]))


def check_sigmoid(rng, dtype, a):
    xt = Tensor(a, requires_grad=True, dtype=dtype)
    out = sigmoid(xt)
    g = with_negative_zeros(rng, rng.standard_normal(a.shape).astype(dtype))
    out._backward(g)
    want = ref_sigmoid(a, g)
    assert_same_bytes(out.data, want[0])
    assert_same_bytes(xt.grad, accumulated(want[1]))


@pytest.mark.parametrize("dtype", DTYPES)
class TestReferenceKernelBytes:
    @pytest.mark.parametrize("n", DESK_BATCHES)
    def test_conv_desk_shapes(self, dtype, n):
        rng = np.random.default_rng(n)
        for c, oc, size in DESK_CONVS:
            check_conv(rng, dtype, n, c, oc, size)

    @pytest.mark.parametrize(
        "n, c, oc, size, k, stride, padding",
        [
            (16, 8, 16, 33, 3, 2, 0),  # stride 2, padding 0
            (16, 8, 16, 31, 3, 2, 1),  # stride 2, padded
            (8, 8, 16, 34, 3, 1, 0),  # padding 0
            (8, 4, 8, 36, 5, 1, 2),  # 5x5 kernel
        ],
    )
    def test_conv_stride_and_padding(self, dtype, n, c, oc, size, k, stride, padding):
        check_conv(np.random.default_rng(size), dtype, n, c, oc, size, k, stride, padding)

    @pytest.mark.parametrize(
        "n, c, oc, size",
        [
            (8, 3, 2, 32),  # the imbalance suite's network: channels 2, 4, batch 8
            (8, 2, 4, 16),
            (3, 2, 3, 4),
            (1, 1, 1, 2),
        ],
    )
    def test_conv_small_shapes(self, dtype, n, c, oc, size):
        check_conv(np.random.default_rng(size), dtype, n, c, oc, size, exact_dweight=False)

    @pytest.mark.parametrize("n", DESK_BATCHES)
    def test_pool_desk_shapes(self, dtype, n):
        rng = np.random.default_rng(n)
        for _, c, size in DESK_CONVS:
            check_pool(rng, dtype, rng.random((n, c, size, size)).astype(dtype))

    @pytest.mark.parametrize("k, stride", [(2, 2), (3, 1), (3, 2), (3, 3)])
    def test_pool_ties_and_signed_zeros(self, dtype, k, stride):
        # values on a coarse grid, with signed zeros, make most windows tie
        rng = np.random.default_rng(k * 10 + stride)
        size = 3 * 6 + 1 if stride < k else 3 * 6
        x = np.round(rng.standard_normal((4, 3, size, size)) * 1.5) / 2
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
        check_pool(rng, dtype, x.astype(dtype), k, stride)

    @pytest.mark.parametrize("n", DESK_BATCHES)
    def test_sigmoid_desk_shapes(self, dtype, n):
        rng = np.random.default_rng(n)
        for _, c, size in DESK_CONVS:
            check_sigmoid(rng, dtype, (rng.standard_normal((n, c, size, size)) * 4).astype(dtype))

    def test_sigmoid_special_values(self, dtype):
        special = [0.0, -0.0, 100.0, -100.0, np.inf, -np.inf, 1e-30, -1e-30, 88.0, -88.0, 104.0, -104.0, 750.0, -750.0]
        rng = np.random.default_rng(0)
        a = np.concatenate([special, rng.standard_normal(1000) * 30]).astype(dtype)
        check_sigmoid(rng, dtype, a)


def test_conv_output_contiguous_and_bias_grad_order():
    # the bias gradient sums g over (N, H, W); numpy's pairwise sum adds in
    # memory order, so a conv output in any other layout (and hence a grad
    # in that layout) would move the last bits of every bias gradient
    rng = np.random.default_rng(0)
    n, c, oc, size = 16, 8, 16, 32
    conv = Conv2d(c, oc, 3, padding=1, rng=Rng(1))
    out = conv(Tensor(rng.standard_normal((n, c, size, size)).astype(np.float32)))
    assert out.data.flags["C_CONTIGUOUS"]
    g = rng.standard_normal(out.shape).astype(np.float32)
    out._backward(g)
    assert_same_bytes(conv.bias.grad, accumulated(g.sum(axis=(0, 2, 3))))


def test_pool_nan_window_outputs_nan_and_routes_no_gradient():
    x = t64(np.array([[[[1.0, np.nan], [3.0, 2.0]]]]))
    out = MaxPool2d(2)(x)
    assert np.isnan(out.data).all()
    out._backward(np.ones_like(out.data))
    np.testing.assert_array_equal(x.grad, np.zeros((1, 1, 2, 2)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k, stride", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_pool_backward_into_an_existing_gradient(dtype, k, stride):
    # fan-out: x already holds a gradient when the pool's backward adds to it.
    # With stride == window, dx is written once as g * hit, so it holds -0.0
    # where the zero-filled loop held +0.0; the sum must not see the difference.
    rng = np.random.default_rng(10 * k + stride)
    size = k + 4 * stride
    x = (np.round(rng.standard_normal((3, 2, size, size)) * 1.5) / 2).astype(dtype)
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    prev = with_negative_zeros(rng, np.round(rng.standard_normal(x.shape)).astype(dtype))
    xt.accumulate_grad(prev)
    out = MaxPool2d(k, stride)(xt)
    g = with_negative_zeros(rng, rng.standard_normal(out.shape).astype(dtype))
    out._backward(g)
    want = accumulated(prev)
    want += ref_pool(x, k, stride, g)[1]
    assert_same_bytes(xt.grad, want)


# ---- conv forwards stream their im2col columns ----
#
# Every forward fills and contracts at most _COLS_BYTES of columns at a time,
# and the input gradient runs in the same chunks. The tests shrink the limit to
# CHUNK samples' columns, so each batch spans several chunks and ends on a
# short one, and spy on np.matmul and np.dot to see the chunk sizes the layer
# really used.

CHUNK = 3
CHUNKED_CONVS = [  # (n, c, oc, size, k, stride, padding)
    (5, 3, 8, 64, 3, 1, 1),  # desk conv1, chunks 3 + 2
    (16, 8, 16, 33, 3, 2, 0),  # stride 2, padding 0, chunks 5 * 3 + 1
    (20, 4, 8, 20, 5, 1, 2),  # 5x5 kernel, chunks 6 * 3 + 2
]


@pytest.fixture
def chunk_sizes(monkeypatch):
    """-> (set_limit, sizes, dots): set_limit(samples, ...) shrinks _COLS_BYTES to that
    many samples' columns of a conv; sizes gets the stack size of each np.matmul
    (its out's, else its second operand's), and dots each np.dot's first operand shape."""
    sizes, dots, matmul, dot = [], [], np.matmul, np.dot

    def spy_matmul(a, b, **kw):
        sizes.append(kw["out"].shape[0] if "out" in kw else b.shape[0])
        return matmul(a, b, **kw)

    def spy_dot(a, b, *args):
        dots.append(a.shape)
        return dot(a, b, *args)

    def set_limit(samples, c, k, ho, wo, dtype):
        monkeypatch.setattr(bct.layers, "_COLS_BYTES", samples * c * k * k * ho * wo * np.dtype(dtype).itemsize)

    monkeypatch.setattr(np, "matmul", spy_matmul)
    monkeypatch.setattr(np, "dot", spy_dot)
    return set_limit, sizes, dots


def chunked_conv(rng, dtype, n, c, oc, size, k, stride, padding):
    x = rng.standard_normal((n, c, size, size)).astype(dtype)
    w = (rng.standard_normal((oc, c, k, k)) * 0.3).astype(dtype)
    b = rng.standard_normal(oc).astype(dtype)
    return Conv2d(c, oc, k, stride=stride, padding=padding, weight=w, bias=b, dtype=dtype), x


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n, c, oc, size, k, stride, padding", CHUNKED_CONVS)
def test_no_grad_conv_chunks_give_the_recorded_bytes(chunk_sizes, dtype, n, c, oc, size, k, stride, padding):
    set_limit, sizes, _ = chunk_sizes
    conv, x = chunked_conv(np.random.default_rng(n), dtype, n, c, oc, size, k, stride, padding)
    shape = (c, k, *conv.out_shape(size, size), dtype)
    set_limit(n, *shape)
    whole = conv(Tensor(x, dtype=dtype))
    assert sizes == [n]  # the whole batch in one chunk
    set_limit(CHUNK, *shape)
    chunks = [CHUNK] * (n // CHUNK) + [n % CHUNK]
    sizes.clear()
    recorded = conv(Tensor(x, dtype=dtype))
    assert recorded.requires_grad and sizes == chunks  # the weights require grad: chunked all the same
    assert_same_bytes(recorded.data, whole.data)
    sizes.clear()
    with no_grad():
        streamed = conv(Tensor(x, dtype=dtype))
    assert sizes == chunks
    assert_same_bytes(streamed.data, whole.data)
    for t in conv.params().values():
        t.requires_grad = False  # nothing to record, even with grad enabled
    sizes.clear()
    frozen = conv(Tensor(x, dtype=dtype))
    assert not frozen.requires_grad and sizes == chunks
    assert_same_bytes(frozen.data, whole.data)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n, c, oc, size, k, stride, padding", CHUNKED_CONVS)
def test_recorded_conv_keeps_full_columns_under_a_small_limit(chunk_sizes, dtype, n, c, oc, size, k, stride, padding):
    # forward and dx run in chunks, but the weight gradient is still one GEMM
    # over the whole batch's columns, which backward rebuilds
    set_limit, sizes, dots = chunk_sizes
    ho, wo = Conv2d(c, oc, k, stride, padding, rng=Rng(0)).out_shape(size, size)
    set_limit(CHUNK, c, k, ho, wo, dtype)
    check_conv(np.random.default_rng(size), dtype, n, c, oc, size, k, stride, padding)
    chunks = [CHUNK] * (n // CHUNK) + [n % CHUNK]
    assert sizes == chunks + chunks + [n, n]  # forward, then dx; then the oracle's two
    assert dots == [(c * k * k, n * ho * wo)]  # dW


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n, c, oc, size, k, stride, padding", CHUNKED_CONVS + [(8, 3, 2, 32, 3, 1, 1), (3, 2, 3, 4, 3, 1, 1)])
def test_conv_gradients_do_not_depend_on_the_column_limit(monkeypatch, dtype, n, c, oc, size, k, stride, padding):
    # one sample's columns at a time against the whole batch's, also below the
    # GEMM size where the weight gradient's bytes may differ from the oracle's
    results = []
    for limit in (1, 1 << 40):
        monkeypatch.setattr(bct.layers, "_COLS_BYTES", limit)
        conv, x = chunked_conv(np.random.default_rng(n), dtype, n, c, oc, size, k, stride, padding)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        out = conv(xt)
        out._backward(np.random.default_rng(size).standard_normal(out.shape).astype(dtype))
        results.append([out.data, xt.grad, conv.weight.grad, conv.bias.grad])
    for got, want in zip(*results):
        assert_same_bytes(got, want)


def test_recorded_conv_holds_no_full_batch_columns():
    # desk's training batch at conv1: its columns take 6.75 MiB, above the
    # 4 MiB limit, so the recorded op keeps only the 0.8 MiB padded input
    n, c, oc, size = 16, 3, 8, 64
    conv = Conv2d(c, oc, 3, padding=1, rng=Rng(0))
    x = Tensor(np.random.default_rng(0).standard_normal((n, c, size, size)).astype(np.float32))
    full_cols = c * 9 * n * size * size * 4
    tracemalloc.start()
    try:
        out = conv(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < full_cols, f"held {held / 2**20:.1f} MiB after the forward"


def test_no_grad_conv_peak_memory_stays_below_full_columns():
    # desk's eval batch at conv1: the whole batch's columns alone are 27 MiB
    n, c, oc, size = 64, 3, 8, 64
    conv = Conv2d(c, oc, 3, padding=1, rng=Rng(0))
    x = Tensor(np.random.default_rng(0).standard_normal((n, c, size, size)).astype(np.float32))
    full_cols = c * 9 * n * size * size * 4
    tracemalloc.start()
    try:
        with no_grad():
            conv(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_cols, f"traced peak {peak / 2**20:.1f} MiB"


# ---- pool before activating ----
#
# The builders emit conv -> max-pool -> activation. The reference below is the
# earlier order, conv -> activation -> max-pool, built from an identically
# seeded model by swapping each pool with the activation behind it.


def act_then_pool(model):
    """The same layers in the earlier conv -> activation -> pool order."""
    layers = list(model.layers)
    for i in range(len(layers) - 1):
        if isinstance(layers[i][1], MaxPool2d) and isinstance(layers[i + 1][1], Activation):
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return Model(layers)


def forward_and_grads(model, x, w):
    """Scores, input gradient and every parameter gradient for loss sum(scores * w)."""
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    out = model(xt)
    (out * Tensor(w, dtype=x.dtype)).sum().backward()
    return [out.data, xt.grad] + [p.grad for p in model.params.values()]


def layer_kinds(model):
    return [type(layer).__name__ for _, layer in model.layers]


def _first_conv_batches(monkeypatch, model) -> list:
    """The batch size of each call that the model's first conv gets from now on."""
    first, sizes, forward = model.layers[0][1], [], Conv2d.forward

    def spy(layer, x):
        if layer is first:
            sizes.append(x.shape[0])
        return forward(layer, x)

    monkeypatch.setattr(Conv2d, "__call__", spy)
    return sizes


@pytest.mark.parametrize("rows", [21, 5, 1, 64])
def test_bounded_forward_gives_the_whole_batch_score_bytes(monkeypatch, rows):
    # desk's network and eval batch; the dense head sees all 64 rows either way
    model = build_cnn(seed=1)
    images = Tensor(np.random.default_rng(rows).random((64, 3, 64, 64), dtype=np.float32))
    with no_grad():
        whole = images
        for _, layer in model.layers:
            whole = layer(whole)
        monkeypatch.setattr(bct.layers, "_COLS_BYTES", 4 * rows * images.data[0].nbytes)
        sizes = _first_conv_batches(monkeypatch, model)
        bounded = model(images)
    assert sizes == [min(rows, 64 - j) for j in range(0, 64, rows)]
    assert bounded.data.tobytes() == whole.data.tobytes()


def test_recording_forward_is_never_sliced(monkeypatch):
    model = build_cnn(input_shape=(3, 16, 16), channels=(2, 4, 4), dense_width=8, seed=0)
    images = Tensor(np.random.default_rng(0).random((8, 3, 16, 16), dtype=np.float32))
    monkeypatch.setattr(bct.layers, "_COLS_BYTES", 4 * 3 * images.data[0].nbytes)  # 3-row slices
    sizes = _first_conv_batches(monkeypatch, model)
    scores = model(images)
    assert sizes == [8] and scores.requires_grad


def test_builders_pool_before_activating():
    assert layer_kinds(build_cnn())[:3] == ["Conv2d", "MaxPool2d", "Activation"]
    backbone = layer_kinds(build_backbone())
    assert backbone[9:11] == ["Conv2d", "Activation"]  # the fourth conv does not pool
    assert backbone[:9] == ["Conv2d", "MaxPool2d", "Activation"] * 3
    assert layer_kinds(act_then_pool(build_cnn()))[:3] == ["Conv2d", "Activation", "MaxPool2d"]


@pytest.mark.parametrize("dtype", DTYPES)
def test_backbone_matches_act_then_pool_bytes(dtype):
    # zero and constant blocks make tied windows (exact conv outputs equal to
    # the bias), and negative biases make whole windows negative
    rng = np.random.default_rng(5)
    new, old = build_backbone(seed=3, dtype=dtype), act_then_pool(build_backbone(seed=3, dtype=dtype))
    biases = {n: rng.standard_normal(p.shape) * 0.1 for n, p in new.params.items() if n.endswith(".bias")}
    biases["backbone.conv1.bias"][:4] = -0.5
    for m in (new, old):
        m.load_state({**m.state(), **biases})
    x = rng.standard_normal((8, 3, 32, 32))
    x[:, :, :16, :16] = 0.0
    x[:, :, 16:, :8] = -1.0
    x[:2] = 0.0
    x = x.astype(dtype)
    w = rng.standard_normal((8, 2)).astype(dtype)
    got, want = forward_and_grads(new, x, w), forward_and_grads(old, x, w)
    for a, b in zip(got, want):
        assert_same_bytes(a, b)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", DESK_BATCHES)
def test_cnn_scores_match_act_then_pool_bytes(dtype, n):
    new, old = build_cnn(seed=0, dtype=dtype), act_then_pool(build_cnn(seed=0, dtype=dtype))
    x = Tensor(np.random.default_rng(n).random((n, 3, 64, 64)).astype(dtype), dtype=dtype)
    assert_same_bytes(new(x).data, old(x).data)


def one_window_cnn():
    """build_cnn whose single block pools one 2x2 window of the raw input."""
    m = build_cnn(input_shape=(1, 2, 2), channels=(1,), kernel_size=1, dense_width=2)
    m.load_state({**m.state(), "conv1.weight": np.ones((1, 1, 1, 1)), "conv1.bias": np.zeros(1)})
    return m


def test_sigmoid_gradient_goes_to_larger_preactivation():
    # 1.0 and the next float32 above it have the same rounded sigmoid
    a, b = np.float32(1.0), np.nextafter(np.float32(1.0), np.float32(2.0))
    assert sigmoid(Tensor([a])).data == sigmoid(Tensor([b])).data
    x = np.array([[[[a, b], [0.5, -1.0]]]], np.float32)
    w = np.array([[1.0, -1.0]], np.float32)
    new = forward_and_grads(one_window_cnn(), x, w)[1]
    old = forward_and_grads(act_then_pool(one_window_cnn()), x, w)[1]
    assert np.flatnonzero(new).tolist() == [1]  # the larger pre-activation
    assert np.flatnonzero(old).tolist() == [0]  # the first cell with the top sigmoid
    assert new[0, 0, 0, 1] == old[0, 0, 0, 0]


def test_sigmoid_one_ulp_step_down_is_kept():
    # a pair of adjacent float32 values below 0 whose rounded sigmoids step
    # down: pooling first returns the sigmoid of the larger cell, one ulp below
    a, b = np.float32(-3.999591588973999), np.float32(-3.99959135055542)
    assert np.nextafter(a, np.float32(0)) == b
    sa, sb = sigmoid(Tensor([a])).data[0], sigmoid(Tensor([b])).data[0]
    assert np.nextafter(sa, np.float32(0)) == sb
    x = Tensor(np.array([[[[a, b], [-5.0, -6.0]]]], np.float32))
    first_block = [Model(m.layers[:3]) for m in (one_window_cnn(), act_then_pool(one_window_cnn()))]
    assert [blk(x).data.item() for blk in first_block] == [sb, sa]

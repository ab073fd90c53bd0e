"""Neural-net layers composed from tensor ops, plus the two model builders.

Convolution and pooling register their own backward closures rather than
composing primitives. Both work on the k*k strided window views of their
input (one view per kernel offset, always in (ky, kx) order). Conv2d copies
the views into channel-major im2col columns and contracts them with one
BLAS GEMM per sample, so an output's bytes do not depend on its batch and
every forward streams the columns in bounded chunks (see Conv2d); a no-grad
Model forward runs its conv stack on bounded slices (see Model). MaxPool2d
reduces the views pairwise with np.maximum and finds the gradient routing
only when its backward runs. Every scatter-add walks the offsets in the
same order, so gradients are bit-reproducible.

The builders pool before they activate (conv -> max-pool -> activation), so
the activation and its gradient see a quarter of the elements at pool 2.
Max-pooling commutes with a monotone non-decreasing map: max(f(a), f(b)) =
f(max(a, b)). relu is one in floats too; see build_cnn for the sigmoid.

Layout is NCHW. Parameter names inside a layer are "weight" and "bias";
Model prefixes them with the layer's name ("conv1.weight", ...).
"""

import math

import numpy as np

from .rng import Rng, derive
from .tensor import ShapeError, Tensor, recording

_COLS_BYTES = 1 << 22  # the im2col columns a conv forward fills at a time


def glorot_uniform(rng: Rng, shape: tuple, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    """Uniform(-limit, limit) with limit = sqrt(6 / (fan_in + fan_out))."""
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    n = math.prod(shape)  # python ints: a huge shape must not wrap around
    return rng.uniform(n, -limit, limit).reshape(shape).astype(dtype)


def _weight_and_bias(kind: str, wshape: tuple, weight, bias, rng: Rng | None, dtype) -> tuple[Tensor, Tensor]:
    """A layer's weight (Glorot-uniform from rng unless given) and bias (zeros unless given)."""
    if weight is None:
        if rng is None:
            raise ValueError(f"{kind}: pass an explicit weight or an init rng")
        receptive = math.prod(wshape[2:])
        weight = glorot_uniform(rng, wshape, wshape[1] * receptive, wshape[0] * receptive, dtype)
    weight = np.asarray(weight, dtype=dtype)
    bias = np.zeros(wshape[0], dtype=dtype) if bias is None else np.asarray(bias, dtype=dtype)
    for name, arr, shape in (("weight", weight, wshape), ("bias", bias, wshape[:1])):
        if arr.shape != shape:
            raise ShapeError(f"{kind}: {name} shape {arr.shape} != {shape}")
    return Tensor(weight, requires_grad=True, dtype=dtype), Tensor(bias, requires_grad=True, dtype=dtype)


def _windows(k: int, s: int, ho: int, wo: int) -> list:
    """Index tuples of the k*k strided window views over an NCHW map, (ky, kx) order."""
    return [(..., slice(ky, ky + s * ho, s), slice(kx, kx + s * wo, s)) for ky in range(k) for kx in range(k)]


def _im2col(xp: np.ndarray, win: list, buf: np.ndarray) -> np.ndarray:
    """The im2col columns of a channel-major map xp (C, N, H, W), written into the front of buf.

    Row c * len(win) + i of the (C * len(win), N, ho * wo) result holds window view i of channel c.
    """
    c, n = xp.shape[:2]
    ho, wo = xp[win[0]].shape[2:]
    cols = buf[: c * len(win) * n * ho * wo].reshape(c, len(win), n, ho, wo)
    for i, v in enumerate(win):
        cols[:, i] = xp[v]
    return cols.reshape(c * len(win), n, ho * wo)


class Conv2d:
    """2-D cross-correlation with optional zero padding.

    weight shape (out_channels, in_channels, kh, kw), bias shape (out_channels,).
    Output spatial dims must come out integral: (H + 2p - k) divisible by stride.

    Forward fills and contracts at most _COLS_BYTES of im2col columns at a
    time (at least one sample's). Each sample is its own GEMM, so the output
    bytes do not depend on the chunking. The weight gradient is one GEMM
    over the whole batch's columns, as its bytes depend on that: when the
    batch fit in one chunk, backward reuses that buffer; otherwise the
    recorded op keeps only the padded input, and backward rebuilds the
    columns with the same window copies and frees them after that GEMM.
    The input gradient runs in the forward's chunks, a sample's GEMM and
    scatter-adds at a time, so its bytes do not depend on them either.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        weight=None,
        bias=None,
        rng: Rng | None = None,
        dtype=np.float32,
    ):
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError("conv: channels/kernel/stride must be >= 1, padding >= 0")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        wshape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight, self.bias = _weight_and_bias("conv", wshape, weight, bias, rng, dtype)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def out_shape(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.padding
        for name, dim in (("height", h), ("width", w)):
            if dim + 2 * p < k:
                raise ShapeError(f"conv: kernel {k} does not fit input {name} {dim} (padding {p})")
            if (dim + 2 * p - k) % s != 0:
                raise ShapeError(
                    f"conv: {name} {dim} with padding {p}, kernel {k}, stride {s} "
                    f"leaves a remainder; output size must be exact"
                )
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"conv: expected NCHW input, got shape {x.shape}")
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"conv: input has {c} channels, layer expects {self.in_channels}")
        ho, wo = self.out_shape(h, w)
        k, s, p, oc = self.kernel_size, self.stride, self.padding, self.out_channels
        weight, bias = self.weight, self.bias

        xp = np.zeros((c, n, h + 2 * p, w + 2 * p), x.dtype)  # channel-major, zero border
        xp[:, :, p : p + h, p : p + w] = x.data.transpose(1, 0, 2, 3)
        win, ckk = _windows(k, s, ho, wo), c * k * k
        m = max(1, min(n, _COLS_BYTES // (ckk * ho * wo * xp.itemsize)))  # samples per chunk
        buf, w2 = np.empty(ckk * m * ho * wo, x.dtype), weight.data.reshape(oc, ckk)
        out = np.empty((n, oc, ho * wo), np.result_type(w2, xp))  # C order fixes g.sum's order
        for j in range(0, n, m):
            cols = _im2col(xp[:, j : j + m], win, buf)
            np.matmul(w2, cols.transpose(1, 0, 2), out=out[j : j + m])  # one GEMM per sample
        out += bias.data[:, None]
        saved = buf if m == n else xp  # the whole batch's columns, or what rebuilds them

        def backward(g):
            g2 = g.reshape(n, oc, ho * wo)
            gt = g2.transpose(1, 0, 2).reshape(oc, n * ho * wo)
            cols = saved if m == n else _im2col(saved, win, np.empty(ckk * n * ho * wo, saved.dtype))
            weight.accumulate_grad(np.dot(cols.reshape(ckk, -1), gt.T).T.reshape(weight.shape))
            del cols  # rebuilt columns go before dx allocates
            bias.accumulate_grad(g2.sum(axis=(0, 2)))
            if x.requires_grad:
                dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype)
                for j in range(0, n, m):
                    dj = dxp[j : j + m]
                    dpatches = np.matmul(w2.T, g2[j : j + m]).reshape(-1, c, k * k, ho, wo)
                    for i, v in enumerate(win):
                        np.add(dj[v], dpatches[:, :, i], out=dj[v])
                    del dpatches  # before the next chunk's GEMM allocates
                x.accumulate_grad(dxp[:, :, p : p + h, p : p + w])

        return Tensor.from_op(out.reshape(n, oc, ho, wo), (x, weight, bias), backward)

    __call__ = forward


class MaxPool2d:
    """Window max pooling; ties give the gradient to the lowest flat index.

    In the builders it pools the conv's pre-activations, not the activations.

    When stride equals window, as in the builders, the windows tile the input
    and the backward writes each cell of an empty dx once, as g * hit
    (accumulate_grad turns -0.0 into +0.0); otherwise windows may overlap or
    leave gaps, and each adds into a zeroed dx. A window holding a NaN
    outputs NaN but, unlike with an argmax, routes no gradient; train() never
    gets there, as it raises NumericError on the non-finite loss before
    backward(). A non-finite upstream gradient also reaches the window's
    other cells, as NaN (inf * 0).
    """

    def __init__(self, window: int = 2, stride: int | None = None):
        if window < 1:
            raise ValueError("pool: window must be >= 1")
        self.window = window
        self.stride = window if stride is None else stride
        if self.stride < 1:
            raise ValueError("pool: stride must be >= 1")

    def params(self):
        return {}

    def out_shape(self, h: int, w: int) -> tuple[int, int]:
        k, s = self.window, self.stride
        for name, dim in (("height", h), ("width", w)):
            if dim < k:
                raise ShapeError(f"pool: window {k} does not fit input {name} {dim}")
            if (dim - k) % s != 0:
                raise ShapeError(
                    f"pool: {name} {dim} with window {k}, stride {s} leaves a remainder"
                )
        return (h - k) // s + 1, (w - k) // s + 1

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"pool: expected NCHW input, got shape {x.shape}")
        n, c, h, w = x.shape
        ho, wo = self.out_shape(h, w)
        k, s = self.window, self.stride
        a, win = x.data, _windows(k, s, ho, wo)
        out = a[win[0]].copy()
        for v in win[1:]:
            np.maximum(a[v], out, out=out)  # on a tie numpy returns the second operand

        def backward(g):
            tiled = s == k  # the windows tile a: each cell is written exactly once
            dx = np.empty_like(a) if tiled else np.zeros_like(a)
            free = np.ones(out.shape, bool)
            for v in win:
                hit = (a[v] == out) & free
                free ^= hit
                if tiled:
                    np.multiply(g, hit, out=dx[v])
                else:
                    np.add(dx[v], g * hit, out=dx[v])
            x.accumulate_grad(dx)

        return Tensor.from_op(out, (x,), backward)

    __call__ = forward


class Flatten:
    """(N, C, H, W) -> (N, C*H*W), row-major."""

    def params(self):
        return {}

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 2:
            raise ShapeError(f"flatten: expected batched input, got shape {x.shape}")
        n = x.shape[0]
        return x.reshape(n, x.size // n)

    __call__ = forward


class Dense:
    """Affine map y = x W^T + b with weight shape (out_features, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight=None,
        bias=None,
        rng: Rng | None = None,
        dtype=np.float32,
    ):
        if min(in_features, out_features) < 1:
            raise ValueError("dense: feature counts must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.weight, self.bias = _weight_and_bias("dense", (out_features, in_features), weight, bias, rng, dtype)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ShapeError(f"dense: expected (N, features) input, got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ShapeError(f"dense: input has {x.shape[1]} features, layer expects {self.in_features}")
        weight, bias = self.weight, self.bias
        out = x.data @ weight.data.T + bias.data

        def backward(g):
            if x.requires_grad:
                x.accumulate_grad(g @ weight.data)
            weight.accumulate_grad(g.T @ x.data)
            bias.accumulate_grad(g.sum(axis=0))

        return Tensor.from_op(out, (x, weight, bias), backward)

    __call__ = forward


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic: exp only ever sees non-positive arguments."""
    a = x.data
    e = np.abs(a)
    np.exp(np.negative(e, out=e), out=e)  # in place: fresh pages cost more than the exp
    s = np.maximum(e, a >= 0)  # 1 where a >= 0, else e: then s / (1 + e) is either branch
    e += 1
    s /= e

    def backward(g):
        x.accumulate_grad(g * s * (1.0 - s))

    return Tensor.from_op(s, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """max(0, x); the gradient at exactly 0 is 0."""
    a = x.data
    mask = a > 0
    out = np.where(mask, a, a.dtype.type(0))

    def backward(g):
        x.accumulate_grad(g * mask)

    return Tensor.from_op(out, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Row softmax over the last axis, max-shifted for stability."""
    a = x.data
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        x.accumulate_grad(s * (g - dot))

    return Tensor.from_op(s, (x,), backward)


_ACTIVATIONS = {"sigmoid": sigmoid, "relu": relu, "softmax": softmax}


class Activation:
    """Named nonlinearity layer; kind is one of sigmoid / relu / softmax."""

    def __init__(self, kind: str):
        if kind not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}")
        self.kind = kind
        self._fn = _ACTIVATIONS[kind]

    def params(self):
        return {}

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)

    __call__ = forward


class Model:
    """An ordered stack of layers with a flat, name-addressed parameter registry.

    Registry keys are "<layer name>.<param name>" in layer order; iteration
    order is definition order everywhere (init, updates, checkpoints).

    A forward that records nothing runs the layers through the first Flatten on
    slices of at most _COLS_BYTES // 4 input bytes: their output bytes do not depend
    on the slicing, but a dense layer's do, so the layers after Flatten see the whole batch.
    """

    def __init__(self, layers: list):
        self.layers = []
        self.params: dict[str, Tensor] = {}
        for name, layer in layers:
            self.layers.append((name, layer))
            lparams = layer.params()
            if lparams and not name:
                raise ValueError("layers with parameters must be named")
            for pname, tensor in lparams.items():
                full = f"{name}.{pname}"
                if full in self.params:
                    raise ValueError(f"duplicate parameter name {full!r}")
                self.params[full] = tensor
        self._cut = next((i + 1 for i, (_, layer) in enumerate(self.layers) if isinstance(layer, Flatten)), 0)

    def forward(self, x: Tensor) -> Tensor:
        layers, cut = self.layers, self._cut
        rows = max(1, _COLS_BYTES // 4 // max(1, x.data.itemsize * math.prod(x.shape[1:])))
        if cut and x.ndim and x.shape[0] > rows and not recording((x, *self.params.values())):
            images, parts = x.data, []
            for j in range(0, len(images), rows):
                x = Tensor.from_op(images[j : j + rows], (), None)  # x is rebound below, freeing the last slice
                for _, layer in layers[:cut]:
                    x = layer(x)
                parts.append(x.data)
            x, layers = Tensor.from_op(np.concatenate(parts), (), None), layers[cut:]
        for _, layer in layers:
            x = layer(x)
        return x

    __call__ = forward

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def state(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays, registry order."""
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray], prefix: str = "") -> list[str]:
        """Strict in-place load of the parameters named prefix*, which state must hold exactly, shapes
        included; returns their names, registry order. A failed load leaves the model as it was."""
        names = [n for n in self.params if n.startswith(prefix)]
        missing, extra = sorted(set(names) - set(state)), sorted(set(state) - set(names))
        if missing or extra:
            raise KeyError(f"state under {prefix!r} does not match the model: missing {missing}, unexpected {extra}")
        for name in names:  # all checked before any is written
            if np.shape(state[name]) != self.params[name].shape:
                raise ShapeError(f"param {name!r}: shape {np.shape(state[name])} != {self.params[name].shape}")
        for name in names:
            self.params[name].data[...] = np.asarray(state[name]).astype(self.params[name].dtype)
        return names


_INIT_STREAM = 0x1A7E57  # model-init stream tag, keeps init draws apart from other uses


def _conv_net(input_shape, channels, dense_width, kernel_size, pool_size, seed, dtype,
              act: str, pooled: int, conv_prefix: str = "", head_prefix: str = "") -> Model:
    """conv -> pool -> act blocks (only the first `pooled` pool), then flatten ->
    dense1 -> relu -> dense2 -> softmax over the two classes. Init draws run in
    layer order."""
    c, h, w = input_shape
    rng = Rng(derive(seed, _INIT_STREAM))
    stack = []
    for i, out_c in enumerate(channels, start=1):
        conv = Conv2d(c, out_c, kernel_size, stride=1, padding=kernel_size // 2, rng=rng, dtype=dtype)
        h, w = conv.out_shape(h, w)
        stack.append((f"{conv_prefix}conv{i}", conv))
        if i <= pooled:
            pool = MaxPool2d(pool_size)
            h, w = pool.out_shape(h, w)
            stack.append((None, pool))
        stack.append((None, Activation(act)))
        c = out_c
    stack += [
        (None, Flatten()),
        (f"{head_prefix}dense1", Dense(c * h * w, dense_width, rng=rng, dtype=dtype)),
        (None, Activation("relu")),
        (f"{head_prefix}dense2", Dense(dense_width, 2, rng=rng, dtype=dtype)),
        (None, Activation("softmax")),
    ]
    return Model(stack)


def build_cnn(
    input_shape: tuple = (3, 64, 64),
    channels: tuple = (8, 16, 32),
    dense_width: int = 64,
    kernel_size: int = 3,
    pool_size: int = 2,
    seed: int = 0,
    dtype=np.float32,
) -> Model:
    """Three conv -> pool -> sigmoid blocks, a relu dense layer, and a softmax head.

    Convs keep spatial size (stride 1, padding kernel//2 for odd kernels);
    each pool divides H and W by pool_size, so both must divide out exactly.
    Weights are Glorot-uniform from the seed, biases zero; the same seed and
    config always produce bit-identical parameters.

    The pool routes the gradient to the largest pre-activation (the first on
    exact ties), also where two cells' sigmoids round equal. The rounded
    sigmoid steps down one ulp at about 2e-4 of adjacent float32 pairs (all
    but 3% below 0); a window whose top two cells are such a pair outputs the
    lower value.
    """
    return _conv_net(input_shape, channels, dense_width, kernel_size, pool_size, seed, dtype,
                     act="sigmoid", pooled=len(channels))


def build_backbone(
    input_shape: tuple = (3, 32, 32),
    channels: tuple = (8, 16, 32, 32),
    dense_width: int = 64,
    kernel_size: int = 3,
    pool_size: int = 2,
    seed: int = 0,
    dtype=np.float32,
) -> Model:
    """Deeper relu conv stack for transfer runs, split into backbone.* and head.*.

    The first three conv blocks run conv -> pool -> relu; any further convs
    run conv -> relu and keep spatial size. relu commutes with the pool bit
    for bit, gradients included: a window with max <= 0 passes 0 either way.
    Parameter names partition exactly into backbone.conv*/head.dense* so
    the stage prefixes "backbone." and "head." address the two parts.
    """
    return _conv_net(input_shape, channels, dense_width, kernel_size, pool_size, seed, dtype,
                     act="relu", pooled=3, conv_prefix="backbone.", head_prefix="head.")

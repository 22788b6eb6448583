"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records a backward closure per op, micrograd
style but vectorized. Tensors are rank-4 [N, H, W, C] throughout the network
code; losses are scalars. Quantizer ops carry straight-through gradients: the
rounding/sign forward is ignored in the backward pass and the clip gates the
gradient to the open interval (-B, B). Passing ``surrogate=True`` replaces
the discrete forward with its smooth counterpart (clip without rounding) so
finite-difference oracles see the same gradient field.

Each op the executor runs is two functions. The array forward ``_name``
takes plain arrays and returns ``(out, saved)``, where ``saved`` holds the
intermediates its gradient reuses. The Tensor op ``name`` calls it and
attaches the backward closure only while some input needs a gradient.
``Model.logits`` calls the array forwards directly and records no tape.
"""

from __future__ import annotations

import numpy as np

from .. import quant
from ..graphir import windows


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad=False, parents=(), name=""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = parents
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        # accumulation rebinds rather than mutates, so aliasing g is safe
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
        else:
            self.grad = self.grad + g

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor (defaults to d(self)=1).

        The sweep consumes the graph: every node it visits loses its backward
        closure and parents, so a graph is differentiated once.
        """
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # A node runs once, after all of its consumers; dropping its
            # closure and parents frees the tape as the sweep goes.
            node._backward = None
            node._parents = ()


_DATA = Tensor.data     # the slot behind Tensor.data


class Parameter(Tensor):
    """A Tensor whose ``data`` stays the array it was built with, such as a
    view into a model's parameter arena. Assigning an array to ``data``
    copies it into that array, which must have the same shape, so every
    reader of the array sees the new values."""

    __slots__ = ()

    @property
    def data(self):
        return _DATA.__get__(self)

    @data.setter
    def data(self, value):
        try:
            view = _DATA.__get__(self)
        except AttributeError:      # the first assignment, in Tensor.__init__
            _DATA.__set__(self, value)
            return
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(f"parameter {self.name!r} has shape {view.shape}, "
                             f"got an array of shape {value.shape}")
        view[...] = value


def _needs(*tensors):
    return any(t.requires_grad or t._parents for t in tensors)


def _unbroadcast(g, shape):
    """Reduces a gradient back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data, parents, backward, needs):
    out = Tensor(data, parents=tuple(parents) if needs else ())
    if needs:
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Elementwise and reduction primitives
# ---------------------------------------------------------------------------

def _add(a, b):
    return a + b, None


def add(a: Tensor, b: Tensor) -> Tensor:
    data, _ = _add(a.data, b.data)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward, _needs(a, b))


def _mul(a, b):
    return a * b, None


def mul(a: Tensor, b: Tensor) -> Tensor:
    data, _ = _mul(a.data, b.data)

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, _needs(a, b))


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return _make(data, (x,), backward, _needs(x))


def _mean(x, axes, keepdims=True):
    axes = tuple(axes)
    return x.mean(axis=axes, keepdims=keepdims), axes


def mean(x: Tensor, axes, keepdims: bool = True) -> Tensor:
    data, axes = _mean(x.data, axes, keepdims)
    count = np.prod([x.data.shape[i] for i in axes])

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.data.shape) / count)

    return _make(data, (x,), backward, _needs(x))


def _relu(x):
    return np.maximum(x, 0.0), None


def relu(x: Tensor) -> Tensor:
    data, _ = _relu(x.data)

    def backward(g):
        x._accumulate(g * (x.data > 0))

    return _make(data, (x,), backward, _needs(x))


def _hardsigmoid(x):
    return np.clip(x + 3.0, 0.0, 6.0) / 6.0, None


def hardsigmoid(x: Tensor) -> Tensor:
    """relu6(x + 3) / 6, the gate nonlinearity of the SE block."""
    data, _ = _hardsigmoid(x.data)

    def backward(g):
        inside = (x.data > -3.0) & (x.data < 3.0)
        x._accumulate(g * inside / 6.0)

    return _make(data, (x,), backward, _needs(x))


def _dprelu(x, alpha, beta, gamma, eta):
    if alpha.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"dprelu channel mismatch: x has {x.shape[-1]}, "
            f"params have {alpha.shape[-1]}")
    shifted = x - alpha
    pos = shifted > 0
    neg = ~pos
    slope = eta * pos
    slope += gamma * neg
    data = slope * shifted
    data -= beta
    return data, (shifted, pos, neg, slope)


def dprelu(x: Tensor, alpha: Tensor, beta: Tensor, gamma: Tensor,
           eta: Tensor) -> Tensor:
    """Four-parameter piecewise-linear activation.

    eta*(x-alpha)-beta on the positive side of x-alpha, gamma*(x-alpha)-beta
    otherwise; all four parameters are per-channel vectors. Parameter
    gradients reduce over batch and spatial axes.
    """
    data, (shifted, pos, neg, slope) = _dprelu(x.data, alpha.data, beta.data,
                                               gamma.data, eta.data)
    red = tuple(range(x.data.ndim - 1))

    def backward(g):
        g_slope = g * slope
        x._accumulate(g_slope)
        alpha._accumulate(-g_slope.sum(axis=red))
        beta._accumulate(-g.sum(axis=red))
        g_shifted = g * shifted
        gamma._accumulate((g_shifted * neg).sum(axis=red))
        eta._accumulate((g_shifted * pos).sum(axis=red))

    return _make(data, (x, alpha, beta, gamma, eta), backward,
                 _needs(x, alpha, beta, gamma, eta))


# ---------------------------------------------------------------------------
# Straight-through quantizers
# ---------------------------------------------------------------------------

def _binarize(x, bound, surrogate=False):
    if surrogate:
        bound = np.asarray(bound)
        return np.clip(x, -bound, bound), None
    return quant.binarize(x), None


def binarize(x: Tensor, bound, surrogate: bool = False) -> Tensor:
    """sign(x) forward (clip(x, -B, B) in surrogate mode), STE backward."""
    data, _ = _binarize(x.data, bound, surrogate)

    def backward(g):
        x._accumulate(g * quant.ste_mask(x.data, bound))

    return _make(data, (x,), backward, _needs(x))


def _fake_quant(x, bound, bits, surrogate=False):
    if surrogate:
        return quant.fake_quant_surrogate(x, bound, bits), None
    return quant.fake_quant(x, bound, bits).astype(x.dtype), None


def fake_quant(x: Tensor, bound, bits: int, surrogate: bool = False) -> Tensor:
    """Grid projection forward (pure clip in surrogate mode), STE backward."""
    data, _ = _fake_quant(x.data, bound, bits, surrogate)

    def backward(g):
        x._accumulate(g * quant.ste_mask(x.data, bound))

    return _make(data, (x,), backward, _needs(x))


# ---------------------------------------------------------------------------
# Structured ops: convolution, dense, pooling, channel reshaping
# ---------------------------------------------------------------------------

def _fold(x, pads, kh, kw, stride, ho, wo, tap):
    """Adjoint of ``windows``: sums ``tap(i, j)``, the [N, ho, wo, C] gradient
    of kernel tap (i, j), back onto the positions of ``x`` it was read from."""
    pt, pb, pl, pr = pads
    n, h, w, c = x.shape
    gx = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :] += tap(i, j)
    return gx[:, pt:pt + h, pl:pl + w, :]


def _conv2d(x, w, stride=1, padding="same"):
    kh, kw, c, f = w.shape
    if x.shape[-1] != c:
        raise ValueError(f"conv2d channel mismatch: input {x.shape[-1]}, weight {c}")
    win, pads = windows(x, kh, kw, stride, padding)   # [N, ho, wo, C, kh, kw]
    n, ho, wo = win.shape[:3]
    # im2col in the (C, kh, kw) order of the window view, made once for the
    # forward GEMM and both gradient GEMMs
    cols = win.reshape(n * ho * wo, c * kh * kw)
    w2 = w.transpose(2, 0, 1, 3).reshape(c * kh * kw, f)
    return (cols @ w2).reshape(n, ho, wo, f), (cols, w2, pads)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: str = "same") -> Tensor:
    """2D convolution, x [N,H,W,C] with w [kh,kw,C,F], as one im2col GEMM."""
    data, (cols, w2, pads) = _conv2d(x.data, w.data, stride, padding)
    kh, kw, c, f = w.data.shape
    n, ho, wo = data.shape[:3]

    def backward(g):
        g2 = g.reshape(-1, f)
        if w.requires_grad or w._parents:
            gw = (cols.T @ g2).reshape(c, kh, kw, f)
            w._accumulate(np.ascontiguousarray(gw.transpose(1, 2, 0, 3)))
        if x.requires_grad or x._parents:
            gcols = (g2 @ w2.T).reshape(n, ho, wo, c, kh, kw)
            x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo,
                                lambda i, j: gcols[..., i, j]))

    return _make(data, (x, w), backward, _needs(x, w))


def _depthwise_conv2d(x, w, stride=1, padding="same"):
    kh, kw, c, m = w.shape
    if x.shape[-1] != c:
        raise ValueError(f"depthwise channel mismatch: input {x.shape[-1]}, weight {c}")
    win, pads = windows(x, kh, kw, stride, padding)
    out = np.einsum("nhwckl,klcm->nhwcm", win, w, optimize=True)
    n, ho, wo = out.shape[:3]
    return out.reshape(n, ho, wo, c * m), (win, pads)


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1,
                     padding: str = "same") -> Tensor:
    """Depthwise convolution with channel multiplier, w [kh,kw,C,mult]."""
    data, (win, pads) = _depthwise_conv2d(x.data, w.data, stride, padding)
    kh, kw, c, m = w.data.shape
    n, ho, wo = data.shape[:3]

    def backward(g):
        gr = g.reshape(n, ho, wo, c, m)
        if w.requires_grad or w._parents:
            w._accumulate(np.einsum("nhwckl,nhwcm->klcm", win, gr, optimize=True))
        if x.requires_grad or x._parents:
            x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo, lambda i, j:
                                np.einsum("nhwcm,cm->nhwc", gr, w.data[i, j],
                                          optimize=True)))

    return _make(data, (x, w), backward, _needs(x, w))


def _dense(x, w, bias=None):
    data = x @ w
    if bias is not None:
        data = data + bias
    return data, None


def dense(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Channelwise linear map on the last axis: [..., C] @ [C, F]."""
    data, _ = _dense(x.data, w.data, None if bias is None else bias.data)

    def backward(g):
        if w.requires_grad or w._parents:
            c, f = w.data.shape
            w._accumulate(x.data.reshape(-1, c).T @ g.reshape(-1, f))
        if x.requires_grad or x._parents:
            x._accumulate(g @ w.data.T)
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(data, parents, backward, _needs(*parents))


def _avg_pool(x, kernel=(3, 3), stride=2, padding="same", divisor=None):
    kh, kw = kernel
    div = float(divisor) if divisor else 1.0 / (kh * kw)
    win, pads = windows(x, kh, kw, stride, padding)
    return win.sum(axis=(4, 5)) * div, (pads, div)


def avg_pool(x: Tensor, kernel=(3, 3), stride: int = 2,
             padding: str = "same", divisor: float | None = None) -> Tensor:
    """Average pool with a fixed divisor (1/(kh*kw) by default, zero padding)."""
    data, (pads, div) = _avg_pool(x.data, kernel, stride, padding, divisor)
    kh, kw = kernel
    ho, wo = data.shape[1:3]

    def backward(g):
        gd = g * div
        x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo, lambda i, j: gd))

    return _make(data, (x,), backward, _needs(x))


def _max_pool(x, kernel=(3, 3), stride=2, padding="same"):
    kh, kw = kernel
    win, pads = windows(x, kh, kw, stride, padding, fill=np.finfo(x.dtype).min)
    return win.max(axis=(4, 5)), (win, pads)


def max_pool(x: Tensor, kernel=(3, 3), stride: int = 2,
             padding: str = "same") -> Tensor:
    """Max pool; the gradient goes to the first maximal tap in (i, j) order."""
    data, (win, pads) = _max_pool(x.data, kernel, stride, padding)
    kh, kw = kernel
    ho, wo = data.shape[1:3]

    def backward(g):
        taken = np.zeros(data.shape, dtype=bool)

        def tap(i, j):
            hit = (win[..., i, j] == data) & ~taken
            taken[...] |= hit
            return g * hit

        x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo, tap))

    return _make(data, (x,), backward, _needs(x))


def _spatial_mean(x):
    return _mean(x, axes=(1, 2))


def spatial_mean(x: Tensor) -> Tensor:
    """Mean over H and W, keeping [N, 1, 1, C]."""
    return mean(x, axes=(1, 2), keepdims=True)


def _pad_channels(x, out_channels):
    c = x.shape[-1]
    if out_channels < c:
        raise ValueError(f"pad_channels cannot shrink {c} -> {out_channels}")
    return np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, out_channels - c)]), None


def pad_channels(x: Tensor, out_channels: int) -> Tensor:
    data, _ = _pad_channels(x.data, out_channels)
    c = x.data.shape[-1]

    def backward(g):
        x._accumulate(g[..., :c])

    return _make(data, (x,), backward, _needs(x))


def _tile_channels(x, out_channels):
    c = x.shape[-1]
    if out_channels < c:
        raise ValueError(f"tile_channels cannot shrink {c} -> {out_channels}")
    reps = -(-out_channels // c)
    return np.tile(x, (1,) * (x.ndim - 1) + (reps,))[..., :out_channels], reps


def tile_channels(x: Tensor, out_channels: int) -> Tensor:
    """Channel i of the output is input channel i mod C (any target >= C)."""
    data, reps = _tile_channels(x.data, out_channels)
    c = x.data.shape[-1]

    def backward(g):
        full = reps * c
        if full != out_channels:
            width = [(0, 0)] * (g.ndim - 1) + [(0, full - out_channels)]
            g = np.pad(g, width)
        x._accumulate(g.reshape(g.shape[:-1] + (reps, c)).sum(axis=-2))

    return _make(data, (x,), backward, _needs(x))


def _avg_channels(x, out_channels):
    c = x.shape[-1]
    if c % out_channels:
        raise ValueError(f"avg_channels {c} -> {out_channels} not integral")
    k = c // out_channels
    return x.reshape(x.shape[:-1] + (out_channels, k)).mean(axis=-1), k


def avg_channels(x: Tensor, out_channels: int) -> Tensor:
    """Averages each run of K = C/out consecutive channels."""
    data, k = _avg_channels(x.data, out_channels)

    def backward(g):
        x._accumulate(np.repeat(g, k, axis=-1) / k)

    return _make(data, (x,), backward, _needs(x))


# ---------------------------------------------------------------------------
# Normalization and losses
# ---------------------------------------------------------------------------

BN_EPS = 1e-5


def _batchnorm_train(x, scale, bias):
    red = (0, 1, 2)
    mu = x.mean(axis=red)
    centered = x - mu
    # the arithmetic of np.var: square the centered values, then their mean
    var = np.square(centered).mean(axis=red)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.multiply(centered, inv, out=centered)
    data = xhat * scale
    data += bias
    return (data, mu, var), (xhat, inv)


def batchnorm_train(x: Tensor, scale: Tensor, bias: Tensor):
    """Batch normalization over (N, H, W); returns (out, batch_mean, batch_var).

    Gradients flow through the batch statistics (biased variance). The
    returned statistics are plain arrays for the running-average update.
    """
    (data, mu, var), (xhat, inv) = _batchnorm_train(x.data, scale.data, bias.data)
    red = (0, 1, 2)
    count = x.data.size // x.data.shape[-1]

    def backward(g):
        g_sum = g.sum(axis=red)
        if bias.requires_grad or bias._parents:
            bias._accumulate(g_sum)
        g_xhat = g * xhat
        g_xhat_sum = g_xhat.sum(axis=red)
        if scale.requires_grad or scale._parents:
            scale._accumulate(g_xhat_sum)
        if x.requires_grad or x._parents:
            gx = g - g_sum / count
            gx -= xhat * (g_xhat_sum / count)
            gx *= scale.data * inv
            x._accumulate(gx)

    out = _make(data, (x, scale, bias), backward, _needs(x, scale, bias))
    return out, mu, var


def _batchnorm_eval(x, scale, bias, running_mean, running_var):
    # every operand in the input's dtype, so a float32 model stays float32
    inv = (1.0 / np.sqrt(running_var + BN_EPS)).astype(x.dtype)
    centered = x - np.asarray(running_mean, dtype=x.dtype)
    k = inv * scale
    data = centered * k
    data += bias
    return data, (centered, inv, k)


def batchnorm_eval(x: Tensor, scale: Tensor, bias: Tensor,
                   running_mean, running_var) -> Tensor:
    """Batch normalization with fixed statistics: (x - mean) * inv * scale + bias."""
    data, (centered, inv, k) = _batchnorm_eval(x.data, scale.data, bias.data,
                                               running_mean, running_var)
    red = (0, 1, 2)

    def backward(g):
        if bias.requires_grad or bias._parents:
            bias._accumulate(g.sum(axis=red))
        if scale.requires_grad or scale._parents:
            scale._accumulate((g * centered).sum(axis=red) * inv)
        if x.requires_grad or x._parents:
            x._accumulate(g * k)

    return _make(data, (x, scale, bias), backward, _needs(x, scale, bias))


def log_softmax(x: Tensor) -> Tensor:
    """Stable log-softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse

    def backward(g):
        soft = np.exp(data)
        x._accumulate(g - soft * g.sum(axis=-1, keepdims=True))

    return _make(data, (x,), backward, _needs(x))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood; logits [N, K], integer labels [N]."""
    ls = log_softmax(logits)
    n = ls.data.shape[0]
    labels = np.asarray(labels)
    picked = ls.data[np.arange(n), labels]
    data = -picked.mean()

    def backward(g):
        gl = np.zeros_like(ls.data)
        gl[np.arange(n), labels] = -g / n
        ls._accumulate(gl)

    return _make(np.asarray(data), (ls,), backward, _needs(ls))


def kl_divergence(logits: Tensor, teacher_probs) -> Tensor:
    """Mean KL(teacher || softmax(logits)) over the batch."""
    t = np.asarray(teacher_probs, dtype=logits.data.dtype)
    ls = log_softmax(logits)
    safe = np.where(t > 0, t, 1.0)
    data = (t * (np.log(safe) - ls.data)).sum(axis=-1).mean()

    def backward(g):
        ls._accumulate(-g * t / t.shape[0])

    return _make(np.asarray(data), (ls,), backward, _needs(ls))

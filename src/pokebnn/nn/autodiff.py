"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records a backward closure per op, micrograd
style but vectorized. Tensors are rank-4 [N, H, W, C] throughout the network
code; losses are scalars. Quantizer ops carry straight-through gradients: the
rounding/sign forward is ignored in the backward pass and the clip gates the
gradient to the open interval (-B, B). Passing ``surrogate=True`` replaces
the discrete forward with its smooth counterpart (clip without rounding) so
finite-difference oracles see the same gradient field.
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

    # operator sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _const(-1.0)))

    def __neg__(self):
        return mul(self, _const(-1.0))


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _const(v):
    return Tensor(np.asarray(v))


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

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward, _needs(a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, _needs(a, b))


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return _make(data, (x,), backward, _needs(x))


def mean(x: Tensor, axes, keepdims: bool = True) -> Tensor:
    axes = tuple(axes)
    data = x.data.mean(axis=axes, keepdims=keepdims)
    count = np.prod([x.data.shape[i] for i in axes])

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        x._accumulate(np.broadcast_to(g, x.data.shape) / count)

    return _make(data, (x,), backward, _needs(x))


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(g):
        x._accumulate(g * (x.data > 0))

    return _make(data, (x,), backward, _needs(x))


def hardsigmoid(x: Tensor) -> Tensor:
    """relu6(x + 3) / 6, the gate nonlinearity of the SE block."""
    data = np.clip(x.data + 3.0, 0.0, 6.0) / 6.0

    def backward(g):
        inside = (x.data > -3.0) & (x.data < 3.0)
        x._accumulate(g * inside / 6.0)

    return _make(data, (x,), backward, _needs(x))


def dprelu(x: Tensor, alpha: Tensor, beta: Tensor, gamma: Tensor,
           eta: Tensor) -> Tensor:
    """Four-parameter piecewise-linear activation.

    eta*(x-alpha)-beta on the positive side of x-alpha, gamma*(x-alpha)-beta
    otherwise; all four parameters are per-channel vectors. Parameter
    gradients reduce over batch and spatial axes.
    """
    if alpha.data.shape[-1] != x.data.shape[-1]:
        raise ValueError(
            f"dprelu channel mismatch: x has {x.data.shape[-1]}, "
            f"params have {alpha.data.shape[-1]}")
    shifted = x.data - alpha.data
    pos = shifted > 0
    neg = ~pos
    slope = eta.data * pos
    slope += gamma.data * neg
    data = slope * shifted
    data -= beta.data
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

def binarize(x: Tensor, bound, surrogate: bool = False) -> Tensor:
    """sign(x) forward (clip(x, -B, B) in surrogate mode), STE backward."""
    bound = np.asarray(bound)
    if surrogate:
        data = np.clip(x.data, -bound, bound)
    else:
        data = quant.binarize(x.data)

    def backward(g):
        x._accumulate(g * quant.ste_mask(x.data, bound))

    return _make(data, (x,), backward, _needs(x))


def fake_quant(x: Tensor, bound, bits: int, surrogate: bool = False) -> Tensor:
    """Grid projection forward (pure clip in surrogate mode), STE backward."""
    bound = np.asarray(bound)
    if surrogate:
        data = quant.fake_quant_surrogate(x.data, bound, bits)
    else:
        data = quant.fake_quant(x.data, bound, bits).astype(x.data.dtype)

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


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: str = "same") -> Tensor:
    """2D convolution, x [N,H,W,C] with w [kh,kw,C,F], as one im2col GEMM."""
    kh, kw, c, f = w.data.shape
    cx = x.data.shape[-1]
    if cx != c:
        raise ValueError(f"conv2d channel mismatch: input {cx}, weight {c}")
    win, pads = windows(x.data, kh, kw, stride, padding)   # [N, ho, wo, C, kh, kw]
    n, ho, wo = win.shape[:3]
    # im2col in the (C, kh, kw) order of the window view, made once for the
    # forward GEMM and both gradient GEMMs
    cols = win.reshape(n * ho * wo, c * kh * kw)
    w2 = w.data.transpose(2, 0, 1, 3).reshape(c * kh * kw, f)
    data = (cols @ w2).reshape(n, ho, wo, f)

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


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1,
                     padding: str = "same") -> Tensor:
    """Depthwise convolution with channel multiplier, w [kh,kw,C,mult]."""
    kh, kw, c, m = w.data.shape
    cx = x.data.shape[-1]
    if cx != c:
        raise ValueError(f"depthwise channel mismatch: input {cx}, weight {c}")
    win, pads = windows(x.data, kh, kw, stride, padding)
    out = np.einsum("nhwckl,klcm->nhwcm", win, w.data, optimize=True)
    n, ho, wo = out.shape[:3]
    data = out.reshape(n, ho, wo, c * m)

    def backward(g):
        gr = g.reshape(n, ho, wo, c, m)
        if w.requires_grad or w._parents:
            w._accumulate(np.einsum("nhwckl,nhwcm->klcm", win, gr, optimize=True))
        if x.requires_grad or x._parents:
            x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo, lambda i, j:
                                np.einsum("nhwcm,cm->nhwc", gr, w.data[i, j],
                                          optimize=True)))

    return _make(data, (x, w), backward, _needs(x, w))


def dense(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Channelwise linear map on the last axis: [..., C] @ [C, F]."""
    data = x.data @ w.data
    if bias is not None:
        data = data + bias.data

    def backward(g):
        if w.requires_grad or w._parents:
            c, f = w.data.shape
            w._accumulate(x.data.reshape(-1, c).T @ g.reshape(-1, f))
        if x.requires_grad or x._parents:
            x._accumulate(g @ w.data.T)
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(data, parents, backward,
                 _needs(*(p for p in parents)))


def avg_pool(x: Tensor, kernel=(3, 3), stride: int = 2,
             padding: str = "same", divisor: float | None = None) -> Tensor:
    """Average pool with a fixed divisor (1/(kh*kw) by default, zero padding)."""
    kh, kw = kernel
    div = float(divisor) if divisor is not None else 1.0 / (kh * kw)
    win, pads = windows(x.data, kh, kw, stride, padding)
    data = win.sum(axis=(4, 5)) * div
    ho, wo = data.shape[1:3]

    def backward(g):
        gd = g * div
        x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo, lambda i, j: gd))

    return _make(data, (x,), backward, _needs(x))


def max_pool(x: Tensor, kernel=(3, 3), stride: int = 2,
             padding: str = "same") -> Tensor:
    """Max pool; the gradient goes to the first maximal tap in (i, j) order."""
    kh, kw = kernel
    win, pads = windows(x.data, kh, kw, stride, padding,
                        fill=np.finfo(x.data.dtype).min)
    data = win.max(axis=(4, 5))
    ho, wo = data.shape[1:3]

    def backward(g):
        taken = np.zeros(data.shape, dtype=bool)

        def tap(i, j):
            hit = (win[..., i, j] == data) & ~taken
            taken[...] |= hit
            return g * hit

        x._accumulate(_fold(x.data, pads, kh, kw, stride, ho, wo, tap))

    return _make(data, (x,), backward, _needs(x))


def spatial_mean(x: Tensor) -> Tensor:
    """Mean over H and W, keeping [N, 1, 1, C]."""
    return mean(x, axes=(1, 2), keepdims=True)


def pad_channels(x: Tensor, out_channels: int) -> Tensor:
    c = x.data.shape[-1]
    if out_channels < c:
        raise ValueError(f"pad_channels cannot shrink {c} -> {out_channels}")
    width = [(0, 0)] * (x.data.ndim - 1) + [(0, out_channels - c)]
    data = np.pad(x.data, width)

    def backward(g):
        x._accumulate(g[..., :c])

    return _make(data, (x,), backward, _needs(x))


def tile_channels(x: Tensor, out_channels: int) -> Tensor:
    """Channel i of the output is input channel i mod C (any target >= C)."""
    c = x.data.shape[-1]
    if out_channels < c:
        raise ValueError(f"tile_channels cannot shrink {c} -> {out_channels}")
    reps = -(-out_channels // c)
    data = np.tile(x.data, (1,) * (x.data.ndim - 1) + (reps,))[..., :out_channels]

    def backward(g):
        full = reps * c
        if full != out_channels:
            width = [(0, 0)] * (g.ndim - 1) + [(0, full - out_channels)]
            g = np.pad(g, width)
        x._accumulate(g.reshape(g.shape[:-1] + (reps, c)).sum(axis=-2))

    return _make(data, (x,), backward, _needs(x))


def avg_channels(x: Tensor, out_channels: int) -> Tensor:
    """Averages each run of K = C/out consecutive channels."""
    c = x.data.shape[-1]
    if c % out_channels:
        raise ValueError(f"avg_channels {c} -> {out_channels} not integral")
    k = c // out_channels
    data = x.data.reshape(x.data.shape[:-1] + (out_channels, k)).mean(axis=-1)

    def backward(g):
        x._accumulate(np.repeat(g, k, axis=-1) / k)

    return _make(data, (x,), backward, _needs(x))


# ---------------------------------------------------------------------------
# Normalization and losses
# ---------------------------------------------------------------------------

BN_EPS = 1e-5


def batchnorm_train(x: Tensor, scale: Tensor, bias: Tensor):
    """Batch normalization over (N, H, W); returns (out, batch_mean, batch_var).

    Gradients flow through the batch statistics (biased variance). The
    returned statistics are plain arrays for the running-average update.
    """
    red = (0, 1, 2)
    count = x.data.size // x.data.shape[-1]
    mu = x.data.mean(axis=red)
    centered = x.data - mu
    # the arithmetic of np.var: square the centered values, then their mean
    var = np.square(centered).mean(axis=red)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.multiply(centered, inv, out=centered)
    data = xhat * scale.data
    data += bias.data

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


def batchnorm_eval(x: Tensor, scale: Tensor, bias: Tensor,
                   running_mean, running_var) -> Tensor:
    inv = (1.0 / np.sqrt(running_var + BN_EPS)).astype(x.data.dtype)
    centered = x - Tensor(np.asarray(running_mean, dtype=x.data.dtype))
    return add(mul(centered, mul(Tensor(inv), scale)), bias)


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

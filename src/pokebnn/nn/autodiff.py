"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records a backward closure per op, micrograd
style but vectorized. Tensors are rank-4 [N, H, W, C] throughout the network
code; losses are scalars. Quantizer ops carry straight-through gradients: the
rounding/sign forward is ignored in the backward pass and the clip gates the
gradient to the open interval (-B, B).

Each op is written once, as two array functions. The forward ``_name``
takes plain arrays and attributes and returns ``(out, saved)``, where
``saved`` holds the intermediates its gradient reuses. The vector-Jacobian
product ``_name_vjp(g, saved, needs, *args)`` takes the output gradient,
``saved``, a flag per argument that is a Tensor needing a gradient, and the
forward's own arguments; it returns one gradient per input, and may return
None for an input that needs none. One recorder, ``_record``, joins the pair
into the public op ``name``, which returns a Tensor and records the tape
only while some input needs a gradient. ``nn.Model`` builds no Tensor: it
calls the pairs directly and runs its own reverse pass. ``gradcheck`` also
calls the pairs, looked up by name, so it checks the functions Model runs.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import quant
from ..graphir import windows


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = parents

    @property
    def shape(self):
        return self.data.shape

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
        topo = _post_order(self, lambda node: node._parents)
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


def _post_order(root, parents) -> list:
    """The nodes that ``root`` reaches by ``parents(node)``, itself too, in
    the post-order of a depth-first sweep that enters the last parent first.
    Reversed, it is the order of ``Tensor.backward`` and ``Model``'s
    pullback, so both sum a value's gradients in the same order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack += [(p, False) for p in parents(node)]
    return order


def _channel_sum(a):
    """``a`` summed over every axis but the last. The bits equal those of
    ``a.sum(axis=(0, ..., a.ndim - 2))``, but one einsum over the rows runs
    several times faster when the last axis is short."""
    return np.einsum("mc->c", a.reshape(-1, a.shape[-1]))


def _unbroadcast(g, shape):
    """Reduces a gradient back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _record(forward, vjp):
    """The public op of an array forward and its VJP.

    This is the only code that builds op results, links the tape and
    accumulates gradients. The op takes the forward's arguments, with Tensors
    passed positionally in place of the arrays to differentiate. It returns
    a Tensor and, while some input needs a gradient, records a backward that
    accumulates ``vjp``'s gradient into each input that needs one. A forward
    that returns a tuple, as ``batchnorm_train`` does with its batch
    statistics, differentiates its first element and returns the rest as
    arrays.
    """
    @functools.wraps(forward)
    def op(*args, **attrs):
        inputs = [a for a in args if isinstance(a, Tensor)]
        arrays = [a.data if isinstance(a, Tensor) else a for a in args]
        out, saved = forward(*arrays, **attrs)
        rest = ()
        if type(out) is tuple:
            out, *rest = out
        result = Tensor(out)
        needs = [isinstance(a, Tensor) and (a.requires_grad or bool(a._parents))
                 for a in args]
        if any(needs):
            def backward(g):
                grads = vjp(g, saved, needs, *arrays, **attrs)
                for a, need, grad in zip(args, needs, grads):
                    if need:
                        a._accumulate(grad)

            result._parents = tuple(inputs)
            result._backward = backward
        return (result, *rest) if rest else result

    op.__name__ = op.__qualname__ = forward.__name__.lstrip("_")
    return op


# ---------------------------------------------------------------------------
# Elementwise and reduction primitives
# ---------------------------------------------------------------------------

def _add(a, b):
    return a + b, None


def _add_vjp(g, saved, needs, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _mul(a, b):
    return a * b, None


def _mul_vjp(g, saved, needs, a, b):
    return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


def _relu(x):
    return np.maximum(x, 0.0), None


def _relu_vjp(g, saved, needs, x):
    return (g * (x > 0),)


def _hardsigmoid(x):
    """relu6(x + 3) / 6, the gate nonlinearity of the SE block."""
    # the bits of np.clip(x + 3, 0, 6) / 6, NaN included, in one new array
    out = x + 3.0
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 6.0, out=out)
    out /= 6.0
    return out, None


def _hardsigmoid_vjp(g, saved, needs, x):
    inside = (x > -3.0) & (x < 3.0)
    return (g * inside / 6.0,)


def _dprelu(x, alpha, beta, gamma, eta):
    """Four-parameter piecewise-linear activation.

    eta*(x-alpha)-beta on the positive side of x-alpha, gamma*(x-alpha)-beta
    otherwise; all four parameters are per-channel vectors. Parameter
    gradients reduce over batch and spatial axes.

    Saves ``(shifted, pos)``: the shifted input x - alpha and the boolean
    mask of its positive side. The VJP recomputes the per-element slope
    from ``pos`` with the forward's own ``_dprelu_slope``, the same bits as
    a saved slope, so the record holds no third array of x's size; or reads
    it as a third entry of ``saved``, if a caller rebuilt it so already.
    """
    if alpha.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"dprelu channel mismatch: x has {x.shape[-1]}, "
            f"params have {alpha.shape[-1]}")
    shifted = x - alpha
    pos = shifted > 0
    # the slope is named, not a temporary: numpy writes a product into a
    # large temporary operand, in that operand's layout, and the channel
    # sums downstream add in layout order, so a changed layout changes bits
    slope = _dprelu_slope(pos, gamma, eta)
    data = slope * shifted
    data -= beta
    return data, (shifted, pos)


def _dprelu_slope(pos, gamma, eta):
    """eta where ``pos``, else gamma, broadcast to ``pos``'s shape."""
    slope = eta * pos
    slope += gamma * ~pos
    return slope


def _dprelu_vjp(g, saved, needs, x, alpha, beta, gamma, eta):
    shifted, pos, *rebuilt = saved
    # named, as in _dprelu; or the slope that a caller rebuilt so already
    slope = rebuilt[0] if rebuilt else _dprelu_slope(pos, gamma, eta)
    g_slope = g * slope
    g_shifted = g * shifted
    # the negative side's sum is the whole sum less the positive side's
    g_pos = _channel_sum(g_shifted * pos)
    return (g_slope, -_channel_sum(g_slope), -_channel_sum(g),
            _channel_sum(g_shifted) - g_pos, g_pos)


# ---------------------------------------------------------------------------
# Straight-through quantizers
# ---------------------------------------------------------------------------

def _binarize(x, bound):
    """sign(x) forward, STE backward; only the gradient reads the bound."""
    return quant.binarize(x), None


def _fake_quant_scales(bound, bits, dtype):
    """The scale pair of ``_fake_quant`` for an input of ``dtype``, from the
    bound cast to that dtype, so a float32 model stays float32."""
    return quant.fake_quant_scales(np.asarray(bound, dtype=dtype), bits)


def _fake_quant(x, bound, bits):
    """Grid projection forward, STE backward."""
    return quant.fake_quant_scaled(x, _fake_quant_scales(bound, bits, x.dtype),
                                   bits), None


def _ste_mask(x, bound):
    """Where the straight-through gradient passes: x inside (-B, B)."""
    return np.abs(x) < bound


def _ste_vjp(g, saved, needs, x, bound, *attrs):
    """The straight-through gradient of both quantizers: ``g`` where x is
    inside (-B, B), 0 outside. ``saved`` is None, or that mask itself, as
    ``_ste_mask`` made it in the forward, and then x is not read."""
    return (g * (_ste_mask(x, bound) if saved is None else saved),)


# ---------------------------------------------------------------------------
# Structured ops: convolution, dense, pooling, channel reshaping
# ---------------------------------------------------------------------------

def _fold(x, pads, kh, kw, stride, ho, wo, tap):
    """Adjoint of ``windows``: sums ``tap(i, j)``, the [N, ho, wo, C] gradient
    of kernel tap (i, j), back onto the positions of ``x`` it was read from."""
    if kh == kw == stride == 1 and not any(pads):
        return tap(0, 0)
    pt, pb, pl, pr = pads
    n, h, w, c = x.shape
    gx = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :] += tap(i, j)
    return gx[:, pt:pt + h, pl:pl + w, :]


def _conv2d(x, w, stride=1, padding="same"):
    """2D convolution, x [N,H,W,C] with w [kh,kw,C,F], as one im2col GEMM.
    Saves the im2col and the padding; the VJP reads the weight from its
    arguments."""
    kh, kw, c, f = w.shape
    if x.shape[-1] != c:
        raise ValueError(f"conv2d channel mismatch: input {x.shape[-1]}, weight {c}")
    if kh == kw == stride == 1:
        # a 1x1 window reads one unpadded position: the im2col is the input's
        # rows, the same C-ordered matrix as below, copied only if x is not
        n, ho, wo = x.shape[:3]
        cols, pads = np.ascontiguousarray(x).reshape(-1, c), (0, 0, 0, 0)
    else:
        win, pads = windows(x, kh, kw, stride, padding)   # [N, ho, wo, C, kh, kw]
        n, ho, wo = win.shape[:3]
        # im2col in the weight's (kh, kw, C) order, so the copy runs along C
        # and the weight is a plain reshape; made once for the forward GEMM
        # and both gradient GEMMs
        cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
        cols = cols.reshape(n * ho * wo, kh * kw * c)
    return (cols @ w.reshape(kh * kw * c, f)).reshape(n, ho, wo, f), (cols, pads)


def _conv2d_vjp(g, saved, needs, x, w, stride=1, padding="same"):
    cols, pads = saved
    kh, kw, c, f = w.shape
    n, ho, wo = g.shape[:3]
    g2 = g.reshape(-1, f)
    gx = gw = None
    if needs[1]:
        gw = (cols.T @ g2).reshape(kh, kw, c, f)
    if needs[0]:
        # one [positions, F] @ [F, C] product per tap, [taps, positions, C]
        gcols = np.matmul(g2, w.reshape(kh * kw, c, f).transpose(0, 2, 1))
        gcols = gcols.reshape(kh, kw, n, ho, wo, c)
        gx = _fold(x, pads, kh, kw, stride, ho, wo, lambda i, j: gcols[i, j])
    return gx, gw


_PAIR_PATH = ("einsum_path", (0, 1))


def _depthwise_conv2d(x, w, stride=1, padding="same"):
    """Depthwise convolution with channel multiplier, w [kh,kw,C,mult]."""
    kh, kw, c, m = w.shape
    if x.shape[-1] != c:
        raise ValueError(f"depthwise channel mismatch: input {x.shape[-1]}, weight {c}")
    win, pads = windows(x, kh, kw, stride, padding)
    # the path that optimize=True finds for two operands, without its search
    out = np.einsum("nhwckl,klcm->nhwcm", win, w, optimize=_PAIR_PATH)
    n, ho, wo = out.shape[:3]
    return out.reshape(n, ho, wo, c * m), (win, pads)


def _depthwise_conv2d_vjp(g, saved, needs, x, w, stride=1, padding="same"):
    win, pads = saved
    kh, kw, c, m = w.shape
    n, ho, wo = g.shape[:3]
    gr = g.reshape(-1, c, m).transpose(1, 0, 2)        # [C, positions, mult]
    gx = gw = None
    if needs[1]:
        # im2col as conv2d's, [positions, taps, C]; then one [taps,
        # positions] @ [positions, mult] product per channel
        cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
        gw = np.matmul(cols.reshape(-1, kh * kw, c).transpose(2, 1, 0), gr)
        gw = gw.reshape(c, kh, kw, m).transpose(1, 2, 0, 3)
    if needs[0]:
        # one [positions, mult] @ [mult, taps] product per channel
        gcols = np.matmul(gr, w.reshape(kh * kw, c, m).transpose(1, 2, 0))
        gcols = gcols.transpose(1, 0, 2).reshape(n, ho, wo, c, kh, kw)
        gx = _fold(x, pads, kh, kw, stride, ho, wo, lambda i, j: gcols[..., i, j])
    return gx, gw


def _dense(x, w, bias=None):
    """Channelwise linear map on the last axis: [..., C] @ [C, F]."""
    data = x @ w
    if bias is not None:
        data = data + bias
    return data, None


def _dense_vjp(g, saved, needs, x, w, bias=None):
    c, f = w.shape
    gx = g @ w.T if needs[0] else None
    gw = x.reshape(-1, c).T @ g.reshape(-1, f) if needs[1] else None
    gb = None
    if bias is not None and needs[2]:
        gb = _channel_sum(g)
    return gx, gw, gb


def _avg_pool(x, kernel=(3, 3), stride=2, padding="same", divisor=None):
    """Average pool with a fixed divisor (1/(kh*kw) by default, zero padding)."""
    kh, kw = kernel
    div = float(divisor) if divisor else 1.0 / (kh * kw)
    win, pads = windows(x, kh, kw, stride, padding)
    return win.sum(axis=(4, 5)) * div, (pads, div)


def _avg_pool_vjp(g, saved, needs, x, kernel=(3, 3), stride=2, padding="same",
                  divisor=None):
    pads, div = saved
    gd = g * div
    return (_fold(x, pads, *kernel, stride, *g.shape[1:3], lambda i, j: gd),)


def _max_pool(x, kernel=(3, 3), stride=2, padding="same"):
    """Max pool; the gradient goes to the first maximal tap in (i, j) order."""
    kh, kw = kernel
    win, pads = windows(x, kh, kw, stride, padding, fill=np.finfo(x.dtype).min)
    out = win.max(axis=(4, 5))
    return out, (win, pads, out)


def _max_pool_vjp(g, saved, needs, x, kernel=(3, 3), stride=2, padding="same"):
    win, pads, out = saved
    taken = np.zeros(out.shape, dtype=bool)

    def tap(i, j):
        hit = (win[..., i, j] == out) & ~taken
        taken[...] |= hit
        return g * hit

    return (_fold(x, pads, *kernel, stride, *out.shape[1:3], tap),)


def _spatial_mean(x):
    """Mean over H and W, keeping [N, 1, 1, C]: ``np.mean``'s sum and its
    divide by an ``intp`` count, without its Python wrapper, so bitwise
    ``x.mean(axis=(1, 2), keepdims=True)``."""
    out = np.add.reduce(x, (1, 2), None, None, True)
    return np.true_divide(out, np.intp(x.shape[1] * x.shape[2]), out=out,
                          casting="unsafe"), None


def _spatial_mean_vjp(g, saved, needs, x):
    return (np.broadcast_to(g / (x.shape[1] * x.shape[2]), x.shape),)


def _zero_pad_last(x, size):
    """``x`` with zeros appended along its last axis up to ``size``."""
    out = np.zeros(x.shape[:-1] + (size,), dtype=x.dtype)
    out[..., :x.shape[-1]] = x
    return out


def _pad_channels(x, out_channels):
    c = x.shape[-1]
    if out_channels < c:
        raise ValueError(f"pad_channels cannot shrink {c} -> {out_channels}")
    return _zero_pad_last(x, out_channels), None


def _pad_channels_vjp(g, saved, needs, x, out_channels):
    return (g[..., :x.shape[-1]],)


def _tile_channels(x, out_channels):
    """Channel i of the output is input channel i mod C (any target >= C)."""
    c = x.shape[-1]
    if out_channels < c:
        raise ValueError(f"tile_channels cannot shrink {c} -> {out_channels}")
    reps = -(-out_channels // c)
    return np.tile(x, (1,) * (x.ndim - 1) + (reps,))[..., :out_channels], reps


def _tile_channels_vjp(g, reps, needs, x, out_channels):
    c = x.shape[-1]
    full = reps * c
    if full != out_channels:
        g = _zero_pad_last(g, full)
    return (g.reshape(g.shape[:-1] + (reps, c)).sum(axis=-2),)


def _avg_channels(x, out_channels):
    """Averages each run of K = C/out consecutive channels."""
    c = x.shape[-1]
    if c % out_channels:
        raise ValueError(f"avg_channels {c} -> {out_channels} not integral")
    k = c // out_channels
    # channel j*k + i is slice i's channel j; summed slice by slice
    total = x[..., 0::k] + x[..., 1::k] if k > 1 else x.copy()
    for i in range(2, k):
        total += x[..., i::k]
    total /= k
    return total, k


def _avg_channels_vjp(g, k, needs, x, out_channels):
    return (np.repeat(g, k, axis=-1) / k,)


# ---------------------------------------------------------------------------
# Normalization and losses
# ---------------------------------------------------------------------------

BN_EPS = 1e-5


def _batchnorm_train(x, scale, bias):
    """Batch normalization over (N, H, W); returns (out, batch_mean, batch_var).

    Gradients flow through the batch statistics (biased variance). The
    returned statistics are plain arrays for the running-average update.
    """
    c = x.shape[-1]
    mu = _channel_sum(x) / (x.size // c)
    centered = x - mu
    # the biased variance: each channel's centered values dotted with
    # themselves, over the count
    rows = centered.reshape(-1, c)
    var = np.einsum("mc,mc->c", rows, rows) / len(rows)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    # scale * xhat + bias, with xhat = centered * inv folded into one factor
    data = centered * (scale * inv)
    data += bias
    return (data, mu, var), (centered, inv)


def _batchnorm_train_vjp(g, saved, needs, x, scale, bias):
    centered, inv = saved
    c = x.shape[-1]
    count = x.size // c
    g_sum = _channel_sum(g)
    # sum(g * xhat) = inv * sum(g * centered)
    g_xhat_sum = np.einsum("mc,mc->c", g.reshape(-1, c), centered.reshape(-1, c)) * inv
    gx = None
    if needs[0]:
        # scale * inv * (g - mean(g) - xhat * mean(g * xhat)), with the
        # factor k = scale * inv folded into each term
        k = scale * inv
        gx = g * k
        gx -= centered * (inv * g_xhat_sum * k / count)
        gx -= g_sum * k / count
    return gx, g_xhat_sum, g_sum


def _batchnorm_eval_constants(scale, running_mean, running_var, dtype):
    """The per-channel ``(mean, inv, k)`` of ``_batchnorm_eval`` for an input
    of ``dtype``, with ``k = inv * scale``: the part that depends only on the
    parameters and running statistics, which an eval run computes once."""
    # every operand in the input's dtype, so a float32 model stays float32
    inv = (1.0 / np.sqrt(running_var + BN_EPS)).astype(dtype)
    return np.asarray(running_mean, dtype=dtype), inv, inv * scale


def _batchnorm_eval_apply(x, bias, mean, k):
    """``(x - mean) * k + bias``; returns it and ``x - mean``."""
    centered = x - mean
    data = centered * k
    data += bias
    return data, centered


def _batchnorm_eval(x, scale, bias, running_mean, running_var):
    """Batch normalization with fixed statistics: (x - mean) * inv * scale + bias."""
    mean, inv, k = _batchnorm_eval_constants(scale, running_mean, running_var, x.dtype)
    data, centered = _batchnorm_eval_apply(x, bias, mean, k)
    return data, (centered, inv, k)


def _batchnorm_eval_vjp(g, saved, needs, x, scale, bias, running_mean,
                        running_var):
    centered, inv, k = saved
    return (g * k if needs[0] else None,
            _channel_sum(g * centered) * inv if needs[1] else None,
            _channel_sum(g) if needs[2] else None)


def _log_softmax(x):
    """Stable log-softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    return data, data


def _log_softmax_vjp(g, data, needs, x):
    return (g - np.exp(data) * g.sum(axis=-1, keepdims=True),)


def _cross_entropy(logits, labels):
    """Mean negative log-likelihood; logits [N, K], integer labels [N]."""
    ls, _ = _log_softmax(logits)
    picked = (np.arange(ls.shape[0]), np.asarray(labels))
    return np.asarray(-ls[picked].mean()), (ls, picked)


def _cross_entropy_vjp(g, saved, needs, logits, labels):
    ls, picked = saved
    gl = np.zeros_like(ls)
    gl[picked] = -g / ls.shape[0]
    return _log_softmax_vjp(gl, ls, needs, logits)


def _kl_divergence(logits, teacher_probs):
    """Mean KL(teacher || softmax(logits)) over the batch."""
    t = np.asarray(teacher_probs, dtype=logits.dtype)
    ls, _ = _log_softmax(logits)
    safe = np.where(t > 0, t, 1.0)
    return np.asarray((t * (np.log(safe) - ls)).sum(axis=-1).mean()), (ls, t)


def _kl_divergence_vjp(g, saved, needs, logits, teacher_probs):
    ls, t = saved
    return _log_softmax_vjp(-g * t / t.shape[0], ls, needs, logits)


# The ops whose VJP reads the arrays passed in front of the parameters (the
# activation inputs; both of add's) only for their shape and dtype; so a
# pullback record may keep a zero-byte stand-in of each
SHAPE_ONLY = frozenset({
    "add", "dprelu", "conv2d", "depthwise_conv2d", "avg_pool", "max_pool",
    "spatial_mean", "pad_channels", "tile_channels", "avg_channels",
    "batchnorm_train", "batchnorm_eval"})


# ---------------------------------------------------------------------------
# The public ops: each joins an array forward to its VJP
# ---------------------------------------------------------------------------

add = _record(_add, _add_vjp)
mul = _record(_mul, _mul_vjp)
relu = _record(_relu, _relu_vjp)
hardsigmoid = _record(_hardsigmoid, _hardsigmoid_vjp)
dprelu = _record(_dprelu, _dprelu_vjp)
binarize = _record(_binarize, _ste_vjp)
fake_quant = _record(_fake_quant, _ste_vjp)
conv2d = _record(_conv2d, _conv2d_vjp)
depthwise_conv2d = _record(_depthwise_conv2d, _depthwise_conv2d_vjp)
dense = _record(_dense, _dense_vjp)
avg_pool = _record(_avg_pool, _avg_pool_vjp)
max_pool = _record(_max_pool, _max_pool_vjp)
pad_channels = _record(_pad_channels, _pad_channels_vjp)
tile_channels = _record(_tile_channels, _tile_channels_vjp)
avg_channels = _record(_avg_channels, _avg_channels_vjp)
spatial_mean = _record(_spatial_mean, _spatial_mean_vjp)
batchnorm_train = _record(_batchnorm_train, _batchnorm_train_vjp)
batchnorm_eval = _record(_batchnorm_eval, _batchnorm_eval_vjp)
log_softmax = _record(_log_softmax, _log_softmax_vjp)
cross_entropy = _record(_cross_entropy, _cross_entropy_vjp)
kl_divergence = _record(_kl_divergence, _kl_divergence_vjp)

"""Finite-difference gradient oracles for every smooth op.

The check builds a scalar objective sum(op(inputs) * projection), runs the
analytic backward pass, then compares each input gradient against central
differences in double precision. Quantizer ops run in surrogate mode (the
rounding/sign removed), where the straight-through gradient is the true
gradient away from the clip boundaries. The SE path and shortcut reshaping
are checked as small lowered graphs run by ``Model``, the code training runs.
"""

from __future__ import annotations

import numpy as np

from . import builders
from .graphir import DType
from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .nn.model import Model

FD_STEP = 1e-6


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm((a - b).ravel())
    den = np.linalg.norm(a.ravel()) + np.linalg.norm(b.ravel())
    if den == 0:
        return 0.0
    return float(num / den)


def check_gradients(fn, values: dict[str, np.ndarray], grads,
                    seed: int = 0, step: float = FD_STEP) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn()`` returns an output array and its pullback. Every array of
    ``values`` is perturbed elementwise, in place; ``grads()`` returns their
    analytic gradients by name once the pullback has run.
    """
    rng = np.random.default_rng(seed)
    out, _ = fn()
    proj = rng.normal(size=out.shape)

    def objective():
        return float((fn()[0] * proj).sum())

    fn()[1](proj)
    analytic = grads()
    worst = 0.0
    for name, value in values.items():
        fd = np.zeros_like(value)
        flat = value.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = objective()
            flat[i] = orig - step
            down = objective()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * step)
        worst = max(worst, relative_error(np.asarray(analytic[name]), fd))
    return worst


def _check_op(fn, tensors: dict[str, Tensor], seed: int) -> float:
    """``check_gradients`` of ``fn``, which maps the named Tensors to an
    output Tensor through the op-level API."""
    def run():
        out = fn()
        return out.data, out.backward
    return check_gradients(run, {name: t.data for name, t in tensors.items()},
                           lambda: {name: np.zeros_like(t.data) if t.grad is None
                                    else t.grad for name, t in tensors.items()},
                           seed=seed)


def _away_from(x, centers, margin=5e-3):
    """Nudges values off kink points so central differences stay two-sided."""
    for c in centers:
        near = np.abs(x - c) < margin
        x = np.where(near, c + np.sign(x - c + 1e-12) * margin * 2, x)
    return x


def _float_1x1(out_channels: int, stride: int = 1) -> dict:
    return dict(kernel=[1, 1], stride=stride, padding="same",
                out_channels=out_channels, groups=1,
                act_bits=DType.FP32, weight_bits=DType.FP32)


def _graph_error(b, last_id, rng, seed: int) -> float:
    """Gradient error over every parameter of a lowered graph, run by Model
    in phase 1 with surrogate quantizers."""
    model = Model(b.finish(last_id), seed=seed)
    x = rng.normal(size=(2, *b.g.input_shape))
    return check_gradients(
        lambda: model.forward(x, training=False, phase=1, surrogate=True),
        model.params, lambda: model.arena.grad_views, seed=seed)


def run_gradcheck(seed: int = 0, instances: int = 20) -> dict[str, float]:
    """Finite-difference error per op over random toy instances."""
    rng = np.random.default_rng(seed)
    results = {}

    def record(name, build):
        worst = 0.0
        for k in range(instances):
            worst = max(worst, build(rng, seed * 1000 + k))
        results[name] = worst

    def t(shape, rng, scale=1.0):
        return Tensor(scale * rng.normal(size=shape), requires_grad=True)

    # (input [N, H, W, C], kernel, stride, padding): 3x3 at strides 1 and 2,
    # 1x1, the 4x4 stride-4 stem, 3x1, valid padding and one-row inputs
    conv_shapes = [((2, 5, 5, 3), (3, 3), 1, "same"),
                   ((2, 5, 5, 3), (3, 3), 2, "same"),
                   ((2, 4, 4, 5), (1, 1), 1, "same"),
                   ((2, 4, 4, 5), (1, 1), 2, "same"),
                   ((2, 8, 8, 3), (4, 4), 4, "same"),
                   ((2, 5, 4, 3), (3, 1), 1, "same"),
                   ((2, 6, 5, 3), (3, 3), 1, "valid"),
                   ((2, 7, 6, 2), (3, 2), 2, "valid"),
                   ((2, 1, 6, 3), (3, 3), 1, "same"),
                   ((2, 1, 6, 3), (1, 3), 2, "valid")]

    def conv_case(rng, s):
        shape, (kh, kw), stride, padding = conv_shapes[s % len(conv_shapes)]
        x = t(shape, rng)
        w = t((kh, kw, shape[-1], 4), rng)
        return _check_op(
            lambda: ad.conv2d(x, w, stride=stride, padding=padding),
            {"x": x, "w": w}, seed=s)
    record("conv2d", conv_case)

    def depthwise_case(rng, s):
        x = t((2, 5, 5, 3), rng)
        w = t((3, 3, 3, 2), rng)
        return _check_op(lambda: ad.depthwise_conv2d(x, w),
                         {"x": x, "w": w}, seed=s)
    record("depthwise_conv2d", depthwise_case)

    def dense_case(rng, s):
        x = t((4, 1, 1, 6), rng)
        w = t((6, 3), rng)
        b = t((3,), rng)
        return _check_op(lambda: ad.dense(x, w, b),
                         {"x": x, "w": w, "b": b}, seed=s)
    record("dense", dense_case)

    def bn_case(rng, s):
        x = t((4, 3, 3, 2), rng)
        scale = t((2,), rng)
        bias = t((2,), rng)
        return _check_op(
            lambda: ad.batchnorm_train(x, scale, bias)[0],
            {"x": x, "scale": scale, "bias": bias}, seed=s)
    record("batchnorm", bn_case)

    def dprelu_case(rng, s):
        xd = rng.normal(size=(2, 4, 4, 3))
        alpha = rng.normal(size=3) * 0.3
        xd = _away_from(xd, alpha.reshape(1, 1, 1, 3), margin=0.02)
        x = Tensor(xd, requires_grad=True)
        pa = Tensor(alpha, requires_grad=True)
        pb = t((3,), rng)
        pg = Tensor(np.full(3, 0.25) + 0.1 * rng.normal(size=3), requires_grad=True)
        pe = Tensor(np.ones(3) + 0.1 * rng.normal(size=3), requires_grad=True)
        return _check_op(
            lambda: ad.dprelu(x, pa, pb, pg, pe),
            {"x": x, "alpha": pa, "beta": pb, "gamma": pg, "eta": pe}, seed=s)
    record("dprelu", dprelu_case)

    def dprelu_kink_case(rng, s):
        # half the inputs sit exactly on the kink x == alpha, where the
        # output is -beta on both sides; beta, gamma and eta are smooth there
        alpha = rng.normal(size=3) * 0.3
        xd = _away_from(rng.normal(size=(2, 4, 4, 3)), alpha, margin=0.02)
        xd = np.where(rng.random(size=xd.shape) < 0.5, alpha, xd)
        x, pa = Tensor(xd), Tensor(alpha)
        pb = t((3,), rng)
        pg = Tensor(np.full(3, 0.25) + 0.1 * rng.normal(size=3), requires_grad=True)
        pe = Tensor(np.ones(3) + 0.1 * rng.normal(size=3), requires_grad=True)
        return _check_op(
            lambda: ad.dprelu(x, pa, pb, pg, pe),
            {"beta": pb, "gamma": pg, "eta": pe}, seed=s)
    record("dprelu_at_alpha", dprelu_kink_case)

    def se_case(rng, s):
        # a float 1x1 conv puts a parameter upstream of the SE path
        b = builders._GraphBuilder("se_path", (4, 4, 3))
        r = b.emit("conv", "conv2d", ["in"], **_float_1x1(16))
        return _graph_error(b, builders._emit_se(b, "", r, 8), rng, s)
    record("se_path", se_case)

    def avg_pool_case(rng, s):
        x = t((2, 6, 6, 2), rng)
        return _check_op(lambda: ad.avg_pool(x, (3, 3), 2, "same"),
                         {"x": x}, seed=s)
    record("avg_pool", avg_pool_case)

    def spatial_mean_case(rng, s):
        x = t((3, 5, 5, 4), rng)
        return _check_op(lambda: ad.spatial_mean(x), {"x": x}, seed=s)
    record("spatial_mean", spatial_mean_case)

    def reshape_add_case(rng, s):
        # expansion by padding, by tiling, and a non-integral contraction,
        # each followed by the stride-2 spatial pool
        r_ch, expand_op = ((4, "pad_channels"), (4, "tile_channels"),
                           (12, "pad_channels"))[s % 3]
        b = builders._GraphBuilder("reshape_add", (6, 6, 3))
        r = b.emit("conv", "conv2d", ["in"], **_float_1x1(r_ch))
        x = b.emit("down", "conv2d", ["in"], **_float_1x1(8, stride=2))
        rr = builders._emit_reshape(b, "", r, 8, b.shape[x][:2], expand_op)
        return _graph_error(b, b.emit("add", "add", [x, rr]), rng, s)
    record("reshape_add", reshape_add_case)

    def avg_channels_case(rng, s):
        x = t((2, 3, 3, 8), rng)
        return _check_op(lambda: ad.avg_channels(x, 2), {"x": x}, seed=s)
    record("avg_channels", avg_channels_case)

    def quant_surrogate_case(rng, s):
        # away from +-B by a clear margin; surrogate fake-quant is smooth there
        xd = rng.normal(size=(3, 2, 2, 4))
        xd = np.clip(xd, -2.5, 2.5)
        xd = _away_from(xd, [-1.0, 1.0], margin=1e-2)
        x = Tensor(xd, requires_grad=True)
        return _check_op(
            lambda: ad.fake_quant(x, 1.0, 8, surrogate=True), {"x": x}, seed=s)
    record("fake_quant_surrogate", quant_surrogate_case)

    def softmax_case(rng, s):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        labels = rng.integers(0, 6, size=4)
        return _check_op(lambda: ad.cross_entropy(x, labels),
                         {"x": x}, seed=s)
    record("cross_entropy", softmax_case)

    def bn_eval_case(rng, s):
        x = t((4, 3, 3, 2), rng)
        scale = t((2,), rng)
        bias = t((2,), rng)
        mean, var = rng.normal(size=2), 0.5 + rng.random(size=2)
        return _check_op(
            lambda: ad.batchnorm_eval(x, scale, bias, mean, var),
            {"x": x, "scale": scale, "bias": bias}, seed=s)
    record("batchnorm_eval", bn_eval_case)

    def kl_case(rng, s):
        # one teacher probability per row is zero, the log-safe branch
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        teacher = np.exp(rng.normal(size=(4, 6)))
        teacher[np.arange(4), rng.integers(0, 6, size=4)] = 0.0
        teacher /= teacher.sum(axis=-1, keepdims=True)
        return _check_op(lambda: ad.kl_divergence(x, teacher),
                         {"x": x}, seed=s)
    record("kl_divergence", kl_case)

    return results

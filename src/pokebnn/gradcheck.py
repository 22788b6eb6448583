"""Finite-difference gradient oracles for every smooth op.

The check builds a scalar objective sum(op(inputs) * projection), runs the
analytic backward pass, then compares each input gradient against central
differences in double precision. Single ops call the array pairs of
``nn.autodiff``, ``_name`` and ``_name_vjp``, looked up by name when the
check runs, as ``Model`` looks them up when it lowers a graph. Quantizers are
checked through their smooth surrogate, the clip with the rounding removed,
whose gradient is the straight-through one away from the clip boundaries.
The SE path and shortcut reshaping are checked as small lowered graphs run
by ``Model``, the code training runs.
"""

from __future__ import annotations

import numpy as np

from . import builders, quant
from .graphir import DType
from .nn import autodiff as ad
from .nn.model import Model

FD_STEP = 1e-6


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm((a - b).ravel())
    den = np.linalg.norm(a.ravel()) + np.linalg.norm(b.ravel())
    if den == 0:
        return 0.0
    return float(num / den)


def check_gradients(fn, values: dict[str, np.ndarray], grads,
                    seed: int = 0) -> float:
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
            flat[i] = orig + FD_STEP
            up = objective()
            flat[i] = orig - FD_STEP
            down = objective()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * FD_STEP)
        worst = max(worst, relative_error(np.asarray(analytic[name]), fd))
    return worst


def _check_op(op, args: dict[str, np.ndarray], wrt, seed: int, *attrs) -> float:
    """``check_gradients`` of one op with respect to the arrays named in
    ``wrt``. ``op`` is an op name, whose pair ``ad._op``, ``ad._op_vjp`` is
    looked up now, or a ``(forward, vjp)`` pair. The forward is called on the
    arrays ``args``, in order, then ``attrs``; a tuple output, as
    ``batchnorm_train`` returns, is checked through its first element."""
    forward, vjp = ((getattr(ad, f"_{op}"), getattr(ad, f"_{op}_vjp"))
                    if isinstance(op, str) else op)
    arrays = list(args.values())
    needs = [name in wrt for name in args]
    grads = {}

    def run():
        out, saved = forward(*arrays, *attrs)

        def pullback(g):
            grads.update(zip(args, vjp(g, saved, needs, *arrays, *attrs)))
        return (out[0] if type(out) is tuple else out), pullback
    return check_gradients(run, {name: args[name] for name in wrt},
                           lambda: grads, seed=seed)


def _normals(rng, **shapes) -> dict[str, np.ndarray]:
    """A standard normal array of each shape, drawn in argument order."""
    return {name: rng.normal(size=shape) for name, shape in shapes.items()}


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
    """Gradient error over every parameter of a lowered graph of float ops,
    run by Model in phase 1."""
    model = Model(b.finish(last_id), seed=seed)
    x = rng.normal(size=(2, *b.g.input_shape))
    data = model.arena.writable()     # perturbed in place; forward caches no value
    return check_gradients(
        lambda: model.forward(x, training=False, phase=1),
        {n: data[model.arena.spans[n]].reshape(v.shape) for n, v in model.params.items()},
        lambda: model.arena.grad_views, seed=seed)


def run_gradcheck(seed: int = 0, instances: int = 20) -> dict[str, float]:
    """Finite-difference error per op over random toy instances."""
    rng = np.random.default_rng(seed)
    results = {}

    def record(name, build):
        worst = 0.0
        for k in range(instances):
            worst = max(worst, build(rng, seed * 1000 + k))
        results[name] = worst

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
        return _check_op("conv2d", _normals(rng, x=shape, w=(kh, kw, shape[-1], 4)),
                         ("x", "w"), s, stride, padding)
    record("conv2d", conv_case)

    def x_case(op, shape, *attrs):
        """The case of an op whose one array input is checked."""
        return lambda rng, s: _check_op(op, _normals(rng, x=shape), ("x",), s, *attrs)

    record("depthwise_conv2d", lambda rng, s: _check_op(
        "depthwise_conv2d", _normals(rng, x=(2, 5, 5, 3), w=(3, 3, 3, 2)), ("x", "w"), s))
    record("dense", lambda rng, s: _check_op(
        "dense", _normals(rng, x=(4, 1, 1, 6), w=(6, 3), b=3), ("x", "w", "b"), s))
    bn_shapes = dict(x=(4, 3, 3, 2), scale=2, bias=2)
    record("batchnorm", lambda rng, s: _check_op(
        "batchnorm_train", _normals(rng, **bn_shapes), tuple(bn_shapes), s))

    def dprelu_args(rng, x, alpha):
        return {"x": x, "alpha": alpha, "beta": rng.normal(size=3),
                "gamma": np.full(3, 0.25) + 0.1 * rng.normal(size=3),
                "eta": np.ones(3) + 0.1 * rng.normal(size=3)}

    def dprelu_case(rng, s):
        xd = rng.normal(size=(2, 4, 4, 3))
        alpha = rng.normal(size=3) * 0.3
        args = dprelu_args(rng, _away_from(xd, alpha.reshape(1, 1, 1, 3), margin=0.02),
                           alpha)
        return _check_op("dprelu", args, tuple(args), s)
    record("dprelu", dprelu_case)

    def dprelu_kink_case(rng, s):
        # half the inputs sit exactly on the kink x == alpha, where the
        # output is -beta on both sides; beta, gamma and eta are smooth there
        alpha = rng.normal(size=3) * 0.3
        xd = _away_from(rng.normal(size=(2, 4, 4, 3)), alpha, margin=0.02)
        xd = np.where(rng.random(size=xd.shape) < 0.5, alpha, xd)
        return _check_op("dprelu", dprelu_args(rng, xd, alpha),
                         ("beta", "gamma", "eta"), s)
    record("dprelu_at_alpha", dprelu_kink_case)

    def se_case(rng, s):
        # a float 1x1 conv puts a parameter upstream of the SE path
        b = builders._GraphBuilder("se_path", (4, 4, 3))
        r = b.emit("conv", "conv2d", ["in"], **_float_1x1(16))
        return _graph_error(b, builders._emit_se(b, "", r, 8), rng, s)
    record("se_path", se_case)
    record("avg_pool", x_case("avg_pool", (2, 6, 6, 2), (3, 3), 2, "same"))
    record("spatial_mean", x_case("spatial_mean", (3, 5, 5, 4)))

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
    record("avg_channels", x_case("avg_channels", (2, 3, 3, 8), 2))

    def quant_surrogate_case(rng, s):
        # away from +-B by a clear margin, where the surrogate is smooth and
        # its gradient is the straight-through one
        xd = rng.normal(size=(3, 2, 2, 4))
        xd = np.clip(xd, -2.5, 2.5)
        xd = _away_from(xd, [-1.0, 1.0], margin=1e-2)
        surrogate = (lambda x, bound, bits:
                     (quant.fake_quant_surrogate(x, bound, bits), None), ad._ste_vjp)
        return _check_op(surrogate, {"x": xd}, ("x",), s, 1.0, 8)
    record("fake_quant_surrogate", quant_surrogate_case)

    def softmax_case(rng, s):
        x = _normals(rng, x=(4, 6))
        return _check_op("cross_entropy", x, ("x",), s, rng.integers(0, 6, size=4))
    record("cross_entropy", softmax_case)

    def bn_eval_case(rng, s):
        args = _normals(rng, **bn_shapes)
        mean, var = rng.normal(size=2), 0.5 + rng.random(size=2)
        return _check_op("batchnorm_eval", args, tuple(args), s, mean, var)
    record("batchnorm_eval", bn_eval_case)

    def kl_case(rng, s):
        # one teacher probability per row is zero, the log-safe branch
        x = _normals(rng, x=(4, 6))
        teacher = np.exp(rng.normal(size=(4, 6)))
        teacher[np.arange(4), rng.integers(0, 6, size=4)] = 0.0
        teacher /= teacher.sum(axis=-1, keepdims=True)
        return _check_op("kl_divergence", x, ("x",), s, teacher)
    record("kl_divergence", kl_case)

    # (input [N, H, W, C], kernel, stride, padding)
    pool_shapes = [((2, 5, 5, 2), (3, 3), 2, "same"),
                   ((2, 6, 6, 2), (2, 2), 2, "valid"),
                   ((2, 5, 4, 2), (3, 1), 1, "same")]

    def max_pool_case(rng, s):
        # a permutation of a grid 0.1 apart: no window's top two values lie
        # within the finite-difference step of each other
        shape, *attrs = pool_shapes[s % len(pool_shapes)]
        x = 0.1 * rng.permutation(np.prod(shape)).reshape(shape) - 1.0
        return _check_op("max_pool", {"x": x}, ("x",), s, *attrs)
    record("max_pool", max_pool_case)
    # 3 -> 7 does not divide, so the VJP zero-pads its gradient to 9 channels
    record("tile_channels", x_case("tile_channels", (2, 3, 3, 3), 7))

    return results

import weakref

import numpy as np
import pytest

from pokebnn import train
from pokebnn.builders import build_pokebnn_toy
from pokebnn.gradcheck import check_gradients, run_gradcheck
from pokebnn.graphir import pad_amounts, windows
from pokebnn.kernels import float_conv2d
from pokebnn.nn import autodiff as ad
from pokebnn.nn.autodiff import Tensor
from pokebnn.nn.model import Model


def tensor(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestSTEGradients:
    def test_binarize_forward_ignores_bound(self):
        x = tensor(np.random.default_rng(0).normal(size=64))
        outs = [ad.binarize(x, b).data for b in (0.5, 1.0, 3.0, 6.0)]
        for o in outs[1:]:
            assert np.array_equal(o, outs[0])

    def test_binarize_backward_is_indicator(self):
        x = tensor(np.array([-3.5, -0.3, 0.0, 2.9, 3.0, 3.5]))
        out = ad.binarize(x, 3.0)
        out.backward(np.ones_like(out.data))
        assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_fake_quant_backward_is_indicator(self):
        rng = np.random.default_rng(1)
        x = tensor(rng.uniform(-2, 2, size=1000))
        out = ad.fake_quant(x, 1.0, 8)
        upstream = rng.normal(size=1000)
        out.backward(upstream)
        want = upstream * (np.abs(x.data) < 1.0)
        assert np.array_equal(x.grad, want)

    def test_binarize_gives_only_signs(self):
        x = tensor(np.random.default_rng(11).normal(size=(1, 6, 6, 8)))
        assert set(np.unique(ad.binarize(x, 3.0).data)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_binarize_keeps_dtype(self, dtype):
        x = Tensor(np.array([-1.0, -0.0, 0.0, 2.0], dtype=dtype), requires_grad=True)
        out = ad.binarize(x, 3.0)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, [-1, 1, 1, 1])

    def test_zero_upstream_zero_grads(self):
        x = tensor(np.random.default_rng(2).normal(size=(2, 3, 3, 4)))
        w = tensor(np.random.default_rng(3).normal(size=(3, 3, 4, 4)))
        out = ad.conv2d(x, w)
        out.backward(np.zeros_like(out.data))
        assert np.all(x.grad == 0) and np.all(w.grad == 0)


def dprelu_params(channels, alpha=0.0, beta=0.0, gamma=0.25, eta=1.0):
    """The four DPReLU vectors; the defaults are the executor's init values."""
    return [tensor(np.full(channels, v)) for v in (alpha, beta, gamma, eta)]


class TestDPReLU:
    def test_positive_side_is_identity(self):
        x = tensor(np.full((1, 1, 1, 1), 2.0))
        assert ad.dprelu(x, *dprelu_params(1)).data.item() == 2.0

    def test_negative_slope_quarter(self):
        x = tensor(np.full((1, 1, 1, 1), -2.0))
        assert ad.dprelu(x, *dprelu_params(1)).data.item() == -0.5

    def test_shifted_example(self):
        x = tensor(np.full((1, 1, 1, 1), 3.0))
        params = dprelu_params(1, alpha=1.0, beta=0.5, eta=2.0)
        assert ad.dprelu(x, *params).data.item() == 2 * (3 - 1) - 0.5

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            ad.dprelu(tensor(np.zeros((1, 2, 2, 4))), *dprelu_params(3))

    def test_kink_takes_the_gamma_side(self):
        # x == alpha is not on the positive side: the slope there is gamma
        alpha, beta, gamma, eta = dprelu_params(2, alpha=0.5, beta=0.25,
                                                gamma=0.125, eta=2.0)
        x = tensor(np.array([0.5, 0.5, 1.5, -0.5]).reshape(1, 1, 2, 2))
        out = ad.dprelu(x, alpha, beta, gamma, eta)
        assert np.array_equal(out.data.ravel(), [-0.25, -0.25, 1.75, -0.375])
        out.backward(np.ones_like(out.data))
        assert np.array_equal(x.grad.ravel(), [0.125, 0.125, 2.0, 0.125])
        assert np.array_equal(gamma.grad, [0.0, -1.0])
        assert np.array_equal(eta.grad, [1.0, 0.0])
        assert np.array_equal(alpha.grad, [-2.125, -0.25])

    def test_param_gradients_reduce_over_batch_and_space(self):
        params = dprelu_params(2)
        x = tensor(np.random.default_rng(0).normal(size=(3, 4, 4, 2)))
        out = ad.dprelu(x, *params)
        out.backward(np.ones_like(out.data))
        for t in params:
            assert t.grad.shape == (2,)
            assert np.all(np.isfinite(t.grad))


class TestHardSigmoid:
    def test_zero_gates_half(self):
        assert ad.hardsigmoid(tensor(np.zeros((1, 1, 1, 4)))).data.mean() == 0.5

    def test_saturation(self):
        assert np.all(ad.hardsigmoid(tensor(np.full((1, 1, 1, 2), 3.0))).data == 1.0)
        assert np.all(ad.hardsigmoid(tensor(np.full((1, 1, 1, 2), -3.0))).data == 0.0)


class TestChannelReshape:
    def test_pad_formula(self):
        out = ad.pad_channels(tensor([[[[1.0, 2.0]]]]), 4)
        assert np.array_equal(out.data, [[[[1.0, 2.0, 0.0, 0.0]]]])

    def test_tile_formula(self):
        out = ad.tile_channels(tensor([[[[1.0, 2.0]]]]), 4)
        assert np.array_equal(out.data, [[[[1.0, 2.0, 1.0, 2.0]]]])

    def test_avg_formula(self):
        out = ad.avg_channels(tensor([[[[1.0, 3.0, 5.0, 7.0]]]]), 2)
        assert np.array_equal(out.data, [[[[2.0, 6.0]]]])

    def test_pad_preserves_sum(self):
        r = tensor(np.random.default_rng(4).normal(size=(1, 3, 3, 4)))
        assert ad.pad_channels(r, 8).data.sum() == pytest.approx(r.data.sum())

    def test_tile_doubles_sum_for_double_expansion(self):
        r = tensor(np.random.default_rng(5).normal(size=(1, 3, 3, 4)))
        assert ad.tile_channels(r, 8).data.sum() == pytest.approx(2 * r.data.sum())

    def test_avg_preserves_group_means(self):
        r = np.random.default_rng(6).normal(size=(1, 2, 2, 8))
        out = ad.avg_channels(tensor(r), 4)
        assert np.allclose(out.data, r.reshape(1, 2, 2, 4, 2).mean(-1))

    def test_avg_not_integral_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            ad.avg_channels(tensor(np.ones((1, 2, 2, 8))), 3)


class TestGradcheckSuite:
    """Finite-difference oracles for every smooth op (>= 20 instances each
    in the acceptance run; a lighter pass here)."""

    def test_all_ops_under_tolerance(self):
        results = run_gradcheck(seed=0, instances=4)
        assert set(results) >= {"conv2d", "depthwise_conv2d", "dense",
                                "batchnorm", "dprelu", "se_path", "avg_pool",
                                "spatial_mean", "reshape_add", "avg_channels",
                                "batchnorm_eval", "kl_divergence"}
        for op, err in results.items():
            assert err < 1e-3, (op, err)

    def test_checks_the_vjp_that_model_runs(self, monkeypatch):
        # the check looks the array pairs up when it runs, so a wrong VJP
        # that Model would call is a wrong VJP that gradcheck reports
        dense_vjp = ad._dense_vjp

        def skewed(*args):
            gx, gw, gb = dense_vjp(*args)
            return gx, gw * 1.01, gb
        monkeypatch.setattr(ad, "_dense_vjp", skewed)
        assert run_gradcheck(instances=2)["dense"] >= 1e-3


class TestOpEdgeCases:
    def test_tile_nondivisible(self):
        x = tensor(np.arange(3.0).reshape(1, 1, 1, 3))
        out = ad.tile_channels(x, 7)
        assert np.array_equal(out.data.ravel(), [0, 1, 2, 0, 1, 2, 0])
        out.backward(np.ones_like(out.data))
        assert np.array_equal(x.grad.ravel(), [3, 2, 2])

    def test_max_pool_forward_and_gradient(self):
        x = tensor(np.array([[1.0, 2.0], [4.0, 3.0]]).reshape(1, 2, 2, 1))
        out = ad.max_pool(x, kernel=(2, 2), stride=2, padding="same")
        assert out.data.item() == 4.0
        out.backward(np.ones_like(out.data))
        assert np.array_equal(x.grad.reshape(2, 2), [[0, 0], [1, 0]])

    def test_pad_shrink_rejected(self):
        with pytest.raises(ValueError):
            ad.pad_channels(tensor(np.zeros((1, 1, 1, 4))), 2)

    def test_conv_channel_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ad.conv2d(tensor(np.zeros((1, 4, 4, 3))),
                      tensor(np.zeros((3, 3, 4, 8))))

    def test_broadcast_gradients_reduce(self):
        x = tensor(np.ones((2, 3, 3, 4)))
        gate = tensor(np.full((2, 1, 1, 4), 0.5))
        out = ad.mul(x, gate)
        out.backward(np.ones_like(out.data))
        assert gate.grad.shape == (2, 1, 1, 4)
        assert np.all(gate.grad == 9.0)

    def test_backward_accumulates_over_fanout(self):
        x = tensor(np.array([2.0]))
        out = ad.add(x, x)
        out.backward(np.array([1.0]))
        assert x.grad.item() == 2.0


def max_pool_oracle(x, kernel, stride, padding):
    """Max over the in-bounds taps of each window of an [H, W, C] array."""
    (kh, kw), (h, w, _) = kernel, x.shape
    pt, pb = pad_amounts(h, kh, stride, padding)
    pl, pr = pad_amounts(w, kw, stride, padding)
    ho, wo = (h + pt + pb - kh) // stride + 1, (w + pl + pr - kw) // stride + 1
    out = np.empty((ho, wo, x.shape[2]))
    for y in range(ho):
        for xx in range(wo):
            r0, c0 = y * stride - pt, xx * stride - pl
            out[y, xx] = x[max(r0, 0):r0 + kh, max(c0, 0):c0 + kw].max(axis=(0, 1))
    return out


SPATIAL_CASES = [
    (kernel, stride, padding, hw)
    for kernel in [(1, 1), (2, 2), (3, 3), (3, 1), (2, 4)]
    for stride in (1, 2, 3)
    for padding in ("same", "valid")
    for hw in ((7, 6), (1, 9))
    if padding == "same" or (hw[0] >= kernel[0] and hw[1] >= kernel[1])]


class TestSpatialForwardOracles:
    """Each spatial op against float_conv2d or a brute-force max, then the
    adjoint identity <out, g> = <x, dx> (all four ops are linear in x on each
    piece), which checks the gradient fold on the same windows."""

    @pytest.mark.parametrize("kernel,stride,padding,hw", SPATIAL_CASES)
    def test_matches_oracle(self, kernel, stride, padding, hw):
        rng = np.random.default_rng(sum(kernel) + 10 * stride + hw[0])
        (kh, kw), c = kernel, 3
        xd = rng.normal(size=(2,) + hw + (c,))
        w = rng.normal(size=(kh, kw, c, 4))
        dw = rng.normal(size=(kh, kw, c, 2))
        block = np.zeros((kh, kw, c, 2 * c))      # block-diagonal depthwise
        for ch in range(c):
            block[:, :, ch, 2 * ch:2 * ch + 2] = dw[:, :, ch]
        div_eye = np.broadcast_to(np.eye(c) / (kh * kw), (kh, kw, c, c))
        ops = [
            (lambda x: ad.conv2d(x, tensor(w), stride, padding),
             lambda xi: float_conv2d(xi, w, stride, padding)),
            (lambda x: ad.depthwise_conv2d(x, tensor(dw), stride, padding),
             lambda xi: float_conv2d(xi, block, stride, padding)),
            (lambda x: ad.avg_pool(x, kernel, stride, padding),
             lambda xi: float_conv2d(xi, div_eye, stride, padding)),
            (lambda x: ad.max_pool(x, kernel, stride, padding),
             lambda xi: max_pool_oracle(xi, kernel, stride, padding)),
        ]
        for op, oracle in ops:
            x = tensor(xd)
            out = op(x)
            for n in range(2):
                assert np.allclose(out.data[n], oracle(xd[n]), rtol=1e-12, atol=1e-12)
            g = rng.normal(size=out.data.shape)
            out.backward(g)
            assert np.isclose((out.data * g).sum(), (xd * x.grad).sum(), rtol=1e-10)

    def test_avg_pool_corner(self):
        # only 4 of 9 taps are in bounds at a padded corner; divisor stays 9
        out = ad.avg_pool(tensor(np.ones((1, 7, 7, 1))), kernel=(3, 3), stride=2)
        assert out.data[0, 0, 0, 0] == pytest.approx(4 / 9)
        out = ad.avg_pool(tensor(np.ones((1, 6, 6, 1))), kernel=(3, 3), stride=2)
        assert out.data[0, -1, -1, 0] == pytest.approx(4 / 9)


def bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


# Float32 shapes of the toy network: the stem, 3x3 at 4x4, 2x2 and 1x1
# spatial size, 1x1 and a 1x1 stride-2 projection.
TOY_CONVS = [((64, 16, 16, 3), (4, 4, 3, 32), 4), ((64, 4, 4, 16), (3, 3, 16, 16), 1),
             ((64, 2, 2, 64), (3, 3, 64, 64), 1), ((64, 1, 1, 128), (3, 3, 128, 128), 1),
             ((64, 4, 4, 64), (1, 1, 64, 16), 1), ((64, 4, 4, 32), (1, 1, 32, 64), 2)]


class TestBitwiseAgainstReferences:
    """The forward and gradients of the rewritten ops at float32 toy shapes,
    bit for bit against plain numpy formulations of the same arithmetic, so
    that a change of their bits is a deliberate change of this reference.
    numpy's reductions stand in for the einsum reductions; the depthwise
    input gradient, whose product sums its multiplier terms in another
    order, is held to float32 rounding instead."""

    @pytest.mark.parametrize("xs,ws,stride", TOY_CONVS)
    def test_conv2d(self, xs, ws, stride):
        rng = np.random.default_rng(sum(xs) + sum(ws))
        xd = rng.normal(size=xs).astype(np.float32)
        wd = rng.normal(size=ws).astype(np.float32)
        x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        out = ad.conv2d(x, w, stride)
        g = rng.normal(size=out.shape).astype(np.float32)
        out.backward(g)
        kh, kw = ws[:2]
        win, pads = windows(xd, kh, kw, stride, "same")
        # the im2col runs in the weight's (kh, kw, C) order
        assert bits(out.data) == bits(np.tensordot(win, wd, axes=([4, 5, 3], [0, 1, 2])))
        gw = np.tensordot(win.transpose(0, 1, 2, 4, 5, 3), g, axes=([0, 1, 2], [0, 1, 2]))
        assert bits(w.grad) == bits(gw)
        gx = ad._fold(xd, pads, kh, kw, stride, *out.shape[1:3], lambda i, j:
                      np.tensordot(g, wd[i, j], axes=([3], [1])))
        assert bits(x.grad) == bits(gx)

    @pytest.mark.parametrize("shape", [(64, 4, 4, 16), (64, 2, 2, 128), (64, 1, 1, 512)])
    def test_batchnorm_train(self, shape):
        rng = np.random.default_rng(shape[-1])
        xd = (rng.normal(size=shape) * 3 + 1).astype(np.float32)
        sd, bd = (rng.normal(size=shape[-1:]).astype(np.float32) for _ in range(2))
        x, scale, bias = (Tensor(a, requires_grad=True) for a in (xd, sd, bd))
        out, mu, var = ad.batchnorm_train(x, scale, bias)
        g = rng.normal(size=shape).astype(np.float32)
        out.backward(g)
        red, count = (0, 1, 2), xd.size // shape[-1]
        centered = xd - xd.mean(axis=red)
        assert bits(mu) == bits(xd.mean(axis=red))
        assert bits(var) == bits((centered * centered).sum(axis=red) / count)
        inv = 1.0 / np.sqrt(var + ad.BN_EPS)
        k = sd * inv                              # scale * inv, one factor
        assert bits(out.data) == bits(centered * k + bd)
        g_sum = g.sum(axis=red)
        g_xhat_sum = (g * centered).sum(axis=red) * inv
        assert bits(bias.grad) == bits(g_sum)
        assert bits(scale.grad) == bits(g_xhat_sum)
        want = g * k - centered * (inv * g_xhat_sum * k / count) - g_sum * k / count
        assert bits(x.grad) == bits(want)

    @pytest.mark.parametrize("shape", [(64, 4, 4, 16), (64, 1, 1, 256)])
    def test_dprelu(self, shape):
        rng = np.random.default_rng(shape[-1])
        xd = rng.normal(size=shape).astype(np.float32)
        pd = [rng.normal(size=shape[-1:]).astype(np.float32) for _ in range(4)]
        xd[0, 0, 0] = pd[0]                      # one row on the kink
        x = Tensor(xd, requires_grad=True)
        alpha, beta, gamma, eta = (Tensor(a, requires_grad=True) for a in pd)
        out = ad.dprelu(x, alpha, beta, gamma, eta)
        g = rng.normal(size=shape).astype(np.float32)
        out.backward(g)
        red = (0, 1, 2)
        shifted = xd - pd[0]
        pos = shifted > 0
        slope = np.where(pos, pd[3], pd[2])
        assert bits(out.data) == bits(slope * shifted - pd[1])
        assert bits(x.grad) == bits(g * slope)
        assert bits(alpha.grad) == bits(-(g * slope).sum(axis=red))
        assert bits(beta.grad) == bits(-g.sum(axis=red))
        # the negative side is the whole sum less the positive side
        g_pos = (g * shifted * pos).sum(axis=red)
        assert bits(eta.grad) == bits(g_pos)
        assert bits(gamma.grad) == bits((g * shifted).sum(axis=red) - g_pos)

    @pytest.mark.parametrize("shape,out_channels", [
        ((64, 4, 4, 64), 32), ((64, 4, 4, 64), 16), ((64, 2, 2, 128), 64),
        ((64, 1, 1, 256), 128)])
    def test_avg_channels(self, shape, out_channels):
        xd = np.random.default_rng(shape[-1]).normal(size=shape).astype(np.float32)
        out, _ = ad._avg_channels(xd, out_channels)
        k = shape[-1] // out_channels
        assert bits(out) == bits(xd.reshape(shape[:-1] + (out_channels, k)).mean(-1))

    def test_depthwise_input_gradient(self):
        # the toy network's depthwise layer: 3x3, multiplier 2, at 4x4
        rng = np.random.default_rng(2)
        xd = rng.normal(size=(64, 4, 4, 32)).astype(np.float32)
        wd = rng.normal(size=(3, 3, 32, 2)).astype(np.float32)
        x = Tensor(xd, requires_grad=True)
        out = ad.depthwise_conv2d(x, Tensor(wd))
        g = rng.normal(size=out.shape).astype(np.float32)
        out.backward(g)
        gr = g.reshape(64, 4, 4, 32, 2)
        _, pads = windows(xd, 3, 3, 1, "same")

        def per_tap(gr, w):
            return ad._fold(xd, pads, 3, 3, 1, 4, 4, lambda i, j:
                            np.einsum("nhwcm,cm->nhwc", gr, w[i, j]))
        want = per_tap(gr.astype(np.float64), wd.astype(np.float64))
        # a few float32 roundings of the sum of the terms' magnitudes
        scale = per_tap(np.abs(gr).astype(np.float64), np.abs(wd).astype(np.float64))
        eps = np.finfo(np.float32).eps
        assert x.grad.dtype == np.float32
        assert np.all(np.abs(x.grad - want) <= 4 * eps * scale)
        assert np.all(np.abs(per_tap(gr, wd) - want) <= 4 * eps * scale)


def tape(root):
    """Every node reachable from ``root`` through ``_parents``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestTapeRelease:
    def test_backward_drops_closures_and_parents(self):
        rng = np.random.default_rng(0)
        leaves = [tensor(rng.normal(size=s))
                  for s in ((4, 5, 5, 3), (3, 3, 3, 6), (6,), (6,))]
        x, w, scale, bias = leaves
        out = ad.hardsigmoid(ad.batchnorm_train(ad.conv2d(x, w), scale, bias)[0])
        nodes = tape(out)
        assert sum(n._backward is not None for n in nodes) == 3
        out.backward(rng.normal(size=out.shape))
        assert all(n._backward is None and n._parents == () for n in nodes)
        assert all(t.grad.shape == t.shape for t in leaves)

    def test_intermediates_die_before_next_forward(self):
        model = Model(build_pokebnn_toy(m=0.125, groups=2, input_shape=(16, 16, 3)),
                      seed=0, dtype=np.float32)
        forward, refs, checked = model.forward, [], []

        def keep(node, out):
            if out.base is None:
                refs.append(weakref.ref(out))

        def watched(*args, **kwargs):
            checked.append(all(r() is None for r in refs))
            refs.clear()
            logits, backward = forward(*args, hooks=[keep], **kwargs)
            # every activation but the output, which the training loop still holds
            refs[:] = [r for r in refs if r() is not logits.base]
            return logits, backward

        model.forward = watched
        cfg = train.TrainConfig(total_steps=4, phase_switch_step=2, seed=0,
                                batch_size=8)
        train.train_loop(model, train.make_toy_dataset(n=16, seed=0), cfg)
        assert checked == [True] * 4 and len(refs) > 50


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = tensor(np.zeros((4, 10)))
        loss = ad.cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.data == pytest.approx(np.log(10))

    def test_kl_zero_when_teacher_matches(self):
        rng = np.random.default_rng(4)
        logits_data = rng.normal(size=(3, 5))
        e = np.exp(logits_data - logits_data.max(axis=1, keepdims=True))
        teacher = e / e.sum(axis=1, keepdims=True)
        loss = ad.kl_divergence(tensor(logits_data), teacher)
        assert abs(loss.data) < 1e-12

    def test_kl_one_hot_equals_cross_entropy(self):
        rng = np.random.default_rng(5)
        logits_data = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        teacher = np.eye(4)[labels]
        kl = ad.kl_divergence(tensor(logits_data), teacher)
        ce = ad.cross_entropy(tensor(logits_data), labels)
        assert kl.data == pytest.approx(ce.data)

    def test_kl_uniform_teacher(self):
        rng = np.random.default_rng(6)
        logits_data = rng.normal(size=(2, 8))
        t = tensor(logits_data)
        loss = ad.kl_divergence(t, np.full((2, 8), 1 / 8))
        ls = logits_data - np.log(np.exp(logits_data).sum(1, keepdims=True))
        want = (-np.log(8) - ls.mean(axis=1)).mean()
        assert loss.data == pytest.approx(want)

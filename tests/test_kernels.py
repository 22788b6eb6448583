import numpy as np
import pytest

from pokebnn import builders, graphir
from pokebnn import kernels as K
from pokebnn.graphir import DType, pad_amounts

INT_DTYPES = {1: DType.BIN, 2: DType.INT2, 4: DType.INT4, 8: DType.INT8}


def random_signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def pokebnn_binary_convs():
    """Distinct (input shape, kernel, stride, padding, filters) of the BIN x BIN
    convolutions of pokebnn-1.0x, at full spatial size."""
    g = builders.build_named("pokebnn-1.0x")
    shapes = graphir.infer_shapes(g)
    convs = set()
    for n in g.nodes:
        a = n.attrs
        if (n.op == "conv2d" and a.get("groups", 1) == 1
                and (a["act_bits"], a["weight_bits"]) == (DType.BIN, DType.BIN)):
            convs.add((shapes[n.inputs[0]], tuple(a["kernel"]), a["stride"],
                       a["padding"], shapes[n.id][2]))
    return sorted(convs)


POKEBNN_BINARY_CONVS = pokebnn_binary_convs()


def geometry_id(conv):
    (h, w, c), (kh, kw), stride, padding, f = conv
    return f"{h}x{w}x{c}-k{kh}x{kw}s{stride}-{padding}-f{f}"


class TestPackSigns:
    def test_small_pattern(self):
        bp = K.pack_signs(np.array([1.0, 1.0, -1.0, 1.0]))
        # bit k holds element k: 1,1,0,1 -> 0b1011 = 11
        assert bp.words[0] == 11

    def test_hundred_plus_ones(self):
        bp = K.pack_signs(np.ones(100))
        assert bp.words.shape == (2,)
        assert int(K.popcount(bp.words).sum()) == 100
        # pad bits of the last word stay zero
        assert bp.words[1] >> np.uint64(100 - 64) == 0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
            x = random_signs(rng, shape)
            assert np.array_equal(K.unpack_signs(K.pack_signs(x)), x)

    @pytest.mark.parametrize("lanes", [1, 2, 63, 64, 65, 127, 128, 129, 191])
    def test_words_match_explicit_bit_sum(self, lanes):
        x = random_signs(np.random.default_rng(lanes), (3, lanes))
        words = K.pack_signs(x).words
        assert words.shape == (3, -(-lanes // 64))
        for row, xr in zip(words, x):
            for j, word in enumerate(row):
                expect = sum(1 << k for k in range(64)
                             if 64 * j + k < lanes and xr[64 * j + k] > 0)
                assert int(word) == expect

    def test_rejects_other_values(self):
        for bad in (0.0, 2.0, np.nan, np.inf):
            with pytest.raises(K.KernelError):
                K.pack_signs(np.array([1.0, bad, -1.0]))


class TestXnorDot:
    def test_worked_example(self):
        a = K.pack_signs(np.array([1.0, 1.0, -1.0, 1.0]))
        b = K.pack_signs(np.array([1.0, -1.0, -1.0, -1.0]))
        assert K.xnor_popcount_dot(a, b) == 0

    def test_self_correlation(self):
        x = random_signs(np.random.default_rng(1), (77,))
        bp = K.pack_signs(x)
        assert K.xnor_popcount_dot(bp, bp) == 77

    def test_anti_correlation(self):
        x = random_signs(np.random.default_rng(2), (130,))
        assert K.xnor_popcount_dot(K.pack_signs(x), K.pack_signs(-x)) == -130

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            a, b = random_signs(rng, (n,)), random_signs(rng, (n,))
            got = K.xnor_popcount_dot(K.pack_signs(a), K.pack_signs(b))
            assert got == int(np.dot(a, b))

    def test_length_mismatch(self):
        with pytest.raises(K.KernelError):
            K.xnor_popcount_dot(K.pack_signs(np.ones(4)), K.pack_signs(np.ones(5)))


class TestBinaryConv:
    def test_one_pixel(self):
        act = K.pack_signs(np.ones((1, 1, 1)))
        wts = K.pack_signs(np.ones((1, 1, 1, 1)))
        out = K.binary_conv2d(act, wts, stride=1, padding="same")
        assert out.shape == (1, 1, 1) and out[0, 0, 0] == 1

    def test_interior_all_ones(self):
        c = 16
        act = K.pack_signs(np.ones((8, 8, c)))
        wts = K.pack_signs(np.ones((1, 3, 3, c)))
        out = K.binary_conv2d(act, wts, stride=1, padding="same")
        assert out[4, 4, 0] == 9 * c
        # the corner sees only 4 in-bounds taps; padding contributes zero
        assert out[0, 0, 0] == 4 * c

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_float_oracle(self, seed):
        # Several words with a partial last one (65, 130, 200 channels),
        # asymmetric "same" padding (even kernels), stride 3 and one-row or
        # one-column inputs, where every output sits on the border.
        rng = np.random.default_rng(seed)
        for _ in range(40):
            h, w = rng.integers(3, 12, size=2)
            if rng.random() < 0.2:
                h, w = (1, w) if rng.random() < 0.5 else (h, 1)
            c = int(rng.choice([1, 3, 8, 16, 64, 65, 96, 130, 200]))
            f = int(rng.integers(1, 41))
            k = int(rng.choice([1, 2, 3, 4]))
            stride = int(rng.choice([1, 2, 3]))
            padding = str(rng.choice(["same", "valid"]))
            if padding == "valid" and (h < k or w < k):
                padding = "same"
            act = random_signs(rng, (h, w, c))
            wts = random_signs(rng, (f, k, k, c))
            got = K.binary_conv2d(K.pack_signs(act), K.pack_signs(wts),
                                  stride=stride, padding=padding)
            ref = K.float_conv2d(act, np.moveaxis(wts, 0, -1),
                                 stride=stride, padding=padding)
            assert got.dtype == np.int32
            assert np.array_equal(got, ref.astype(np.int64))

    @pytest.mark.parametrize("conv", POKEBNN_BINARY_CONVS, ids=geometry_id)
    def test_pokebnn_10x_shapes(self, conv):
        (h, w, c), (kh, kw), stride, padding, f = conv
        rng = np.random.default_rng(h * c + f)
        act = random_signs(rng, (h, w, c))
        wts = random_signs(rng, (f, kh, kw, c))
        bufsize = np.getbufsize()
        got = K.binary_conv2d(K.pack_signs(act), K.pack_signs(wts),
                              stride=stride, padding=padding)
        assert np.getbufsize() == bufsize      # the kernel's setting is scoped
        ref = K.float_conv2d(act, np.moveaxis(wts, 0, -1),
                             stride=stride, padding=padding)
        assert got.dtype == np.int32
        assert np.array_equal(got, ref.astype(np.int64))

    def test_pokebnn_10x_shapes_take_both_orientations(self):
        # The XOR passes run along positions where they outnumber filters and
        # along filters otherwise; the shapes above reach both.
        longer = {graphir.conv_out_size(h, kh, s, pad) * graphir.conv_out_size(w, kw, s, pad) >= f
                  for (h, w, _), (kh, kw), s, pad, f in POKEBNN_BINARY_CONVS}
        assert longer == {True, False}

    @pytest.mark.parametrize("c", [65535, 65536])
    @pytest.mark.parametrize("f", [1, 3])
    def test_counter_holds_the_kernel_volume(self, c, f):
        # Every lane mismatches, so each output is -c; a 16-bit mismatch
        # counter would wrap to 0 at c = 65536 and give +c. With two
        # positions, f = 1 and f = 3 put either axis innermost.
        v = random_signs(np.random.default_rng(c), c)
        act = np.broadcast_to(v, (1, 2, c))
        wts = np.broadcast_to(-v, (f, 1, 1, c))
        got = K.binary_conv2d(K.pack_signs(act), K.pack_signs(wts))
        assert got.dtype == np.int32
        assert np.array_equal(got, np.full((1, 2, f), -c))

    def test_channel_mismatch(self):
        with pytest.raises(K.KernelError):
            K.binary_conv2d(K.pack_signs(np.ones((4, 4, 8))),
                            K.pack_signs(np.ones((2, 3, 3, 4))))


class TestIntTensor:
    def test_signed_range_enforced(self):
        with pytest.raises(K.KernelError):
            K.IntTensor(np.array([200]), DType.INT8)

    @pytest.mark.parametrize("dtype", [DType.FP32, DType.BF16])
    def test_float_dtype_rejected(self, dtype):
        with pytest.raises(K.KernelError, match="integer DType"):
            K.IntTensor(np.array([2 ** 30]), dtype)

    def test_unsigned_range_enforced(self):
        with pytest.raises(K.KernelError):
            K.IntTensor(np.array([-1]), DType.INT4, signed=False)
        with pytest.raises(K.KernelError):
            K.IntTensor(np.array([16]), DType.INT4, signed=False)


class TestIntKernels:
    def test_dense_example(self):
        acc, deq = K.int_dense(K.IntTensor(np.array([[1, 2]]), DType.INT8),
                               K.IntTensor(np.array([[3], [4]]), DType.INT8))
        assert acc[0, 0] == 11 and deq[0, 0] == 11.0

    def test_conv_matches_float_oracle_on_grid(self):
        # Kernels 1-4 (even ones pad unevenly under "same"), strides 1-3 and
        # one-row/one-column inputs, on the same case space as binary_conv2d.
        rng = np.random.default_rng(5)
        for _ in range(100):
            h, w = rng.integers(3, 12, size=2)
            if rng.random() < 0.2:
                h, w = (1, w) if rng.random() < 0.5 else (h, 1)
            c, f = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            k = int(rng.choice([1, 2, 3, 4]))
            stride = int(rng.choice([1, 2, 3]))
            padding = str(rng.choice(["same", "valid"]))
            if padding == "valid" and (h < k or w < k):
                padding = "same"
            av = rng.integers(-127, 128, size=(h, w, c))
            wv = rng.integers(-127, 128, size=(k, k, c, f))
            a_scale = float(rng.uniform(0.001, 0.1))
            w_scale = rng.uniform(0.001, 0.1, size=f)
            acc, deq = K.int_conv2d(K.IntTensor(av, DType.INT8, a_scale),
                                    K.IntTensor(wv, DType.INT8, w_scale),
                                    stride=stride, padding=padding)
            ref = K.float_conv2d(av.astype(float), wv.astype(float),
                                 stride=stride, padding=padding)
            assert acc.dtype == np.int32
            assert np.array_equal(acc, ref.astype(np.int64))
            assert np.allclose(deq, ref * a_scale * w_scale, rtol=1e-12, atol=0)

    def test_stem_shaped_conv(self):
        rng = np.random.default_rng(6)
        av = rng.integers(-127, 128, size=(16, 16, 3))
        wv = rng.integers(-127, 128, size=(4, 4, 3, 32))
        acc, _ = K.int_conv2d(K.IntTensor(av, DType.INT8),
                              K.IntTensor(wv, DType.INT8), stride=4)
        ref = K.float_conv2d(av.astype(float), wv.astype(float), stride=4)
        assert np.array_equal(acc, ref.astype(np.int64))

    def test_int4_dense_max_magnitude_no_overflow(self):
        av = np.full((1, 16), 7)
        wv = np.full((16, 2), -7)
        acc, _ = K.int_dense(K.IntTensor(av, DType.INT4),
                             K.IntTensor(wv, DType.INT4))
        assert np.all(acc == 16 * 7 * -7)

    @pytest.mark.parametrize("k", [342_392, 342_393])
    def test_int4_dense_exact_on_both_sides_of_float32(self, k):
        # k * 7 * 7 is below 2^24 for the first depth and above it for the
        # second, where the all +7 column sums to an odd integer that float32
        # cannot hold.
        rng = np.random.default_rng(k)
        av = np.full((1, k), 7)
        wv = np.stack([np.full(k, 7), 7 * rng.choice([-1, 1], size=k)], axis=1)
        acc, _ = K.int_dense(K.IntTensor(av, DType.INT4),
                             K.IntTensor(wv, DType.INT4))
        exact = av.astype(np.int64) @ wv.astype(np.int64)
        assert acc.dtype == np.int32
        assert np.array_equal(acc, exact)
        f32 = (av.astype(np.float32) @ wv.astype(np.float32))[0, 0]
        assert (f32 == exact[0, 0]) == (k * 49 < 2 ** 24)


class TestBitplaneMatmul:
    def test_scalar_worked_example(self):
        # 2 = 0b10, 3 = 0b11: plane products recombine to 6 with 4 binary MACs
        r = K.bitplane_matmul(
            K.IntTensor([[2]], DType.INT2, signed=False),
            K.IntTensor([[3]], DType.INT2, signed=False))
        assert r.values[0, 0] == 6
        assert r.binary_macs == 4

    @pytest.mark.parametrize("bits_i,bits_j", [(i, j) for i in (1, 2, 4, 8)
                                               for j in (1, 2, 4, 8)])
    def test_matches_direct_matmul(self, bits_i, bits_j):
        rng = np.random.default_rng(bits_i * 10 + bits_j)
        for _ in range(10):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.integers(0, 2 ** bits_i, size=(m, k))
            b = rng.integers(0, 2 ** bits_j, size=(k, n))
            r = K.bitplane_matmul(
                K.IntTensor(a, INT_DTYPES[bits_i], signed=False),
                K.IntTensor(b, INT_DTYPES[bits_j], signed=False))
            assert np.array_equal(r.values, a @ b)
            assert r.binary_macs == bits_i * bits_j * m * k * n

    def test_single_plane_reduces_to_and(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 2, size=(4, 6))
        b = rng.integers(0, 2, size=(6, 3))
        r = K.bitplane_matmul(K.IntTensor(a, DType.BIN, signed=False),
                              K.IntTensor(b, DType.BIN, signed=False))
        assert np.array_equal(r.values, a @ b)

    def test_rejects_signed(self):
        with pytest.raises(K.KernelError):
            K.bitplane_matmul(K.IntTensor([[1]], DType.INT4),
                              K.IntTensor([[1]], DType.INT4, signed=False))


class TestFloatReferences:
    def test_identity_kernel(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 5, 3))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0] = np.eye(3)
        assert np.allclose(K.float_conv2d(x, w), x)

    def test_conv_linearity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 6, 2))
        w = rng.normal(size=(3, 3, 2, 4))
        assert np.allclose(K.float_conv2d(2.5 * x, w), 2.5 * K.float_conv2d(x, w))

    def test_conv_matches_bruteforce_int64_sum(self):
        # The verify-kernels geometries: even kernels (uneven "same" padding),
        # stride 3, one-row/one-column inputs and valid padding.
        rng = np.random.default_rng(13)
        for _ in range(60):
            h, w = rng.integers(3, 12, size=2)
            if rng.random() < 0.2:
                h, w = (1, w) if rng.random() < 0.5 else (h, 1)
            c, f = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            k = int(rng.choice([1, 2, 3, 4]))
            stride = int(rng.choice([1, 2, 3]))
            padding = str(rng.choice(["same", "valid"]))
            if padding == "valid" and (h < k or w < k):
                padding = "same"
            x = rng.integers(-127, 128, size=(h, w, c))
            wt = rng.integers(-127, 128, size=(k, k, c, f))
            got = K.float_conv2d(x, wt, stride=stride, padding=padding)
            assert np.array_equal(got, bruteforce_conv(x, wt, stride, padding))


def bruteforce_conv(x, w, stride, padding):
    """int64 sum over every in-bounds tap of every output position."""
    h, wd, _ = x.shape
    kh, kw, _, f = w.shape
    pt, pb = pad_amounts(h, kh, stride, padding)
    pl, pr = pad_amounts(wd, kw, stride, padding)
    ho, wo = (h + pt + pb - kh) // stride + 1, (wd + pl + pr - kw) // stride + 1
    out = np.zeros((ho, wo, f), dtype=np.int64)
    for y in range(ho):
        for z in range(wo):
            for i in range(kh):
                for j in range(kw):
                    sy, sz = y * stride + i - pt, z * stride + j - pl
                    if 0 <= sy < h and 0 <= sz < wd:
                        out[y, z] += x[sy, sz].astype(np.int64) @ w[i, j].astype(np.int64)
    return out

import numpy as np
import pytest

from pokebnn import quant


class TestClip:
    def test_above(self):
        assert quant.clip(5.0, -1.0, 1.0) == 1.0

    def test_inside(self):
        assert quant.clip(0.3, -1.0, 1.0) == 0.3

    def test_below(self):
        assert quant.clip(-7.0, -1.0, 1.0) == -1.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            quant.clip(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("lo, hi", [
        (1.0, -1.0), (np.float32(0.5), np.float32(0.25)), (np.array(2.0), 1.0),
        (np.array([-1.0, 3.0, -1.0]), np.array([1.0, 2.0, 1.0])),
        (-1.0, np.array([[1.0, -2.0]])),
    ])
    def test_lower_above_upper_rejected_for_every_bound_type(self, lo, hi):
        with pytest.raises(ValueError, match="lower bound exceeds upper"):
            quant.clip(np.zeros(3), lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        (-1.0, -1.0), (np.float32(-0.5), np.float32(0.5)),
        (np.array([-1.0, 2.0, -1.0]), np.array([1.0, 2.0, 1.0]))])
    def test_ordered_bounds_accepted(self, lo, hi):
        assert np.array_equal(quant.clip(np.full(3, 9.0), lo, hi),
                              np.broadcast_to(hi, (3,)))


class TestCasts:
    def test_int8_near_endpoint(self):
        assert quant.int_cast(127.9, 8) == 127.0

    def test_int4(self):
        assert quant.int_cast(3.4, 4) == 3.0

    def test_zero_for_all_bits(self):
        for b in (2, 3, 4, 8):
            assert quant.int_cast(0.0, b) == 0.0

    def test_int_range(self):
        xs = np.linspace(-300, 300, 4001)
        for b in (2, 4, 8):
            out = quant.int_cast(xs, b)
            lim = 2 ** (b - 1) - 1
            assert np.all(np.abs(out) <= lim)
            assert np.array_equal(out, np.round(out))


class TestFakeQuant:
    def test_q4_half(self):
        # 0.5 * 7.5 = 3.75 rounds away from zero to 4, back to 4/7.5
        assert quant.fake_quant(0.5, 1.0, 4) == pytest.approx(4 / 7.5, abs=1e-15)

    def test_q8_above_bound(self):
        assert quant.fake_quant(1.2, 1.0, 8) == pytest.approx(127 / 127.5, abs=1e-15)

    def test_zero_everywhere(self):
        for b in (2, 4, 8):
            for bound in (0.5, 1.0, 3.0):
                assert quant.fake_quant(0.0, bound, b) == 0.0

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            quant.fake_quant(0.5, 0.0, 4)
        with pytest.raises(ValueError):
            quant.fake_quant(0.5, -1.0, 8)

    @pytest.mark.parametrize("bound", [
        0.0, -1.0, np.float64(0.0), np.float32(-2.0), np.array(0.0),
        np.array([1.0, 0.0, 2.0]), np.array([[0.5, -0.5]])])
    def test_rejects_non_positive_bound_of_every_type(self, bound):
        with pytest.raises(ValueError, match="bound must be positive"):
            quant.fake_quant(np.full((2, 3), 0.25), bound, 4)

    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            quant.fake_quant(0.5, 1.0, 1)


GRID_CONFIGS = [(b, bound) for b in (2, 4, 8) for bound in (0.5, 1.0, 3.0)]


@pytest.mark.parametrize("bits,bound", GRID_CONFIGS)
class TestFakeQuantGrid:
    """Exhaustive properties over a dense input grid per configuration."""

    def grid(self, bound):
        return np.linspace(-3 * bound, 3 * bound, 100_001)

    def test_idempotent_exactly(self, bits, bound):
        x = self.grid(bound)
        once = quant.fake_quant(x, bound, bits)
        twice = quant.fake_quant(once, bound, bits)
        assert np.array_equal(once, twice)

    def test_grid_membership(self, bits, bound):
        x = self.grid(bound)
        c = quant.grid_endpoint(bits)
        k = quant.fake_quant(x, bound, bits) * (c / bound)
        assert np.allclose(k, np.round(k), atol=1e-9)
        assert np.all(np.abs(k) <= 2 ** (bits - 1) - 1 + 1e-9)

    def test_monotone(self, bits, bound):
        x = np.sort(self.grid(bound))
        out = quant.fake_quant(x, bound, bits)
        assert np.all(np.diff(out) >= 0)

    def test_ste_mask_matches_indicator(self, bits, bound):
        x = self.grid(bound)
        mask = quant.ste_mask(x, bound)
        assert np.array_equal(mask.astype(bool), np.abs(x) < bound)


class TestBinarize:
    def test_sign(self):
        assert quant.binarize(-0.3) == -1.0
        assert quant.binarize(0.3) == 1.0

    def test_sign_zero_is_positive(self):
        assert quant.binarize(0.0) == 1.0

    def test_forward_independent_of_bound(self):
        # the gradient depends on B; the forward never does
        x = np.random.default_rng(0).normal(size=1000)
        out = quant.binarize(x)
        assert set(np.unique(out)) <= {-1.0, 1.0}
        for bound in (0.5, 1.0, 3.0, 6.0):
            mask = quant.ste_mask(x, bound)
            assert np.array_equal(quant.binarize(x), out)
            assert np.array_equal(mask.astype(bool), np.abs(x) < bound)

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45])
        assert np.array_equal(quant.binarize(x), [1, 1, -1, 1, -1, 1, -1])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_keeps_float_dtype(self, dtype):
        x = np.array([-2.0, -0.0, 0.0, 0.5], dtype=dtype)
        out = quant.binarize(x)
        assert out.dtype == dtype
        assert np.array_equal(out, [-1, 1, 1, 1])

    @pytest.mark.parametrize("x", [np.array([-3, 0, 2]), np.array([True, False]),
                                   [-1.5, 2.5], 0.0])
    def test_other_input_gives_float64(self, x):
        out = quant.binarize(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.where(np.asarray(x) >= 0, 1.0, -1.0))

    def test_gradient_gate_examples(self):
        assert quant.ste_mask(np.float64(3.5), 3.0) == 0.0
        assert quant.ste_mask(np.float64(-0.3), 3.0) == 1.0


class TestEmaBound:
    def test_update(self):
        s = quant.BoundState(bound=np.float64(1.0), ema_alpha=0.9)
        s2 = quant.update_ema_bound(s, np.array([0.5, -2.0]))
        assert s2.bound == pytest.approx(1.1)

    def test_frozen_unchanged(self):
        s = quant.BoundState(bound=np.float64(1.0), frozen=True)
        s2 = quant.update_ema_bound(s, np.array([100.0]))
        assert s2.bound == 1.0 and s2.frozen

    def test_decay_on_zeros(self):
        s = quant.BoundState(bound=np.float64(1.0), ema_alpha=0.9)
        s2 = quant.update_ema_bound(s, np.zeros(8))
        assert s2.bound == pytest.approx(0.9)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            quant.update_ema_bound(quant.BoundState(), np.array([]))

    def test_freeze_is_idempotent(self):
        s = quant.BoundState(bound=np.float64(2.0))
        f1 = s.freeze()
        f2 = f1.freeze()
        assert f1.frozen and f2.frozen and f2.bound == 2.0


class TestWeightChannelBounds:
    def test_two_by_two(self):
        w = np.array([[1.0, -2.0], [3.0, -0.5]])  # rows in, cols out
        assert np.array_equal(quant.weight_channel_bounds(w), [3.0, 2.0])

    def test_constant_weights(self):
        w = np.full((5, 4), -0.7)
        assert np.allclose(quant.weight_channel_bounds(w), 0.7)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3, 16, 8))
        got = quant.weight_channel_bounds(w)
        want = np.array([np.abs(w[..., o]).max() for o in range(8)])
        assert np.array_equal(got, want)

    def test_zero_channel_clamped(self):
        w = np.array([[0.0, 1.0], [0.0, 2.0]])
        got = quant.weight_channel_bounds(w)
        assert got[0] == quant.DEFAULT_EPSILON and got[1] == 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            quant.weight_channel_bounds(np.zeros((0, 4)))


class TestSurrogateGradient:
    def test_matches_central_differences(self):
        """The smooth surrogate's gradient equals the STE gate away from +-B."""
        rng = np.random.default_rng(1)
        bound, bits = 1.0, 8
        x = rng.uniform(-2.0, 2.0, size=2000)
        x = x[np.abs(np.abs(x) - bound) > 1e-3]
        h = 1e-7
        fd = (quant.fake_quant_surrogate(x + h, bound, bits) -
              quant.fake_quant_surrogate(x - h, bound, bits)) / (2 * h)
        analytic = quant.ste_mask(x, bound)
        rel = np.abs(fd - analytic) / np.maximum(np.abs(fd) + np.abs(analytic), 1e-12)
        inside = np.abs(x) < bound - 1e-3
        assert np.all(rel[inside] < 1e-6)
        outside = np.abs(x) > bound + 1e-3
        assert np.all(np.abs(fd[outside]) < 1e-6)


class TestTernary:
    """Two-bit quantization is supported by the same formula (unused by
    builtins)."""

    def test_three_levels(self):
        x = np.linspace(-2, 2, 101)
        out = quant.fake_quant(x, 1.0, 2)
        assert set(np.unique(out)) == {-2 / 3, 0.0, 2 / 3}

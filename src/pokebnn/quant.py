"""Casting, fake quantization, and binarization with straight-through gradients.

All forward functions here are pure numpy; the autodiff wrappers in
``pokebnn.nn`` reuse them and attach the gradient rules:

- rounding is treated as identity (straight-through estimator),
- clipping gates the gradient to the open interval (-B, B).

Rounding is half-away-from-zero so integer kernels can reproduce the grids
bit-exactly. Signed b-bit grids end at C_b = 2^(b-1) - 0.5 and a small
epsilon keeps round/floor from overflowing the representable range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_EPSILON = 2.0 ** -10


def grid_endpoint(bits: int) -> float:
    """End point C_b of the signed quantization grid."""
    return 2.0 ** (bits - 1) - 0.5


def _float_copy(x):
    """A new array of ``x``'s values in the float type its arithmetic with a
    Python float gives: float32 stays float32, integers become float64."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, 0.5))


def _round_half_away_into(q):
    """sign(q) * floor(|q| + 0.5), written over the float array ``q``."""
    sign = np.sign(q)
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    q *= sign
    return q


def _int_cast_into(q, bits: int):
    """``int_cast`` written over the float array ``q``."""
    c = grid_endpoint(bits)
    np.maximum(q, -c + DEFAULT_EPSILON, out=q)
    np.minimum(q, c - DEFAULT_EPSILON, out=q)
    return _round_half_away_into(q)


def _any(cond) -> bool:
    """``np.any(cond)`` for a comparison's result, a Python bool or a numpy
    bool or bool array, without the dispatch cost of ``np.any``."""
    return cond if type(cond) is bool else cond.any()


def clip(x, lo, hi):
    """min(hi, max(lo, x)); gradient is 1 inside (lo, hi) and 0 outside."""
    if _any(lo > hi):
        raise ValueError("clip lower bound exceeds upper bound")
    return np.minimum(hi, np.maximum(lo, x))


def int_cast(x, bits: int):
    """Signed cast: round(clip(x, -C_b + eps, C_b - eps)).

    Output is integer-valued (as float), in [-(2^(b-1)-1), 2^(b-1)-1].
    """
    return _int_cast_into(_float_copy(x), bits)


def fake_quant(x, bound, bits: int):
    """Scale to the signed b-bit grid and back: int_b(x * C_b / B) * B / C_b.

    ``bound`` may be a scalar or broadcast per-channel along the last axis.
    The associated gradient is the indicator of (-B, B).
    """
    return fake_quant_scaled(x, fake_quant_scales(bound, bits), bits)


def fake_quant_scales(bound, bits: int):
    """The checked scale pair ``(C_b / B, B / C_b)`` of ``fake_quant``: the
    part that depends only on the bound, which a frozen quantizer computes
    once."""
    bound = np.asarray(bound)
    if (bound <= 0).any():
        raise ValueError("quantization bound must be positive")
    if bits < 2:
        raise ValueError("fake_quant needs bits >= 2; use binarize for 1 bit")
    c = grid_endpoint(bits)
    return c / bound, bound / c


def fake_quant_scaled(x, scales, bits: int):
    """``fake_quant`` given its ``fake_quant_scales``."""
    up, down = scales
    q = fake_quant_codes(x, up, bits)
    q *= down
    return q


def fake_quant_codes(x, up, bits: int):
    """The grid codes ``int_cast(x * up)`` of ``fake_quant``, as floats,
    before its down scale."""
    # every step after the scaling writes over the one new array
    return _int_cast_into(np.asarray(x * up), bits)


def binarize(x):
    """sign(x) in {-1, +1} with sign(+-0) := +1 and NaN mapped to -1.

    Returns the input's float dtype (float64 for other input). The forward
    pass never depends on the clipping bound; only the straight-through
    gradient does (see ``ste_mask``).
    """
    x = np.asarray(x)
    # 2·(x >= 0) - 1 in int8, then one cast: the same ±1 in a quarter of
    # the bytes until the cast
    signs = (x >= 0).view(np.int8)
    signs = signs + signs
    signs -= 1
    return signs.astype(x.dtype if x.dtype.kind == "f" else np.float64)


def ste_mask(x, bound):
    """Straight-through gradient gate: 1 where x is inside (-B, B)."""
    x = np.asarray(x)
    return (np.abs(x) < bound).astype(x.dtype)


def fake_quant_surrogate(x, bound, bits: int):
    """The quantizer with rounding removed: a pure clip, smooth inside (-B, B).

    Used by the finite-difference oracle of ``pokebnn.gradcheck``; its
    gradient is the STE gradient gate.
    """
    bound = np.asarray(bound)
    c = grid_endpoint(bits)
    return clip(x * (c / bound), -c + DEFAULT_EPSILON, c - DEFAULT_EPSILON) * (bound / c)


# ---------------------------------------------------------------------------
# Bound calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundState:
    """Clipping bound for one quantizer; scalar for activations.

    Once frozen the bound never changes (updates become no-ops). A state is
    immutable: an update returns a new one, so a cache of the constants
    derived from a state can key on the object.
    """

    bound: np.ndarray = field(default_factory=lambda: np.float64(1.0))
    frozen: bool = False
    ema_alpha: float = 0.9

    def freeze(self) -> "BoundState":
        return replace(self, frozen=True)


def update_ema_bound(state: BoundState, batch) -> BoundState:
    """B <- alpha * B + (1 - alpha) * max|batch|; frozen states pass through."""
    if state.frozen:
        return state
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("cannot calibrate a bound from an empty batch")
    peak = np.max(np.abs(batch))
    a = state.ema_alpha
    return replace(state, bound=a * state.bound + (1.0 - a) * peak)


def weight_channel_bounds(w) -> np.ndarray:
    """Per-output-channel bound B_o = max |w| over all axes but the last.

    Recomputed every step, never frozen. An all-zero channel would give a
    zero bound (division by zero downstream), so those are clamped to eps;
    this cannot happen after any nonzero initialization.
    """
    w = np.asarray(w)
    if w.size == 0:
        raise ValueError("empty weight tensor")
    bounds = np.max(np.abs(w), axis=tuple(range(w.ndim - 1)))
    return np.maximum(bounds, DEFAULT_EPSILON)

"""Bit-packed and integer compute kernels, plus float reference oracles.

Sign tensors pack one bit per element into uint64 words along the channel
(innermost) axis: bit 1 means +1, bit 0 means -1. A dot product of two
packed +-1 vectors is then ``n - 2 * popcount(a XOR b)``.

Zero padding cannot be represented by a sign bit, so padded positions carry
an explicit validity mask and contribute nothing to the popcount; this keeps
the binary convolution bit-exact against the float reference with zero
padding. Accumulators are 32-bit signed: |acc| is bounded by the kernel
volume times the max operand magnitude (at most 4*4*3*127*127 for the 8-bit
stem conv), far below 2^31.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .graphir import DType, pad_amounts

WORD_BITS = 64


class KernelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bit planes
# ---------------------------------------------------------------------------

@dataclass
class BitPlane:
    """Sign tensor packed along the last axis; trailing pad bits are zero."""

    shape: tuple
    words: np.ndarray                 # uint64, shape[:-1] + (n_words,)
    valid_mask: np.ndarray | None = None  # same layout; None = all lanes valid

    @property
    def lanes(self) -> int:
        return self.shape[-1]

    def lane_mask(self) -> np.ndarray:
        """Word mask with one bit set per real (non-pad) lane."""
        if self.valid_mask is not None:
            return self.valid_mask
        n_words = self.words.shape[-1]
        mask = np.zeros(n_words, dtype=np.uint64)
        full, rem = divmod(self.lanes, WORD_BITS)
        mask[:full] = np.uint64(0xFFFFFFFFFFFFFFFF)
        if rem:
            mask[full] = np.uint64((1 << rem) - 1)
        return np.broadcast_to(mask, self.words.shape)


def pack_signs(x) -> BitPlane:
    """Packs a {-1, +1} tensor; raises on any other value."""
    x = np.asarray(x)
    if not np.all(np.isin(x, (-1, 1))):
        raise KernelError("pack_signs requires entries in {-1, +1}")
    bits = (x > 0).astype(np.uint64)
    lanes = x.shape[-1]
    n_words = -(-lanes // WORD_BITS)
    padded = np.zeros(x.shape[:-1] + (n_words * WORD_BITS,), dtype=np.uint64)
    padded[..., :lanes] = bits
    grouped = padded.reshape(x.shape[:-1] + (n_words, WORD_BITS))
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    words = np.bitwise_or.reduce(grouped << shifts, axis=-1)
    return BitPlane(shape=x.shape, words=words)


def unpack_signs(bp: BitPlane) -> np.ndarray:
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (bp.words[..., :, None] >> shifts) & np.uint64(1)
    flat = bits.reshape(bp.shape[:-1] + (-1,))[..., :bp.lanes]
    return np.where(flat == 1, 1.0, -1.0)


def popcount(words) -> np.ndarray:
    return np.bitwise_count(words).astype(np.int64)


def xnor_popcount_dot(a: BitPlane, b: BitPlane, n: int | None = None) -> int:
    """Sum of elementwise products of two packed +-1 vectors.

    Equals n - 2 * popcount(a XOR b); no masking, lengths must match.
    """
    if a.shape != b.shape:
        raise KernelError(f"length mismatch: {a.shape} vs {b.shape}")
    if n is None:
        n = a.lanes
    mismatches = int(popcount(a.words ^ b.words).sum())
    return n - 2 * mismatches


# ---------------------------------------------------------------------------
# Output size, apart from graphir so instrumented_conv_macs stays an oracle
# ---------------------------------------------------------------------------

def _out_size(size, kernel, stride, padding):
    if padding == "same":
        return -(-size // stride)
    return (size - kernel) // stride + 1


# ---------------------------------------------------------------------------
# Binary convolution
# ---------------------------------------------------------------------------

def binary_conv2d(act: BitPlane, weights: BitPlane, stride: int = 1,
                  padding: str = "same") -> np.ndarray:
    """XNOR/popcount convolution of packed sign tensors; exact int32 output.

    ``act`` is [H, W, C] packed, ``weights`` is [F, kh, kw, C] packed. Zero
    padding is emulated through the validity mask, so padded taps add zero
    exactly as in the float reference.
    """
    if len(act.shape) != 3 or len(weights.shape) != 4:
        raise KernelError("act must be [H,W,C], weights [F,kh,kw,C]")
    h, w, c = act.shape
    f, kh, kw, wc = weights.shape
    if wc != c:
        raise KernelError(f"channel mismatch: act {c}, weights {wc}")

    pt, pb = pad_amounts(h, kh, stride, padding)
    pl, pr = pad_amounts(w, kw, stride, padding)
    n_words = act.words.shape[-1]
    hp, wp = h + pt + pb, w + pl + pr
    padded = np.zeros((hp, wp, n_words), dtype=np.uint64)
    padded[pt:pt + h, pl:pl + w] = act.words
    mask = np.zeros_like(padded)
    mask[pt:pt + h, pl:pl + w] = act.lane_mask()

    ho = _out_size(h, kh, stride, padding)
    wo = _out_size(w, kw, stride, padding)
    win = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(0, 1))
    win = win[::stride, ::stride]          # [ho, wo, n_words, kh, kw]
    mwin = np.lib.stride_tricks.sliding_window_view(mask, (kh, kw), axis=(0, 1))
    mwin = mwin[::stride, ::stride]
    valid = popcount(mwin).sum(axis=(2, 3, 4))   # [ho, wo]

    out = np.empty((ho, wo, f), dtype=np.int32)
    wplanes = np.moveaxis(weights.words, -1, 1)  # [F, n_words, kh, kw]
    for fi in range(f):
        mism = popcount((win ^ wplanes[fi]) & mwin).sum(axis=(2, 3, 4))
        out[:, :, fi] = valid - 2 * mism
    return out


# ---------------------------------------------------------------------------
# Integer tensors and kernels
# ---------------------------------------------------------------------------

@dataclass
class IntTensor:
    """Integer-valued tensor on a quantization grid.

    ``scale`` is the dequantization factor B / C_b (scalar, or a per-output-
    channel vector for weights). ``signed`` unsigned tensors hold values in
    [0, 2^bits - 1], signed in [-(2^(bits-1)-1), 2^(bits-1)-1].
    """

    values: np.ndarray
    bits: DType
    scale: np.ndarray | float = 1.0
    signed: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int32)
        b = self.bits.bits
        if self.signed:
            lim = 2 ** (b - 1) - 1 if b > 1 else 1
            if np.any(np.abs(self.values) > lim):
                raise KernelError(f"values exceed signed {b}-bit range")
        else:
            if np.any(self.values < 0) or np.any(self.values > 2 ** b - 1):
                raise KernelError(f"values exceed unsigned {b}-bit range")


def _check_acc_range(acc):
    if np.any(np.abs(acc) > np.iinfo(np.int32).max):
        raise KernelError("int32 accumulator overflow")
    return acc.astype(np.int32)


def int_conv2d(act: IntTensor, w: IntTensor, stride: int = 1,
               padding: str = "same") -> tuple[np.ndarray, np.ndarray]:
    """Integer convolution; returns (int32 accumulators, dequantized floats).

    ``act`` is [H, W, C], ``w`` is [kh, kw, C, F] with optional per-filter
    scale. Accumulation is exact; dequantization multiplies once.
    """
    x = act.values
    k = w.values
    kh, kw, c, f = k.shape
    h, ww, ca = x.shape
    if ca != c:
        raise KernelError(f"channel mismatch: act {ca}, weights {c}")
    pt, pb = pad_amounts(h, kh, stride, padding)
    pl, pr = pad_amounts(ww, kw, stride, padding)
    xp = np.pad(x, ((pt, pb), (pl, pr), (0, 0))).astype(np.int64)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    win = win[::stride, ::stride]        # [ho, wo, c, kh, kw]
    acc = np.einsum("hwckl,klcf->hwf", win, k.astype(np.int64))
    acc = _check_acc_range(acc)
    deq = acc.astype(np.float64) * float(np.asarray(act.scale)) * np.asarray(w.scale, dtype=np.float64)
    return acc, deq


def int_dense(act: IntTensor, w: IntTensor) -> tuple[np.ndarray, np.ndarray]:
    """Integer matrix-vector/matrix product with exact int32 accumulation."""
    x = act.values.astype(np.int64)
    k = w.values.astype(np.int64)
    if x.shape[-1] != k.shape[0]:
        raise KernelError(f"shape mismatch: {x.shape} @ {k.shape}")
    acc = _check_acc_range(x @ k)
    deq = acc.astype(np.float64) * float(np.asarray(act.scale)) * np.asarray(w.scale, dtype=np.float64)
    return acc, deq


# ---------------------------------------------------------------------------
# Bit-plane emulation of integer matmul on binary hardware
# ---------------------------------------------------------------------------

EmulatedMatmul = namedtuple("EmulatedMatmul", ["values", "binary_macs"])


def _pack_rows(bits01: np.ndarray) -> np.ndarray:
    """Packs a 0/1 matrix [R, K] into uint64 words [R, ceil(K/64)]."""
    r, k = bits01.shape
    n_words = -(-k // WORD_BITS)
    padded = np.zeros((r, n_words * WORD_BITS), dtype=np.uint64)
    padded[:, :k] = bits01.astype(np.uint64)
    grouped = padded.reshape(r, n_words, WORD_BITS)
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    return np.bitwise_or.reduce(grouped << shifts, axis=-1)


def and_matmul(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Binary matmul of 0/1 matrices: popcount of ANDed packed rows."""
    pa = _pack_rows(a_bits)            # [M, W]
    pb = _pack_rows(b_bits.T)          # [N, W]
    return popcount(pa[:, None, :] & pb[None, :, :]).sum(axis=-1)


def bitplane_matmul(a: IntTensor, b: IntTensor) -> EmulatedMatmul:
    """Integer matmul decomposed into I*J binary matmuls.

    Each operand splits into its bit planes; plane products recombine with
    weights 2^(i+j). The result equals the direct integer matmul exactly and
    the reported emulation cost is I*J binary MACs per direct MAC.
    """
    if a.signed or b.signed:
        raise KernelError("bitplane_matmul needs unsigned operands; "
                          "offset-encode signed inputs first")
    i_bits, j_bits = a.bits.bits, b.bits.bits
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise KernelError(f"shape mismatch: {av.shape} @ {bv.shape}")
    m, k = av.shape
    n = bv.shape[1]
    acc = np.zeros((m, n), dtype=np.int64)
    for i in range(i_bits):
        ai = (av >> i) & 1
        for j in range(j_bits):
            bj = (bv >> j) & 1
            acc += and_matmul(ai, bj).astype(np.int64) << (i + j)
    return EmulatedMatmul(values=acc, binary_macs=i_bits * j_bits * m * k * n)


# ---------------------------------------------------------------------------
# Float reference kernels (oracles)
# ---------------------------------------------------------------------------

def float_conv2d(x, w, stride: int = 1, padding: str = "same") -> np.ndarray:
    """Dense double-precision convolution with zero padding; [H,W,C] input."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    kh, kw, c, f = w.shape
    h, ww, ca = x.shape
    if ca != c:
        raise KernelError(f"channel mismatch: act {ca}, weights {c}")
    pt, pb = pad_amounts(h, kh, stride, padding)
    pl, pr = pad_amounts(ww, kw, stride, padding)
    xp = np.pad(x, ((pt, pb), (pl, pr), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    win = win[::stride, ::stride]
    return np.einsum("hwckl,klcf->hwf", win, w)


def float_dense(x, w, bias=None) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64) @ np.asarray(w, dtype=np.float64)
    if bias is not None:
        out = out + bias
    return out


def avg_pool_ref(x, kernel: int = 3, stride: int = 2,
                 padding: str = "same") -> np.ndarray:
    """Average pool with the fixed divisor kernel*kernel (zero padding)."""
    x = np.asarray(x, dtype=np.float64)
    h, w, _ = x.shape
    pt, pb = pad_amounts(h, kernel, stride, padding)
    pl, pr = pad_amounts(w, kernel, stride, padding)
    xp = np.pad(x, ((pt, pb), (pl, pr), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(0, 1))
    win = win[::stride, ::stride]
    return win.sum(axis=(3, 4)) / (kernel * kernel)


def instrumented_conv_macs(in_shape, kernel, stride, padding,
                           out_channels, groups: int = 1) -> int:
    """MAC count of a conv by explicit loop-trip enumeration.

    Walks every (output row, output column, filter, kernel tap) the reference
    kernel would visit; each trip covers the C_in/groups innermost products.
    Independent of the analytic formula in ``pokebnn.cost``.
    """
    h, w, c = in_shape
    kh, kw = kernel
    ho = _out_size(h, kh, stride, padding)
    wo = _out_size(w, kw, stride, padding)
    trips = 0
    for _y in range(ho):
        for _x in range(wo):
            for _f in range(out_channels):
                for _i in range(kh):
                    for _j in range(kw):
                        trips += c // groups
    return trips

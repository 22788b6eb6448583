"""Bit-packed and integer compute kernels, plus float reference oracles.

Sign tensors pack one bit per element into uint64 words along the channel
(innermost) axis: bit k of word j is lane 64*j + k, bit 1 means +1 and bit 0
means -1, and the trailing pad lanes of the last word are zero. A dot product
of two packed +-1 vectors is then ``n - 2 * popcount(a XOR b)``.

The binary convolution is one XOR/popcount GEMM: im2col gathers the padded
activation words into ``[kh*kw*n_words, ho*wo]`` and each of those word rows
is XORed against the matching word of every filter in one pass. Each pass
runs along the longer of (output positions, filters), since a numpy pass
costs several times more per element on short rows, and writes into buffers
allocated once per call. Mismatches are counted in the narrowest unsigned
type that holds kh*kw*C: uint16 at every PokeBNN shape, uint32 above 65,535.
Zero padding has no sign bit; a padded word is zero, so the GEMM reads an
out-of-bounds tap as an all -1 activation and adds ``-sum(w[f, tap])`` where
the float reference adds zero. Output positions on the border get that term
back from the 0/1 matrix of their out-of-bounds taps times the per-tap weight
sums, a float64 BLAS product that is exact because every term is an integer
of magnitude at most kh*kw*C. Pad lanes are zero in both operands, so they
never count as mismatches.

Accumulators are 32-bit signed: |acc| is bounded by the kernel volume times
the max operand magnitude (at most 4*4*3*127*127 for the 8-bit stem conv),
far below 2^31. Integer kernels multiply in floats so that BLAS does the
work: in float32 when K * max|a| * max|w| < 2^24 for a K-deep product and
the largest magnitudes the operands' grids admit (every int4 SE layer and
the 48-deep int8 stem), in float64 otherwise (the int8 classifier). Every
partial sum is then an integer the float holds exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .graphir import DType, pad_amounts, windows

WORD_BITS = 64

# Elements per operand block of the reference convolution: large enough for
# BLAS, small enough to add little to peak memory.
_CONV_BLOCK = 16384


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

    @property
    def lanes(self) -> int:
        return self.shape[-1]


def _pack_lanes(bits) -> np.ndarray:
    """Packs a boolean array along its last axis into uint64 words; bit k is lane k."""
    lanes = bits.shape[-1]
    n_words = -(-lanes // WORD_BITS)
    buf = np.zeros(bits.shape[:-1] + (n_words * 8,), dtype=np.uint8)
    buf[..., :-(-lanes // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return buf.view("<u8")


def pack_signs(x) -> BitPlane:
    """Packs a {-1, +1} tensor; raises on any other value, NaN included."""
    x = np.asarray(x)
    if not np.all((x == 1) | (x == -1)):
        raise KernelError("pack_signs requires entries in {-1, +1}")
    return BitPlane(shape=x.shape, words=_pack_lanes(x > 0))


def unpack_signs(bp: BitPlane) -> np.ndarray:
    octets = bp.words.astype("<u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=-1, count=bp.lanes, bitorder="little")
    return np.where(bits == 1, 1.0, -1.0)


def popcount(words) -> np.ndarray:
    return np.bitwise_count(words).astype(np.int64)


def xnor_popcount_dot(a: BitPlane, b: BitPlane) -> int:
    """Sum of elementwise products of two packed +-1 vectors.

    Equals n - 2 * popcount(a XOR b) for n lanes; no masking, lengths must
    match.
    """
    if a.shape != b.shape:
        raise KernelError(f"length mismatch: {a.shape} vs {b.shape}")
    mismatches = int(popcount(a.words ^ b.words).sum())
    return a.lanes - 2 * mismatches


# ---------------------------------------------------------------------------
# Binary convolution
# ---------------------------------------------------------------------------

def binary_conv2d(act: BitPlane, weights: BitPlane, stride: int = 1,
                  padding: str = "same") -> np.ndarray:
    """XNOR/popcount convolution of packed sign tensors; exact int32 output.

    ``act`` is [H, W, C] packed, ``weights`` is [F, kh, kw, C] packed. Zero
    padding is restored by a correction on the border outputs, so padded
    taps add zero exactly as in the float reference.
    """
    if len(act.shape) != 3 or len(weights.shape) != 4:
        raise KernelError("act must be [H,W,C], weights [F,kh,kw,C]")
    h, w, c = act.shape
    f, kh, kw, wc = weights.shape
    if wc != c:
        raise KernelError(f"channel mismatch: act {c}, weights {wc}")

    win, (pt, _, pl, _) = windows(act.words, kh, kw, stride, padding)
    ho, wo, n_words = win.shape[:3]        # win is [ho, wo, n_words, kh, kw]
    p, n = ho * wo, kh * kw * c
    cols = np.ascontiguousarray(win.transpose(3, 4, 2, 0, 1)).reshape(-1, p)  # [K, P]
    wmat = np.ascontiguousarray(weights.words.reshape(f, -1).T)             # [K, F]

    # One XOR/popcount pass per word row, the longer operand row innermost;
    # a counter never exceeds n, so it is as narrow as n allows.
    outer, inner = (wmat, cols) if p >= f else (cols, wmat)
    shape = (outer.shape[1], inner.shape[1])
    diff = np.empty(shape, dtype=np.uint64)
    ones = np.empty(shape, dtype=np.uint8)
    mism = np.zeros(shape, dtype=np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32)
    with np.errstate():
        # A ufunc copies broadcast rows shorter than its buffer into the
        # buffer; a buffer no longer than one row lets the XOR read in place.
        np.setbufsize(min(np.getbufsize(), max(16, shape[1] // 16 * 16)))
        for o_row, i_row in zip(outer, inner):
            np.bitwise_xor(o_row[:, None], i_row, out=diff)
            np.bitwise_count(diff, out=ones)
            np.add(mism, ones, out=mism)
    out = (mism.T if p >= f else mism).astype(np.int32, order="C")   # [P, F]
    out *= -2
    out += n

    # Out-of-bounds taps read as -1 activations; add their weight sums back.
    # A tap's weight sum is 2 * (its +1 lanes) - c; one float64 product
    # counts the +1 lanes over every word of a position's padded taps.
    ry = np.arange(ho)[:, None] * stride + np.arange(kh) - pt
    rx = np.arange(wo)[:, None] * stride + np.arange(kw) - pl
    oy, ox = (ry < 0) | (ry >= h), (rx < 0) | (rx >= w)     # [ho, kh], [wo, kw]
    by, bx = np.nonzero(oy.any(axis=1)[:, None] | ox.any(axis=1))
    if by.size:
        padtap = (oy[by, :, None] | ox[bx, None, :]).reshape(-1, kh * kw)
        taps = np.repeat(padtap, n_words, axis=1).astype(np.float64)
        wones = np.bitwise_count(weights.words).reshape(f, -1).astype(np.float64)
        fix = 2 * (taps @ wones.T) - c * padtap.sum(axis=1)[:, None]
        out.reshape(ho, wo, f)[by, bx] += fix.astype(np.int32)
    return out.reshape(ho, wo, f)


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
        if self.bits.is_float:
            raise KernelError(f"IntTensor needs an integer DType, got {self.bits.value}")
        self.values = np.asarray(self.values, dtype=np.int32)
        b = self.bits.bits
        if self.signed:
            if np.any(np.abs(self.values) > self.max_abs):
                raise KernelError(f"values exceed signed {b}-bit range")
        else:
            if np.any(self.values < 0) or np.any(self.values > self.max_abs):
                raise KernelError(f"values exceed unsigned {b}-bit range")

    @property
    def max_abs(self) -> int:
        """Largest magnitude the grid admits."""
        b = self.bits.bits
        if not self.signed:
            return 2 ** b - 1
        return 2 ** (b - 1) - 1 if b > 1 else 1


def _gemm_dtype(depth: int, act: IntTensor, w: IntTensor):
    """Narrowest float in which a ``depth``-deep product of the two is exact.

    Every partial sum is an integer of magnitude at most
    depth * max|a| * max|w|; float32 holds all integers below 2^24.
    """
    exact32 = depth * act.max_abs * w.max_abs < 2 ** 24
    return np.float32 if exact32 else np.float64


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
    _, _, ca = x.shape
    if ca != c:
        raise KernelError(f"channel mismatch: act {ca}, weights {c}")
    dt = _gemm_dtype(kh * kw * c, act, w)
    win, _ = windows(x.astype(dt), kh, kw, stride, padding)  # [ho, wo, c, kh, kw]
    acc = _check_acc_range(np.tensordot(win, k.astype(dt), axes=([2, 3, 4], [2, 0, 1])))
    deq = acc.astype(np.float64) * float(np.asarray(act.scale)) * np.asarray(w.scale, dtype=np.float64)
    return acc, deq


def int_dense(act: IntTensor, w: IntTensor) -> tuple[np.ndarray, np.ndarray]:
    """Integer matrix-vector/matrix product with exact int32 accumulation."""
    x, k = act.values, w.values
    if x.shape[-1] != k.shape[0]:
        raise KernelError(f"shape mismatch: {x.shape} @ {k.shape}")
    dt = _gemm_dtype(k.shape[0], act, w)
    acc = _check_acc_range(x.astype(dt) @ k.astype(dt))
    deq = acc.astype(np.float64) * float(np.asarray(act.scale)) * np.asarray(w.scale, dtype=np.float64)
    return acc, deq


# ---------------------------------------------------------------------------
# Bit-plane emulation of integer matmul on binary hardware
# ---------------------------------------------------------------------------

EmulatedMatmul = namedtuple("EmulatedMatmul", ["values", "binary_macs"])


def and_matmul(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Binary matmul of 0/1 matrices: popcount of ANDed packed rows."""
    pa = _pack_lanes(a_bits > 0)       # [M, W]
    pb = _pack_lanes(b_bits.T > 0)     # [N, W]
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
    """Dense double-precision convolution with zero padding; [H,W,C] input.

    One [positions, C] @ [C, F] product per tap, over blocks of output rows
    that keep each product near ``_CONV_BLOCK`` elements.
    """
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
    win = win[::stride, ::stride]                       # [ho, wo, c, kh, kw]
    ho, wo = win.shape[:2]
    out = np.zeros((ho, wo, f))
    rows = max(1, _CONV_BLOCK // (wo * max(c, f)))
    for r in range(0, ho, rows):
        block = out[r:r + rows]
        for i in range(kh):
            for j in range(kw):
                block += (win[r:r + rows, :, :, i, j].reshape(-1, c) @ w[i, j]).reshape(block.shape)
    return out

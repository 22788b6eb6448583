"""
Binary kernels
==============

Shows the XNOR/popcount identity on packed sign vectors, verifies the
bit-packed binary convolution against the dense float reference, and
emulates an int4 matrix multiply with sixteen binary matmuls.
"""

import numpy as np

from pokebnn import kernels as K
from pokebnn.graphir import DType

rng = np.random.default_rng(0)

# A dot product of two +-1 vectors is n - 2 * popcount(a XOR b): matches
# add +1, mismatches add -1.
a = np.where(rng.random(64) < 0.5, -1.0, 1.0)
b = np.where(rng.random(64) < 0.5, -1.0, 1.0)
packed_dot = K.xnor_popcount_dot(K.pack_signs(a), K.pack_signs(b))
print(f"xnor/popcount dot = {packed_dot}, float dot = {int(a @ b)}")

# The packed convolution must agree with the float reference *exactly*,
# including at the borders where zero padding contributes a third value
# that raw XNOR cannot represent; a per-border correction handles those taps.
act = np.where(rng.random((8, 8, 16)) < 0.5, -1.0, 1.0)
wts = np.where(rng.random((8, 3, 3, 16)) < 0.5, -1.0, 1.0)
packed = K.binary_conv2d(K.pack_signs(act), K.pack_signs(wts), stride=1)
reference = K.float_conv2d(act, np.moveaxis(wts, 0, -1), stride=1)
print(f"binary conv equals float reference: "
      f"{np.array_equal(packed, reference.astype(np.int64))}")

# Any unsigned integer matmul decomposes into bit planes: I*J binary
# matmuls recombined with weights 2^(i+j). The emulation cost in binary
# MACs is I*J per direct MAC, which is the ACE weighting.
A = rng.integers(0, 16, size=(4, 6))
B = rng.integers(0, 16, size=(6, 3))
emulated = K.bitplane_matmul(K.IntTensor(A, DType.INT4, signed=False),
                             K.IntTensor(B, DType.INT4, signed=False))
print(f"bit-plane matmul equals direct: {np.array_equal(emulated.values, A @ B)}")
direct_macs = A.shape[0] * A.shape[1] * B.shape[1]
print(f"direct MACs {direct_macs}, binary MACs {emulated.binary_macs} "
      f"({emulated.binary_macs // direct_macs}x)")

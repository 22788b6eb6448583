"""
Shortcut reshaping
==================

The residual adapters that let every convolution carry a shortcut without
1x1 projection layers: zero padding and tiling for channel expansion,
neighbor averaging for contraction, and a 3x3 stride-2 average pool for
spatial downsampling. Ends with one lowered PokeConv run forward and
backward by the graph executor.
"""

import numpy as np

from pokebnn.builders import _emit_pokeconv, _GraphBuilder
from pokebnn.nn import Model
from pokebnn.nn import autodiff as ad
from pokebnn.nn.autodiff import Tensor

vec = Tensor(np.array([[[[1.0, 2.0]]]]))
print("pad  [1,2] -> 4ch:", ad.pad_channels(vec, 4).data.ravel())
print("tile [1,2] -> 4ch:", ad.tile_channels(vec, 4).data.ravel())
quad = Tensor(np.array([[[[1.0, 3.0, 5.0, 7.0]]]]))
print("avg  [1,3,5,7] -> 2ch:", ad.avg_channels(quad, 2).data.ravel())

# One PokeConv: binarized conv, BN, the local shortcut, DPReLU, the 4-bit SE
# gate computed from the block input, and a trailing BN. A stride-2 conv
# from 16 to 32 channels makes the local shortcut zero-pad the channels and
# then pool the spatial size.
b = _GraphBuilder("pokeconv", (8, 8, 16))
g = b.finish(_emit_pokeconv(b, "pc_", "in", None, (3, 3), 32, 2))
for n in g.nodes:
    if n.id.startswith("pc_local_"):
        print(f"  {n.id:14} {n.op:14} -> {b.shape[n.id]}")

rng = np.random.default_rng(0)
model = Model(g, seed=0)
xin = rng.normal(size=(2, 8, 8, 16))
y, backward = model.forward(xin, training=True, phase=2)
print(f"pokeconv {xin.shape} -> {model.shapes[g.nodes[-1].id]}, "
      f"flattened to {y.shape}")

# a constant upstream would vanish through the trailing BatchNorm, so use
# a random one to exercise every gradient path
backward(rng.normal(size=y.shape))
grads = {
    "conv weight": model.arena.grad_views["pc_conv.w"],
    "dprelu slope": model.arena.grad_views["pc_act.gamma"],
    "se hidden weight": model.arena.grad_views["pc_se_fc1.w"],
}
for name, grad in grads.items():
    print(f"  {name:18} grad norm {np.linalg.norm(grad):.4f}")

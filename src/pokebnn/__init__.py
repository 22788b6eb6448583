"""Binary/mixed-precision network toolkit.

Subpackages and modules:

- ``graphir``: the static network IR, shape inference, JSON serialization
- ``builders``: ResNet-50, PokeBNN-Mx, and toy-PokeBNN graph builders
- ``quant``: casting/fake-quantization/binarization math and bound calibration
- ``kernels``: bit-packed XNOR/popcount and integer kernels with float oracles
- ``nn``: reverse-mode autodiff, the graph executor, and checkpoints
- ``cost``: MAC buckets, ACE/CPU64, model size, elementwise op analysis
- ``train``: the two-phase toy trainer
- ``cli``: the ``pokebnn`` command-line tool
"""

from . import builders, cost, graphir, kernels, quant, train
from .builders import build_pokebnn, build_pokebnn_toy, build_resnet50
from .cost import analyze_graph
from .graphir import DType, GraphSpec, NodeSpec, infer_shapes, load_graph, save_graph

__version__ = "0.1.0"

__all__ = [
    "builders", "cost", "graphir", "kernels", "quant", "train",
    "build_pokebnn", "build_pokebnn_toy", "build_resnet50", "analyze_graph",
    "DType", "GraphSpec", "NodeSpec", "infer_shapes", "load_graph",
    "save_graph", "__version__",
]

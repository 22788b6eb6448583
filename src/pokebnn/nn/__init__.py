from .autodiff import Tensor
from .checkpoint import CheckpointError, load_tensors, save_tensors
from .model import Model, QuantContext

__all__ = ["Tensor", "Model", "QuantContext", "save_tensors", "load_tensors",
           "CheckpointError"]

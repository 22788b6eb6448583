from .autodiff import Tensor
from .checkpoint import CheckpointError, load_tensors, save_tensors
from .model import Model

__all__ = ["Tensor", "Model", "save_tensors", "load_tensors", "CheckpointError"]

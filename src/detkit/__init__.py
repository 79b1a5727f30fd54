"""detkit: verification-first building blocks for a small object detector.

Every operator ships with a hand-derived backward pass checked against
central finite differences, an analytical cost model with exact integer
arithmetic, and a deterministic toy training/evaluation pipeline.
"""

from .tensor import ConfigError, Tensor, load_tensor, save_tensor

__all__ = [
    "ConfigError",
    "Tensor",
    "load_tensor",
    "save_tensor",
]

__version__ = "0.1.0"

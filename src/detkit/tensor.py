"""Dense rank-4 tensors in (n, c, h, w) layout.

A Tensor wraps an image only where it meets a file or the generator:
``imageio`` reads Tensors, and converts and draws on them,
``dataset.synth_dataset`` yields them and ``weights_io``'s ``.dkt`` files
hold them. The detector (``ops``, ``blocks``, ``model``, ``losses``,
``postprocess``, ``train``) takes and returns bare ndarrays; its callers
unwrap an image's ``data`` once, where it leaves ``imageio`` or the
generator. Data is stored row-major in (n, c, h, w) order, 64-bit by
default. Every construction rejects NaN and Inf, so each image read or
generated is scanned once. :func:`_require_finite` is that check, and the
detector scans each value it makes once with it, by name: the head
(``model.net_forward``), the loss and the head gradient
(``losses.detection_loss``) and each parameter gradient (``train``).
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float64


class ConfigError(ValueError):
    """Invalid shapes, dimensions or operator configuration."""


# Elements of the largest float64 array numpy can describe. A larger size
# fails as ValueError("array is too big"), not as the MemoryError that a
# smaller impossible size raises, so the specs reject it by name.
MAX_ELEMENTS = np.iinfo(np.intp).max // 8


class NonFiniteError(ConfigError):
    """A value held NaN or Inf; the message names the value."""


def _require_finite(what: str, arr: np.ndarray) -> None:
    """Raise NonFiniteError("non-finite <what>") if arr holds NaN or Inf.

    Package-private so that tracers of the public API do not wrap a call
    made by every Tensor construction."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite {what}")


def is_checked() -> bool:
    """Always True: finiteness checks cannot be switched off."""
    return True


class Tensor:
    """Rank-4 numeric array, shape (n, c, h, w)."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim != 4:
            raise ConfigError(f"tensor must be rank 4 (n, c, h, w), got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
        _require_finite("tensor", arr)
        self.data = arr

    def __array__(self, dtype=None, copy=None):
        """``np.asarray(tensor)`` is its data."""
        return np.array(self.data, dtype=dtype, copy=copy)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

"""Dense rank-4 tensors in (n, c, h, w) layout, and the ``.dkt`` file format.

A Tensor wraps an image only where it meets a file or the generator:
``imageio`` reads, writes, converts and draws Tensors,
``dataset.synth_dataset`` yields them and ``.dkt`` files hold them. The
detector (``ops``, ``blocks``, ``model``, ``losses``, ``postprocess``,
``train``) takes and returns bare ndarrays; its callers unwrap an image's
``data`` once, where it leaves ``imageio`` or the generator. Data is stored
row-major in (n, c, h, w) order, 64-bit by default. Every construction
rejects NaN and Inf, so each image read or generated is scanned once.
:func:`_require_finite` is that check, and the detector scans each value it
makes once with it, by name: the head (``model.net_forward``), the head
gradient (``losses.detection_loss``) and each parameter gradient
(``train``).
"""

from __future__ import annotations

import struct

import numpy as np

DEFAULT_DTYPE = np.float64

_DTYPE_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}

_TENSOR_MAGIC = b"DKT1"


class ConfigError(ValueError):
    """Invalid shapes, dimensions or operator configuration."""


# Elements of the largest float64 array numpy can describe. A larger size
# fails as ValueError("array is too big"), not as the MemoryError that a
# smaller impossible size raises, so the specs reject it by name.
MAX_ELEMENTS = np.iinfo(np.intp).max // 8


class NonFiniteError(ConfigError):
    """A value held NaN or Inf; the message names the value."""


class TensorFormatError(IOError):
    """Malformed or truncated tensor file."""


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
        if arr.dtype not in _DTYPE_TAGS:
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


def save_tensor(t: Tensor, path) -> None:
    """Write a tensor to disk.

    Layout (little-endian): magic "DKT1", u8 dtype tag (1=f32, 2=f64),
    four u32 dims, then the raw elements in (n, c, h, w) row-major order.
    """
    tag = _DTYPE_TAGS[t.dtype]
    header = _TENSOR_MAGIC + struct.pack("<B4I", tag, *t.shape)
    payload = np.ascontiguousarray(t.data).astype(t.dtype.newbyteorder("<")).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_tensor(path) -> Tensor:
    """Read a tensor written by :func:`save_tensor`. Round-trips bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = 4 + 1 + 16
    if len(blob) < head_len:
        raise TensorFormatError("tensor file truncated (header incomplete)")
    if blob[:4] != _TENSOR_MAGIC:
        raise TensorFormatError("bad magic, not a tensor file")
    tag, n, c, h, w = struct.unpack("<B4I", blob[4:head_len])
    if tag not in _TAG_DTYPES:
        raise TensorFormatError(f"unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    count = n * c * h * w
    expected = head_len + count * dtype.itemsize
    if len(blob) != expected:
        raise TensorFormatError(
            f"tensor file truncated or oversized: expected {expected} bytes, got {len(blob)}"
        )
    flat = np.frombuffer(blob[head_len:], dtype=dtype.newbyteorder("<")).astype(dtype)
    return Tensor(flat.reshape(n, c, h, w))

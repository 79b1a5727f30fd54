"""Versioned, checksummed weight files.

Layout (all integers little-endian):

    magic "DKW1"                     4 bytes
    version            u16           currently 1
    dtype tag          u8            1 = float32, 2 = float64
    entry count        u32
    manifest, per entry:
        name length    u16
        name           utf-8 bytes
        ndim           u8
        dims           u32 * ndim
        offset         u64           byte offset into the payload
    payload size       u64
    payload            raw little-endian elements, manifest order
    checksum           u64           blake2b-8 of every preceding byte

Loading verifies length, then checksum, then magic and version, so any
single corrupted byte ahead of the checksum field is reported as a checksum
mismatch and a flipped byte inside the checksum itself is too.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .tensor import _DTYPE_TAGS, _TAG_DTYPES

FORMAT_VERSION = 1
_MAGIC = b"DKW1"


class WeightsError(IOError):
    """Base class for weight-file problems."""


class WeightsFormatError(WeightsError):
    """Bad magic or malformed manifest."""


class WeightsVersionError(WeightsError):
    """File written by an unsupported format version."""


class WeightsChecksumError(WeightsError):
    """Stored checksum does not match the file contents."""


class WeightsTruncatedError(WeightsError):
    """File shorter than its own accounting says it should be."""


def _checksum(blob: bytes) -> bytes:
    return hashlib.blake2b(blob, digest_size=8).digest()


def save_weights(params: dict[str, np.ndarray], path, version: int = FORMAT_VERSION) -> None:
    """Write parameters in manifest (insertion) order. Round-trips bit-exactly."""
    # ascontiguousarray would promote 0-d arrays to 1-d; keep scalar rank
    arrays = {
        name: (np.asarray(arr) if np.asarray(arr).ndim == 0 else np.ascontiguousarray(arr))
        for name, arr in params.items()
    }
    dtypes = {arr.dtype for arr in arrays.values()}
    if len(dtypes) > 1:
        raise WeightsFormatError(f"mixed parameter dtypes {sorted(map(str, dtypes))}")
    dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
    if dtype not in _DTYPE_TAGS:
        raise WeightsFormatError(f"unsupported dtype {dtype}")

    manifest = bytearray()
    payload = bytearray()
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        manifest += struct.pack("<H", len(encoded)) + encoded
        manifest += struct.pack("<B", arr.ndim)
        manifest += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        manifest += struct.pack("<Q", len(payload))
        payload += arr.astype(dtype.newbyteorder("<")).tobytes()

    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<HBI", version, _DTYPE_TAGS[dtype], len(arrays))
    blob += manifest
    blob += struct.pack("<Q", len(payload))
    blob += payload
    blob += _checksum(bytes(blob))
    with open(path, "wb") as fh:
        fh.write(blob)


def load_weights(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 7 + 8 + 8:
        raise WeightsTruncatedError(f"file is only {len(blob)} bytes")
    # body is a view: the file's bytes are copied only into the arrays
    body, stored = memoryview(blob)[:-8], blob[-8:]
    if _checksum(body) != stored:
        raise WeightsChecksumError("checksum mismatch, file is corrupt")
    if body[:4] != _MAGIC:
        raise WeightsFormatError("bad magic, not a weights file")
    version, tag, count = struct.unpack("<HBI", body[4:11])
    if version != FORMAT_VERSION:
        raise WeightsVersionError(f"unsupported format version {version}")
    if tag not in _TAG_DTYPES:
        raise WeightsFormatError(f"unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]

    pos = 11
    entries = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, pos)
            pos += 2
            name = str(body[pos:pos + name_len], "utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", body, pos)
            pos += 1
            dims = struct.unpack_from(f"<{ndim}I", body, pos) if ndim else ()
            pos += 4 * ndim
            (offset,) = struct.unpack_from("<Q", body, pos)
            pos += 8
            entries.append((name, dims, offset))
        (payload_size,) = struct.unpack_from("<Q", body, pos)
        pos += 8
    except struct.error as exc:
        raise WeightsTruncatedError(f"manifest ends early: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WeightsFormatError(f"entry name at byte {pos} is not UTF-8: {exc.reason}") from None
    payload = body[pos:]
    if len(payload) != payload_size:
        raise WeightsTruncatedError(
            f"payload is {len(payload)} bytes, manifest promises {payload_size}"
        )

    params: dict[str, np.ndarray] = {}
    for name, dims, offset in entries:
        if name in params:
            raise WeightsFormatError(f"entry {name!r} appears twice in the manifest")
        end = offset + math.prod(dims) * dtype.itemsize  # exact: no int64 wrap
        if end > payload_size:
            raise WeightsTruncatedError(f"entry {name!r} runs past the payload")
        flat = np.frombuffer(payload[offset:end], dtype=dtype.newbyteorder("<"))
        params[name] = flat.astype(dtype).reshape(dims)
    return params

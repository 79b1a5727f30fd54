"""Minimal PPM/PGM image reading and writing (binary and ASCII variants).

Pixels are exchanged as (1, c, h, w) Tensors with values in [0, 1]; PGM
maps to one channel, PPM to three. This and ``dataset.synth_dataset`` are
where images become Tensors, each scanned for NaN and Inf once; the detector
takes their ``data``, adapted to its channel count by ``to_channels``, which
returns an array. Box overlays are drawn as 1-pixel-wide outlines into an
array, which ``write_image`` takes as it takes a Tensor.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class ImageFormatError(IOError):
    """Unreadable or unsupported image file."""


def _tokens(blob: bytes):
    """Header tokens, skipping '#' comments."""
    pos = 0
    while True:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("unexpected end of header")
        yield blob[start:pos], pos + 1


def read_image(path) -> Tensor:
    with open(path, "rb") as fh:
        blob = fh.read()
    toks = _tokens(blob)
    try:
        magic, _ = next(toks)
        magic = magic.decode("ascii")
        (wtok, _), (htok, _), (mtok, data_start) = next(toks), next(toks), next(toks)
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except (StopIteration, ValueError, UnicodeDecodeError) as exc:
        raise ImageFormatError(f"bad header in {path}") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"image size {width}x{height} must be at least 1x1")
    if maxval < 1 or maxval > 65535:
        raise ImageFormatError(f"unsupported maxval {maxval}")
    channels = {"P2": 1, "P5": 1, "P3": 3, "P6": 3}.get(magic)
    if channels is None:
        raise ImageFormatError(f"unsupported magic {magic!r} (want P2/P3/P5/P6)")
    count = width * height * channels

    if magic in ("P5", "P6"):
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        raw = blob[data_start:data_start + count * dtype.itemsize]
        if len(raw) < count * dtype.itemsize:
            raise ImageFormatError("pixel data truncated")
        vals = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    else:
        try:
            vals = np.array(blob[data_start - 1:].split()[:count], dtype=np.float64)
        except ValueError as exc:
            raise ImageFormatError("bad ASCII pixel data") from exc
        if vals.size < count:
            raise ImageFormatError("pixel data truncated")
    # NaN fails every comparison, so it is rejected as well
    if not np.all((vals >= 0) & (vals <= maxval) & (vals == np.round(vals))):
        raise ImageFormatError(f"pixel samples must be integers in [0, {maxval}]")
    img = vals.reshape(height, width, channels) / maxval
    return Tensor(np.transpose(img, (2, 0, 1))[None])


def write_image(path, image) -> None:
    """Write a (1, c, h, w) image, a Tensor or the array draw_boxes returns,
    as binary PGM (c=1) or PPM (c=3). The pixels are not scanned again: a
    Tensor was scanned when made, and draw_boxes burns finite colours into
    one."""
    arr = np.asarray(image)
    if arr.ndim != 4 or arr.shape[0] != 1 or arr.shape[1] not in (1, 3):
        raise ImageFormatError("expect a single image with 1 or 3 channels")
    _, c, h, w = arr.shape
    pixels = np.round(np.clip(arr[0], 0.0, 1.0) * 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    body = np.transpose(pixels, (1, 2, 0)).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)


def to_channels(image: Tensor, channels: int) -> np.ndarray:
    """The image's pixels with their channel count adapted: 3 -> 1 averages,
    1 -> 3 replicates. Not scanned again: a channel mean or a repeat of
    finite pixels is finite."""
    if image.c == channels:
        return image.data
    if image.c == 3 and channels == 1:
        return image.data.mean(axis=1, keepdims=True)
    if image.c == 1 and channels == 3:
        return np.repeat(image.data, 3, axis=1)
    raise ImageFormatError(f"cannot adapt {image.c} channels to {channels}")


def draw_boxes(image: Tensor, boxes) -> np.ndarray:
    """The image's pixels, copied, with the outlines of the corner rows
    (x1, y1, x2, y2) burned in: red (1, 0, 0) on 3 channels, 1.0 in every
    channel otherwise."""
    out = image.data.copy()
    color = np.array([1.0, 0.0, 0.0] if image.c == 3 else [1.0] * image.c)[:, None]
    for bx1, by1, bx2, by2 in boxes:
        x1 = int(np.clip(round(bx1), 0, image.w - 1))
        x2 = int(np.clip(round(bx2) - 1, 0, image.w - 1))
        y1 = int(np.clip(round(by1), 0, image.h - 1))
        y2 = int(np.clip(round(by2) - 1, 0, image.h - 1))
        if x2 < x1 or y2 < y1:
            continue
        out[0, :, y1, x1:x2 + 1] = color
        out[0, :, y2, x1:x2 + 1] = color
        out[0, :, y1:y2 + 1, x1] = color
        out[0, :, y1:y2 + 1, x2] = color
    return out

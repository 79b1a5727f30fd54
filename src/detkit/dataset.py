"""Synthetic shape-detection dataset.

Each sample is a single-channel image of low-amplitude noise with 1 to 4
bright, non-overlapping shapes drawn on it. The three classes are
rectangle (0), ellipse (1), and triangle (2). Annotations are the analytic
tight boxes of the shapes in pixel coordinates (pixel (row i, col j) covers
[j, j+1) x [i, i+1), so a mask-derived tight box agrees within one pixel).

Generation is fully deterministic for a given seed.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ConfigError, Tensor

CLASS_NAMES = ("rectangle", "ellipse", "triangle")

_NOISE_LOW, _NOISE_HIGH = 0.05, 0.40
_SHAPE_LOW, _SHAPE_HIGH = 0.70, 0.95


def _window(center: float, half: float, size: int) -> tuple[int, int]:
    """Pixel range [lo, hi) within [0, size) covering [center - half, center + half]
    with a pixel to spare on each side."""
    lo = max(0, math.floor(center - half) - 1)
    return lo, max(lo, min(size, math.ceil(center + half) + 1))


def _rasterize(kind: int, cx: float, cy: float, half_w: float, half_h: float,
               size: int) -> np.ndarray:
    """Boolean mask of pixels whose centers fall inside the shape.

    Every kind lies inside its box [cx - half_w, cx + half_w] x
    [cy - half_h, cy + half_h], so the predicate is evaluated only on the rows
    and columns of that box, widened by a pixel against rounding."""
    r0, r1 = _window(cy, half_h, size)
    c0, c1 = _window(cx, half_w, size)
    py = np.arange(r0, r1)[:, None] + 0.5
    px = np.arange(c0, c1)[None, :] + 0.5
    if kind == 0:  # rectangle
        inside = (np.abs(px - cx) <= half_w) & (np.abs(py - cy) <= half_h)
    elif kind == 1:  # ellipse
        inside = ((px - cx) / half_w) ** 2 + ((py - cy) / half_h) ** 2 <= 1.0
    elif kind == 2:  # triangle: apex top-center, base at the bottom edge
        inside_y = (py >= cy - half_h) & (py <= cy + half_h)
        frac = np.clip((py - (cy - half_h)) / (2.0 * half_h), 0.0, 1.0)
        inside = inside_y & (np.abs(px - cx) <= frac * half_w)
    else:
        raise ConfigError(f"unknown shape kind {kind}")
    mask = np.zeros((size, size), dtype=bool)
    mask[r0:r1, c0:c1] = inside
    return mask


def synth_dataset(seed: int, count: int, image_size: int = 64, classes: int = 3):
    """Deterministic list of (image Tensor (1, 1, S, S), targets): an image's
    targets are a (t, 5) float64 array of rows [x1, y1, x2, y2, class]."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if classes < 1 or classes > len(CLASS_NAMES):
        raise ConfigError(f"classes must be in [1, {len(CLASS_NAMES)}]")
    if image_size < 16:
        raise ConfigError("image size must be >= 16")
    rng = np.random.Generator(np.random.PCG64(seed))
    # half-extents are integers and centers sit on pixel centers (k + 0.5), so
    # every shape's extreme points coincide with pixel centers and the
    # rasterized tight box matches the analytic box to within one pixel
    min_half = max(4, image_size // 8)
    max_half = image_size // 4

    samples = []
    for _ in range(count):
        img = rng.uniform(_NOISE_LOW, _NOISE_HIGH, size=(image_size, image_size))
        targets: list[tuple[float, float, float, float, int]] = []
        wanted = int(rng.integers(1, 5))
        for _ in range(wanted):
            # the first shape fits on its first attempt: nothing can clash
            # with an empty target list
            for _attempt in range(40):
                half_w = int(rng.integers(min_half, max_half + 1))
                half_h = int(rng.integers(min_half, max_half + 1))
                cx = int(rng.integers(half_w, image_size - half_w)) + 0.5
                cy = int(rng.integers(half_h, image_size - half_h)) + 0.5
                x1, y1, x2, y2 = cx - half_w, cy - half_h, cx + half_w, cy + half_h
                clash = any(
                    x1 < ox2 + 2 and ox1 < x2 + 2 and y1 < oy2 + 2 and oy1 < y2 + 2
                    for ox1, oy1, ox2, oy2, _ in targets
                )
                if clash:
                    continue
                kind = int(rng.integers(0, classes))
                value = float(rng.uniform(_SHAPE_LOW, _SHAPE_HIGH))
                mask = _rasterize(kind, cx, cy, float(half_w), float(half_h), image_size)
                img[mask] = value
                targets.append((x1, y1, x2, y2, kind))
                break
            else:  # no free spot in 40 attempts: the image keeps what it has
                break
        samples.append((Tensor(img[None, None, :, :]), np.array(targets, dtype=np.float64)))
    return samples

"""Anchor-free grid decode, greedy NMS, and letterbox preprocessing.

A head array of shape (1, 5 + K, grid_h, grid_w) holds, per cell,
[tx, ty, tw, th, objectness, K class logits]. Decode turns each cell into a
candidate box: center ((col + sigmoid(tx)) stride, (row + sigmoid(ty)) stride),
size (e^tw stride, e^th stride), scored sigmoid(obj) * max_k sigmoid(cls_k).
It reads the grid and K from the head's shape, as YOLOv8 reads its anchor
grid from the feature map it decodes; the stride and the score threshold are
its only settings.

An image's detections are one (n, 6) float64 array of rows
[x1, y1, x2, y2, score, class]: decode emits it, nms filters it, and
evaluation and the detect command read it. Only detections read back from a
JSON file are objects, the ``Detection`` rows of ``detections_from_json``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .losses import pairwise_iou
from .ops import sigmoid
from .tensor import ConfigError

_LOGIT_CAP = 60.0  # e^60 ~ 1e26; caps box sizes before the image-bounds clamp


def decode(head: np.ndarray, stride: float, score_threshold: float) -> np.ndarray:
    """The (n, 6) detections [x1, y1, x2, y2, score, class] of the cells whose
    score clears the threshold, boxes clamped to the image the grid covers,
    (grid_w stride) x (grid_h stride). The grid and the class count K are the
    head's own: its shape is (1, 5 + K, grid_h, grid_w) with K >= 1. Cells
    scan in row-major order. A head of another shape, or a stride that is not
    > 0, raises ConfigError."""
    n, channels, grid_h, grid_w = head.shape
    if n != 1 or channels < 6:
        raise ConfigError(f"head shape {head.shape} is not (1, 5 + K, h, w) with K >= 1")
    if not stride > 0:
        raise ConfigError(f"stride must be > 0, got {stride}")
    p = head[0]
    # a Python float: a numpy scalar would promote a float32 head's box sizes to float64
    s = float(stride)
    image_w, image_h = grid_w * s, grid_h * s
    # float64 scores and box centres for any head; the box sizes below are
    # exponentials of the head's own logits and keep its dtype
    sig = sigmoid(p).astype(np.float64, copy=False)
    cls = sig[5:]
    score = sig[4] * cls.max(axis=0)
    emit = score >= score_threshold

    cols = np.arange(grid_w)[None, :]
    rows = np.arange(grid_h)[:, None]
    cx = ((cols + sig[0]) * s)[emit]
    cy = ((rows + sig[1]) * s)[emit]
    half_w = (np.exp(np.minimum(p[2], _LOGIT_CAP)) * s)[emit] / 2.0
    half_h = (np.exp(np.minimum(p[3], _LOGIT_CAP)) * s)[emit] / 2.0
    return np.stack([
        np.minimum(np.maximum(cx - half_w, 0.0), image_w),
        np.minimum(np.maximum(cy - half_h, 0.0), image_h),
        np.minimum(np.maximum(cx + half_w, 0.0), image_w),
        np.minimum(np.maximum(cy + half_h, 0.0), image_h),
        score[emit],
        cls.argmax(axis=0)[emit],
    ], axis=1)


def nms(dets: np.ndarray, iou_threshold: float = 0.45) -> np.ndarray:
    """Greedy class-aware suppression of (n, 6) detections: repeatedly keep
    the best remaining detection and drop same-class detections overlapping it
    beyond the threshold. Ordering (and tie-breaks) are part of the contract:
    output is sorted by descending score, then ascending class id, then input
    order."""
    # lexsort is stable, so input order breaks (score, class) ties
    ranked = dets[np.lexsort((dets[:, 5], -dets[:, 4]))]
    classes = ranked[:, 5]
    over = pairwise_iou(ranked[:, :4], ranked[:, :4]) > iou_threshold
    over &= classes[:, None] == classes[None, :]
    suppressed = np.zeros(len(ranked), dtype=bool)
    keep = []
    for pos in range(len(ranked)):
        if suppressed[pos]:
            continue
        keep.append(pos)
        suppressed[pos + 1:] |= over[pos, pos + 1:]
    return ranked[keep]


def letterbox(image: np.ndarray, target_h: int, target_w: int):
    """Aspect-preserving nearest-neighbor resize of an (n, c, h, w) image
    batch plus symmetric 0.5-valued padding. Returns (array, scale,
    (pad_x, pad_y)); a source point maps to (x * scale + pad_x,
    y * scale + pad_y)."""
    if target_h < 1 or target_w < 1:
        raise ConfigError("target dims must be >= 1")
    n, c, h, w = image.shape
    if h < 1 or w < 1:
        raise ConfigError("cannot letterbox an empty image")
    scale = min(target_h / h, target_w / w)
    new_h = min(target_h, max(1, round(h * scale)))
    new_w = min(target_w, max(1, round(w * scale)))

    src_rows = np.minimum((np.arange(new_h) + 0.5) / scale, h - 1).astype(int)
    src_cols = np.minimum((np.arange(new_w) + 0.5) / scale, w - 1).astype(int)
    resized = image[:, :, src_rows[:, None], src_cols[None, :]]

    pad_top = (target_h - new_h) // 2
    pad_left = (target_w - new_w) // 2
    out = np.full((n, c, target_h, target_w), 0.5, dtype=image.dtype)
    out[:, :, pad_top:pad_top + new_h, pad_left:pad_left + new_w] = resized
    return out, scale, (pad_left, pad_top)


def boxes_to_source(boxes: np.ndarray, scale: float, pads: tuple[int, int],
                    width: int, height: int) -> list[tuple]:
    """Corner rows (n, 4) of the letterboxed frame mapped back to the source
    image, the inverse of ``letterbox``'s (x * scale + pad_x, y * scale + pad_y),
    and clamped to [0, width] x [0, height]. Each row is a tuple of Python
    numbers: a corner past the right or bottom edge becomes the int width or
    height itself."""
    px, py = pads
    return [(min(max((x1 - px) / scale, 0.0), width), min(max((y1 - py) / scale, 0.0), height),
             min(max((x2 - px) / scale, 0.0), width), min(max((y2 - py) / scale, 0.0), height))
            for x1, y1, x2, y2 in boxes.tolist()]


# One row as json.dumps(rows, indent=2, sort_keys=True) lays it out.
_JSON_ROW = """  {
    "bbox": [
      %s,
      %s,
      %s,
      %s
    ],
    "class": %s,
    "score": %s
  }"""


def detections_to_json(dets: list[tuple]) -> str:
    """Serialize rows (x1, y1, x2, y2, class, score) as
    [{"bbox": [x1, y1, x2, y2], "class": k, "score": s}, ...], byte for byte
    as ``json.dumps(rows, indent=2, sort_keys=True)`` writes them. json's C
    encoder writes every value on one line, as it writes any number (a float
    subclass such as numpy's float64 prints as a float), and a fixed template
    lays each row out; an indented ``json.dumps`` would run the pure-Python
    encoder instead, several times slower."""
    if not dets:
        return "[]"
    values = json.dumps(list(itertools.chain.from_iterable(dets)))[1:-1].split(", ")
    return "[\n" + ",\n".join([_JSON_ROW] * len(dets)) % tuple(values) + "\n]"


@dataclass(frozen=True)
class BBox:
    """Finite corners (x1, y1), (x2, y2) with x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x1, self.y1, self.x2, self.y2))):
            raise ConfigError(f"non-finite corner: {self}")
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ConfigError(f"degenerate corner order: {self}")


@dataclass(frozen=True)
class Detection:
    """One row of a detections file: a box, a score in [0, 1] and a class id
    >= 0."""

    bbox: BBox
    score: float
    class_id: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ConfigError(f"score {self.score} outside [0, 1]")
        if self.class_id < 0:
            raise ConfigError("class id must be >= 0")


def detections_from_json(text: str) -> list[Detection]:
    """Parse the output of :func:`detections_to_json`. Text that is not a
    list of {"bbox": [x1, y1, x2, y2], "score": s, "class": k} rows, with
    finite, ordered corners, an integer class and a score in [0, 1] that is
    not a bool, raises ``ConfigError`` naming the first bad row."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"detections are not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise ConfigError(f"detections must be a JSON list of rows, got {type(rows).__name__}")
    dets = []
    for i, row in enumerate(rows):
        try:
            x1, y1, x2, y2 = row["bbox"]
            score, label = row["score"], row["class"]
            if isinstance(score, bool):
                raise TypeError(f"score must be a number, got {score!r}")
            if isinstance(label, bool) or not isinstance(label, int):
                raise TypeError(f"class must be an integer, got {label!r}")
            dets.append(Detection(BBox(float(x1), float(y1), float(x2), float(y2)),
                                  float(score), label))
        except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise ConfigError(f"detections row {i} {row!r}: {type(exc).__name__}: {exc}") from exc
    return dets

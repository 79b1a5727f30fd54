"""Axis-aligned box geometry and the IoU / CIoU / WIoU loss ladder.

All three losses share the plain intersection-over-union core:

* ``ciou_loss`` adds a normalized center-distance penalty and an
  aspect-ratio consistency penalty: 1 - IoU + rho^2 / c^2 + alpha v.
  The coupling factor alpha = v / ((1 - IoU) + v + eps) is differentiated
  through, so the analytic gradient matches finite differences of the loss.
* ``wiou_loss`` scales 1 - IoU by exp(rho^2 / D) where D is the squared
  diagonal of the smallest enclosing box. D is held fixed during backward
  (treated as a constant), so ``wiou_loss_grad`` is NOT the derivative of
  the forward value when the prediction touches the enclosing box. That
  asymmetry is deliberate and covered by a dedicated test.

Every denominator carries eps = 1e-9; the losses never return NaN for
finite inputs. Gradients are exact away from the measure-zero set where
box edges coincide (min/max switch points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import sigmoid
from .tensor import ConfigError, Tensor

EPS = 1e-9


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in image pixel coordinates, corners (x1, y1), (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ConfigError(f"degenerate corner order: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class LossBreakdown:
    """Composite detection loss parts; total is their weighted sum."""

    box_loss: float
    objectness_loss: float
    class_loss: float
    total: float
    variant: str


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area, in [0, 1]. Two boxes with zero
    union (both degenerate) give 0 by convention."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def corners(boxes: list[BBox]) -> np.ndarray:
    """(len(boxes), 4) float64 array of [x1, y1, x2, y2] rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def pairwise_iou(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU of every corner row of p (n, 4) against every row of g (m, 4), as
    an (n, m) array. Entry [i, j] equals iou() of the two boxes to the bit:
    the same float64 expression, evaluated elementwise."""
    px1, py1, px2, py2 = (p[:, k, None] for k in range(4))
    gx1, gy1, gx2, gy2 = g.T
    iw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
    ih = np.minimum(py2, gy2) - np.maximum(py1, gy1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    out = np.zeros_like(union)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def _iou_with_grad(p: np.ndarray, g: np.ndarray):
    """IoU of pred corners p = [x1, y1, x2, y2] against fixed gt corners g,
    plus d(iou)/dp. Subgradient 0 is used exactly at min/max ties."""
    ix1, iy1 = max(p[0], g[0]), max(p[1], g[1])
    ix2, iy2 = min(p[2], g[2]), min(p[3], g[3])
    iw, ih = ix2 - ix1, iy2 - iy1
    grad = np.zeros(4)
    area_p = (p[2] - p[0]) * (p[3] - p[1])
    area_g = (g[2] - g[0]) * (g[3] - g[1])
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
        d_inter = np.zeros(4)
    else:
        inter = iw * ih
        d_inter = np.array(
            [
                -ih if p[0] > g[0] else 0.0,
                -iw if p[1] > g[1] else 0.0,
                ih if p[2] < g[2] else 0.0,
                iw if p[3] < g[3] else 0.0,
            ]
        )
    union = area_p + area_g - inter
    if union <= EPS:
        return 0.0, grad
    d_area_p = np.array([-(p[3] - p[1]), -(p[2] - p[0]), p[3] - p[1], p[2] - p[0]])
    d_union = d_area_p - d_inter
    val = inter / union
    grad = (d_inter * union - inter * d_union) / (union * union)
    return val, grad


def _enclosing_with_grad(p: np.ndarray, g: np.ndarray):
    """Squared diagonal of the smallest box enclosing p and g, with d/dp."""
    ex1 = min(p[0], g[0])
    ey1 = min(p[1], g[1])
    ex2 = max(p[2], g[2])
    ey2 = max(p[3], g[3])
    cw, ch = ex2 - ex1, ey2 - ey1
    d2 = cw * cw + ch * ch
    grad = np.array(
        [
            -2.0 * cw if p[0] < g[0] else 0.0,
            -2.0 * ch if p[1] < g[1] else 0.0,
            2.0 * cw if p[2] > g[2] else 0.0,
            2.0 * ch if p[3] > g[3] else 0.0,
        ]
    )
    return d2, grad


def _center_dist_sq_with_grad(p: np.ndarray, g: np.ndarray):
    dx = (p[0] + p[2]) / 2.0 - (g[0] + g[2]) / 2.0
    dy = (p[1] + p[3]) / 2.0 - (g[1] + g[3]) / 2.0
    rho2 = dx * dx + dy * dy
    grad = np.array([dx, dy, dx, dy])
    return rho2, grad


def _require_boxes(pred: BBox, gt: BBox) -> tuple[np.ndarray, np.ndarray]:
    if gt.area <= 0.0:
        raise ConfigError("ground-truth box must be non-degenerate")
    return pred.as_array(), gt.as_array()


def ciou_loss(pred: BBox, gt: BBox) -> float:
    """Complete IoU loss: 1 - IoU + center penalty + aspect penalty."""
    return _ciou(pred.as_array(), _require_boxes(pred, gt)[1])[0]


def ciou_loss_grad(pred: BBox, gt: BBox) -> np.ndarray:
    """d(ciou_loss)/d(pred corners), exact chain rule including the coupling
    factor alpha."""
    p, g = _require_boxes(pred, gt)
    return _ciou(p, g)[1]


def _ciou(p: np.ndarray, g: np.ndarray):
    iou_val, d_iou = _iou_with_grad(p, g)
    rho2, d_rho2 = _center_dist_sq_with_grad(p, g)
    diag2, d_diag2 = _enclosing_with_grad(p, g)
    diag2e = diag2 + EPS

    w, h = p[2] - p[0], p[3] - p[1]
    wg, hg = g[2] - g[0], g[3] - g[1]
    # atan2 keeps the aspect term finite for zero-height predictions
    d_angle = math.atan2(wg, hg) - math.atan2(w, h)
    q = 4.0 / math.pi**2
    v = q * d_angle * d_angle
    denom_wh = w * w + h * h
    if denom_wh <= EPS:
        d_v = np.zeros(4)
    else:
        # gradient of the angle gap (atan2(wg, hg) - atan2(w, h)) w.r.t. the
        # pred corners, via d atan2(w, h) = (h dw - w dh) / (w^2 + h^2) and
        # dw/dx1 = -1, dw/dx2 = 1, dh/dy1 = -1, dh/dy2 = 1
        d_angle_grad = np.array([h, -w, -h, w]) / denom_wh
        d_v = 2.0 * q * d_angle * d_angle_grad

    den = (1.0 - iou_val) + v + EPS
    alpha_v = v * v / den
    loss = 1.0 - iou_val + rho2 / diag2e + alpha_v

    d_alpha_v = (2.0 * v * d_v * den - v * v * (-d_iou + d_v)) / (den * den)
    grad = -d_iou + (d_rho2 * diag2e - rho2 * d_diag2) / (diag2e * diag2e) + d_alpha_v
    return loss, grad


def wiou_loss(pred: BBox, gt: BBox) -> float:
    """Distance-weighted IoU loss: exp(rho^2 / D) * (1 - IoU), where D is the
    squared diagonal of the smallest enclosing box."""
    _require_boxes(pred, gt)
    return _box_loss_and_grad("wiou", pred, gt)[0]


def wiou_loss_grad(pred: BBox, gt: BBox) -> np.ndarray:
    """d(wiou_loss)/d(pred corners) with the enclosing-box normalizer D held
    fixed, i.e. the derivative of exp(rho^2 / D0) * (1 - IoU) at D0 = D(pred)."""
    _require_boxes(pred, gt)
    return _box_loss_and_grad("wiou", pred, gt)[1]


_VARIANTS = ("iou", "ciou", "wiou")


def _box_loss_and_grad(variant: str, pred: BBox, gt: BBox):
    """Box loss of the variant and its gradient w.r.t. the pred corners, from
    one evaluation of the IoU, centre-distance and enclosing-box terms."""
    p, g = pred.as_array(), gt.as_array()
    if variant == "ciou":
        return _ciou(p, g)
    iou_val, d_iou = _iou_with_grad(p, g)
    if variant == "iou":
        # the value comes from iou(): the gradient core reports 0 once the
        # union falls to EPS, iou() only at a zero union
        return 1.0 - iou(pred, gt), -d_iou
    rho2, d_rho2 = _center_dist_sq_with_grad(p, g)
    diag2, _ = _enclosing_with_grad(p, g)
    d0 = diag2 + EPS
    r = math.exp(rho2 / d0)
    return r * (1.0 - iou_val), r * (d_rho2 / d0) * (1.0 - iou_val) - r * d_iou


# ---------------------------------------------------------------------------
# grid cell transform and the composite detection loss
# ---------------------------------------------------------------------------

def cell_to_box(tx: float, ty: float, tw: float, th: float, row: int, col: int, stride: float) -> BBox:
    """Raw cell logits to a box: center ((col + sigmoid(tx)) s, (row + sigmoid(ty)) s),
    size (e^tw s, e^th s)."""
    # math.exp, not np.exp: the two can differ by an ulp, which would change the weights.
    sx = 1.0 / (1.0 + math.exp(-tx)) if tx >= 0 else math.exp(tx) / (1.0 + math.exp(tx))
    sy = 1.0 / (1.0 + math.exp(-ty)) if ty >= 0 else math.exp(ty) / (1.0 + math.exp(ty))
    cx = (col + sx) * stride
    cy = (row + sy) * stride
    w = math.exp(tw) * stride
    h = math.exp(th) * stride
    return BBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # stable form: max(z, 0) - z y + log(1 + exp(-|z|))
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def _check_detection_args(predictions: Tensor, targets, stride: float, variant: str):
    if variant not in _VARIANTS:
        raise ConfigError(f"unknown loss variant {variant!r}")
    if predictions.n != 1:
        raise ConfigError("detection loss expects a single-image prediction grid")
    if predictions.c < 6:
        raise ConfigError("prediction grid needs at least 5 + 1 channels")
    if stride <= 0:
        raise ConfigError("stride must be positive")
    num_classes = predictions.c - 5
    gh, gw = predictions.h, predictions.w
    img_w, img_h = gw * stride, gh * stride
    for bbox, cls in targets:
        if not 0 <= cls < num_classes:
            raise ConfigError(f"class id {cls} out of range [0, {num_classes})")
        if bbox.area <= 0.0:
            raise ConfigError("target box must have positive area")
        if bbox.x1 < 0 or bbox.y1 < 0 or bbox.x2 > img_w or bbox.y2 > img_h:
            raise ConfigError(f"target {bbox} lies outside the {img_w}x{img_h} image")
    return num_classes, gh, gw


def _assign_cells(targets, stride: float, gh: int, gw: int):
    """Each target is assigned to the single cell containing its center."""
    assigned = []
    for bbox, cls in targets:
        cx, cy = bbox.center
        col = min(int(cx / stride), gw - 1)
        row = min(int(cy / stride), gh - 1)
        assigned.append((row, col, bbox, cls))
    return assigned


def _detection_terms(predictions: Tensor, targets, variant: str, stride: float,
                     box_weight: float, obj_weight: float, cls_weight: float, with_grad: bool):
    """The composite loss of one image and, when with_grad, its gradient w.r.t.
    the raw prediction grid (None otherwise). Arguments are checked and
    targets assigned once; each target's box and box-loss terms are evaluated
    once and serve both the value and the gradient."""
    num_classes, gh, gw = _check_detection_args(predictions, targets, stride, variant)
    p = predictions.data[0]
    assigned = _assign_cells(targets, stride, gh, gw)
    n_t = len(assigned)
    grad = np.zeros_like(p) if with_grad else None

    obj_target = np.zeros((gh, gw))
    box_total = 0.0
    cls_total = 0.0
    for row, col, bbox, cls in assigned:
        obj_target[row, col] = 1.0
        pred_box = cell_to_box(p[0, row, col], p[1, row, col], p[2, row, col], p[3, row, col], row, col, stride)
        box_value, d_corners = _box_loss_and_grad(variant, pred_box, bbox)
        box_total += box_value
        onehot = np.zeros(num_classes)
        onehot[cls] = 1.0
        cls_total += _bce_with_logits(p[5:, row, col], onehot).mean()
        if not with_grad:
            continue
        d_corners = d_corners * (box_weight / n_t)
        # corners -> (center, size): dc = g_x1 + g_x2, dsize = (g_x2 - g_x1)/2
        dcx, dcy = d_corners[0] + d_corners[2], d_corners[1] + d_corners[3]
        dw, dh = (d_corners[2] - d_corners[0]) / 2.0, (d_corners[3] - d_corners[1]) / 2.0
        sx, sy = sigmoid(p[0:2, row, col]).astype(np.float64, copy=False)
        grad[0, row, col] += dcx * sx * (1.0 - sx) * stride
        grad[1, row, col] += dcy * sy * (1.0 - sy) * stride
        grad[2, row, col] += dw * pred_box.width
        grad[3, row, col] += dh * pred_box.height
        cls_prob = sigmoid(p[5:, row, col]).astype(np.float64, copy=False)
        grad[5:, row, col] += (cls_prob - onehot) * cls_weight / (n_t * num_classes)

    box_loss = box_total / n_t if n_t else 0.0
    cls_loss = cls_total / n_t if n_t else 0.0
    obj_loss = float(_bce_with_logits(p[4], obj_target).mean())
    total = box_weight * box_loss + obj_weight * obj_loss + cls_weight * cls_loss
    if not math.isfinite(total):
        raise FloatingPointError("detection loss is not finite")
    if with_grad:
        grad[4] += (sigmoid(p[4]).astype(np.float64, copy=False) - obj_target) * (obj_weight / (gh * gw))
    return LossBreakdown(box_loss, obj_loss, cls_loss, total, variant), grad


def detection_loss(
    predictions: Tensor,
    targets,
    variant: str = "wiou",
    stride: float = 8.0,
    box_weight: float = 5.0,
    obj_weight: float = 1.0,
    cls_weight: float = 1.0,
) -> LossBreakdown:
    """Composite loss over one prediction grid.

    predictions: (1, 5 + K, gh, gw), channel layout [tx, ty, tw, th,
    objectness, class logits...]. Each target trains the cell containing its
    center: the box term (selected variant, averaged over targets), a
    one-vs-all class BCE on assigned cells, and an objectness BCE over every
    cell (1 on assigned cells, 0 elsewhere).

    Value only: finite-difference checks call this thousands of times.
    """
    return _detection_terms(predictions, targets, variant, stride,
                            box_weight, obj_weight, cls_weight, with_grad=False)[0]


def detection_loss_and_grad(
    predictions: Tensor,
    targets,
    variant: str = "wiou",
    stride: float = 8.0,
    box_weight: float = 5.0,
    obj_weight: float = 1.0,
    cls_weight: float = 1.0,
) -> tuple[LossBreakdown, Tensor]:
    """detection_loss() and the gradient of its total w.r.t. the raw
    prediction grid, in one pass."""
    br, grad = _detection_terms(predictions, targets, variant, stride,
                                box_weight, obj_weight, cls_weight, with_grad=True)
    return br, Tensor(grad[None])


def detection_loss_grad(
    predictions: Tensor,
    targets,
    variant: str = "wiou",
    stride: float = 8.0,
    box_weight: float = 5.0,
    obj_weight: float = 1.0,
    cls_weight: float = 1.0,
) -> Tensor:
    """Gradient of detection_loss().total w.r.t. the raw prediction grid."""
    return detection_loss_and_grad(predictions, targets, variant, stride,
                                   box_weight, obj_weight, cls_weight)[1]
